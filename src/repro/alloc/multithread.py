"""Multithreaded allocation: the reason modern allocators look this way.

Section 2: "the rise of multi-core processors and multithreaded applications
... motivated allocator designs that were fast and efficient in the face of
problems like lock contention, false cache sharing, and memory blowup with
large numbers of threads ... [modern allocators] ensure that memory can
migrate from thread to thread to avoid memory blowup in scenarios where one
thread allocates memory and another thread frees memory."

:class:`MultiThreadAllocator` runs N logical threads over shared lower pools
(one page heap, one set of central free lists) with a private thread cache
each, interleaved on one machine clock:

* **lock contention** — overlapping critical sections on a central list
  serialize (``CentralFreeList._emit_lock``);
* **cross-thread frees** — an object allocated by thread A and freed by
  thread B lands in *B's* cache, TCMalloc semantics;
* **memory migration** — B's overflowing lists release to the shared
  central lists, where A's fetches find the objects again, bounding the
  producer→consumer footprint;
* **context switches** — threads run on their own cores; the OS preempts on
  a timer quantum, and each preemption flushes the core's malloc cache
  (Section 4.1: the cache holds copies only, so a flush is always safe).

When ``accelerated=True`` each core gets its own malloc cache (Mallacc is
in-core state): every thread view is a plain
:class:`~repro.core.accel_allocator.MallaccTCMalloc` over the shared pools,
so it runs the same fused fast-path and refill twins as a single-threaded
Mallacc allocator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alloc.allocator import CallRecord, SharedPools, TCMalloc
from repro.alloc.constants import AllocatorConfig
from repro.alloc.context import Machine
from repro.alloc.page_heap import PageHeap
from repro.alloc.size_classes import SizeClassTable
from repro.core.accel_allocator import MallaccTCMalloc
from repro.core.malloc_cache import MallocCacheConfig


@dataclass
class ThreadStats:
    """Measured per-thread call counts; warmup traffic is kept separate so
    ``cycles`` stays a sum over *measured* calls only (parity with
    :class:`~repro.harness.runner.RunResult`)."""

    mallocs: int = 0
    frees: int = 0
    cycles: int = 0
    warmup_mallocs: int = 0
    warmup_frees: int = 0
    warmup_cycles: int = 0

    @property
    def warmup_calls(self) -> int:
        return self.warmup_mallocs + self.warmup_frees


class MultiThreadAllocator:
    """N logical threads multiplexed over shared pools on one machine."""

    def __init__(
        self,
        num_threads: int,
        machine: Machine | None = None,
        config: AllocatorConfig | None = None,
        accelerated: bool = False,
        cache_config: MallocCacheConfig | None = None,
        context_switch_flushes: bool = True,
        switch_quantum_cycles: int = 1_000_000,
        coherent: bool = False,
        intern_traces: bool | None = None,
    ) -> None:
        if num_threads < 1:
            raise ValueError("need at least one thread")
        self.coherent = coherent
        if coherent:
            from repro.sim.multicore import build_core_machines

            self.core_machines, self.substrate = build_core_machines(num_threads)
            self.machine = self.core_machines[0]
        else:
            self.machine = machine or Machine()
            self.core_machines = [self.machine] * num_threads
            self.substrate = None
        self.config = config or AllocatorConfig()
        self.accelerated = accelerated
        self.context_switch_flushes = context_switch_flushes
        self.switch_quantum_cycles = switch_quantum_cycles
        self._next_preemption = switch_quantum_cycles

        table = SizeClassTable.generate(self.machine.address_space)
        page_heap = PageHeap(self.machine.address_space, self.config)
        from repro.alloc.central_cache import CentralFreeList

        central = [
            CentralFreeList(cl, table, page_heap, self.config)
            for cl in range(table.num_classes)
        ]
        self.shared = SharedPools(table=table, page_heap=page_heap, central_lists=central)

        self.threads: list[TCMalloc] = []
        for core in self.core_machines:
            # Each view applies the intern override to its core
            # (idempotently where flat-mode views alias one machine).
            kwargs = dict(
                machine=core, config=self.config, shared=self.shared,
                intern_traces=intern_traces,
            )
            if accelerated:
                view = MallaccTCMalloc(cache_config=cache_config, **kwargs)
            else:
                view = TCMalloc(**kwargs)
            view.keep_records = False
            self.threads.append(view)

        self.owner: dict[int, int] = {}
        """ptr -> allocating thread.  Frees may come from any thread;
        :meth:`_free` looks the owner up here to move the live entry onto
        the freeing thread's view, and rejects pointers it does not know."""
        self.stats = [ThreadStats() for _ in range(num_threads)]
        self.running_tid = 0
        self.context_switches = 0

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, tid: int) -> None:
        """Timer-quantum preemption: threads occupy their own cores, and a
        preemption (context switch on every core) fires each time the global
        clock crosses a quantum boundary, flushing the per-core malloc
        caches.

        Boundaries stay pinned to whole multiples of the quantum — the next
        deadline advances by however many quanta the clock crossed, never by
        ``clock + quantum`` (which would let the timer drift by each call's
        latency).  A long application gap that crosses several boundaries
        counts one context switch per boundary; the cache flush itself is
        idempotent, so it runs once."""
        self.running_tid = tid
        if self.machine.clock < self._next_preemption:
            return
        quantum = self.switch_quantum_cycles
        crossed = (self.machine.clock - self._next_preemption) // quantum + 1
        self._next_preemption += crossed * quantum
        self.context_switches += crossed
        if self.context_switch_flushes and self.accelerated:
            for view in self.threads:
                view.context_switch()

    # -- allocation interface ------------------------------------------------
    def _sync_clocks(self) -> None:
        """Cores share one timeline: contention windows and preemptions are
        judged against the furthest-ahead core."""
        if not self.coherent:
            return
        now = max(m.clock for m in self.core_machines)
        for m in self.core_machines:
            m.clock = now

    def malloc(self, tid: int, size: int, warmup: bool = False) -> tuple[int, CallRecord]:
        self._check_tid(tid)
        self._schedule(tid)
        ptr, record = self.threads[tid].malloc(size)
        self._sync_clocks()
        self.owner[ptr] = tid
        stats = self.stats[tid]
        if warmup:
            stats.warmup_mallocs += 1
            stats.warmup_cycles += record.cycles
        else:
            stats.mallocs += 1
            stats.cycles += record.cycles
        return ptr, record

    def free(self, tid: int, ptr: int, warmup: bool = False) -> CallRecord:
        """Free from any thread: the object joins ``tid``'s cache (TCMalloc's
        cross-thread semantics)."""
        return self._free(tid, ptr, sized=None, warmup=warmup)

    def sized_free(self, tid: int, ptr: int, size: int, warmup: bool = False) -> CallRecord:
        return self._free(tid, ptr, sized=size, warmup=warmup)

    def _free(self, tid: int, ptr: int, sized: int | None, warmup: bool = False) -> CallRecord:
        self._check_tid(tid)
        self._schedule(tid)
        owner_tid = self.owner.pop(ptr, None)
        if owner_tid is None:
            raise ValueError(f"free of unallocated pointer {ptr:#x}")
        freer = self.threads[tid]
        # The live entry sits on the allocating view; migrate it so the
        # freeing thread's facade accepts and accounts the pointer.
        entry = self.threads[owner_tid].live.pop(ptr)
        freer.live[ptr] = entry
        record = freer.sized_free(ptr, sized) if sized is not None else freer.free(ptr)
        self._sync_clocks()
        stats = self.stats[tid]
        if warmup:
            stats.warmup_frees += 1
            stats.warmup_cycles += record.cycles
        else:
            stats.frees += 1
            stats.cycles += record.cycles
        return record

    def antagonize(self) -> int:
        """Run the antagonist's eviction callback machine-wide: evict the
        less-used half of *every* core's private L1/L2 exactly once, plus the
        shared L3 once in coherent mode (the cores alias one hierarchy in
        flat mode, where its L3 is private and stays untouched for parity
        with the single-threaded runner).  Returns lines evicted."""
        evicted = 0
        for machine in {id(m): m for m in self.core_machines}.values():
            evicted += machine.hierarchy.antagonize()
        if self.substrate is not None:
            evicted += self.substrate.l3.evict_less_used_half()
        return evicted

    def _check_tid(self, tid: int) -> None:
        if not 0 <= tid < len(self.threads):
            raise ValueError(f"bad thread id {tid}")

    # -- accounting ----------------------------------------------------------
    @property
    def live_bytes(self) -> int:
        return sum(view.live_bytes for view in self.threads)

    def cached_bytes(self) -> int:
        """Bytes parked in all thread caches (the blowup metric)."""
        return sum(max(0, view.thread_cache.size_bytes) for view in self.threads)

    def reserved_bytes(self) -> int:
        return self.shared.page_heap.stats.bytes_from_system - (
            self.shared.page_heap.stats.bytes_released
        )

    def contention_cycles(self) -> int:
        return sum(c.stats.contention_cycles for c in self.shared.central_lists)

    def coherence_stats(self):
        """Directory statistics (coherent mode only)."""
        if self.substrate is None:
            return None
        return self.substrate.directory.stats

    def check_conservation(self) -> None:
        for view in self.threads:
            view.check_conservation()
        self.shared.page_heap.check_invariants()
