"""Allocators with the Mallacc fast path (Figures 10 and 12).

:class:`MallaccFastPathMixin` contains the three fast-path overrides; mixing
it over any allocator built on :class:`repro.alloc.allocator.TCMalloc`'s
hook points yields its accelerated variant — the paper's central claim that
Mallacc "is designed not for a specific allocator implementation".  Two
instantiations ship here and in :mod:`repro.alloc.jemalloc`:

* ``MallaccTCMalloc``  — TCMalloc with the accelerated fast path;
* ``MallaccJemalloc``  — the jemalloc-style allocator, same instructions.

The overrides are exactly the three fast-path components:

* **size-class lookup** — ``mcszlookup`` first; on a miss the ordinary
  Figure 5 software path runs, followed by ``mcszupdate``;
* **sampling** — the byte countdown moves into the dedicated PMU counter;
* **free-list pops/pushes** — ``mchdpop``/``mchdpush`` with software
  fallback, plus ``mcnxtprefetch`` of the new head after every pop.

All thread-cache list traffic — including slow-path batch transfers — is
routed through the instructions (:class:`MallaccListOps`), which keeps the
cached Head/Next copies coherent with the real lists;
:meth:`repro.alloc.freelist.FreeList.pop_cached` raises if a cached value
ever diverges.
"""

from __future__ import annotations

from repro.alloc.allocator import Path, TCMalloc
from repro.alloc.constants import AllocatorConfig
from repro.alloc.context import Emitter, Machine
from repro.alloc.freelist import FreeList, PopResult
from repro.alloc.size_classes import LookupResult
from repro.core.instructions import MallaccISA
from repro.core.malloc_cache import MallocCache, MallocCacheConfig
from repro.core.sampling import SamplingCounter
from repro.sim.memory import NULL
from repro.sim.uop import Tag


class MallaccListOps:
    """Free-list strategy routing every push/pop through the malloc cache."""

    def __init__(self, isa: MallaccISA, owner: "MallaccFastPathMixin") -> None:
        self.isa = isa
        self.owner = owner

    def pop(self, em: Emitter, flist: FreeList, cl: int, addr_dep: tuple[int, ...]) -> PopResult:
        outcome = self.isa.mchdpop(em, cl, deps=addr_dep)
        if outcome.hit:
            next_ptr = outcome.next_ptr
            result_uop = outcome.uop
            head_only = next_ptr == NULL and flist.length > 1
            # No branch uop marks the head-only fallback load; token it so
            # the intern template distinguishes the two shapes.
            em.note(("mchd_head_only", head_only))
            if head_only:
                # Head-only ablation: software still loads the successor.
                next_ptr, result_uop = em.load_word(
                    outcome.head, deps=(outcome.uop,), tag=Tag.PUSH_POP
                )
            flist.pop_cached(em, outcome.head, next_ptr, deps=(result_uop,))
            popped = PopResult(ptr=outcome.head, next_ptr=next_ptr, uop=outcome.uop)
        else:
            popped = flist.emit_pop(em, addr_dep=(outcome.uop,) + addr_dep)
        # Figure 12, malloc_ret: prefetch the new head into the cache.
        # Its presence depends on list state, not on a branch — token it.
        new_head = flist.head
        em.note(("nxtprefetch", new_head != NULL))
        if new_head != NULL:
            self.isa.mcnxtprefetch(em, cl, new_head, deps=(popped.uop,))
        return popped

    def push(self, em: Emitter, flist: FreeList, cl: int, ptr: int, addr_dep: tuple[int, ...]) -> int:
        hit, old_head, uop = self.isa.mchdpush(em, cl, ptr, deps=addr_dep)
        # mchdpush emits no hit branch; the hit/miss shapes differ (cached
        # push drops the head load), so the decision must be a token.
        em.note(("mchdpush_hit", hit))
        if hit:
            flist.push_cached(em, ptr, old_head, deps=(uop,))
        else:
            flist.emit_push(em, ptr, addr_dep=(uop,) + addr_dep)
        return uop


class MallaccFastPathMixin:
    """The accelerated fast path, mixable over any TCMalloc-family allocator.

    Subclasses must call :meth:`_attach_mallacc` once their pools exist.
    """

    isa: MallaccISA
    pmu: SamplingCounter

    def _attach_mallacc(self, cache_config: MallocCacheConfig | None = None) -> None:
        self.isa = MallaccISA(cache=MallocCache(cache_config or MallocCacheConfig()))
        self.pmu = SamplingCounter(config=self.config)
        self.thread_cache.list_ops = MallaccListOps(self.isa, self)

    @property
    def malloc_cache(self) -> MallocCache:
        return self.isa.cache

    # -- overridden fast-path components -------------------------------------
    def _emit_prologue(self, em: Emitter) -> None:
        self.isa.begin_call()
        super()._emit_prologue(em)

    def _emit_sampling_check(self, em: Emitter, size: int) -> bool:
        """Sampling rides the PMU: no fast-path micro-ops at all."""
        return self.pmu.count(size)

    def _record_sample(self, em: Emitter, size: int) -> None:
        self.pmu.service_interrupt(em, size, self.machine.clock)

    def _emit_size_class_lookup(self, em: Emitter, size: int) -> LookupResult:
        outcome = self.isa.mcszlookup(em, size)
        if outcome.hit:
            return LookupResult(
                size_class=outcome.size_class,
                alloc_size=outcome.alloc_size,
                cls_uop=outcome.uop,
                size_uop=outcome.uop,
            )
        # Fallback: the ordinary software computation, then teach the cache.
        lookup = super()._emit_size_class_lookup(em, size)
        self.isa.mcszupdate(
            em, size, lookup.alloc_size, lookup.size_class, deps=(lookup.size_uop,)
        )
        return lookup

    def _post_schedule(self, trace, result) -> None:
        """Prefetch fills were applied at emission time; nothing to resolve.
        The pending list is kept for introspection/tests and cleared here."""
        self.isa.pending = []

    # -- functional fast-forward ----------------------------------------------
    def fast_forward_malloc(self, size: int) -> tuple[int, int, str] | None:
        """Flat skip-mode malloc for the accelerated fast path: the same
        :class:`~repro.core.malloc_cache.MallocCache` transitions
        (szlookup/szupdate, hdpop, nxtprefetch) and predictor sites the
        generic functional replay performs, fused into one frame.  Falls
        back (``None``) on large requests, PMU sampling triggers, and empty
        lists, with no state touched before the first mutation point."""
        if size <= 0 or size > self.config.max_size:
            return None
        pmu = self.pmu
        sampling = self.config.sampling_enabled
        if sampling and pmu.accumulated + size >= pmu.threshold:
            return None
        cl = self.table.size_class_of(size)
        flist = self.thread_cache.lists[cl]
        if flist.length == 0:
            return None
        machine = self.machine
        mem = machine.memory
        predict = machine.predictor.predict
        cache = self.isa.cache
        if sampling:
            pmu.accumulated += size
        predict("malloc_is_small", True)
        # mcszlookup; a miss runs the software lookup and teaches the cache.
        entry = cache.szlookup(size)
        predict("mcsz_hit", entry is None)
        if entry is None:
            cache.szupdate(size, self.table.class_to_size[cl], cl)
        predict("tc_list_empty", False)
        # mchdpop -> pop_cached on a hit, the software Figure 7 pop on a miss.
        header = flist.header_addr
        pentry, head, next_ptr, _stall = cache.hdpop(cl, machine.clock)
        predict("mchd_hit", pentry is None)
        if pentry is not None:
            if next_ptr == NULL and flist.length > 1:
                # Head-only ablation: software still loads the successor.
                next_ptr = mem.read_word(head)
            real_head = mem.read_word(header)
            if real_head != head:
                raise AssertionError(
                    f"malloc cache head {head:#x} diverged from list head {real_head:#x}"
                )
            if mem.read_word(head) != next_ptr:
                raise AssertionError("malloc cache next diverged from list")
            mem.write_word(header, next_ptr)
        else:
            head = mem.read_word(header)
            next_ptr = mem.read_word(head)
            mem.write_word(header, next_ptr)
        flist._contents.discard(head)
        length = flist.length - 1
        flist.length = length
        if length < flist.low_water:
            flist.low_water = length
        # mcnxtprefetch of the new head.  Functional ready-time matches
        # FunctionalEmitter.prefetch_line: clock + nominal L1 latency.
        if next_ptr != NULL:
            cache.nxtprefetch(
                cl,
                next_ptr,
                mem.read_word(next_ptr),
                machine.clock + machine.hierarchy.config.l1.latency,
            )
        mem.write_word(header + 8, length)
        tc = self.thread_cache
        mem.write_word(tc.lists[0].header_addr + 16, max(tc.size_bytes, 0))
        tc.size_bytes -= self.table.class_to_size[cl]
        live = self.live
        if head in live:
            raise AssertionError(f"allocator returned live pointer {head:#x}")
        live[head] = (size, cl)
        return head, cl, Path.FAST.value

    def fast_forward_free(
        self, ptr: int, sized_hint: int | None = None
    ) -> tuple[int, str] | None:
        """Flat skip-mode free routing the push through mchdpush — and, for
        sized frees, the class lookup through mcszlookup — matching the
        generic functional replay's malloc-cache transitions."""
        entry = self.live.get(ptr)
        if entry is None:
            raise ValueError(f"free of unallocated pointer {ptr:#x}")
        cl = entry[1]
        if cl == 0:
            return None
        tc = self.thread_cache
        flist = tc.lists[cl]
        if flist.length >= flist.max_length:
            return None
        alloc_size = self.table.class_to_size[cl]
        if tc.size_bytes + alloc_size >= self.config.max_thread_cache_size:
            return None
        del self.live[ptr]
        machine = self.machine
        mem = machine.memory
        predict = machine.predictor.predict
        if sized_hint is not None:
            # Sized deallocation runs the Figure 5 lookup through the cache
            # (non-sized frees use the pagemap — no cache traffic).
            cache = self.isa.cache
            sentry = cache.szlookup(sized_hint)
            predict("mcsz_hit", sentry is None)
            if sentry is None:
                cache.szupdate(sized_hint, alloc_size, cl)
            elif sentry.size_class != cl:
                raise AssertionError("sized free hint maps to wrong class")
        contents = flist._contents
        if ptr in contents:
            raise ValueError(f"double free of {ptr:#x}")
        header = flist.header_addr
        hit, old_head, _stall = self.isa.cache.hdpush(cl, ptr, machine.clock)
        if hit:
            real_head = mem.read_word(header)
            if real_head != old_head:
                raise AssertionError(
                    f"malloc cache head {old_head:#x} diverged from list head {real_head:#x}"
                )
        else:
            old_head = mem.read_word(header)
        mem.write_word(header, ptr)
        mem.write_word(ptr, old_head)
        contents.add(ptr)
        length = flist.length + 1
        flist.length = length
        mem.write_word(header + 8, length)
        tc.size_bytes += alloc_size
        machine.predictor.predict("tc_list_too_long", False)
        return cl, Path.FREE_FAST.value

    def _sampling_counter_addr(self) -> int | None:
        """The countdown lives in the PMU register — no memory line to keep
        warm (Section 4.3)."""
        return None

    # -- events ----------------------------------------------------------------
    def context_switch(self) -> None:
        """Flush the malloc cache: safe at any time because it holds copies
        only (Section 4.1)."""
        self.isa.cache.flush()


class MallaccTCMalloc(MallaccFastPathMixin, TCMalloc):
    """TCMalloc running on a Mallacc-equipped core (``shared``: a thread
    view over a :class:`~repro.alloc.multithread.MultiThreadAllocator`)."""

    def __init__(
        self,
        machine: Machine | None = None,
        config: AllocatorConfig | None = None,
        cache_config: MallocCacheConfig | None = None,
        ablations=None,
        intern_traces: bool | None = None,
        shared=None,
    ) -> None:
        super().__init__(
            machine=machine,
            config=config,
            ablations=ablations,
            shared=shared,
            intern_traces=intern_traces,
        )
        self._attach_mallacc(cache_config)


# Columnar-engine fused twins for the exact MallaccTCMalloc type (subclasses
# overriding emission hooks must register their own — see repro.alloc.fastpath).
from repro.alloc.fastpath import MallaccFastPath, register_fastpath  # noqa: E402
from repro.alloc.slowpath import MallaccSlowPath, register_slowpath  # noqa: E402

register_fastpath(MallaccTCMalloc, MallaccFastPath)
register_slowpath(MallaccTCMalloc, MallaccSlowPath)
