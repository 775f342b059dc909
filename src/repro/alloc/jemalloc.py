"""A jemalloc-style allocator: the second client of Mallacc.

The paper stresses that Mallacc "is designed not for a specific allocator
implementation, but for use by a number of high-performance memory
allocators" (Section 4) and notes that "jemalloc's thread caches were
inspired by TCMalloc, and their size class organization is quite similar"
(Section 3.1).  This module implements a jemalloc-flavoured allocator on the
same substrate so that claim can be tested:

* **size classes**: jemalloc's schedule — size groups of four classes per
  power-of-two doubling (spacing = 2^(lg(group)-2)), rather than TCMalloc's
  span-waste-driven table;
* **tcache**: per-thread bins with ``ncached``/``ncached_max`` and jemalloc's
  *fill/flush* discipline — a miss fills ``ncached_max/4`` objects at once, an
  overflow flushes ``3/4`` of the bin (versus TCMalloc's slow-start and
  batch release);
* **arena/runs**: bins draw from runs (jemalloc's span analog) carved out of
  the same page heap substrate.

The fast path is structurally identical to TCMalloc's — size-class
computation, sampling countdown, free-list pop — which is exactly why the
malloc cache transfers: :class:`MallaccJemalloc` reuses the five
instructions unchanged.
"""

from __future__ import annotations

from repro.alloc.allocator import TCMalloc
from repro.alloc.constants import (
    K_MAX_SIZE,
    AllocatorConfig,
)
from repro.alloc.context import Emitter, Machine
from repro.alloc.size_classes import LookupResult, SizeClassTable
from repro.sim.uop import Tag


def jemalloc_size_classes() -> tuple[list[int], list[int], list[int]]:
    """Generate jemalloc's size-class schedule.

    Tiny/small classes: 8, 16, then four classes per doubling group —
    (20,24,28,32... no: jemalloc x64): 8, 16, 32, 48, 64, 80, 96, 112, 128,
    160, 192, 224, 256, 320, ... each group of four spaced at
    ``group/4``.  We generate up to the same 256 KB small threshold.
    Returns (class_to_size, class_to_pages, class_to_move) with class 0
    reserved, shaped like the TCMalloc table so the machinery is shared.
    """
    sizes = [8, 16]
    group = 16
    while sizes[-1] < K_MAX_SIZE:
        spacing = max(8, group // 4)
        for i in range(1, 5):
            size = group + i * spacing
            if size > K_MAX_SIZE:
                break
            if size > sizes[-1]:
                sizes.append(size)
        group *= 2
    sizes = [s for s in sizes if s <= K_MAX_SIZE]

    class_to_size = [0] + sizes
    class_to_pages = [0]
    class_to_move = [0]
    for size in sizes:
        # Runs sized like TCMalloc spans: waste below 1/8 of the run.
        psize = 8192
        while (psize % size) > (psize >> 3):
            psize += 8192
        class_to_pages.append(psize // 8192)
        # jemalloc tcache: ncached_max = min(2^lg_fill_div.., 200 small);
        # model the fill batch like TCMalloc's move quantum for parity.
        class_to_move.append(max(2, min(200 * 8 // max(size // 8, 1), 32)))
    return class_to_size, class_to_pages, class_to_move


class JemallocSizeClassTable(SizeClassTable):
    """The shared table type, populated with jemalloc's schedule."""

    @classmethod
    def generate(cls, address_space=None) -> "JemallocSizeClassTable":
        class_to_size, class_to_pages, class_to_move = jemalloc_size_classes()
        # Build a size->class direct map at 8-byte granularity (jemalloc
        # uses a size2index computation plus a small table; two dependent
        # lookups, just like Figure 5).
        max_idx = (K_MAX_SIZE >> 3) + 1
        class_array = [0] * max_idx
        next_size = 8
        for c in range(1, len(class_to_size)):
            upper = class_to_size[c]
            for s in range(next_size, upper + 1, 8):
                class_array[(s + 7) >> 3] = c
            next_size = upper + 8
        class_array[0] = 1  # size 0..8 -> first class
        table = cls(
            class_to_size=class_to_size,
            class_to_pages=class_to_pages,
            class_to_move=class_to_move,
            class_array=class_array,
        )
        if address_space is not None:
            table.class_array_addr = address_space.reserve_metadata(max_idx)
            table.class_to_size_addr = address_space.reserve_metadata(
                8 * len(class_to_size)
            )
        return table

    def size_class_of(self, size: int) -> int:
        return self.class_array[(size + 7) >> 3]

    def emit_lookup(self, em: Emitter, size: int) -> LookupResult:
        """jemalloc's size2index: one shift-based index computation plus two
        dependent table loads — the same shape Mallacc accelerates."""
        idx = (size + 7) >> 3
        shift = em.alu(tag=Tag.SIZE_CLASS)
        array_word = self.class_array_addr + (idx // 8) * 8
        cls_load = em.load_table(array_word, deps=(shift,), tag=Tag.SIZE_CLASS)
        cl = self.class_array[idx]
        size_word = self.class_to_size_addr + cl * 8
        size_load = em.load_table(size_word, deps=(cls_load,), tag=Tag.SIZE_CLASS)
        return LookupResult(
            size_class=cl,
            alloc_size=self.class_to_size[cl],
            cls_uop=cls_load,
            size_uop=size_load,
        )


class Jemalloc(TCMalloc):
    """The jemalloc-flavoured allocator.

    Shares the pool machinery (the structures are isomorphic: tcache bins ~
    thread-cache lists, runs ~ spans, arena bins ~ central lists) but swaps
    in jemalloc's size-class schedule and its fill/flush tcache discipline.
    """

    #: jemalloc flushes 3/4 of an overflowing bin (tcache_bin_flush_small).
    FLUSH_FRACTION = 0.75

    def __init__(
        self,
        machine: Machine | None = None,
        config: AllocatorConfig | None = None,
        ablations=None,
        intern_traces: bool | None = None,
    ) -> None:
        super().__init__(
            machine=machine,
            config=config,
            ablations=ablations,
            intern_traces=intern_traces,
        )
        # Swap the size-class table for jemalloc's, regenerating the pools
        # that depend on class count.
        self._install_table(JemallocSizeClassTable.generate(self.machine.address_space))
        self._patch_tcache_discipline()

    def _install_table(self, table: SizeClassTable) -> None:
        from repro.alloc.central_cache import CentralFreeList
        from repro.alloc.thread_cache import ThreadCache

        self.table = table
        self.central_lists = [
            CentralFreeList(cl, table, self.page_heap, self.config)
            for cl in range(table.num_classes)
        ]
        self.thread_cache = ThreadCache(
            self.machine, table, self.central_lists, self.config
        )

    def _patch_tcache_discipline(self) -> None:
        """jemalloc's fill/flush: fill a quarter of the bin cap on a miss,
        flush three quarters on overflow — no slow start."""
        tc = self.thread_cache
        for cl in range(1, self.table.num_classes):
            # ncached_max ≈ 2 * batch, filled in quarters.
            tc.lists[cl].max_length = 2 * self.table.batch_size_of(cl)

        original_fetch = tc._fetch_from_central
        original_too_long = tc._list_too_long

        def fetch(em, cl, deps):
            flist = tc.lists[cl]
            fill = max(1, flist.max_length // 4)
            taken = tc.central_lists[cl].remove_range(em, fill, deps, owner=tc)
            tc.stats.fetches += 1
            tc.stats.objects_fetched += len(taken)
            dep = deps
            for ptr in taken:
                uop = tc.list_ops.push(em, flist, cl, ptr, dep)
                dep = (uop,)
            tc.size_bytes += len(taken) * tc.table.alloc_size_of(cl)

        def too_long(em, cl, deps):
            flist = tc.lists[cl]
            drop = int(flist.length * Jemalloc.FLUSH_FRACTION)
            if drop:
                tc._release_to_central(em, cl, drop, deps)

        tc._fetch_from_central = fetch
        tc._list_too_long = too_long
        del original_fetch, original_too_long


class MallaccJemalloc:
    """jemalloc with the Mallacc fast path: the generality demonstration.

    Defined lazily (the mixin lives in :mod:`repro.core`, which imports this
    package) — use :func:`make_mallacc_jemalloc`.
    """


def make_mallacc_jemalloc(
    machine: Machine | None = None,
    config: AllocatorConfig | None = None,
    cache_config=None,
    ablations=None,
    intern_traces: bool | None = None,
):
    """Build a jemalloc accelerated by the *unchanged* Mallacc fast path.

    This is the paper's generality claim made executable: the same five
    instructions and malloc cache, mixed over a different allocator.
    """
    from repro.core.accel_allocator import MallaccFastPathMixin

    global MallaccJemalloc

    class MallaccJemalloc(MallaccFastPathMixin, Jemalloc):  # noqa: F811
        def __init__(self) -> None:
            super().__init__(
                machine=machine,
                config=config,
                ablations=ablations,
                intern_traces=intern_traces,
            )
            self._attach_mallacc(cache_config)

    return MallaccJemalloc()
