"""Fused priced twins of the interned allocator fast paths (columnar engine).

Under the reference engine every allocator call walks the emission stack:
``TCMalloc.malloc`` calls into the sampler, the size-class table, the thread
cache and the free list, each of which drives an :class:`~repro.alloc.context
.Emitter` one micro-op at a time.  Profiling the columnar engine shows that
~90% of replay wall time is this ceremony — context-manager wrappers, token
appends, per-uop ``TraceBuilder`` method calls — while the *outputs* of a
fast-path call are tiny: a token tuple, a latency tuple, and a handful of
state transitions.

This module fuses each fast-path shape into straight-line code (a *priced
twin* of the emitting path): the exact same primitive sequence — simulated
memory reads/writes, cache-hierarchy demand accesses, TLB walks, branch
predictions, malloc-cache operations — executes in emitter order, assembling
the token and latency tuples and one address per memory uop, and the result
is interned via ``interner.intern(site, tokens, latencies, materialize)``.
``materialize`` runs only when the interner misses: it takes the structure
:func:`repro.alloc.twins.compile_struct` compiled from the tokens (the one
statement of uop structure the fast and refill twins share), so the steady
state builds neither structures nor uops.  Cycle counts, runner statistics,
cache/TLB/predictor state and intern/trace-cache counters are byte-identical
to the reference path; the differential grid in
``tests/integration/test_hot_path_differential.py`` and the structure
parity test in ``tests/alloc/test_twins.py`` hold both engines to that.

Twins activate only when the columnar engine is selected at allocator
construction time; they handle exactly the fast-path shapes
(``malloc:fast`` / ``free:fast``) and return ``None`` to fall back to the
ordinary emitting path on *any* slow-path condition.  Every fallback check
is a pure read performed before the first mutation, so the reference
implementation then runs from untouched state — including error paths,
which raise at the same point with the same message.

Value-discarding loads (the sampling countdown read, the metadata length
read) skip the pure ``memory.read_word`` call but still pay the hierarchy
and TLB access, matching what the priced trace observes.

Jemalloc's twin is TCMalloc's with jemalloc's size2index (an index function
and a one-ALU lookup).  Twins are registered by exact allocator type in
:func:`repro.alloc.twins.registry`.
"""

from __future__ import annotations

from repro.alloc.allocator import Path
from repro.alloc.jemalloc import size2index
from repro.alloc.size_classes import class_index
from repro.alloc.twins import finish, pagemap_words, sz_commit, sz_scan
from repro.sim.memory import NULL

_TOK_MALLOC_SAMPLING = (
    ("sample_threshold", False),
    ("sampled", False),
    ("malloc_is_small", True),
    ("tc_list_empty", False),
)
_TOK_MALLOC_PLAIN = _TOK_MALLOC_SAMPLING[1:]
_PATH_FAST = Path.FAST
_PATH_FREE_FAST = Path.FREE_FAST


# --------------------------------------------------------------------------
# The twins.


class TCMallocFastPath:
    """Fused twin of the software fast paths (baseline TCMalloc)."""

    __slots__ = ("alloc",)
    #: size2index: the class-array index of a request size, and the number
    #: of ALU uops computing it (the compiler flavour of every template).
    _index = staticmethod(class_index)
    LOOKUP_ALUS = 2

    def __init__(self, alloc) -> None:
        self.alloc = alloc

    # -- shared guards ------------------------------------------------------
    def _machine(self):
        m = self.alloc.machine
        if m.warming is not None:
            return None
        return m

    # -- malloc -------------------------------------------------------------
    def malloc(self, size: int):
        a = self.alloc
        m = self._machine()
        if m is None:
            return None
        config = a.config
        if size <= 0 or size > config.max_size:
            return None
        sampling = config.sampling_enabled
        sampler = a.sampler
        if sampling and sampler.bytes_until_sample - size <= 0:
            return None
        table = a.table
        idx = self._index(size)
        cl = table.class_array[idx]
        tc = a.thread_cache
        flist = tc.lists[cl]
        if flist.length == 0:
            return None

        # All slow-path conditions cleared: commit.  From here the primitive
        # sequence mirrors the emitting path exactly.
        prof = m.profiler
        clock0 = m.clock
        hierarchy = m.hierarchy
        h_read = hierarchy.demand_access
        h_write = h_read if hierarchy._fast_demand else hierarchy._access_write
        tlb = m.tlb.access
        memory = m.memory
        mem_read = memory.read_word
        mem_write = memory.write_word
        predict = m.predictor.predict

        if sampling:
            counter = sampler.counter_addr
            lat_counter = h_read(counter) + tlb(counter)
            remaining = sampler.bytes_until_sample - size
            sampler.bytes_until_sample = remaining
            p_sample = predict("sample_threshold", False)
            mem_write(counter, remaining if remaining > 0 else 0)
            h_write(counter)
            tlb(counter)
            sample_lats = (lat_counter, 1, 1 + p_sample, 1)
            sample_addrs = (counter, counter)
            tokens = _TOK_MALLOC_SAMPLING
        else:
            sample_lats = sample_addrs = ()
            tokens = _TOK_MALLOC_PLAIN
        p_small = predict("malloc_is_small", True)

        array_word = table.class_array_addr + ((idx >> 3) << 3)
        lat_array = h_read(array_word) + tlb(array_word)
        size_word = table.class_to_size_addr + (cl << 3)
        lat_size = h_read(size_word) + tlb(size_word)

        p_empty = predict("tc_list_empty", False)
        header = flist.header_addr
        lat_header = h_read(header) + tlb(header)
        head = mem_read(header)
        lat_head = h_read(head) + tlb(head)
        next_ptr = mem_read(head)
        mem_write(header, next_ptr)
        h_write(header)
        tlb(header)
        flist._contents.discard(head)
        length = flist.length - 1
        flist.length = length
        if length < flist.low_water:
            flist.low_water = length

        length_addr = header + 8
        lat_len = h_read(length_addr) + tlb(length_addr)
        mem_write(length_addr, length)
        h_write(length_addr)
        tlb(length_addr)
        size_field = tc.lists[0].header_addr + 16
        lat_field = h_read(size_field) + tlb(size_field)
        size_bytes = tc.size_bytes
        mem_write(size_field, size_bytes if size_bytes > 0 else 0)
        h_write(size_field)
        tlb(size_field)
        tc.size_bytes = size_bytes - table.class_to_size[cl]

        live = a.live
        if head in live:
            raise AssertionError(f"allocator returned live pointer {head:#x}")
        live[head] = (size, cl)

        lats = (
            1, 1, 1, 1, 1, 1,
            *sample_lats,
            1 + p_small,
            *((1,) * self.LOOKUP_ALUS), lat_array, lat_size,
            1, 1 + p_empty,
            lat_header, lat_head, 1,
            lat_len, 1, 1, lat_field, 1, 1,
            1, 1, 1, 1, 1,
        )
        addrs = (
            *sample_addrs, array_word, size_word, header, head, header,
            length_addr, length_addr, size_field, size_field,
        )
        record = finish(
            a, m, prof, "malloc:fast", tokens, lats, addrs, self.LOOKUP_ALUS,
            kind="malloc", size=size, cl=cl, path=_PATH_FAST, ptr=head,
            clock0=clock0,
        )
        return head, record

    # -- free ---------------------------------------------------------------
    def free(self, ptr: int, sized_hint: int | None):
        a = self.alloc
        m = self._machine()
        if m is None:
            return None
        entry = a.live.get(ptr)
        if entry is None:
            return None
        size, cl = entry
        if cl == 0:
            return None
        config = a.config
        table = a.table
        if sized_hint is not None:
            if sized_hint <= 0 or sized_hint > config.max_size:
                return None
            idx = self._index(sized_hint)
            if table.class_array[idx] != cl:
                return None
        tc = a.thread_cache
        flist = tc.lists[cl]
        if flist.length >= flist.max_length:
            return None
        alloc_size = table.class_to_size[cl]
        if tc.size_bytes + alloc_size >= config.max_thread_cache_size:
            return None
        if ptr in flist._contents:
            return None

        prof = m.profiler
        clock0 = m.clock
        hierarchy = m.hierarchy
        h_read = hierarchy.demand_access
        h_write = h_read if hierarchy._fast_demand else hierarchy._access_write
        tlb = m.tlb.access
        memory = m.memory
        mem_read = memory.read_word
        mem_write = memory.write_word

        del a.live[ptr]
        sized = sized_hint is not None
        if sized:
            word0 = table.class_array_addr + ((idx >> 3) << 3)
            word1 = table.class_to_size_addr + (cl << 3)
            lookup = (1,) * self.LOOKUP_ALUS
        else:
            word0, word1 = pagemap_words(a.page_heap, ptr)
            lookup = (1,)  # the pagemap index shift
        lat_w0 = h_read(word0) + tlb(word0)
        lat_w1 = h_read(word1) + tlb(word1)

        header = flist.header_addr
        lat_header = h_read(header) + tlb(header)
        old_head = mem_read(header)
        mem_write(header, ptr)
        h_write(header)
        tlb(header)
        mem_write(ptr, old_head)
        h_write(ptr)
        tlb(ptr)
        flist._contents.add(ptr)
        length = flist.length + 1
        flist.length = length

        length_addr = header + 8
        lat_len = h_read(length_addr) + tlb(length_addr)
        mem_write(length_addr, length)
        h_write(length_addr)
        tlb(length_addr)
        tc.size_bytes += alloc_size
        p_long = m.predictor.predict("tc_list_too_long", False)

        lats = (
            1, 1, 1, 1, 1, 1,
            *lookup, lat_w0, lat_w1,
            1,
            lat_header, 1, 1,
            lat_len, 1, 1,
            1 + p_long,
            1, 1, 1, 1, 1,
        )
        tokens = (("sized", sized), ("tc_list_too_long", False))
        addrs = (word0, word1, header, header, ptr, length_addr, length_addr)
        return finish(
            a, m, prof, "free:fast", tokens, lats, addrs, self.LOOKUP_ALUS,
            kind="free", size=size, cl=cl, path=_PATH_FREE_FAST, ptr=ptr,
            clock0=clock0,
        )


class JemallocFastPath(TCMallocFastPath):
    """Fused twin of the jemalloc-flavoured software fast paths: TCMalloc's,
    with jemalloc's size2index — one shift ALU over an 8-byte-granular class
    array indexed at ``(size + 7) >> 3``."""

    __slots__ = ()
    _index = staticmethod(size2index)
    LOOKUP_ALUS = 1


class MallaccFastPath(TCMallocFastPath):
    """Fused twin of the Mallacc-accelerated fast paths.

    The malloc-cache operations (``szlookup``/``szupdate``/``hdpop``/
    ``hdpush``/``nxtprefetch``) run against the real :class:`~repro.core
    .malloc_cache.MallocCache`, so hit rates, LRU state and blocking stalls
    are identical to the emitting path.  ``szlookup`` alone is replicated
    inline (same scan order) so its entry can be sanity-checked *before* the
    stats/LRU mutation — an inconsistent entry falls back to the reference
    path, which raises at its usual point.
    """

    __slots__ = ()

    def malloc(self, size: int):
        a = self.alloc
        m = self._machine()
        if m is None:
            return None
        config = a.config
        if size <= 0 or size > config.max_size:
            return None
        pmu = a.pmu
        sampling = config.sampling_enabled
        if sampling and pmu.accumulated + size >= pmu.threshold:
            return None
        table = a.table
        idx = self._index(size)
        cl = table.class_array[idx]
        tc = a.thread_cache
        flist = tc.lists[cl]
        if flist.length == 0:
            return None
        isa = a.isa
        cache = isa.cache
        alloc_size = table.class_to_size[cl]
        sentry = sz_scan(cache, size)
        if sentry is not None and (
            sentry.size_class != cl or sentry.alloc_size != alloc_size
        ):
            return None

        prof = m.profiler
        clock0 = m.clock
        hierarchy = m.hierarchy
        h_read = hierarchy.demand_access
        h_write = h_read if hierarchy._fast_demand else hierarchy._access_write
        tlb = m.tlb.access
        memory = m.memory
        mem_read = memory.read_word
        mem_write = memory.write_word
        predict = m.predictor.predict

        if sampling:
            pmu.accumulated += size
        p_small = predict("malloc_is_small", True)
        sz_hit = sentry is not None
        sz_commit(cache, sentry)
        lats = [1, 1, 1, 1, 1, 1, 1 + p_small, cache.config.lookup_latency]
        lats.append(1 + predict("mcsz_hit", not sz_hit))
        addrs = []
        if not sz_hit:
            array_word = table.class_array_addr + ((idx >> 3) << 3)
            size_word = table.class_to_size_addr + (cl << 3)
            lats += (
                *((1,) * self.LOOKUP_ALUS),
                h_read(array_word) + tlb(array_word),
                h_read(size_word) + tlb(size_word),
                1,
            )
            addrs += (array_word, size_word)
            cache.szupdate(size, alloc_size, cl)
        lats.append(1)  # list-address lea
        lats.append(1 + predict("tc_list_empty", False))

        pentry, head, next_ptr, stall = cache.hdpop(cl, clock0)
        pop_uop = len(lats)
        lats.append(cache.config.list_op_latency + stall)
        hd_hit = pentry is not None
        lats.append(1 + predict("mchd_hit", not hd_hit))
        header = flist.header_addr
        head_only = False
        if hd_hit:
            head_only = next_ptr == NULL and flist.length > 1
            if head_only:
                lats.append(h_read(head) + tlb(head))
                addrs.append(head)
                next_ptr = mem_read(head)
            real_head = mem_read(header)
            if real_head != head:
                raise AssertionError(
                    f"malloc cache head {head:#x} diverged from list head {real_head:#x}"
                )
            if mem_read(head) != next_ptr:
                raise AssertionError("malloc cache next diverged from list")
            mem_write(header, next_ptr)
            h_write(header)
            tlb(header)
            lats.append(1)
            addrs.append(header)
        else:
            lats.append(h_read(header) + tlb(header))
            head = mem_read(header)
            lats.append(h_read(head) + tlb(head))
            next_ptr = mem_read(head)
            mem_write(header, next_ptr)
            h_write(header)
            tlb(header)
            lats.append(1)
            addrs += (header, head, header)
        flist._contents.discard(head)
        length = flist.length - 1
        flist.length = length
        if length < flist.low_water:
            flist.low_water = length

        new_head = mem_read(header)
        do_prefetch = new_head != NULL
        if do_prefetch:
            head_next = mem_read(new_head)
            mem_latency = hierarchy.prefetch(new_head)
            prefetch_uop = len(lats)
            lats.append(1)
            addrs.append(new_head)
            isa._order_uop = prefetch_uop
            issue_estimate = prefetch_uop // m.timing.config.issue_width
            cache.nxtprefetch(cl, new_head, head_next, clock0 + issue_estimate + mem_latency)
        else:
            isa._order_uop = pop_uop

        length_addr = header + 8
        lats.append(h_read(length_addr) + tlb(length_addr))
        mem_write(length_addr, length)
        h_write(length_addr)
        tlb(length_addr)
        lats += [1, 1]
        size_field = tc.lists[0].header_addr + 16
        lats.append(h_read(size_field) + tlb(size_field))
        size_bytes = tc.size_bytes
        mem_write(size_field, size_bytes if size_bytes > 0 else 0)
        h_write(size_field)
        tlb(size_field)
        lats += [1, 1]
        tc.size_bytes = size_bytes - alloc_size
        lats += [1, 1, 1, 1, 1]
        addrs += (length_addr, length_addr, size_field, size_field)

        live = a.live
        if head in live:
            raise AssertionError(f"allocator returned live pointer {head:#x}")
        live[head] = (size, cl)

        tokens = [
            ("sampled", False),
            ("malloc_is_small", True),
            ("mcsz_hit", not sz_hit),
            ("tc_list_empty", False),
            ("mchd_hit", not hd_hit),
        ]
        if hd_hit:
            tokens.insert(5, ("mchd_head_only", head_only))
        tokens.append(("nxtprefetch", do_prefetch))
        record = finish(
            a, m, prof, "malloc:fast", tuple(tokens), tuple(lats), tuple(addrs),
            self.LOOKUP_ALUS,
            kind="malloc", size=size, cl=cl, path=_PATH_FAST, ptr=head,
            clock0=clock0,
        )
        return head, record

    def free(self, ptr: int, sized_hint: int | None):
        a = self.alloc
        m = self._machine()
        if m is None:
            return None
        entry = a.live.get(ptr)
        if entry is None:
            return None
        size, cl = entry
        if cl == 0:
            return None
        config = a.config
        table = a.table
        isa = a.isa
        cache = isa.cache
        sized = sized_hint is not None
        sentry = None
        if sized:
            if sized_hint <= 0 or sized_hint > config.max_size:
                return None
            idx = self._index(sized_hint)
            if table.class_array[idx] != cl:
                return None
            sentry = sz_scan(cache, sized_hint)
            if sentry is not None and sentry.size_class != cl:
                return None
        tc = a.thread_cache
        flist = tc.lists[cl]
        if flist.length >= flist.max_length:
            return None
        alloc_size = table.class_to_size[cl]
        if tc.size_bytes + alloc_size >= config.max_thread_cache_size:
            return None
        if ptr in flist._contents:
            return None

        prof = m.profiler
        clock0 = m.clock
        hierarchy = m.hierarchy
        h_read = hierarchy.demand_access
        h_write = h_read if hierarchy._fast_demand else hierarchy._access_write
        tlb = m.tlb.access
        memory = m.memory
        mem_read = memory.read_word
        mem_write = memory.write_word
        predict = m.predictor.predict

        del a.live[ptr]
        lats = [1, 1, 1, 1, 1, 1]
        addrs = []
        sz_hit = False
        if sized:
            sz_hit = sentry is not None
            sz_commit(cache, sentry)
            lats.append(cache.config.lookup_latency)
            lats.append(1 + predict("mcsz_hit", not sz_hit))
            if not sz_hit:
                word0 = table.class_array_addr + ((idx >> 3) << 3)
                word1 = table.class_to_size_addr + (cl << 3)
                lats += (
                    *((1,) * self.LOOKUP_ALUS),
                    h_read(word0) + tlb(word0),
                    h_read(word1) + tlb(word1),
                    1,
                )
                addrs += (word0, word1)
                cache.szupdate(sized_hint, alloc_size, cl)
        else:
            word0, word1 = pagemap_words(a.page_heap, ptr)
            lats += [1, h_read(word0) + tlb(word0), h_read(word1) + tlb(word1)]
            addrs += (word0, word1)
        lats.append(1)  # list-address lea

        push_hit, old_head, stall = cache.hdpush(cl, ptr, clock0)
        push_uop = len(lats)
        lats.append(cache.config.list_op_latency + stall)
        isa._order_uop = push_uop
        header = flist.header_addr
        if push_hit:
            real_head = mem_read(header)
            if real_head != old_head:
                raise AssertionError(
                    f"malloc cache head {old_head:#x} diverged from list head {real_head:#x}"
                )
        else:
            lats.append(h_read(header) + tlb(header))
            addrs.append(header)
            old_head = mem_read(header)
        mem_write(header, ptr)
        h_write(header)
        tlb(header)
        lats.append(1)
        mem_write(ptr, old_head)
        h_write(ptr)
        tlb(ptr)
        lats.append(1)
        flist._contents.add(ptr)
        length = flist.length + 1
        flist.length = length

        length_addr = header + 8
        lats.append(h_read(length_addr) + tlb(length_addr))
        mem_write(length_addr, length)
        h_write(length_addr)
        tlb(length_addr)
        lats += [1, 1]
        tc.size_bytes += alloc_size
        lats.append(1 + predict("tc_list_too_long", False))
        lats += [1, 1, 1, 1, 1]
        addrs += (header, ptr, length_addr, length_addr)

        tokens = [("sized", sized)]
        if sized:
            tokens.append(("mcsz_hit", not sz_hit))
        tokens.append(("mchdpush_hit", push_hit))
        tokens.append(("tc_list_too_long", False))
        return finish(
            a, m, prof, "free:fast", tuple(tokens), tuple(lats), tuple(addrs),
            self.LOOKUP_ALUS,
            kind="free", size=size, cl=cl, path=_PATH_FREE_FAST, ptr=ptr,
            clock0=clock0,
        )
