"""What the fused twins share: the structure compiler, the tail, the registry.

Under the columnar engine the allocator fast paths
(:mod:`repro.alloc.fastpath`) and refill slow paths
(:mod:`repro.alloc.slowpath`) run as *priced twins*: straight-line code
that performs the emitting path's primitive sequence (simulated memory,
hierarchy, TLB, predictor, malloc cache) and assembles only a token tuple,
a latency tuple and one address per memory uop.  Everything static about a
call — uop kinds, dependence edges, tags — is a pure function of its
``(site, tokens)`` template key, and it is stated once, here:
:func:`compile_struct` replays the token stream through the ``malloc`` /
``free`` grammar exactly as the emitting code walks its control flow.
:func:`struct_for` compiles each key once per process, and only on an
intern miss, so a warm twin never builds a structure or a ``Uop``.

Jemalloc's fast path differs from TCMalloc's in its size2index alone (one
shift ALU instead of an add and a shift) while its tokens are the same, so
the ALU count is a compiler flavour and part of the store key.

Twins are registered by exact allocator type (:func:`twins_for`): a
subclass that overrides emission hooks (``DebugAllocator``) inherits no
twin and runs the emitting path.
"""

from __future__ import annotations

from functools import cache
from time import perf_counter

from repro.alloc.allocator import CallRecord
from repro.alloc.page_heap import _PAGEMAP_LEAF_PAGES, K_PAGE_SHIFT
from repro.alloc.size_classes import class_index
from repro.sim.columns import StructBuilder
from repro.sim.uop import Tag

# --------------------------------------------------------------------------
# Token-stream structure compiler.
#
# A template's tokens pin its whole shape: branch outcomes in emission order
# plus every note()-d count and mid-flight decision.  The compiler walks the
# token tuple as the emitting code would have walked its control flow,
# replaying the uop record sequence (kinds, dependence edges, tags,
# sequential address slots — the twins pass one address per memory uop, in
# emission order).  Count tokens are noted *after* their uops in the
# reference (pm_probes at the end of a probe chain) but with no tokens in
# between, so consuming them first is safe: only the uop record order and
# the token tuple order must each match, not their interleaving.


class _Template:
    """Compiler state: a token cursor plus a StructBuilder with sequential
    address-slot assignment, the Mallacc ordering register and the
    size2index ALU count."""

    __slots__ = ("toks", "i", "b", "order", "slot", "lookup_alus")

    def __init__(self, tokens: tuple, lookup_alus: int) -> None:
        self.toks = tokens
        self.i = 0
        self.b = StructBuilder()
        self.order: int | None = None
        self.slot = 0
        self.lookup_alus = lookup_alus

    def take(self, name: str):
        tok = self.toks[self.i] if self.i < len(self.toks) else None
        if tok is None or tok[0] != name:
            raise AssertionError(
                f"twin template: expected {name!r} at token {self.i}, got {tok!r}"
            )
        self.i += 1
        return tok[1]

    def peek(self) -> str | None:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def peek_tok(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def branch(self, name: str, deps: tuple = (), tag: Tag = Tag.ADDRESSING):
        taken = self.take(name)
        self.b.branch(deps, tag)
        return taken

    def ordered(self, deps: tuple) -> tuple:
        if self.order is not None:
            return tuple(dict.fromkeys(deps + (self.order,)))
        return deps

    def nload(self, deps: tuple = (), tag: Tag = Tag.ADDRESSING) -> int:
        slot = self.slot
        self.slot = slot + 1
        return self.b.load(slot, deps, tag)

    def nstore(self, deps: tuple = (), tag: Tag = Tag.ADDRESSING) -> int:
        slot = self.slot
        self.slot = slot + 1
        return self.b.store(slot, deps, tag)

    def nprefetch(self) -> int:
        slot = self.slot
        self.slot = slot + 1
        return self.b.prefetch(slot)

    def end(self) -> tuple:
        if self.i != len(self.toks):
            raise AssertionError(
                f"twin template: {len(self.toks) - self.i} unconsumed tokens "
                f"starting at {self.toks[self.i]!r}"
            )
        return self.b.done()


def _sw_lookup(t: _Template) -> tuple[int, int]:
    """The Figure 5 software size-class lookup: the size2index ALU chain
    (TCMalloc's add and shift, jemalloc's one shift), then two loads."""
    b = t.b
    dep: tuple = ()
    for _ in range(t.lookup_alus):
        dep = (b.alu(dep, Tag.SIZE_CLASS),)
    cls_uop = t.nload(dep, Tag.SIZE_CLASS)
    size_uop = t.nload((cls_uop,), Tag.SIZE_CLASS)
    return cls_uop, size_uop


def _compile_search(t: _Template, deps: tuple) -> None:
    """PageHeap._search_free: a dependent chain of free-list probes."""
    probe = None
    for _ in range(t.take("pm_probes")):
        probe = t.nload(deps if probe is None else (probe,), Tag.SLOW_PATH)


def _compile_populate(t: _Template, deps: tuple) -> None:
    """CentralFreeList._populate: allocate_span + carve stores."""
    _compile_search(t, deps)
    if t.take("pm_grow"):
        t.b.fixed(deps, Tag.SLOW_PATH)  # the syscall, original deps
        _compile_search(t, deps)
    if t.take("pm_split"):
        t.nstore((), Tag.SLOW_PATH)  # pagemap boundary rewrite
    prev = None
    for _ in range(t.take("carve")):
        prev = t.nstore(deps if prev is None else (prev,), Tag.SLOW_PATH)


def _compile_free_span(t: _Template) -> None:
    """PageHeap.free_span: the pagemap store, then a possible OS release."""
    t.nstore((), Tag.SLOW_PATH)
    tok = t.peek_tok()
    if tok is not None and tok[0] == "pm_madvise":
        if t.take("pm_madvise"):
            t.b.fixed((), Tag.SLOW_PATH)  # madvise


def _compile_pop(t: _Template, deps: tuple, mallacc: bool) -> int:
    """A thread-cache list pop; returns the uop consumers depend on
    (PopResult.uop: the header load, or the mchdpop on a cache hit)."""
    b = t.b
    if not mallacc:
        head = t.nload(deps, Tag.PUSH_POP)
        nxt = t.nload((head,), Tag.PUSH_POP)
        t.nstore((nxt,), Tag.PUSH_POP)
        return head
    u = b.mallacc(t.ordered(deps))
    t.order = u
    miss = t.branch("mchd_hit", (u,))
    if miss:
        head = t.nload((u,) + deps, Tag.PUSH_POP)
        nxt = t.nload((head,), Tag.PUSH_POP)
        t.nstore((nxt,), Tag.PUSH_POP)
        ret = head
    else:
        result = u
        if t.take("mchd_head_only"):
            result = t.nload((u,), Tag.PUSH_POP)
        t.nstore((result,), Tag.PUSH_POP)
        ret = u
    if t.take("nxtprefetch"):
        t.order = t.nprefetch()
    return ret


def _compile_push(t: _Template, deps: tuple, mallacc: bool) -> int:
    """A thread-cache list push; returns the uop the next push depends on."""
    b = t.b
    if not mallacc:
        head = t.nload(deps, Tag.PUSH_POP)
        t.nstore((head,), Tag.PUSH_POP)
        t.nstore((head,), Tag.PUSH_POP)
        return head
    u = b.mallacc(t.ordered(deps))
    t.order = u
    if t.take("mchdpush_hit"):
        t.nstore((u,), Tag.PUSH_POP)
        t.nstore((u,), Tag.PUSH_POP)
    else:
        head = t.nload((u,) + deps, Tag.PUSH_POP)
        t.nstore((head,), Tag.PUSH_POP)
        t.nstore((head,), Tag.PUSH_POP)
    return u


def _compile_remove(t: _Template, num: int, deps: tuple) -> None:
    """CentralFreeList.remove_range: lock, unpark-or-span-pops, unlock."""
    b = t.b
    lock = b.fixed(deps, Tag.SLOW_PATH)
    if t.take("transfer_unpark"):
        t.nload((lock,), Tag.SLOW_PATH)  # parked-batch descriptor
        b.fixed((lock,), Tag.SLOW_PATH)
        return
    dep: tuple = (lock,)
    k = 0
    while k < num:
        if t.peek_tok() == ("populate_at", k):
            t.take("populate_at")
            _compile_populate(t, dep)
        dep = (t.nload(dep, Tag.SLOW_PATH),)  # span freelist pop
        k += 1
    b.fixed(dep, Tag.SLOW_PATH)


def _compile_insert(t: _Template, num: int, deps: tuple) -> None:
    """CentralFreeList.insert_range: lock, park-or-span-pushes, unlock."""
    b = t.b
    lock = b.fixed(deps, Tag.SLOW_PATH)
    if t.take("transfer_park"):
        t.nstore((lock,), Tag.SLOW_PATH)  # parked-batch descriptor
        b.fixed((lock,), Tag.SLOW_PATH)
        return
    dep: tuple = (lock,)
    for i in range(num):
        dep = (t.nstore(dep, Tag.SLOW_PATH),)  # span freelist push
        if t.peek_tok() == ("release_at", i):
            t.take("release_at")
            _compile_free_span(t)
    b.fixed(dep, Tag.SLOW_PATH)


def _compile_release(t: _Template, deps: tuple, mallacc: bool) -> None:
    """ThreadCache._release_to_central: pops, then insert_range."""
    n = t.take("tc_release")
    dep = deps
    for _ in range(n):
        dep = (_compile_pop(t, dep, mallacc),)
    if n:
        _compile_insert(t, n, dep)


def _compile_malloc(t: _Template) -> tuple:
    """``malloc:fast`` / ``malloc:central`` / ``malloc:page`` (one grammar;
    the site only records which pool ultimately satisfied the call)."""
    b = t.b
    for _ in range(6):
        b.alu((), Tag.CALL_OVERHEAD)
    if t.peek() == "sample_threshold":
        counter = t.nload((), Tag.SAMPLING)
        sub = b.alu((counter,), Tag.SAMPLING)
        t.branch("sample_threshold", (sub,), Tag.SAMPLING)
        t.nstore((sub,), Tag.SAMPLING)
    t.take("sampled")
    t.branch("malloc_is_small")
    mallacc = t.peek() == "mcsz_hit"
    if mallacc:
        sz = b.mallacc()
        if t.branch("mcsz_hit", (sz,)):
            cls_uop, size_uop = _sw_lookup(t)
            b.mallacc((size_uop,))
        else:
            cls_uop = size_uop = sz
    else:
        cls_uop, size_uop = _sw_lookup(t)
    addr_uop = b.alu((cls_uop,))
    if t.branch("tc_list_empty", (addr_uop,)):
        num = t.take("central_remove")
        _compile_remove(t, num, (addr_uop,))
        dep: tuple = (addr_uop,)
        for _ in range(num):
            dep = (_compile_push(t, dep, mallacc),)
    _compile_pop(t, (addr_uop,), mallacc)
    meta = (addr_uop, size_uop)
    len_uop = t.nload(meta, Tag.METADATA)
    t.nstore((b.alu((len_uop,), Tag.METADATA),), Tag.METADATA)
    sz_uop = t.nload(meta, Tag.METADATA)
    t.nstore((b.alu((sz_uop,), Tag.METADATA),), Tag.METADATA)
    for _ in range(5):
        b.alu((), Tag.CALL_OVERHEAD)
    return t.end()


def _compile_free(t: _Template) -> tuple:
    """``free:fast`` / ``free:slow``: push, then a ListTooLong release
    and/or scavenge."""
    b = t.b
    for _ in range(6):
        b.alu((), Tag.CALL_OVERHEAD)
    sized = t.take("sized")
    if sized:
        mallacc = t.peek() == "mcsz_hit"
        if mallacc:
            sz = b.mallacc()
            if t.branch("mcsz_hit", (sz,)):
                lookup_uop, size_uop = _sw_lookup(t)
                b.mallacc((size_uop,))
            else:
                lookup_uop = sz
        else:
            lookup_uop, _ = _sw_lookup(t)
    else:
        shift = b.alu((), Tag.SIZE_CLASS)
        root = t.nload((shift,), Tag.SIZE_CLASS)
        lookup_uop = t.nload((root,), Tag.SIZE_CLASS)
        mallacc = t.peek() == "mchdpush_hit"
    addr_uop = b.alu((lookup_uop,))
    _compile_push(t, (addr_uop,), mallacc)
    len_uop = t.nload((addr_uop,), Tag.METADATA)
    t.nstore((b.alu((len_uop,), Tag.METADATA),), Tag.METADATA)
    if t.branch("tc_list_too_long", (addr_uop,)):
        _compile_release(t, (addr_uop,), mallacc)
    while t.peek() == "scavenge_class":
        t.take("scavenge_class")
        _compile_release(t, (), mallacc)
    for _ in range(5):
        b.alu((), Tag.CALL_OVERHEAD)
    return t.end()


def compile_struct(site: str, tokens: tuple, lookup_alus: int) -> tuple:
    """Compile the static structure for one ``(site, tokens)`` template;
    ``lookup_alus`` is the size2index ALU count (2 TCMalloc, 1 jemalloc)."""
    t = _Template(tokens, lookup_alus)
    if site.startswith("free:"):
        return _compile_free(t)
    return _compile_malloc(t)


#: Process-wide compiled structures, keyed by (site, tokens, lookup_alus).
#: Structures are pure functions of the key, so every machine shares them.
_STRUCTS: dict[tuple, tuple] = {}


def struct_for(site: str, tokens: tuple, lookup_alus: int) -> tuple:
    """The compiled structure for a template, compiling it on first sight."""
    key = (site, tokens, lookup_alus)
    struct = _STRUCTS.get(key)
    if struct is None:
        struct = _STRUCTS[key] = compile_struct(site, tokens, lookup_alus)
    return struct


# --------------------------------------------------------------------------
# The shared tail.


def finish(a, m, prof, site, tokens, lats, addrs, lookup_alus, *, kind, size,
           cl, path, ptr, clock0):
    """Twin of ``TCMalloc._finish``: intern, price, record, advance."""
    if prof is not None:
        t0 = perf_counter()
    trace = m.interner.intern(
        site, tokens, lats,
        lambda: m.timing.materialize_columnar(
            struct_for(site, tokens, lookup_alus), addrs, lats
        ),
    )
    if prof is not None:
        t1 = perf_counter()
    timing = m.timing
    result = timing.run(trace)
    ablations = a.ablations
    if ablations:
        ablated = {
            name: timing.run_ablated(trace, tags).cycles
            for name, tags in ablations.items()
        }
    else:
        ablated = {}
    if prof is not None:
        t2 = perf_counter()
        prof.add_stage("build", t1 - t0)
        prof.add_stage("schedule", t2 - t1)
        prof.count("calls")
        prof.count("uops", len(trace))
    record = CallRecord(
        kind=kind,
        size=size,
        size_class=cl,
        path=path,
        cycles=result.cycles,
        num_uops=len(trace),
        ptr=ptr,
        clock=clock0,
        sampled=False,
        ablated=ablated,
    )
    m.advance(result.cycles)
    if a.keep_records:
        a.records.append(record)
    a._post_schedule(trace, result)
    return record


# --------------------------------------------------------------------------
# Helpers both twin modules use.


def pagemap_words(page_heap, ptr: int) -> tuple[int, int]:
    """Addresses of the two pagemap words a non-sized free walks."""
    page = ptr >> K_PAGE_SHIFT
    root = page_heap.pagemap_root_addr + ((page // _PAGEMAP_LEAF_PAGES) % 64) * 8
    leaf = page_heap.pagemap_leaf_base + (page % (1 << 21)) * 8
    return root, leaf


def sz_scan(cache, size: int):
    """Pure replica of ``MallocCache.szlookup``'s scan (no stats/LRU)."""
    key = class_index(size) if cache.config.index_keyed else size
    for entry in cache.entries:
        if entry.valid and entry.lo <= key <= entry.hi:
            return entry
    return None


def sz_commit(cache, entry) -> None:
    """Apply the stats/LRU mutations ``szlookup`` would have made."""
    if entry is not None:
        cache.stats.sz_hits += 1
        cache._tick += 1
        entry.last_use = cache._tick
    else:
        cache.stats.sz_misses += 1


# --------------------------------------------------------------------------
# Registry: exact allocator type -> (fast twin, refill twin).


@cache
def registry() -> dict[type, tuple]:
    """Every twinned allocator type with its ``(fast, slow)`` twin types
    (None where it has no twin of that kind).  Built on first use: the twin
    modules import this one, and the allocators import them lazily."""
    from repro.alloc.allocator import TCMalloc
    from repro.alloc.fastpath import JemallocFastPath, MallaccFastPath, TCMallocFastPath
    from repro.alloc.jemalloc import Jemalloc
    from repro.alloc.slowpath import MallaccSlowPath, TCMallocSlowPath
    from repro.core.accel_allocator import MallaccTCMalloc

    return {
        TCMalloc: (TCMallocFastPath, TCMallocSlowPath),
        Jemalloc: (JemallocFastPath, None),  # fill/flush refills: emitter only
        MallaccTCMalloc: (MallaccFastPath, MallaccSlowPath),
    }


def twins_for(alloc) -> tuple:
    """The ``(fast, slow)`` twins for ``alloc``'s exact type, each None
    where the type has none."""
    fast, slow = registry().get(type(alloc), (None, None))
    return (
        None if fast is None else fast(alloc),
        None if slow is None else slow(alloc),
    )
