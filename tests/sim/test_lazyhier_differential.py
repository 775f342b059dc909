"""Differential fuzz: LazyRingHierarchy vs the eager CacheHierarchy.

The lazy ring hierarchy defers applying ring bursts to L1/L2 per set and
reconstructs exact state on demand (merges, interval L3, closed-form burst
counters).  This suite drives both implementations with one randomized
stream of every entry point — cursor bursts, deferred window flushes,
demand accesses, L3-pressure sets, probes, antagonize — asserting equal
latencies and counters op by op, and (after forced materialization) equal
per-set resident lines in exact LRU order.

Seeds 4 and 5 are pinned because they exercise the ``_l2_survives``
inclusion guard (the closed-form bound that skips an L2 merge on an L1 hit
when no pending fill can evict the line): seed 4 produces guard *passes*
(merge skipped, state still exact), seed 5 a refusal (the bound can't
prove survival, so the merge runs).  A guard bug shows up here as a
counter or LRU-order divergence.
"""

import random

import pytest

from repro.sim.hierarchy import CacheHierarchy
from repro.sim.lazyhier import (
    RING_BASE,
    RING_BYTES,
    RING_LINES,
    LazyRingHierarchy,
)

ALLOC_BASE = 0x2000_0000_0000  # far from the ring window


def _counters(h):
    return (
        h.l1.hits, h.l1.misses,
        h.l2.hits, h.l2.misses,
        h.l3.hits, h.l3.misses,
        h.dram_accesses,
    )


def _contents(h):
    # key order == LRU order for both dict- and stamp-valued sets
    return (
        [list(s) for s in h.l1._sets],
        [list(s) for s in h.l2._sets],
        [list(s) for s in h.l3._sets],
    )


def run_stream(seed, n_ops):
    """Drive both hierarchies with one op stream; assert equivalence at
    every step and full contents at the end.  Returns the counters."""
    rng = random.Random(seed)
    ref = CacheHierarchy()
    lazy = LazyRingHierarchy()
    assert lazy._lazy, "default geometry should engage the lazy path"

    offset = 0          # ring byte cursor (AppTraffic style)
    pending = 0         # deferred lines (sampled-flush model)
    hot = [ALLOC_BASE + 64 * rng.randrange(4096) for _ in range(24)]
    # a set of alloc lines all mapping to one sigma3, to build L3 pressure
    sigma3 = rng.randrange(8192)
    pressure = [
        (ALLOC_BASE + ((sigma3 - (ALLOC_BASE >> 6)) % 8192) * 64) + k * 8192 * 64
        for k in range(22)
    ]

    for op in range(n_ops):
        kind = rng.random()
        if kind < 0.35:
            # cursor-shaped ring burst
            lines = rng.choice([1, 3, 10, 16, 50, 120, 300, 300, 1000, 5000])
            ref.touch_lines(RING_BASE + offset, lines)
            lazy.touch_lines(RING_BASE + offset, lines)
            offset = (offset + lines * 64) % RING_BYTES
        elif kind < 0.40:
            # deferred traffic, later flushed as a window
            lines = rng.choice([10, 50, 300, 2000])
            pending += lines
            offset = (offset + lines * 64) % RING_BYTES
        elif kind < 0.45 and pending:
            n = min(pending, RING_LINES)
            start = (offset // 64 - n) % RING_LINES
            if start + n <= RING_LINES:
                ranges = [(RING_BASE + start * 64, n)]
            else:
                head = RING_LINES - start
                ranges = [(RING_BASE + start * 64, head), (RING_BASE, n - head)]
            ref.touch_line_window(ranges)
            lazy.touch_line_window(ranges)
            pending = 0
        elif kind < 0.75:
            # allocator accesses: mix of hot and fresh lines
            for _ in range(rng.randrange(1, 6)):
                if rng.random() < 0.6:
                    addr = rng.choice(hot)
                else:
                    addr = ALLOC_BASE + 64 * rng.randrange(200000)
                lr = ref.demand_access(addr)
                ll = lazy.demand_access(addr)
                assert lr == ll, f"op {op}: access({addr:#x}) {lr} != {ll}"
        elif kind < 0.85:
            # L3-pressure accesses (single sigma3)
            for addr in rng.sample(pressure, rng.randrange(4, 22)):
                lr = ref.demand_access(addr)
                ll = lazy.demand_access(addr)
                assert lr == ll, f"op {op}: pressure({addr:#x}) {lr} != {ll}"
        elif kind < 0.93:
            addr = rng.choice(
                [rng.choice(hot),
                 RING_BASE + 64 * rng.randrange(RING_LINES),
                 ALLOC_BASE + 64 * rng.randrange(200000)]
            )
            lr = ref.probe_latency(addr)
            ll = lazy.probe_latency(addr)
            assert lr == ll, f"op {op}: probe({addr:#x}) {lr} != {ll}"
        else:
            er = ref.antagonize()
            el = lazy.antagonize()
            assert er == el, f"op {op}: antagonize {er} != {el}"

        cr, cl = _counters(ref), _counters(lazy)
        assert cr == cl, f"op {op}: counters {cr} != {cl}"

    # final: full materialization, exact contents + order
    lazy._degrade()
    assert _counters(ref) == _counters(lazy)
    rr, ll = _contents(ref), _contents(lazy)
    for lvl, (a, b) in enumerate(zip(rr, ll)):
        for sidx, (sa, sb) in enumerate(zip(a, b)):
            assert sa == sb, (
                f"L{lvl+1} set {sidx}: ref {sa[:12]} != lazy {sb[:12]} "
                f"(lens {len(sa)}/{len(sb)})"
            )
    return _counters(ref)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_stream(seed):
    run_stream(seed, 120)


def test_long_stream():
    run_stream(42, 300)


class TestL2SurvivalGuard:
    """Seeds known to route through ``_l2_survives``, with the guard's
    decisions spied on so regressions that silently stop exercising it (or
    flip its answers) fail loudly."""

    @pytest.mark.parametrize("seed,expect_pass,expect_refuse", [
        (4, True, False),   # bound proves survival: merges skipped
        (5, False, True),   # bound can't prove it: merge must run
    ])
    def test_guard_decisions(self, seed, expect_pass, expect_refuse, monkeypatch):
        decisions = []
        orig = LazyRingHierarchy._l2_survives

        def spy(self, line, sigma):
            verdict = orig(self, line, sigma)
            decisions.append(verdict)
            return verdict

        monkeypatch.setattr(LazyRingHierarchy, "_l2_survives", spy)
        run_stream(seed, 120)
        assert decisions, "stream no longer reaches the inclusion guard"
        assert (True in decisions) == expect_pass
        assert (False in decisions) == expect_refuse


def _lazy_leftovers(h):
    """Every lazy-only structure that is still holding state."""
    left = {
        name: getattr(h, name)
        for name in (
            "_log_first", "_log_n", "_log_G", "_log_inner",
            "_ilog_first", "_ilog_n", "_ilog_G", "_irun_j0",
            "_absent", "_risk3", "_hwm", "_m1_ctx",
        )
        if getattr(h, name)
    }
    if h._cin_lines != [0] or h._cin_cnt != [0]:
        left["prefix sums"] = (h._cin_lines, h._cin_cnt)
    return left


class TestLeavingLazyMode:
    """``flush_all`` and ``_degrade`` both leave lazy mode for good; neither
    may keep the burst log, its inner mirror, the ring-residency sets or
    the L3 risk set alive afterwards — and the eager hierarchy they leave
    behind must keep matching the reference one."""

    def _drive(self, ref, lazy, rounds):
        sigma3 = 77
        pressure = [
            (ALLOC_BASE + ((sigma3 - (ALLOC_BASE >> 6)) % 8192) * 64) + k * 8192 * 64
            for k in range(22)
        ]
        offset = 0
        for i in range(rounds):
            lines = (300, 1000, 5000)[i % 3]
            for h in (ref, lazy):
                h.touch_lines(RING_BASE + offset, lines)
            offset = (offset + lines * 64) % RING_BYTES
            for addr in pressure:
                assert ref.demand_access(addr) == lazy.demand_access(addr)
        assert _counters(ref) == _counters(lazy)

    @pytest.mark.parametrize("leave", ["flush_all", "_degrade"])
    def test_nothing_lazy_survives(self, leave):
        ref, lazy = CacheHierarchy(), LazyRingHierarchy()
        self._drive(ref, lazy, 60)
        left = _lazy_leftovers(lazy)
        for name in ("_ilog_first", "_irun_j0", "_absent", "_risk3"):
            assert name in left, f"stream never populated {name}"
        getattr(lazy, leave)()
        if leave == "flush_all":
            ref.flush_all()
        assert not lazy._lazy
        assert _lazy_leftovers(lazy) == {}
        self._drive(ref, lazy, 12)
        assert _contents(ref) == _contents(lazy)
