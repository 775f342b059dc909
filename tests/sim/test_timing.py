"""Tests for the dependency-graph timing model."""

import pytest

from repro.sim.timing import CoreConfig, TimingModel
from repro.sim.uop import Tag, Trace, TraceBuilder


def model(**kwargs):
    return TimingModel(CoreConfig(**kwargs))


class TestBasics:
    def test_empty_trace_costs_overhead(self):
        tm = model(pipeline_overhead=2)
        assert tm.run(Trace()).cycles == 2

    def test_single_alu(self):
        tm = model(pipeline_overhead=0)
        tb = TraceBuilder()
        tb.alu()
        assert tm.run(tb.build()).cycles == 1

    def test_dependent_chain_serializes(self):
        tm = model(pipeline_overhead=0)
        tb = TraceBuilder()
        a = tb.alu()
        b = tb.alu(deps=(a,))
        tb.alu(deps=(b,))
        assert tm.run(tb.build()).cycles == 3

    def test_independent_ops_overlap(self):
        tm = model(pipeline_overhead=0, issue_width=4)
        tb = TraceBuilder()
        for _ in range(4):
            tb.alu()
        assert tm.run(tb.build()).cycles == 1

    def test_issue_width_limits_parallelism(self):
        tm = model(pipeline_overhead=0, issue_width=2)
        tb = TraceBuilder()
        for _ in range(6):
            tb.alu()
        assert tm.run(tb.build()).cycles == 3

    def test_load_latency_counts(self):
        tm = model(pipeline_overhead=0)
        tb = TraceBuilder()
        tb.load(0x1000, latency=34)
        assert tm.run(tb.build()).cycles == 34

    def test_dependent_loads_add_latencies(self):
        tm = model(pipeline_overhead=0)
        tb = TraceBuilder()
        a = tb.load(0x1000, latency=4)
        tb.load(0x2000, latency=4, deps=(a,))
        assert tm.run(tb.build()).cycles == 8


class TestStoresAndPrefetches:
    def test_store_is_buffered(self):
        """A store never extends the critical path beyond its issue+1."""
        tm = model(pipeline_overhead=0)
        tb = TraceBuilder()
        a = tb.alu()
        tb.store(0x1000, deps=(a,))
        assert tm.run(tb.build()).cycles == 2

    def test_store_miss_does_not_stall(self):
        tm = model(pipeline_overhead=0)
        tb = TraceBuilder()
        tb.store(0x1000)
        trace = tb.build()
        trace.uops[0].latency = 200  # a DRAM-bound store
        assert tm.run(trace).cycles == 1

    def test_prefetch_commits_immediately(self):
        tm = model(pipeline_overhead=0)
        tb = TraceBuilder()
        tb.prefetch(0x1000)
        trace = tb.build()
        trace.uops[0].latency = 200
        assert tm.run(trace).cycles == 1

    def test_load_depending_on_store_waits_for_issue(self):
        tm = model(pipeline_overhead=0)
        tb = TraceBuilder()
        s = tb.store(0x1000)
        tb.load(0x1000, latency=4, deps=(s,))
        # store ready (forwarding) at 1, load 1+4.
        assert tm.run(tb.build()).cycles == 5


class TestPorts:
    def test_load_ports_bound(self):
        tm = model(pipeline_overhead=0, issue_width=4, load_ports=2)
        tb = TraceBuilder()
        for i in range(4):
            tb.load(0x1000 + i * 64, latency=4)
        # Two loads at cycle 0, two at cycle 1 -> last ready at 5.
        assert tm.run(tb.build()).cycles == 5

    def test_store_ports_bound(self):
        tm = model(pipeline_overhead=0, issue_width=4, store_ports=1)
        tb = TraceBuilder()
        for i in range(3):
            tb.store(0x1000 + i * 64)
        assert tm.run(tb.build()).cycles == 3

    def test_alu_not_limited_by_load_ports(self):
        tm = model(pipeline_overhead=0, issue_width=4, load_ports=1)
        tb = TraceBuilder()
        tb.load(0x1000, latency=4)
        for _ in range(3):
            tb.alu()
        assert tm.run(tb.build()).cycles == 4


class TestResult:
    def test_issue_and_ready_times_lengths(self):
        tm = model()
        tb = TraceBuilder()
        tb.alu()
        tb.alu()
        r = tm.run(tb.build())
        assert r.num_uops == 2
        assert len(r.issue_times) == len(r.ready_times) == 2

    def test_ipc(self):
        tm = model(pipeline_overhead=0)
        tb = TraceBuilder()
        for _ in range(4):
            tb.alu()
        r = tm.run(tb.build())
        assert r.ipc == pytest.approx(4.0)

    def test_deterministic(self):
        tm = model()
        tb = TraceBuilder()
        a = tb.alu()
        tb.load(0x1000, latency=12, deps=(a,))
        trace = tb.build()
        assert tm.run(trace).cycles == tm.run(trace).cycles


class TestCriticalPath:
    def test_lower_bounds_schedule(self):
        tm = model(pipeline_overhead=0, issue_width=1)
        tb = TraceBuilder()
        for _ in range(8):
            tb.alu()
        trace = tb.build()
        assert tm.critical_path(trace) <= tm.run(trace).cycles

    def test_chain_equals_critical_path(self):
        tm = model(pipeline_overhead=0)
        tb = TraceBuilder()
        a = tb.load(0x1000, latency=4)
        b = tb.load(0x2000, latency=4, deps=(a,))
        tb.alu(deps=(b,))
        trace = tb.build()
        assert tm.critical_path(trace) == 9
        assert tm.run(trace).cycles == 9

    def test_fast_path_anchor(self):
        """The paper's anchor: the modeled malloc fast path runs 18-20
        cycles (Section 3.3); reproduce the chain shape here."""
        tm = model()
        tb = TraceBuilder()
        idx1 = tb.alu(tag=Tag.SIZE_CLASS)
        idx2 = tb.alu(deps=(idx1,), tag=Tag.SIZE_CLASS)
        cls = tb.load(0x1000, latency=4, deps=(idx2,), tag=Tag.SIZE_CLASS)
        lea = tb.alu(deps=(cls,))
        head = tb.load(0x2000, latency=4, deps=(lea,), tag=Tag.PUSH_POP)
        nxt = tb.load(0x3000, latency=4, deps=(head,), tag=Tag.PUSH_POP)
        tb.store(0x2000, deps=(nxt,), tag=Tag.PUSH_POP)
        cycles = tm.run(tb.build()).cycles
        assert 15 <= cycles <= 20


class TestROB:
    def test_small_rob_limits_overlap(self):
        """A long stream of independent loads cannot all be in flight at
        once when the window is tiny."""
        wide = model(pipeline_overhead=0, issue_width=4, load_ports=4, rob_size=10**6)
        tiny = model(pipeline_overhead=0, issue_width=4, load_ports=4, rob_size=4)
        tb = TraceBuilder()
        for i in range(32):
            tb.load(0x1000 + i * 64, latency=34)
        trace = tb.build()
        assert tiny.run(trace).cycles > wide.run(trace).cycles

    def test_default_rob_never_binds_fast_path(self):
        """Fast-path-sized traces (tens of uops) fit comfortably in a
        192-entry window: same schedule with and without the bound."""
        default = model(pipeline_overhead=0)
        unbounded = model(pipeline_overhead=0, rob_size=10**6)
        tb = TraceBuilder()
        prev = tb.alu()
        for i in range(40):
            prev = tb.load(0x1000 + i * 64, latency=4, deps=(prev,))
        trace = tb.build()
        assert default.run(trace).cycles == unbounded.run(trace).cycles

    def test_retirement_in_order(self):
        """An op behind a long-latency elder cannot free its slot early."""
        tiny = model(pipeline_overhead=0, issue_width=4, load_ports=4, rob_size=2)
        tb = TraceBuilder()
        tb.load(0x1000, latency=200)  # DRAM miss at the head
        for i in range(6):
            tb.alu()
        trace = tb.build()
        # ALU #2 onward must wait for the miss to retire.
        assert tiny.run(trace).cycles >= 200


class TestSharedResults:
    """Memoized TimingResults are shared between memo hits; the
    per-uop time vectors are tuples so no caller can corrupt a later hit."""

    def _trace(self):
        tb = TraceBuilder()
        a = tb.alu()
        tb.load(0x1000, latency=12, deps=(a,))
        tb.store(0x2000, deps=(a,))
        return tb.build()

    def test_times_are_tuples(self):
        r = model().run(self._trace())
        assert isinstance(r.issue_times, tuple)
        assert isinstance(r.ready_times, tuple)
        with pytest.raises(TypeError):
            r.issue_times[0] = 99

    def test_unmemoized_schedule_also_returns_tuples(self):
        r = model()._schedule(self._trace())
        assert isinstance(r.issue_times, tuple)
        assert isinstance(r.ready_times, tuple)

    def test_equal_fingerprints_share_one_result_object(self):
        tm = model()
        r1 = tm.run(self._trace())
        r2 = tm.run(self._trace())  # separately built, same fingerprint
        assert r1 is r2
        assert tm.hits == 1

    def test_default_result_vectors_empty_tuples(self):
        from repro.sim.timing import TimingResult

        r = TimingResult(cycles=2)
        assert r.issue_times == () and r.ready_times == ()
        assert r.num_uops == 0
