"""Unit tests for the traffic engine: scheduler, sampling, comparisons."""

import pytest

from repro.obs.bridges import traffic_registry
from repro.traffic import (
    TrafficConfig,
    build_load_matrix,
    build_sessions,
    compare_traffic,
    estimate_capacity_rps,
    independent_sessions,
    run_traffic,
    run_traffic_cell,
    stream_sessions,
)
from repro.workloads import MACRO_WORKLOADS

CFG = TrafficConfig(
    workload="xapian.abstracts", arrival="poisson", rps=120.0,
    duration_s=0.6, cores=4, ops_per_request=24, seed=7,
)


def test_deterministic_replay():
    a = run_traffic(CFG)
    b = run_traffic(CFG)
    assert a.alloc_hist == b.alloc_hist
    assert a.call_cycles == b.call_cycles
    assert [r.completion for r in a.requests] == [r.completion for r in b.requests]
    assert a.alloc_cycles == b.alloc_cycles


def test_conservation_and_accounting():
    res = run_traffic(CFG)
    res.check_conservation()  # engine already ran it; idempotent
    sessions, arrivals = build_sessions(CFG)
    assert res.completed == len(sessions) == len(arrivals)
    assert res.warmup_requests == sum(1 for s in sessions if s.warmup)
    assert res.detailed_requests == res.measured_requests
    assert res.skipped_requests == 0
    assert res.alloc_hist.count == res.measured_requests
    # per-request alloc cycles sum to the measured total
    measured = [r for r in res.requests if not r.warmup]
    assert sum(r.alloc_cycles for r in measured) == res.alloc_cycles
    assert sum(r.calls for r in measured) == res.calls


def test_requests_never_start_before_arrival():
    res = run_traffic(CFG)
    for r in res.requests:
        assert r.start >= r.arrival
        assert r.completion >= r.start
        assert r.queue_wait >= 0
        assert r.sojourn >= r.alloc_cycles or not r.detailed


def test_multicore_spreads_requests():
    res = run_traffic(CFG)
    cores_used = {r.core for r in res.requests}
    assert len(cores_used) > 1, "4-core run should not serialize on one core"


def test_overload_grows_queueing_delay():
    """The open-loop property: past saturation, sojourn decouples from
    service time because queues grow without bound."""
    cap = estimate_capacity_rps(CFG)
    light = run_traffic(
        TrafficConfig(workload=CFG.workload, arrival="poisson",
                      rps=0.3 * cap, duration_s=0.6, cores=CFG.cores, seed=7))
    heavy = run_traffic(
        TrafficConfig(workload=CFG.workload, arrival="poisson",
                      rps=2.0 * cap, duration_s=0.6, cores=CFG.cores, seed=7))
    assert heavy.sojourn_hist.p95 > 3 * light.sojourn_hist.p95
    assert heavy.throughput_rps < heavy.offered_rps * 0.9


def test_mallacc_reduces_measured_alloc_cycles():
    comparison = compare_traffic(CFG)
    assert comparison.mallacc.alloc_cycles < comparison.baseline.alloc_cycles
    assert comparison.mallacc.alloc_hist.mean < comparison.baseline.alloc_hist.mean
    # identical stream on both sides
    assert comparison.baseline.completed == comparison.mallacc.completed
    assert comparison.baseline.calls == comparison.mallacc.calls


def test_sampled_mode_estimates_total():
    exact = run_traffic(CFG)
    cfg = TrafficConfig(
        workload=CFG.workload, arrival=CFG.arrival, rps=CFG.rps,
        duration_s=CFG.duration_s, cores=CFG.cores, seed=CFG.seed,
        sample_stride=4,
    )
    sampled = run_traffic(cfg)
    assert sampled.skipped_requests > 0
    assert sampled.detailed_requests < exact.detailed_requests
    assert sampled.plan is not None
    point, lo, hi = sampled.alloc_cycles_ci
    assert lo <= point <= hi
    # the bootstrap estimate brackets the exact measured total loosely
    assert exact.alloc_cycles == pytest.approx(point, rel=0.5)
    sampled.check_conservation()


def test_stream_mode_single_core_only():
    with pytest.raises(ValueError, match="cores=1"):
        TrafficConfig(workload="gauss", session_mode="stream",
                      total_ops=100, cores=2)
    with pytest.raises(ValueError, match="requires total_ops"):
        TrafficConfig(workload="gauss", session_mode="stream", cores=1)
    with pytest.raises(ValueError, match="independent sessions"):
        TrafficConfig(workload="gauss", session_mode="stream",
                      total_ops=100, cores=1, sample_stride=4)


def test_capacity_probe_positive():
    cap = estimate_capacity_rps(CFG)
    assert cap > 0
    # linear in cores by construction
    one_core = TrafficConfig(workload=CFG.workload, cores=1, seed=CFG.seed)
    assert estimate_capacity_rps(CFG) == pytest.approx(
        CFG.cores * estimate_capacity_rps(one_core))


def test_load_matrix_cells_and_worker():
    cells = build_load_matrix(CFG, loads=(0.4,), arrivals=("poisson",),
                              capacity_rps=300.0)
    [cell] = cells
    assert cell.rps == pytest.approx(120.0)
    assert "traffic-xapian.abstracts-poisson" in cell.cell_id
    small = TrafficConfig(workload="gauss", arrival="poisson", rps=80.0,
                          duration_s=0.4, cores=2, seed=3)
    [small_cell] = build_load_matrix(small, loads=(0.5,), capacity_rps=160.0)
    result = run_traffic_cell(small_cell)
    assert result.cell_id == small_cell.cell_id
    assert result.summary["offered_rps"] == pytest.approx(80.0)
    for key in ("baseline_p99", "mallacc_p99", "baseline_throughput_rps",
                "mallacc_throughput_rps", "p99_improvement_pct", "load"):
        assert key in result.summary
    assert result.metrics, "worker cells must carry their registry payload"


def test_traffic_registry_bridge():
    res = run_traffic(CFG)
    reg = traffic_registry(res, alloc="baseline")
    payload = reg.to_dict()
    assert payload
    # the histogram series reproduces the engine's percentiles via counts
    assert reg.counter("requests", workload=CFG.workload,
                       arrival="poisson", alloc="baseline").value \
        == res.completed


def test_independent_sessions_slots_disjoint():
    workload = MACRO_WORKLOADS["xapian.abstracts"]
    sessions = independent_sessions(workload, 20, 24, seed=5,
                                    warmup_requests=2)
    seen: set[int] = set()
    for sess in sessions:
        local = {op.slot for op in sess.ops if op.slot >= 0}
        assert not (local & seen), "sessions must not share slot ids"
        seen |= local
        # teardown: every malloc'd slot is freed within the session
        live: set[int] = set()
        for op in sess.ops:
            if op.kind.name == "MALLOC":
                live.add(op.slot)
            elif op.kind.name in ("FREE", "FREE_SIZED"):
                live.discard(op.slot)
        assert not live, "teardown_free must close every session"


def test_stream_sessions_cover_stream_in_order():
    workload = MACRO_WORKLOADS["xapian.abstracts"]
    raw = list(workload.ops(seed=11, num_ops=100))
    sessions = stream_sessions(workload, 100, 24, seed=11)
    flattened = [op for s in sessions for op in s.ops]
    assert flattened == raw


def _op_at_a_time(sessions, arrivals, cores, cost):
    """The scheduler's specification, one op per pick: join-shortest-queue
    admission, then the busy core earliest by (virtual clock, index) runs
    one op, then arrivals due at the floor are admitted and idle cores
    start.  Returns the (core, op) dispatch order and, per session index,
    its (core, start, completion)."""
    from collections import deque

    from repro.workloads.base import OpKind

    vclock = [0] * cores
    queues = [deque() for _ in range(cores)]
    active = [None] * cores
    pending = deque(zip(arrivals, sessions))
    order, placed = [], {}

    def admit(now):
        while pending and pending[0][0] <= now:
            c = min(
                range(cores),
                key=lambda i: (len(queues[i]) + (active[i] is not None), i),
            )
            queues[c].append(pending.popleft())

    def start():
        for c in range(cores):
            if active[c] is None and queues[c]:
                arrival, sess = queues[c].popleft()
                vclock[c] = max(arrival, vclock[c])
                active[c] = [sess, 0, vclock[c]]

    while True:
        busy = [c for c in range(cores) if active[c] is not None]
        if not busy:
            if not pending:
                return order, placed
            admit(pending[0][0])
            start()
            continue
        c = min(busy, key=lambda i: (vclock[i], i))
        sess, pos, begin = active[c]
        op = sess.ops[pos]
        active[c][1] += 1
        if op.kind is not OpKind.ANTAGONIZE:
            order.append((c, op))
            vclock[c] += op.gap_cycles + cost(op)
        if pos + 1 == len(sess.ops):
            placed[sess.index] = (c, begin, vclock[c])
            active[c] = None
        still_busy = [vclock[i] for i in busy if active[i] is not None]
        admit(min(still_busy) if still_busy else vclock[c])
        start()


@pytest.mark.parametrize("workload,arrival,rps,duration,cores,ops,cost", [
    # Constant service and arrivals: many equal virtual clocks, so the
    # (clock, index) tie-break decides most picks.
    ("tp_small", "constant", 2000.0, 0.05, 3, 12, lambda op: 400),
    # Varied service under Poisson overload: long queues, frequent lead
    # changes between cores, arrivals due in the middle of a run of ops.
    ("tp_small", "poisson", 3000.0, 0.05, 3, 12,
     lambda op: 50 + (op.size * 7 + op.slot * 13) % 900),
    # Short sessions at moderate load: cores finish with empty queues and
    # arrivals land between one core's finish and its rival's clock.
    ("xapian.abstracts", "poisson", 400.0, 0.2, 4, 4,
     lambda op: 50 + (op.size * 7 + op.slot * 13) % 900),
], ids=["ties", "overload", "idle-gaps"])
def test_batched_scheduler_matches_op_at_a_time(
    monkeypatch, workload, arrival, rps, duration, cores, ops, cost
):
    """``run_traffic`` keeps running the earliest core's ops in a batch; the
    dispatch order and every request's placement must equal the one-op-
    per-pick specification above.  Service times are made a pure function
    of the op so the specification can be replayed without an allocator."""
    from types import SimpleNamespace

    import repro.traffic.engine as engine

    config = TrafficConfig(
        workload=workload, arrival=arrival, rps=rps, duration_s=duration,
        clock_hz=1_000_000.0, cores=cores, ops_per_request=ops, seed=5,
    )
    sessions, arrivals = build_sessions(config)
    order = []

    def fake_dispatch(mt, op, slots, tid):
        order.append((tid, op))
        return SimpleNamespace(cycles=cost(op))

    monkeypatch.setattr(engine, "dispatch_call_mt", fake_dispatch)
    res = run_traffic(config, sessions=sessions, arrivals=arrivals)
    want_order, want_placed = _op_at_a_time(sessions, arrivals, cores, cost)
    assert order == want_order
    got = {r.index: (r.core, r.start, r.completion) for r in res.requests}
    assert got == want_placed
    assert len({core for core, _, _ in got.values()}) == cores
    assert any(r.start > r.arrival for r in res.requests), "no queueing"
