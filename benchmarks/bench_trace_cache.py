"""Trace-cache smoke benchmark: a trimmed Table 2 replay, memoized vs not.

Measures two things on the tab02 workload set and writes both to
``BENCH_trace_cache.json`` at the repository root:

* **trace replay** — the headline number: wall-clock to schedule the
  captured trace population (every trace the trimmed tab02 replay sends to
  ``TimingModel.run``, across two trial seeds, baseline and Mallacc)
  through the memo (``TimingModel.run``) vs the pure scheduler
  (``TimingModel._schedule``).  This isolates the scheduler itself.
* **end-to-end** — baseline-then-Mallacc replay wall-clock with the memo
  vs with every allocator's ``run``/``run_ablated`` patched onto the pure
  scheduler (application cache-traffic modeling disabled so the simulator
  core, not the app-traffic stream, is what's timed).

Both configurations produce bit-identical cycle counts — asserted here and,
exhaustively, by ``tests/integration/test_trace_cache_differential.py``.

Run via pytest (``pytest benchmarks/bench_trace_cache.py -m bench_smoke``)
or directly (``python benchmarks/bench_trace_cache.py``).
"""

import gc
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from repro.harness.experiments import make_baseline, make_mallacc
from repro.harness.runner import run_workload
from repro.sim.timing import CoreConfig, TimingModel
from repro.workloads import MACRO_WORKLOADS

#: Trimmed tab02: four of the eight macro workloads, two trial seeds
#: (the full table runs all eight with four seed-randomized trials each).
TRIM_WORKLOADS = ["400.perlbench", "483.xalancbmk", "masstree.same", "xapian.abstracts"]
TRIM_OPS = int(os.environ.get("REPRO_BENCH_OPS", "800"))
TRIM_SEEDS = (100, 117, 134, 151)  # tab02's four trial seeds (base_seed + 17*t)

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_trace_cache.json"


def _capture_traces():
    """Every trace the trimmed replay schedules, in submission order."""
    traces = []
    for name in TRIM_WORKLOADS:
        workload = MACRO_WORKLOADS[name]
        for seed in TRIM_SEEDS:
            ops = list(workload.ops(seed=seed, num_ops=TRIM_OPS))
            for alloc in (make_baseline(), make_mallacc()):
                original = alloc.machine.timing.run

                def spy(trace, _original=original):
                    traces.append(trace)
                    return _original(trace)

                alloc.machine.timing.run = spy
                run_workload(alloc, ops, name=name, model_app_traffic=False)
                alloc.machine.timing.run = original
    return traces


@contextmanager
def _gc_paused():
    """Cyclic GC off while timing: the passes allocate hundreds of thousands
    of small tuples, and a mid-pass gen-2 collection (which scans every
    accumulated fingerprint) would be charged to whichever pass it lands in."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _time_trace_replay(traces, repeats=2):
    # Best-of-N on both passes: scheduler interpreter noise (OS jitter,
    # frequency scaling) only ever inflates a pass, so the min is the
    # faithful estimate.  Each repeat uses a fresh model.
    seconds_off, seconds_on = float("inf"), float("inf")
    unmemoized = memoized = None
    warm = None
    for _ in range(repeats):
        cold = TimingModel(CoreConfig())
        with _gc_paused():
            t0 = time.perf_counter()
            unmemoized = [cold._schedule(t).cycles for t in traces]
            seconds_off = min(seconds_off, time.perf_counter() - t0)

        warm = TimingModel(CoreConfig())
        with _gc_paused():
            t0 = time.perf_counter()
            memoized = [warm.run(t).cycles for t in traces]
            seconds_on = min(seconds_on, time.perf_counter() - t0)

    assert memoized == unmemoized, "memoized replay diverged from unmemoized"
    return {
        "traces": len(traces),
        "seconds_unmemoized": round(seconds_off, 4),
        "seconds_memoized": round(seconds_on, 4),
        "speedup": round(seconds_off / seconds_on, 2),
        "hit_rate": round(warm.hits / (warm.hits + warm.misses), 4),
    }


def _unmemoized(timing):
    """Instance patch: route ``timing``'s memoized entry points to the pure
    scheduler, so every call is scheduled from scratch."""
    timing.run = timing._schedule
    timing.run_ablated = lambda trace, tags: timing._schedule(trace.without_tags(tags))


def _time_end_to_end():
    def replay(memoize):
        with _gc_paused():
            t0 = time.perf_counter()
            results = {}
            for name in TRIM_WORKLOADS:
                ops = list(MACRO_WORKLOADS[name].ops(seed=TRIM_SEEDS[0], num_ops=TRIM_OPS))
                runs = []
                for alloc in (make_baseline(), make_mallacc()):
                    if not memoize:
                        _unmemoized(alloc.machine.timing)
                    runs.append(run_workload(alloc, ops, name=name, model_app_traffic=False))
                results[name] = runs
            return time.perf_counter() - t0, results

    seconds_off, off = replay(False)
    seconds_on, on = replay(True)
    # Best-of-2, same rationale as the trace replay: noise only inflates.
    seconds_off = min(seconds_off, replay(False)[0])
    seconds_on = min(seconds_on, replay(True)[0])

    identical = all(
        [(r.cycles, r.ablated) for r in a.records] == [(r.cycles, r.ablated) for r in b.records]
        for name in TRIM_WORKLOADS
        for a, b in zip(off[name], on[name])
    )
    hits = sum(r.trace_cache_hits for runs in on.values() for r in runs)
    lookups = sum(r.trace_cache_lookups for runs in on.values() for r in runs)
    return {
        "seconds_unmemoized": round(seconds_off, 4),
        "seconds_memoized": round(seconds_on, 4),
        "speedup": round(seconds_off / seconds_on, 2),
        "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        "bit_identical": identical,
    }


def main() -> dict:
    traces = _capture_traces()
    replay = _time_trace_replay(traces)
    end_to_end = _time_end_to_end()
    payload = {
        "benchmark": "trace_cache_tab02_replay",
        "workloads": TRIM_WORKLOADS,
        "ops_per_workload": TRIM_OPS,
        "seeds": list(TRIM_SEEDS),
        "speedup": replay["speedup"],
        "hit_rate": replay["hit_rate"],
        "trace_replay": replay,
        "end_to_end": end_to_end,
        "notes": (
            "trace_replay times TimingModel.run over the captured tab02 trace "
            "population through the memo vs the pure scheduler; end_to_end "
            "times baseline-then-Mallacc replays with the memo vs with run/"
            "run_ablated patched onto the pure scheduler, app-traffic "
            "modeling off.  Cycle counts are bit-identical in every "
            "configuration."
        ),
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


@pytest.mark.bench_smoke
def test_bench_trace_cache():
    payload = main()
    assert payload["end_to_end"]["bit_identical"]
    assert payload["hit_rate"] >= 0.90
    # Memoization's *relative* payoff shrank when the unmemoized scheduler
    # itself got faster (slotted Uops, hoisted scheduling-loop binds in the
    # emission fast-forward round): ~4.4x before, ~2.7x after, with both
    # absolute times improving.  The floor tracks the new baseline.
    assert payload["speedup"] >= 2.0
    # End-to-end is Amdahl-limited (scheduling is ~45% of a replay even with
    # app traffic off), so the bar here is only "clearly faster".
    assert payload["end_to_end"]["speedup"] >= 1.1
    print()
    print(f"trace replay : {payload['speedup']:.2f}x over {payload['trace_replay']['traces']} traces "
          f"({100 * payload['hit_rate']:.1f}% hit rate)")
    print(f"end to end   : {payload['end_to_end']['speedup']:.2f}x "
          f"({100 * payload['end_to_end']['hit_rate']:.1f}% hit rate)")
    print(f"written to   : {OUT_PATH}")


if __name__ == "__main__":
    result = main()
    print(json.dumps(result, indent=2))
