"""Tests for the hot-path profiler and its runner/metrics wiring."""

import pytest

from repro.harness.experiments import make_baseline, make_mallacc
from repro.harness.metrics import intern_summary, profile_stage_shares
from repro.harness.profile import (
    HotPathProfiler,
    StageStats,
    collect_machine_counters,
    machine_counter_snapshot,
    render_profile,
)
from repro.harness.runner import run_multithreaded, run_workload
from repro.alloc.multithread import MultiThreadAllocator
from repro.workloads import MICROBENCHMARKS
from repro.workloads.threads import balanced_churn


class TestProfilerCore:
    def test_stage_accumulation(self):
        p = HotPathProfiler()
        p.add_stage("build", 0.5)
        p.add_stage("build", 0.25)
        assert p.stages["build"].seconds == pytest.approx(0.75)
        assert p.stages["build"].entries == 2

    def test_counters(self):
        p = HotPathProfiler()
        p.count("calls")
        p.count("calls", 4)
        assert p.counters["calls"] == 5

    def test_timed_context_manager(self):
        p = HotPathProfiler()
        with p.timed("schedule"):
            pass
        assert p.stages["schedule"].entries == 1
        assert p.stages["schedule"].seconds >= 0.0

    def test_summary_emission_residual(self):
        p = HotPathProfiler()
        p.add_stage("replay", 1.0)
        p.add_stage("build", 0.2)
        p.add_stage("schedule", 0.3)
        stages = p.summary()["stages"]
        assert stages["emission"]["seconds"] == pytest.approx(0.5)
        assert stages["emission"]["entries"] == 1

    def test_summary_residual_clamped_nonnegative(self):
        p = HotPathProfiler()
        p.add_stage("replay", 0.1)
        p.add_stage("schedule", 0.3)  # timer skew must not go negative
        assert p.summary()["stages"]["emission"]["seconds"] == 0.0

    def test_summary_warming_not_double_counted(self):
        """Warming runs inside the replay loop *and* is reported as its own
        stage, so the emission residual must subtract it too.  Regression
        test: the residual used to be replay - build - schedule, silently
        counting every warming second twice (once as 'warming', once inside
        'emission'), so sampled-run stage shares summed past 100%."""
        p = HotPathProfiler()
        p.add_stage("replay", 1.0)
        p.add_stage("build", 0.2)
        p.add_stage("schedule", 0.3)
        p.add_stage("warming", 0.4)
        stages = p.summary()["stages"]
        assert stages["emission"]["seconds"] == pytest.approx(0.1)
        accounted = sum(
            stages[name]["seconds"]
            for name in ("emission", "build", "schedule", "warming")
        )
        assert accounted <= stages["replay"]["seconds"] + 1e-9
        shares = profile_stage_shares(p.summary())
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_sampled_run_stage_shares_bounded(self):
        """End-to-end check of the warming fix: a sampled replay's stage
        shares (all relative to the replay wall time) must sum to ~1, not
        1 + warming-share."""
        from repro.harness.runner import run_workload_sampled
        from repro.sim.sampling import SamplingConfig

        prof = HotPathProfiler()
        wl = MICROBENCHMARKS["tp_small"]
        run_workload_sampled(
            make_baseline,
            wl.ops(seed=3, num_ops=600),
            config=SamplingConfig(interval_ops=100, stride=4),
            profiler=prof,
        )
        shares = profile_stage_shares(prof.summary())
        assert "warming" in shares
        # Timer nesting means build/schedule/warming are timed inside the
        # replay timer; allow a little skew but nothing near a whole
        # double-counted warming share.
        assert sum(shares.values()) <= 1.10

    def test_rates(self):
        p = HotPathProfiler()
        p.count("intern_hits", 9)
        p.count("intern_misses", 1)
        s = p.summary()
        assert s["rates"]["intern_hit_rate"] == pytest.approx(0.9)
        assert s["rates"]["l1_hit_rate"] is None  # no hierarchy counters seen

    def test_merge(self):
        a, b = HotPathProfiler(), HotPathProfiler()
        a.add_stage("replay", 1.0)
        b.add_stage("replay", 2.0)
        b.add_stage("build", 0.5)
        b.count("calls", 3)
        a.merge(b)
        assert a.stages["replay"].seconds == pytest.approx(3.0)
        assert a.stages["build"].entries == 1
        assert a.counters["calls"] == 3

    def test_render_profile_smoke(self):
        p = HotPathProfiler()
        p.add_stage("replay", 1.0)
        p.count("calls", 10)
        text = render_profile(p.summary())
        assert "replay" in text and "calls" in text


class TestRunnerWiring:
    def test_profiler_populated_by_run(self):
        prof = HotPathProfiler()
        alloc = make_baseline()
        result = run_workload(
            alloc,
            MICROBENCHMARKS["tp_small"].ops(seed=3, num_ops=200),
            profiler=prof,
        )
        s = prof.summary()
        assert s["stages"]["replay"]["entries"] == 1
        assert s["stages"]["build"]["entries"] == prof.counters["calls"]
        assert s["stages"]["emission"]["seconds"] >= 0.0
        assert prof.counters["calls"] == len(result.records) + result.warmup_calls
        assert prof.counters["intern_hits"] > 0
        assert prof.counters["trace_cache_hits"] > 0
        assert prof.counters["hierarchy_probes"] > 0
        shares = profile_stage_shares(s)
        assert set(shares) >= {"build", "schedule", "emission"}
        assert all(v >= 0.0 for v in shares.values())

    def test_profiler_detached_after_run(self):
        prof = HotPathProfiler()
        alloc = make_baseline()
        run_workload(
            alloc,
            MICROBENCHMARKS["tp_small"].ops(seed=3, num_ops=50),
            profiler=prof,
        )
        assert alloc.machine.profiler is None

    def test_counters_are_run_deltas_not_lifetime(self):
        alloc = make_mallacc()
        ops = list(MICROBENCHMARKS["tp_small"].ops(seed=3, num_ops=100))
        run_workload(alloc, list(ops))  # unprofiled warm run
        prof = HotPathProfiler()
        run_workload(alloc, list(ops), profiler=prof)
        # Deltas: the profiled run's calls only, not both runs'.
        lifetime = machine_counter_snapshot([alloc.machine])
        assert prof.counters["trace_cache_hits"] < lifetime["trace_cache_hits"]

    def test_profile_identical_results(self):
        """Attaching a profiler must not change a single cycle."""
        ops = list(MICROBENCHMARKS["gauss_free"].ops(seed=5, num_ops=200))
        plain = run_workload(make_baseline(), list(ops))
        profiled = run_workload(
            make_baseline(), list(ops), profiler=HotPathProfiler()
        )
        assert [r.cycles for r in plain.records] == [
            r.cycles for r in profiled.records
        ]

    def test_multithreaded_profiler_pools_cores(self):
        prof = HotPathProfiler()
        mt = MultiThreadAllocator(4, coherent=True)
        workload = balanced_churn(4)
        run_multithreaded(
            mt, workload.ops(seed=7, num_ops=300), profiler=prof
        )
        assert prof.counters["calls"] > 0
        # Coherent mode: one timing model per core, all pooled once each.
        assert prof.counters["trace_cache_hits"] + prof.counters[
            "trace_cache_misses"
        ] == sum(m.timing.hits + m.timing.misses for m in mt.core_machines)


class TestSnapshotDedup:
    def test_shared_substrate_counted_once(self):
        alloc = make_baseline()
        run_workload(
            alloc, MICROBENCHMARKS["tp_small"].ops(seed=3, num_ops=100)
        )
        m = alloc.machine
        # Passing the same machine twice must not double-count anything.
        assert machine_counter_snapshot([m, m]) == machine_counter_snapshot([m])
        assert machine_counter_snapshot([m])["hierarchy_probes"] > 0

    def test_collect_adds_to_profiler(self):
        prof = HotPathProfiler()
        alloc = make_baseline()
        run_workload(
            alloc, MICROBENCHMARKS["tp_small"].ops(seed=3, num_ops=50)
        )
        collect_machine_counters(prof, [alloc.machine])
        assert prof.counters["trace_cache_hits"] == alloc.machine.timing.hits


class TestInternSummary:
    def test_pools_results(self):
        ops = list(MICROBENCHMARKS["tp_small"].ops(seed=3, num_ops=150))
        a = run_workload(make_baseline(), list(ops))
        b = run_workload(make_mallacc(), list(ops))
        s = intern_summary(a, b)
        assert s["hits"] == a.intern_hits + b.intern_hits
        assert s["lookups"] == s["hits"] + s["misses"]
        assert 0.0 < s["hit_rate"] <= 1.0

    def test_disabled_is_all_zero(self):
        ops = list(MICROBENCHMARKS["tp_small"].ops(seed=3, num_ops=50))
        r = run_workload(make_baseline(intern_traces=False), ops)
        s = intern_summary(r)
        assert s == {"hits": 0.0, "misses": 0.0, "lookups": 0.0, "hit_rate": 0.0}

    def test_stage_stats_default(self):
        assert StageStats().seconds == 0.0
