"""Unit tests for trace-scheduling memoization (repro.sim.timing).

The differential sweep over whole workloads lives in
``tests/integration/test_trace_cache_differential.py``; here we pin the
memo mechanics (fingerprint canonicality, the per-model memo and its
counters, the columnar engine's process-wide schedule store) at the
component level.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc import TCMalloc
from repro.harness.experiments import make_mallacc
from repro.harness.runner import run_workload
from repro.sim import timing as timing_mod
from repro.sim.timing import CoreConfig, TimingModel, TimingResult
from repro.sim.uop import LIMIT_STUDY_TAGS, Tag, Trace, TraceBuilder
from repro.workloads import MICROBENCHMARKS
from tests.sim.test_timing_properties import traces


def schedule_unmemoized(timing: TimingModel) -> None:
    """Turn memoization off on one model by instance patch: ``run`` and
    ``run_ablated`` call the pure scheduler, so neither the memo, the
    process store nor the hit/miss counters are touched."""
    timing.run = timing._schedule
    timing.run_ablated = lambda trace, tags: timing._schedule(trace.without_tags(tags))


def small_trace(load_latency=4, dep_on_load=True, tag=Tag.ADDRESSING):
    tb = TraceBuilder()
    a = tb.alu(tag=tag)
    ld = tb.load(0x1000, latency=load_latency, deps=(a,), tag=tag)
    tb.alu(deps=(ld,) if dep_on_load else (), tag=tag)
    return tb.build()


class TestFingerprint:
    def test_addresses_excluded(self):
        """Traces differing only in addresses schedule identically, so the
        fingerprint must unify them."""
        tb1, tb2 = TraceBuilder(), TraceBuilder()
        tb1.load(0x1000, latency=4)
        tb2.load(0xDEAD_BEEF, latency=4)
        assert tb1.build().fingerprint() == tb2.build().fingerprint()

    def test_latency_included(self):
        assert small_trace(4).fingerprint() != small_trace(12).fingerprint()

    def test_deps_included(self):
        assert (
            small_trace(dep_on_load=True).fingerprint()
            != small_trace(dep_on_load=False).fingerprint()
        )

    def test_tag_included(self):
        """Tags don't affect a full run but do select ablation variants; the
        key must distinguish them so run_ablated entries never alias."""
        assert (
            small_trace(tag=Tag.SIZE_CLASS).fingerprint()
            != small_trace(tag=Tag.PUSH_POP).fingerprint()
        )

    def test_kind_included(self):
        tb1, tb2 = TraceBuilder(), TraceBuilder()
        tb1.alu()
        tb2.branch()
        assert tb1.build().fingerprint() != tb2.build().fingerprint()

    def test_builder_fingerprint_matches_lazy_recompute(self):
        """build() precomputes the fingerprint; it must equal what a
        from-scratch recompute over the uops produces."""
        trace = small_trace()
        precomputed = trace.fingerprint()
        fresh = Trace(uops=list(trace.uops))
        assert fresh.fingerprint() == precomputed

    def test_fingerprint_is_hashable_and_stable(self):
        trace = small_trace()
        assert hash(trace.fingerprint()) == hash(trace.fingerprint())
        assert trace.fingerprint() is trace.fingerprint()  # cached


class TestTimingModelMemoization:
    def test_enabled_by_default(self):
        model = TimingModel()
        assert (model.hits, model.misses) == (0, 0)
        model.run(small_trace())
        model.run(small_trace())
        assert (model.hits, model.misses) == (1, 1)

    def test_hit_returns_equal_result(self):
        model = TimingModel()
        trace = small_trace()
        first = model.run(trace)
        again = model.run(trace)
        assert again is first  # shared memoized object
        assert (model.hits, model.misses) == (1, 1)

    def test_structurally_equal_traces_share_entry(self):
        model = TimingModel()
        r1 = model.run(small_trace())
        r2 = model.run(small_trace())  # distinct object, same shape
        assert r2 is r1
        assert model.hits == 1

    def test_run_ablated_matches_unmemoized_without_tags(self):
        memo = TimingModel()
        trace = small_trace(tag=Tag.SIZE_CLASS)
        expected = TimingModel()._schedule(trace.without_tags(LIMIT_STUDY_TAGS)).cycles
        assert memo.run_ablated(trace, LIMIT_STUDY_TAGS).cycles == expected
        # Second call is a pure memo hit (rewrite + schedule both skipped).
        before = memo.hits
        assert memo.run_ablated(trace, LIMIT_STUDY_TAGS).cycles == expected
        assert memo.hits == before + 1

    def test_full_and_ablated_keys_never_alias(self):
        model = TimingModel()
        trace = small_trace(tag=Tag.SIZE_CLASS)
        full = model.run(trace)
        ablated = model.run_ablated(trace, {Tag.SIZE_CLASS})
        assert full.cycles != ablated.cycles or full is not ablated
        assert model.run(trace) is full
        assert model.run_ablated(trace, {Tag.SIZE_CLASS}) is ablated


class TestAllocatorSwitch:
    def test_tcmalloc_exposes_stats(self):
        alloc = TCMalloc()
        alloc.malloc(64)
        timing = alloc.machine.timing
        assert timing.hits + timing.misses > 0

    def test_memoization_does_not_change_call_records(self):
        def replay(memoize):
            alloc = TCMalloc()
            if not memoize:
                schedule_unmemoized(alloc.machine.timing)
            out = []
            for i in range(40):
                ptr, rec = alloc.malloc(64 if i % 2 else 256)
                out.append((rec.cycles, dict(rec.ablated)))
                out.append((alloc.free(ptr).cycles,))
            return out

        assert replay(True) == replay(False)


class TestScheduleStore:
    """The columnar engine's process-wide store: consulted only by columnar
    models, and invisible to every counter."""

    def test_store_is_columnar_only(self, monkeypatch):
        monkeypatch.setattr(timing_mod, "_STORES", {})
        trace = small_trace(tag=Tag.SIZE_CLASS)
        tags = frozenset({Tag.SIZE_CLASS})
        truth = TimingModel(columnar=False)
        want_full = truth.run(trace).cycles
        want_ablated = truth.run_ablated(trace, tags).cycles
        assert timing_mod._STORES == {}  # the reference engine never writes
        poison = TimingResult(cycles=999_999)
        store = timing_mod._STORES.setdefault(CoreConfig(), {})
        store[trace.fingerprint_key()] = poison
        store[(trace.fingerprint_key(), tags)] = poison
        reference = TimingModel(columnar=False)
        assert reference.run(trace).cycles == want_full
        assert reference.run_ablated(trace, tags).cycles == want_ablated
        columnar = TimingModel(columnar=True)
        assert columnar.run(trace) is poison
        assert columnar.run_ablated(trace, tags) is poison

    def test_prefilled_store_is_neutral(self, monkeypatch):
        monkeypatch.setattr(timing_mod, "_STORES", {})
        workload = MICROBENCHMARKS["tp_small"]

        def replay():
            alloc = make_mallacc()
            result = run_workload(alloc, workload.ops(seed=7, num_ops=400))
            return alloc, {
                "cycles": [r.cycles for r in result.records],
                "ablated": [dict(r.ablated) for r in result.records],
                "memo": (result.trace_cache_hits, result.trace_cache_misses),
                "intern": (result.intern_hits, result.intern_misses),
            }

        alloc, cold = replay()
        stored = sum(len(s) for s in timing_mod._STORES.values())
        _, prefilled = replay()
        assert prefilled == cold
        assert cold["memo"][1] > 0
        if alloc.machine.timing.columnar:
            # Every miss of the second replay was served by the store.
            assert stored == cold["memo"][1]
            assert sum(len(s) for s in timing_mod._STORES.values()) == stored
        else:
            assert timing_mod._STORES == {}


@given(traces())
@settings(max_examples=60, deadline=None)
def test_memoized_equals_unmemoized(trace):
    """The tentpole property: memoization is observationally invisible."""
    memo = TimingModel(CoreConfig())
    a, b = memo.run(trace), TimingModel(CoreConfig())._schedule(trace)
    assert a.cycles == b.cycles
    assert a.issue_times == b.issue_times
    assert a.ready_times == b.ready_times


@given(traces(), st.sets(st.sampled_from(list(Tag)), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_memoized_ablation_equals_unmemoized(trace, tags):
    memo = TimingModel(CoreConfig())
    plain = TimingModel(CoreConfig())
    memo.run(trace)  # populate the full-run entry first; must not alias
    expected = plain._schedule(trace.without_tags(tags)).cycles
    assert memo.run_ablated(trace, tags).cycles == expected
