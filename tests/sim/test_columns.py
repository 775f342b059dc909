"""Columnar compilation: exact equivalence with the object scheduler.

Templates are harvested from a real replay (the interner's export), so the
columns under test are the ones the engine actually walks — every uop
kind, store-buffer flag, CSR dependence shape, and tag mix the allocators
emit.  Each template must schedule to the identical
:class:`~repro.sim.timing.TimingResult` through the flat arrays, with and
without tag ablation, and the compiled columns must survive pickling
(warm banks ship templates across processes).
"""

import os
import pickle

import pytest

from repro.sim.columns import (
    columns_of,
    compile_trace,
    removed_tag_mask,
    schedule_columns,
    schedule_columns_ablated,
)
from repro.sim.uop import Tag


def _templates():
    """Interned templates (with machine) from a short mixed replay."""
    saved = os.environ.get("REPRO_ENGINE")
    os.environ.pop("REPRO_ENGINE", None)  # columnar default
    try:
        from repro.harness.experiments import make_mallacc
        from repro.harness.runner import run_workload
        from repro.workloads import MACRO_WORKLOADS

        alloc = make_mallacc(intern_traces=True)
        wl = MACRO_WORKLOADS["400.perlbench"]
        run_workload(alloc, wl.ops(seed=7, num_ops=300), name=wl.name)
        return alloc.machine, list(alloc.machine.interner.export_templates().values())
    finally:
        if saved is not None:
            os.environ["REPRO_ENGINE"] = saved


MACHINE, TEMPLATES = _templates()

#: Tag sets the limit-study ablations actually use, plus a mixed one.
ABLATIONS = [
    frozenset({Tag.SIZE_CLASS}),
    frozenset({Tag.PUSH_POP}),
    frozenset({Tag.SAMPLING}),
    frozenset({Tag.CALL_OVERHEAD}),
    frozenset({Tag.SIZE_CLASS, Tag.PUSH_POP, Tag.SAMPLING}),
]


def test_harvest_is_representative():
    assert len(TEMPLATES) >= 10
    kinds = {uop.kind for t in TEMPLATES for uop in t.uops}
    assert len(kinds) >= 4  # loads, stores, ALU, branches at minimum


def test_schedule_columns_matches_object_scheduler():
    timing = MACHINE.timing
    for trace in TEMPLATES:
        ref = timing._schedule(trace)
        completion, issue, ready = schedule_columns(columns_of(trace), timing.config)
        assert completion + timing.config.pipeline_overhead == ref.cycles, trace
        assert tuple(issue) == ref.issue_times
        assert tuple(ready) == ref.ready_times


@pytest.mark.parametrize("tags", ABLATIONS, ids=lambda t: "+".join(sorted(x.name for x in t)))
def test_ablated_schedule_matches_without_tags(tags):
    """Zero-latency pass-throughs must equal the reference's transitive
    dependence rewiring — on every real template, removed uops or not."""
    timing = MACHINE.timing
    mask = removed_tag_mask(tags)
    for trace in TEMPLATES:
        ref = timing._schedule(trace.without_tags(tags))
        cols = columns_of(trace)
        if cols.tag_mask & mask:
            completion, _, _ = schedule_columns_ablated(cols, mask, timing.config)
        else:
            completion, _, _ = schedule_columns(cols, timing.config)
        assert completion + timing.config.pipeline_overhead == ref.cycles


class TestPickle:
    def test_columns_roundtrip(self):
        trace = TEMPLATES[0]
        cols = columns_of(trace)
        clone = pickle.loads(pickle.dumps(cols))
        assert clone.n == cols.n
        assert clone.kinds == cols.kinds
        assert clone.dep_indptr == cols.dep_indptr
        assert clone.dep_indices == cols.dep_indices
        assert clone.tag_mask == cols.tag_mask
        a = schedule_columns(cols, MACHINE.timing.config)
        b = schedule_columns(clone, MACHINE.timing.config)
        assert a == b

    def test_template_pickles_with_columns(self):
        """WarmBank pickles whole templates; compiled columns must ride
        along and stay usable."""
        trace = TEMPLATES[0]
        compile_trace(trace)
        assert getattr(trace, "_columns", None) is not None
        clone = pickle.loads(pickle.dumps(trace))
        cols = getattr(clone, "_columns", None)
        assert cols is not None
        a = schedule_columns(columns_of(trace), MACHINE.timing.config)
        b = schedule_columns(cols, MACHINE.timing.config)
        assert a == b

    def test_uncompiled_template_pickles_clean(self):
        """A template without columns (object-walk scheduled) must still
        pickle and compile on the other side."""
        fresh = pickle.loads(pickle.dumps(TEMPLATES[0]))
        fresh.__dict__.pop("_columns", None)
        clone = pickle.loads(pickle.dumps(fresh))
        assert getattr(clone, "_columns", None) is None
        ref = MACHINE.timing._schedule(fresh)
        completion, _, _ = schedule_columns(
            columns_of(clone), MACHINE.timing.config
        )
        assert completion + MACHINE.timing.config.pipeline_overhead == ref.cycles
