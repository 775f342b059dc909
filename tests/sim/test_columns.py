"""Columnar compilation: exact equivalence with the object scheduler.

Templates are taken from a real replay (the interner's variants), so the
columns under test are the ones the engine actually walks — every uop
kind, store-buffer flag, CSR dependence shape, and tag mix the allocators
emit.  Emitter-built templates carry no columns; :func:`columns` reaches
them through the same struct compiler the fused twins use.  Each template
must schedule to the identical :class:`~repro.sim.timing.TimingResult`
through the flat arrays, with and without tag ablation, and the compiled
columns must survive pickling.
"""

import os
import pickle

import pytest

from repro.sim.columns import (
    StructTrace,
    compile_struct_columns,
    materialize_struct_columns,
    removed_tag_mask,
    schedule_columns,
    schedule_columns_ablated,
)
from repro.sim.uop import Tag


def struct_of(trace):
    """``(struct, addrs, lats)`` for any trace: one address slot per
    addressed uop, in emission order."""
    struct, addrs, lats = [], [], []
    for uop in trace.uops:
        slot = None
        if uop.addr is not None:
            slot = len(addrs)
            addrs.append(uop.addr)
        struct.append((uop.kind, uop.deps, slot, uop.tag))
        lats.append(uop.latency)
    return tuple(struct), tuple(addrs), tuple(lats)


def columns(trace):
    """Fresh columns for ``trace`` via the twins' struct compiler."""
    struct, addrs, lats = struct_of(trace)
    static = compile_struct_columns(struct)
    return materialize_struct_columns(static, struct, addrs, lats)._columns


def _templates(engine):
    """Interned templates (with machine) from a short mixed replay.

    Under ``columnar`` the fused twins materialize every variant straight
    to columns; under ``reference`` the emitters build plain traces."""
    saved = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = engine
    try:
        from repro.harness.experiments import make_mallacc
        from repro.harness.runner import run_workload
        from repro.workloads import MACRO_WORKLOADS

        alloc = make_mallacc()
        wl = MACRO_WORKLOADS["400.perlbench"]
        run_workload(alloc, wl.ops(seed=7, num_ops=300), name=wl.name)
        return alloc.machine, list(alloc.machine.interner._variants.values())
    finally:
        if saved is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = saved


MACHINE, TWIN_TEMPLATES = _templates("columnar")
EMITTER_TEMPLATES = _templates("reference")[1]
TEMPLATES = TWIN_TEMPLATES + EMITTER_TEMPLATES

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
    # Both shapes the engine schedules: twin-materialized (columns from
    # birth) and emitter-built (object walk).
    assert all(isinstance(t, StructTrace) for t in TWIN_TEMPLATES)
    assert not any(isinstance(t, StructTrace) for t in EMITTER_TEMPLATES)
    assert len(EMITTER_TEMPLATES) >= 10


def test_schedule_columns_matches_object_scheduler():
    timing = MACHINE.timing
    for trace in TEMPLATES:
        ref = timing._schedule(trace)
        completion, issue, ready = schedule_columns(columns(trace), timing.config)
        assert completion + timing.config.pipeline_overhead == ref.cycles, trace
        assert tuple(issue) == ref.issue_times
        assert tuple(ready) == ref.ready_times
        twin = getattr(trace, "_columns", None)
        if twin is not None:
            assert schedule_columns(twin, timing.config) == (completion, issue, ready)


@pytest.mark.parametrize("tags", ABLATIONS, ids=lambda t: "+".join(sorted(x.name for x in t)))
def test_ablated_schedule_matches_without_tags(tags):
    """Zero-latency pass-throughs must equal the reference's transitive
    dependence rewiring — on every real template, removed uops or not."""
    timing = MACHINE.timing
    mask = removed_tag_mask(tags)
    for trace in TEMPLATES:
        ref = timing._schedule(trace.without_tags(tags))
        cols = columns(trace)
        if cols.tag_mask & mask:
            completion, _, _ = schedule_columns_ablated(cols, mask, timing.config)
        else:
            completion, _, _ = schedule_columns(cols, timing.config)
        assert completion + timing.config.pipeline_overhead == ref.cycles


class TestPickle:
    def test_columns_roundtrip(self):
        trace = TEMPLATES[0]
        cols = columns(trace)
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
        """A pickled twin-materialized template carries its columns, and
        they stay usable."""
        for trace in TWIN_TEMPLATES:
            assert getattr(trace, "_columns", None) is not None
            clone = pickle.loads(pickle.dumps(trace))
            cols = getattr(clone, "_columns", None)
            assert cols is not None
            a = schedule_columns(trace._columns, MACHINE.timing.config)
            b = schedule_columns(cols, MACHINE.timing.config)
            assert a == b
            assert clone.fingerprint() == trace.fingerprint()

    def test_uncompiled_template_pickles_clean(self):
        """A template without columns (object-walk scheduled) must still
        pickle and compile on the other side."""
        trace = EMITTER_TEMPLATES[0]
        clone = pickle.loads(pickle.dumps(trace))
        assert getattr(clone, "_columns", None) is None
        ref = MACHINE.timing._schedule(trace)
        completion, _, _ = schedule_columns(columns(clone), MACHINE.timing.config)
        assert completion + MACHINE.timing.config.pipeline_overhead == ref.cycles
