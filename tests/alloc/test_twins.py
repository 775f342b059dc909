"""Structure parity: the twins' token compiler against the emitting path.

Every fused twin (:mod:`repro.alloc.fastpath`, :mod:`repro.alloc.slowpath`)
states a call's uop structure only through
:func:`repro.alloc.twins.compile_struct`.  These tests replay real op
streams on both engines and require that, for every ``(site, tokens,
latencies)`` the columnar machine interns, the compiled trace is uop for uop
the trace the reference engine's emitters built: same kind, dependences,
tag and address.  Because compiled structures live in one process-wide
store, the tests also replay TCMalloc and then jemalloc in one process —
their fast-path tokens are identical, so a store key without the size2index
flavour would hand jemalloc TCMalloc's structure.
"""

import os
from contextlib import contextmanager

import pytest

from repro.alloc.allocator import TCMalloc
from repro.alloc.jemalloc import Jemalloc
from repro.alloc.twins import compile_struct
from repro.core.accel_allocator import MallaccTCMalloc
from repro.harness.runner import run_workload
from repro.sim.columns import StructTrace
from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS

ALLOCATORS = {"TCMalloc": TCMalloc, "MallaccTCMalloc": MallaccTCMalloc, "Jemalloc": Jemalloc}

#: Two fast-path-bound micro families and the refill-heaviest macro family.
FAMILIES = {
    "tp_small": (MICROBENCHMARKS["tp_small"], 2000),
    "sized_deletes": (MICROBENCHMARKS["sized_deletes"], 2000),
    "483.xalancbmk": (MACRO_WORKLOADS["483.xalancbmk"], 1500),
}


@contextmanager
def _engine(name):
    saved = os.environ.get("REPRO_ENGINE")
    if name is None:
        os.environ.pop("REPRO_ENGINE", None)
    else:
        os.environ["REPRO_ENGINE"] = name
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = saved


def _interned_uops(engine, allocator, family):
    """Replay ``family`` and return, per interned ``(site, tokens,
    latencies)``, the first materialized trace's ``(kind, deps, tag, addr)``
    per uop, plus how many of those traces a twin materialized."""
    workload, num_ops = FAMILIES[family]
    with _engine(engine):
        alloc = ALLOCATORS[allocator]()
    interner = alloc.machine.interner
    intern = interner.intern
    seen = {}
    twin_built = []

    def recording(site, tokens, lats, materialize):
        def capture():
            trace = materialize()
            key = (site, tokens, lats)
            if key not in seen:
                seen[key] = [(u.kind, u.deps, u.tag, u.addr) for u in trace.uops]
                twin_built.append(isinstance(trace, StructTrace))
            return trace

        return intern(site, tokens, lats, capture)

    interner.intern = recording
    run_workload(alloc, workload.ops(seed=7, num_ops=num_ops), name=family)
    return seen, sum(twin_built)


def _assert_parity(allocator, family):
    compiled, twin_built = _interned_uops(None, allocator, family)
    emitted, emitter_built = _interned_uops("reference", allocator, family)
    assert emitter_built == 0
    assert twin_built > 0, "no twin served the replay"
    assert compiled.keys() == emitted.keys()
    for key, uops in compiled.items():
        assert uops == emitted[key], (allocator, family, key[0], key[1])


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("allocator", list(ALLOCATORS))
def test_compiled_structure_matches_emitted(allocator, family):
    _assert_parity(allocator, family)


def test_tcmalloc_then_jemalloc_in_one_process():
    """Identical fast-path tokens, different size2index: the store must
    keep the two allocators' templates apart in either order."""
    _assert_parity("TCMalloc", "tp_small")
    _assert_parity("Jemalloc", "tp_small")
    _assert_parity("TCMalloc", "sized_deletes")


def test_flavour_changes_only_the_lookup():
    tokens = (("sized", True), ("tc_list_too_long", False))
    tcmalloc = compile_struct("free:fast", tokens, 2)
    jemalloc = compile_struct("free:fast", tokens, 1)
    assert len(tcmalloc) == len(jemalloc) + 1
    # Non-sized frees walk the pagemap: no size2index, no difference.
    pagemap = (("sized", False), ("tc_list_too_long", False))
    assert compile_struct("free:fast", pagemap, 2) == compile_struct("free:fast", pagemap, 1)


def test_compiler_rejects_a_stray_token():
    tokens = (("sized", False), ("tc_list_too_long", False), ("carve", 3))
    with pytest.raises(AssertionError, match="unconsumed"):
        compile_struct("free:fast", tokens, 2)
