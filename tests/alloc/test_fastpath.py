"""Fused fast-path twins: registry discipline, fallbacks, error parity.

The columnar engine replaces the emit-then-schedule fast paths with
straight-line priced twins (:mod:`repro.alloc.fastpath`).  The twin
registry keys on the allocator's *exact* type — subclasses that override
emission hooks (``DebugAllocator``) silently fall back to the object
path — and every twin guard bails to ``None`` before mutating anything,
so slow paths, invalid arguments, and forensic wrappers behave exactly
as on the reference engine.
"""

import os
from contextlib import contextmanager

import pytest

from repro.alloc.allocator import Path, TCMalloc
from repro.alloc.debug import POISON, DebugAllocator
from repro.alloc.jemalloc import Jemalloc
from repro.core.accel_allocator import MallaccTCMalloc


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


class TestRegistry:
    def test_exact_type_gets_a_twin(self):
        from repro.alloc.fastpath import MallaccFastPath, TCMallocFastPath

        with _engine(None):
            assert isinstance(TCMalloc()._fastpath, TCMallocFastPath)
            assert isinstance(MallaccTCMalloc()._fastpath, MallaccFastPath)

    def test_subclass_falls_back_to_object_path(self):
        """DebugAllocator overrides malloc/free emission; inheriting the
        TCMalloc twin would skip its canaries.  Exact-type lookup refuses."""
        with _engine(None):
            assert DebugAllocator()._fastpath is None

    def test_reference_engine_attaches_no_twin(self):
        with _engine("reference"):
            assert TCMalloc()._fastpath is None
            assert MallaccTCMalloc()._fastpath is None


#: TCMalloc-family types that deliberately run without a twin, with the
#: twin kinds they lack.  A new exact-type subclass must either register its
#: twins or be listed here — otherwise it silently drops to the emitter.
UNTWINNED = {
    "DebugAllocator": {"fast", "slow"},  # canary/poison hooks must run
    "Jemalloc": {"slow"},  # fill/flush tcache refills have no fused twin
    "MallaccJemalloc": {"fast", "slow"},  # generality demo, emitter only
}


def _timed_allocators():
    """Every allocator the timed executors construct, by executor."""
    from repro.alloc.multithread import MultiThreadAllocator
    from repro.harness.experiments import make_baseline, make_mallacc
    from repro.traffic import TrafficConfig
    from repro.traffic.engine import _make_allocators

    yield "make_baseline", [make_baseline()]
    yield "make_mallacc", [make_mallacc()]
    for accelerated in (False, True):
        for coherent in (False, True):
            mt = MultiThreadAllocator(2, accelerated=accelerated, coherent=coherent)
            yield f"mt(accelerated={accelerated}, coherent={coherent})", mt.threads
        for cores in (1, 4):
            config = TrafficConfig(workload="tp_small", cores=cores)
            views = _make_allocators(config, accelerated, 32)[2]
            yield f"traffic(accelerated={accelerated}, cores={cores})", views


def _repro_subclasses(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            yield sub
        yield from _repro_subclasses(sub)


class TestTwinCoverage:
    def test_timed_executors_build_twinned_allocators(self):
        with _engine(None):
            for executor, views in _timed_allocators():
                for view in views:
                    kind = type(view).__name__
                    assert view._fastpath is not None, (executor, kind)
                    assert view._slowpath is not None, (executor, kind)

    def test_every_tcmalloc_type_is_twinned_or_exempt(self):
        from repro.alloc import jemalloc, twins

        jemalloc.make_mallacc_jemalloc()  # defines the lazy class
        registry = twins.registry()
        for cls in (TCMalloc, *_repro_subclasses(TCMalloc)):
            fast, slow = registry.get(cls, (None, None))
            missing = {
                kind for kind, twin in (("fast", fast), ("slow", slow)) if twin is None
            }
            assert missing == UNTWINNED.get(cls.__name__, set()), cls.__qualname__


def _churn(alloc, sizes=(16, 48, 128, 16, 96, 16, 16)):
    """A tiny mixed malloc/free stream; returns the observable records."""
    out = []
    ptrs = []
    for size in sizes:
        ptr, record = alloc.malloc(size)
        ptrs.append((ptr, size))
        out.append(("malloc", record.cycles, record.path.value))
    for ptr, size in ptrs:
        record = alloc.sized_free(ptr, size) if size % 2 == 0 else alloc.free(ptr)
        out.append(("free", record.cycles, record.path.value))
    return out


class TestFallbacks:
    def test_slow_path_falls_through_to_object_path(self):
        """A large allocation can't be served by any thread-cache twin; the
        twin must bail and the object path must price it — identically on
        both engines."""
        outs = {}
        for engine in (None, "reference"):
            with _engine(engine):
                alloc = TCMalloc()
                big = alloc.config.max_size + 4096
                ptr, record = alloc.malloc(big)
                free_rec = alloc.free(ptr)
                outs[engine] = (
                    record.cycles, record.path.value,
                    free_rec.cycles, free_rec.path.value,
                )
                assert record.path is not Path.FAST
        assert outs[None] == outs["reference"]

    @pytest.mark.parametrize("bad_size", [0, -1])
    def test_invalid_size_raises_on_both_engines(self, bad_size):
        for engine in (None, "reference"):
            with _engine(engine):
                alloc = TCMalloc()
                with pytest.raises(ValueError):
                    alloc.malloc(bad_size)

    def test_wild_free_raises_identically(self):
        messages = {}
        for engine in (None, "reference"):
            with _engine(engine):
                alloc = TCMalloc()
                alloc.malloc(32)
                with pytest.raises(ValueError) as exc:
                    alloc.free(0xDEAD0)
                messages[engine] = str(exc.value)
        assert messages[None] == messages["reference"]

    @pytest.mark.parametrize("alloc_type", [TCMalloc, MallaccTCMalloc, Jemalloc],
                             ids=lambda t: t.__name__)
    def test_twin_records_match_reference(self, alloc_type):
        outs = {}
        for engine in (None, "reference"):
            with _engine(engine):
                outs[engine] = _churn(alloc_type())
        assert outs[None] == outs["reference"]
        # The churn must actually exercise both fast paths under columnar.
        paths = {p for _, _, p in outs[None]}
        assert Path.FAST.value in paths
        assert Path.FREE_FAST.value in paths


class TestDebugForensics:
    """Reuse-after-free poisoning and canaries ride the object path on both
    engines — and the poison word is readable straight out of the arena."""

    @pytest.mark.parametrize("engine", [None, "reference"])
    def test_freed_block_is_poisoned(self, engine):
        with _engine(engine):
            alloc = DebugAllocator()
            ptr, _ = alloc.malloc(64)
            alloc.free(ptr)
            assert alloc.machine.memory.read_word(ptr) == POISON

    def test_forensics_identical_across_engines(self):
        outs = {}
        for engine in (None, "reference"):
            with _engine(engine):
                alloc = DebugAllocator()
                records = _churn(alloc, sizes=(24, 64, 24))
                outs[engine] = (records, alloc.frees_checked,
                                alloc.corruptions_detected)
        assert outs[None] == outs["reference"]

    @pytest.mark.parametrize("engine", [None, "reference"])
    def test_canary_corruption_detected(self, engine):
        from repro.alloc.debug import HeapCorruptionError

        with _engine(engine):
            alloc = DebugAllocator()
            ptr, _ = alloc.malloc(32)
            # Clobber the leading canary the way a buggy app would.
            alloc.machine.memory.write_word(ptr - 8, 0x41414141)
            with pytest.raises(HeapCorruptionError):
                alloc.free(ptr)
            assert alloc.corruptions_detected == 1
