"""Unit tests for the emission-side intern table (TraceInterner)."""

import pytest

from repro.sim.trace_intern import TraceInterner
from repro.sim.uop import FingerprintKey, Tag, TraceBuilder, UopKind


def _builder(latency=4, token="fast"):
    tb = TraceBuilder()
    tb.note(token)
    a = tb.alu()
    tb.load(0x1000, latency, deps=(a,), tag=Tag.SIZE_CLASS)
    return tb


def _intern(interner, tb, site="malloc:fast"):
    return tb.build_interned(interner, site)


class TestInterning:
    def test_identical_emissions_share_one_trace(self):
        it = TraceInterner()
        t1 = _intern(it, _builder())
        t2 = _intern(it, _builder())
        assert t1 is t2
        assert it.stats.hits == 1 and it.stats.misses == 1
        assert it.num_templates == 1 and it.num_variants == 1

    def test_latency_variant_gets_new_trace_same_template(self):
        it = TraceInterner()
        t1 = _intern(it, _builder(latency=4))
        t2 = _intern(it, _builder(latency=12))
        assert t1 is not t2
        assert it.num_templates == 1 and it.num_variants == 2
        # Same structure, different latency: fingerprints must differ.
        assert t1.fingerprint() != t2.fingerprint()

    def test_different_tokens_are_different_templates(self):
        it = TraceInterner()
        _intern(it, _builder(token="a"))
        _intern(it, _builder(token="b"))
        assert it.num_templates == 2

    def test_different_sites_are_different_templates(self):
        it = TraceInterner()
        _intern(it, _builder(), site="malloc:fast")
        _intern(it, _builder(), site="free:fast")
        assert it.num_templates == 2

    def test_interned_trace_matches_plain_build(self):
        it = TraceInterner()
        interned = _intern(it, _builder())
        plain = _builder().build()
        assert interned.fingerprint() == plain.fingerprint()
        assert [u.kind for u in interned] == [u.kind for u in plain]

    def test_interned_trace_has_cached_fingerprint_key(self):
        it = TraceInterner()
        trace = _intern(it, _builder())
        key = trace.fingerprint_key()
        assert isinstance(key, FingerprintKey)
        # Hash/eq-compatible with the plain tuple in both directions, so
        # either form indexes the same trace-cache entry.
        fp = trace.fingerprint()
        assert key == fp and fp == key
        assert hash(key) == hash(fp)
        assert {key: 1}[fp] == 1 and {fp: 2}[key] == 2

    def test_adhoc_trace_returns_plain_tuple_key(self):
        trace = _builder().build()
        assert trace.fingerprint_key() is trace.fingerprint()

    def test_latency_length_mismatch_is_an_error(self):
        it = TraceInterner()
        tb = _builder()
        with pytest.raises(AssertionError, match="latency tuple"):
            it.intern("bad:site", ("t",), (1, 2, 3), tb._materialize)


class TestEviction:
    def test_fifo_eviction_bounds_variants(self):
        it = TraceInterner(max_variants=2)
        for latency in (1, 2, 3):
            _intern(it, _builder(latency=latency))
        assert it.num_variants == 2
        assert it.stats.evictions == 1
        # The evicted (oldest) variant re-materializes as a miss.
        _intern(it, _builder(latency=1))
        assert it.stats.misses == 4

    def test_clear_drops_tables_keeps_stats(self):
        it = TraceInterner()
        _intern(it, _builder())
        it.clear()
        assert it.num_templates == 0 and it.num_variants == 0
        assert it.stats.misses == 1


class TestValidateMode:
    def test_validate_passes_for_faithful_emission(self):
        it = TraceInterner(validate=True)
        _intern(it, _builder())
        _intern(it, _builder())
        assert it.stats.validations == 1

    def test_validate_catches_untokenized_structural_decision(self):
        """Two emissions with the same tokens+latencies but different
        structure: exactly the bug class validate mode exists for."""
        it = TraceInterner(validate=True)

        tb1 = TraceBuilder()
        tb1.load(0x100, 4)
        it.intern("buggy:site", (), (4,), tb1._materialize)

        tb2 = TraceBuilder()
        tb2.alu(latency=4)  # same latency tuple, different uop kind
        with pytest.raises(AssertionError, match="intern collision"):
            it.intern("buggy:site", (), (4,), tb2._materialize)


class TestStats:
    def test_hit_rate(self):
        it = TraceInterner()
        _intern(it, _builder())
        _intern(it, _builder())
        _intern(it, _builder())
        assert it.stats.lookups == 3
        assert it.stats.hit_rate == pytest.approx(2 / 3)
        assert it.stats.snapshot() == (2, 1)

    def test_empty_hit_rate(self):
        assert TraceInterner().stats.hit_rate == 0.0


class TestEnvGating:
    def test_default_is_enabled(self, monkeypatch):
        """Every machine interns and runs on the one sparse memory model,
        under both engines."""
        from repro.alloc.context import Machine
        from repro.sim.memory import SimulatedMemory

        for engine in ("columnar", "reference"):
            monkeypatch.setenv("REPRO_ENGINE", engine)
            machine = Machine()
            assert isinstance(machine.interner, TraceInterner)
            assert type(machine.memory) is SimulatedMemory

    def test_validate_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_INTERN_VALIDATE", "1")
        assert TraceInterner().validate
        monkeypatch.setenv("REPRO_INTERN_VALIDATE", "0")
        assert not TraceInterner().validate

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceInterner(max_variants=0)


class TestUopSlots:
    def test_uop_has_no_dict(self):
        from repro.sim.uop import Uop

        u = Uop(UopKind.ALU)
        assert not hasattr(u, "__dict__")
        with pytest.raises(AttributeError):
            u.extra = 1
