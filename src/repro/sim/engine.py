"""Replay-engine selection: ``columnar`` (default) vs ``reference``.

The simulator has two executable implementations of its hot loops:

* ``columnar`` — interned trace templates are compiled once into flat
  parallel ``array`` columns (:mod:`repro.sim.columns`), scheduling walks
  primitive arrays instead of per-uop objects, application ring traffic is
  applied lazily per cache set (:mod:`repro.sim.lazyhier`), and the
  allocator fast and refill paths run as fused priced twins
  (:mod:`repro.alloc.fastpath`, :mod:`repro.alloc.slowpath`).
* ``reference`` — the original per-uop/per-line object model, kept
  byte-for-byte as the executable specification.

Both engines share one functional memory model
(:class:`~repro.sim.memory.SimulatedMemory`) and always intern emitted
traces (:mod:`repro.sim.trace_intern`).

Both engines are *observationally identical*: every cycle count, counter,
stat dict and pooled metric must match bit-for-bit, which the differential
suite (``tests/integration/test_hot_path_differential.py`` and friends)
enforces across the full workload grid.  ``REPRO_ENGINE=reference`` selects
the reference engine process-wide; anything else — including unset —
selects columnar.  The variable is read at machine/model *construction*
time (like ``REPRO_CACHE_IMPL``), so tests can flip engines per machine
without re-importing.
"""

from __future__ import annotations

import os

ENGINE_COLUMNAR = "columnar"
ENGINE_REFERENCE = "reference"


def engine_name() -> str:
    """The engine selected by ``REPRO_ENGINE`` right now."""
    flag = os.environ.get("REPRO_ENGINE", "").strip().lower()
    if flag in ("reference", "ref", "object"):
        return ENGINE_REFERENCE
    return ENGINE_COLUMNAR


def is_columnar() -> bool:
    return engine_name() == ENGINE_COLUMNAR
