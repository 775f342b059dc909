"""Fork-server warm state for parallel matrix workers.

The parallel harness (:mod:`repro.harness.parallel`) replays every cell on
*fresh* machines — that hermeticity is what makes sharded results
byte-identical to serial ones.  The price is that every cell re-pays the
same cold-start work: materializing the handful of interned fast-path
templates and generating the same deterministic op streams.  On the small
cells that sampling-style methodologies deliberately produce, that cold
start is most of the cell.  (Scheduling results need no bank: the columnar
engine's process-wide schedule store in :mod:`repro.sim.timing` is filled
by the parent's warm replays and reaches ``fork``-started workers with the
rest of the parent's memory.)

A :class:`WarmBank` lets a pool of fork-server workers share that work
**without perturbing a single counter**:

* **telemetry neutrality** — the bank is consulted only *after* a per-cell
  cache has already recorded its miss.  A bank hit replaces the *work* of
  the miss (the ``materialize()`` call, the stream generation), never the
  hit/miss accounting.  Per-cell
  ``trace_cache_hits``/``intern_hits`` — which feed the byte-compared
  figure payload and the pooled :class:`~repro.obs.metrics.MetricsRegistry`
  — are identical with and without a bank installed
  (``tests/integration/test_batching_differential.py`` enforces this);
* **determinism** — banked values are produced by the same pure functions
  they replace (an interned trace is fully determined by
  ``(site, tokens, latencies)``; op streams are seed-deterministic), so a
  bank hit returns a value bit-equal to what the cold path would compute;
* **picklability** — a bank built in the parent is shipped to pool workers
  through the executor ``initializer``.  Under the default ``fork`` start
  method it is inherited for free; under ``spawn`` it is pickled, which is
  why :class:`~repro.sim.uop.FingerprintKey` (the cached key of a banked
  template) re-derives its hash on unpickle (string hashes are per-process
  under ``PYTHONHASHSEED``).

The bank is process-global and installed at most once per worker
(:func:`install_bank` from the pool initializer).  The serial ``jobs=1``
path never installs one, keeping the differential baseline cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

#: Worker-side cap on lazily memoized op streams.  With locality-aware
#: batching a worker sees a handful of workload families; the cap only
#: matters on giant heterogeneous matrices, where evicting the oldest
#: stream costs one regeneration, not correctness.
MAX_WORKER_STREAMS = 16

#: Streams longer than this are not pre-generated parent-side (memory), only
#: memoized lazily in whichever worker first replays them.
STREAM_PREWARM_MAX_OPS = 20_000


@dataclass
class WarmBank:
    """Read-mostly warm state shared by every worker forked from one pool.

    ``templates`` are harvested from throwaway warm replays
    (:func:`harvest_machine`) and treated as read-only; ``streams`` also
    grows worker-side as cells generate streams the parent didn't pre-build
    (bounded by :data:`MAX_WORKER_STREAMS`).  The ``*_hits`` counters are
    per-process bank effectiveness telemetry — they never feed cell results.
    """

    templates: dict[tuple, Any] = field(default_factory=dict)
    """``(site, tokens, latencies)`` → shared fingerprinted ``Trace``."""
    streams: dict[tuple, tuple] = field(default_factory=dict)
    """``(workload, seed, num_ops)`` → read-only tuple of ``Op``."""
    template_hits: int = 0
    stream_hits: int = 0

    def summary(self) -> dict[str, int]:
        """JSON-ready bank sizes and hit counters (for progress streams and
        :func:`repro.obs.bridges.warm_registry` — kept out of cell metrics)."""
        return {
            "templates": len(self.templates),
            "streams": len(self.streams),
            "template_hits": self.template_hits,
            "stream_hits": self.stream_hits,
        }

    def counters(self) -> tuple[int, int]:
        return (self.template_hits, self.stream_hits)


_ACTIVE: WarmBank | None = None


def install_bank(bank: WarmBank | None) -> None:
    """Install ``bank`` as this process's warm bank (pool-initializer hook)."""
    global _ACTIVE
    _ACTIVE = bank


def active_bank() -> WarmBank | None:
    return _ACTIVE


def clear_bank() -> None:
    install_bank(None)


# ---------------------------------------------------------------------------
# Miss-path lookups (called by the interner, never on hits)
# ---------------------------------------------------------------------------
def lookup_template(site: str, tokens: tuple, latencies: tuple) -> Any | None:
    """A banked interned ``Trace``, or ``None``.

    Called by :meth:`repro.sim.trace_intern.TraceInterner.intern` only after
    the interner recorded a miss, so hit/miss telemetry is untouched either
    way."""
    bank = _ACTIVE
    if bank is None:
        return None
    trace = bank.templates.get((site, tokens, latencies))
    if trace is not None:
        bank.template_hits += 1
    return trace


def stream_for(
    name: str, seed: int, num_ops: int, generate: Callable[[], Any]
) -> Any:
    """The read-only op stream for ``(name, seed, num_ops)``.

    With no bank installed this is just ``generate()`` (the cold path, used
    by serial runs).  With a bank, streams are memoized per worker — the
    generated stream is deterministic, so reuse is invisible to results."""
    bank = _ACTIVE
    if bank is None:
        return generate()
    key = (name, seed, num_ops)
    ops = bank.streams.get(key)
    if ops is not None:
        bank.stream_hits += 1
        return ops
    ops = tuple(generate())
    bank.streams[key] = ops
    while len(bank.streams) > MAX_WORKER_STREAMS:
        bank.streams.pop(next(iter(bank.streams)))
    return ops


# ---------------------------------------------------------------------------
# Harvest
# ---------------------------------------------------------------------------
def harvest_machine(bank: WarmBank, machine: Any) -> None:
    """Fold one machine's interned templates into ``bank`` after a warm
    replay.

    Duck-typed: anything with an ``interner`` exporting templates
    contributes; first-seen values win (they are all bit-equal by
    determinism, so the choice is cosmetic)."""
    interner = getattr(machine, "interner", None)
    if interner is not None:
        for key, trace in interner.export_templates().items():
            bank.templates.setdefault(key, trace)
