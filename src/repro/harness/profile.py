"""Hot-path profiler: per-stage counters and wall time for the simulator.

The emission-side fast-forward (interned templates, O(1) caches, memoized
scheduling) was motivated by measurement; this module keeps the next
optimization round measured instead of guessed.  A
:class:`HotPathProfiler` attached to a :class:`~repro.alloc.context.Machine`
collects, per replay:

* **stages** — wall-clock seconds and entry counts for ``replay`` (the whole
  op loop, timed by the runner), ``refill`` (slow-path refill emission:
  central-cache fetches/releases, scavenges and large-span traffic, timed
  both in the reference machinery and in the fused columnar twins),
  ``build`` (trace materialization or intern lookup in
  ``TCMalloc._finish``), ``schedule`` (``TimingModel.run`` plus ablation
  variants), ``warming`` (a sampled replay's functional fast-forward
  stretches, timed by the sampled runner).  The residual ``replay - refill
  - build - schedule - warming`` is the remaining detailed-mode functional
  emission work (memory ops, hierarchy probes, free-list bookkeeping) and
  is reported as the derived ``emission`` stage.
* **counters** — allocator calls and uops seen, plus end-of-run deltas of
  the intern table (hits/misses), the trace-scheduling cache (hits/misses),
  and the cache hierarchy (probes = L1 lookups, DRAM accesses).

The profiler is strictly opt-in: every hook site guards on
``machine.profiler is not None``, so a disabled profiler costs one attribute
read and one ``is`` test per allocator call (measured < 5% overhead by
``benchmarks/bench_hot_path.py``).  The allocator deliberately duck-types
the profiler (no import of this module from ``repro.alloc`` — the harness
package imports the allocator, not vice versa).

Use it via ``run_workload(..., profiler=HotPathProfiler())``, the
``repro.cli profile`` subcommand, or directly::

    prof = HotPathProfiler()
    machine.profiler = prof
    ...
    print(render_profile(prof.summary()))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

#: Reporting order for the stage table.  ``warming`` is the functional
#: fast-forward stretch of a sampled replay (skip + warm modes);
#: ``columnar_compile`` is template compilation under the columnar engine,
#: nested *inside* ``schedule`` (so it is not part of the emission residual).
STAGE_ORDER = (
    "replay",
    "emission",
    "refill",
    "build",
    "schedule",
    "columnar_compile",
    "warming",
)


@dataclass
class StageStats:
    """Accumulated wall time for one named stage."""

    seconds: float = 0.0
    entries: int = 0


@dataclass
class HotPathProfiler:
    """Per-stage wall time and hot-path counters for one machine (or a
    group of machines — cores of a multithreaded run share one profiler)."""

    stages: dict[str, StageStats] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    # -- recording (hot-path facing: kept tiny) -----------------------------
    def add_stage(self, name: str, seconds: float) -> None:
        stage = self.stages.get(name)
        if stage is None:
            stage = self.stages[name] = StageStats()
        stage.seconds += seconds
        stage.entries += 1

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def timed(self, name: str):
        """Context manager timing one ``with`` block into ``name``."""
        return _StageTimer(self, name)

    # -- reporting ----------------------------------------------------------
    def summary(self) -> dict:
        """A JSON-ready summary: stage table (with the derived ``emission``
        residual), counters, and hit rates."""
        stages = {}
        for name, stage in self.stages.items():
            stages[name] = {"seconds": stage.seconds, "entries": stage.entries}
        replay = self.stages.get("replay")
        if replay is not None:
            # The warming stage is timed inside the replay loop too (the
            # sampled runner adds it separately), so it must be subtracted
            # here like build/schedule — otherwise functional fast-forward
            # time is double-counted as both "warming" and "emission" and
            # the stage shares sum past 1.
            accounted = sum(
                self.stages[name].seconds
                for name in ("refill", "build", "schedule", "warming")
                if name in self.stages
            )
            stages["emission"] = {
                "seconds": max(replay.seconds - accounted, 0.0),
                "entries": replay.entries,
            }
        summary: dict = {"stages": stages, "counters": dict(self.counters)}
        summary["rates"] = {
            "intern_hit_rate": _rate(self.counters, "intern_hits", "intern_misses"),
            "trace_cache_hit_rate": _rate(
                self.counters, "trace_cache_hits", "trace_cache_misses"
            ),
            "l1_hit_rate": _rate(self.counters, "l1_hits", "l1_misses"),
        }
        return summary

    def merge(self, other: "HotPathProfiler") -> None:
        """Fold another profiler's totals into this one (matrix pooling)."""
        for name, stage in other.stages.items():
            mine = self.stages.get(name)
            if mine is None:
                mine = self.stages[name] = StageStats()
            mine.seconds += stage.seconds
            mine.entries += stage.entries
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value


class _StageTimer:
    __slots__ = ("_profiler", "_name", "_t0")

    def __init__(self, profiler: HotPathProfiler, name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_StageTimer":
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._profiler.add_stage(self._name, perf_counter() - self._t0)


def _rate(counters: dict[str, int], hits_key: str, misses_key: str) -> float | None:
    hits = counters.get(hits_key)
    misses = counters.get(misses_key)
    if hits is None and misses is None:
        return None
    total = (hits or 0) + (misses or 0)
    return (hits or 0) / total if total else 0.0


def collect_machine_counters(profiler: HotPathProfiler, machines) -> None:
    """Snapshot hot-path counters off ``machines`` (deduplicated — coherent
    cores share an L3/interner-free substrate) into ``profiler``.

    Called by the runner *after* a replay with the pre-run snapshot already
    subtracted by the caller; here we simply read lifetime totals, so use
    :func:`machine_counter_snapshot` around the region of interest instead
    when deltas are needed.
    """
    for name, value in machine_counter_snapshot(machines).items():
        profiler.count(name, value)


def machine_counter_snapshot(machines) -> dict[str, int]:
    """Lifetime hot-path counters summed over distinct machines.

    Distinctness is by object identity of the underlying component, so a
    shared L3 or a shared interner is counted once.
    """
    totals: dict[str, int] = {
        "l1_hits": 0,
        "l1_misses": 0,
        "hierarchy_probes": 0,
        "dram_accesses": 0,
        "intern_hits": 0,
        "intern_misses": 0,
        "trace_cache_hits": 0,
        "trace_cache_misses": 0,
        "columnar_templates_compiled": 0,
        "columnar_uops_compiled": 0,
    }
    seen_l1: set[int] = set()
    seen_interners: set[int] = set()
    seen_timings: set[int] = set()
    for machine in machines:
        l1 = machine.hierarchy.l1
        if id(l1) not in seen_l1:
            seen_l1.add(id(l1))
            totals["l1_hits"] += l1.hits
            totals["l1_misses"] += l1.misses
            totals["hierarchy_probes"] += l1.hits + l1.misses
            totals["dram_accesses"] += machine.hierarchy.dram_accesses
        interner = machine.interner
        if interner is not None and id(interner) not in seen_interners:
            seen_interners.add(id(interner))
            totals["intern_hits"] += interner.stats.hits
            totals["intern_misses"] += interner.stats.misses
        timing = machine.timing
        if id(timing) not in seen_timings:
            seen_timings.add(id(timing))
            totals["trace_cache_hits"] += timing.hits
            totals["trace_cache_misses"] += timing.misses
            totals["columnar_templates_compiled"] += timing.columnar_compiles
            totals["columnar_uops_compiled"] += timing.columnar_compiled_uops
    return totals


def render_profile(summary: dict) -> str:
    """Plain-text table for one profiler summary (CLI output)."""
    lines = ["stage          seconds   entries"]
    stages = summary.get("stages", {})
    for name in STAGE_ORDER:
        stage = stages.get(name)
        if stage is None:
            continue
        lines.append(
            f"{name:<12}{stage['seconds']:>10.4f}{stage['entries']:>10d}"
        )
    for name, stage in sorted(stages.items()):
        if name not in STAGE_ORDER:
            lines.append(
                f"{name:<12}{stage['seconds']:>10.4f}{stage['entries']:>10d}"
            )
    counters = summary.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counter                 value")
        for name in sorted(counters):
            lines.append(f"{name:<20}{counters[name]:>10d}")
    rates = summary.get("rates", {})
    shown = {k: v for k, v in rates.items() if v is not None}
    if shown:
        lines.append("")
        for name in sorted(shown):
            lines.append(f"{name:<24}{shown[name]:>7.1%}")
    return "\n".join(lines)
