"""Bridges from the existing stat carriers into a :class:`MetricsRegistry`.

Each perf subsystem keeps its native counters (cheap, local, zero-dep);
these adapters lift them into one registry after the fact, which is how the
"unify the ad-hoc stats" goal coexists with the hot path staying untouched:

* :func:`run_registry` — a :class:`~repro.harness.runner.RunResult`,
  :class:`~repro.harness.runner.SampledRunResult`, or
  :class:`~repro.harness.runner.MultiThreadRunResult` (duck-typed);
* :func:`profiler_registry` — a
  :class:`~repro.harness.profile.HotPathProfiler`;
* :func:`stats_registry` — a hits/misses/evictions carrier such as
  ``TraceInternStats``;
* :func:`refill_summary` — the slow-path refill stage of a profiler
  (seconds, entries, share of replay wall time), as a dict and optional
  gauges;
* :func:`matrix_registry` — re-hydrates and merges the per-cell registries
  a matrix run serialized into its checkpoints;
* :func:`traffic_registry` — a
  :class:`~repro.traffic.engine.TrafficResult`, including its latency
  histograms (bucket-exact: merged shards reproduce serial percentiles);
* :func:`warm_registry` — a matrix run's op-stream bank summary
  (``MatrixStats.warm``), kept out of the byte-compared per-cell metrics;
* :func:`tuning_registry` — a
  :class:`~repro.harness.tuning.TuningResult` (points evaluated, front
  size, per-front-point objective gauges labeled by knob vector).

All of them accept an existing registry to accumulate into, plus extra
labels (``alloc="baseline"``) to keep series from different runs of the
same workload distinct instead of silently summed.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import engine_name as _engine_name


def run_registry(
    result,
    registry: MetricsRegistry | None = None,
    histogram: bool = True,
    **labels: object,
) -> MetricsRegistry:
    """Lift one run result's telemetry into a registry.

    ``histogram=True`` also folds every call record into a ``call_cycles``
    histogram (O(records) — skip it when only the counters matter).
    """
    reg = registry if registry is not None else MetricsRegistry()
    if getattr(result, "workload", ""):
        labels.setdefault("workload", result.workload)
    # Info-style marker: which replay engine produced these numbers.  The
    # engines are bit-identical on every other series, so this is the one
    # series allowed to differ — ``repro report --compare`` keys off it to
    # flag cross-engine diffs (and excludes it from the delta scan).
    engine = getattr(getattr(result, "manifest", None), "engine", "") or _engine_name()
    reg.gauge("engine_info", engine=engine, **labels).set(1.0)
    reg.counter("calls", **labels).inc(len(result.records))
    reg.counter("warmup_calls", **labels).inc(result.warmup_calls)
    reg.counter("app_cycles", **labels).inc(result.app_cycles)
    reg.counter("trace_cache_hits", **labels).inc(result.trace_cache_hits)
    reg.counter("trace_cache_misses", **labels).inc(result.trace_cache_misses)
    reg.counter("intern_hits", **labels).inc(result.intern_hits)
    reg.counter("intern_misses", **labels).inc(result.intern_misses)
    detailed = getattr(result, "detailed_calls", None)
    if detailed is not None:  # sampled replay telemetry
        reg.counter("detailed_calls", **labels).inc(detailed)
        reg.counter("warming_calls", **labels).inc(result.warming_calls)
        reg.gauge("sampling_rounds", **labels).set(result.rounds)
    if histogram:
        hist = reg.histogram("call_cycles", **labels)
        for record in result.records:
            hist.observe(record.cycles)
    return reg


def profiler_registry(
    profiler, registry: MetricsRegistry | None = None, **labels: object
) -> MetricsRegistry:
    """Lift a :class:`HotPathProfiler`'s stages and counters.  Stage wall
    time becomes a (float) counter labeled by stage, so merged registries
    sum seconds across cells exactly like ``HotPathProfiler.merge``."""
    reg = registry if registry is not None else MetricsRegistry()
    for name, stage in profiler.stages.items():
        reg.counter("stage_seconds", stage=name, **labels).inc(stage.seconds)
        reg.counter("stage_entries", stage=name, **labels).inc(stage.entries)
    for name, value in profiler.counters.items():
        reg.counter(f"profile_{name}", **labels).inc(value)
    return reg


def refill_summary(
    profiler, registry: MetricsRegistry | None = None, **labels: object
) -> dict:
    """Summarize the slow-path refill machinery from a profiler: seconds
    spent in refill emission (central-cache fetches/releases, scavenges,
    large-span traffic — reference hooks or fused columnar twins), entry
    and segment counts, and the refill share of total replay wall time.

    Optionally lifts the summary into ``registry`` (gauges, so re-bridging
    the same profiler twice does not double-count)."""
    refill = profiler.stages.get("refill")
    replay = profiler.stages.get("replay")
    seconds = refill.seconds if refill is not None else 0.0
    entries = refill.entries if refill is not None else 0
    segments = profiler.counters.get("refill_entries", 0)
    share = seconds / replay.seconds if replay is not None and replay.seconds else 0.0
    summary = {
        "refill_seconds": seconds,
        "refill_entries": entries,
        "refill_segments": segments,
        "refill_share": share,
    }
    if registry is not None:
        registry.gauge("refill_seconds", **labels).set(seconds)
        registry.gauge("refill_share", **labels).set(share)
        registry.gauge("refill_segments", **labels).set(float(segments))
    return summary


def stats_registry(
    stats,
    name: str,
    registry: MetricsRegistry | None = None,
    **labels: object,
) -> MetricsRegistry:
    """Lift a stats carrier under the series prefix ``name``.

    Hits/misses(/evictions) carriers (``TraceInternStats``) emit their
    classic three series.  Counters the
    carrier lacks default to 0 instead of raising — the allocator zoo's
    carriers (``HoardStats``, ``BuddyStats``) have no hit/miss notion — and
    every *other* public numeric field is emitted as its own series, so any
    allocator's native stats object lifts without a bespoke bridge."""
    reg = registry if registry is not None else MetricsRegistry()
    reg.counter(f"{name}_hits", **labels).inc(getattr(stats, "hits", 0))
    reg.counter(f"{name}_misses", **labels).inc(getattr(stats, "misses", 0))
    if hasattr(stats, "evictions"):
        reg.counter(f"{name}_evictions", **labels).inc(stats.evictions)
    for key, value in vars(stats).items():
        if key in ("hits", "misses", "evictions") or key.startswith("_"):
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        reg.counter(f"{name}_{key}", **labels).inc(value)
    return reg


def traffic_registry(
    result, registry: MetricsRegistry | None = None, **labels: object
) -> MetricsRegistry:
    """Lift one :class:`~repro.traffic.engine.TrafficResult` into a
    registry: request/call counters plus the allocation-latency and sojourn
    histograms as native registry histograms (identical bucket layout, so
    sharded cells merge into exactly the serial percentiles)."""
    reg = registry if registry is not None else MetricsRegistry()
    labels.setdefault("workload", result.workload)
    labels.setdefault("arrival", result.config.arrival)
    reg.counter("requests", **labels).inc(result.completed)
    reg.counter("warmup_requests", **labels).inc(result.warmup_requests)
    reg.counter("detailed_requests", **labels).inc(result.detailed_requests)
    reg.counter("skipped_requests", **labels).inc(result.skipped_requests)
    reg.counter("calls", **labels).inc(result.calls)
    reg.counter("warmup_calls", **labels).inc(result.warmup_calls)
    reg.counter("alloc_cycles", **labels).inc(result.alloc_cycles)
    reg.counter("app_cycles", **labels).inc(result.app_cycles)
    reg.counter("contention_cycles", **labels).inc(result.contention_cycles)
    reg.counter("context_switches", **labels).inc(result.context_switches)
    reg.gauge("throughput_rps", **labels).set(result.throughput_rps)
    reg.gauge("offered_rps", **labels).set(result.offered_rps)
    result.alloc_hist.to_registry(reg, "request_alloc_cycles", **labels)
    result.sojourn_hist.to_registry(reg, "request_sojourn_cycles", **labels)
    return reg


def matrix_registry(payloads: Iterable[Mapping]) -> MetricsRegistry:
    """Merge serialized per-cell registries (``CellResult.metrics``) back
    into one pool-level registry."""
    return MetricsRegistry.merged(
        MetricsRegistry.from_dict(p) for p in payloads if p
    )


def warm_registry(
    warm: Mapping[str, int],
    registry: MetricsRegistry | None = None,
    **labels: object,
) -> MetricsRegistry:
    """Lift a warm-bank summary (``MatrixStats.warm`` or
    :meth:`repro.harness.parallel.WarmBank.summary`) into a registry.

    Deliberately a *separate* bridge from the per-cell path: warm-bank
    telemetry describes the harness, not the science, and must never be
    merged into ``CellResult.metrics`` — the pooled per-cell registry is
    byte-compared serial-vs-sharded, and serial runs have no bank."""
    reg = registry if registry is not None else MetricsRegistry()
    reg.counter("warm_stream_hits", **labels).inc(int(warm.get("stream_hits", 0)))
    reg.gauge("warm_streams", **labels).set(int(warm.get("streams", 0)))
    return reg


def tuning_registry(
    tuning,
    registry: MetricsRegistry | None = None,
    **labels: object,
) -> MetricsRegistry:
    """Lift one :class:`~repro.harness.tuning.TuningResult` into a registry:
    search-level counters (points evaluated, descent rounds, quarantines)
    plus each Pareto-front point's objectives as gauges labeled by allocator
    and knob vector — so a dashboard can watch the front move run to run."""
    import json

    reg = registry if registry is not None else MetricsRegistry()
    labels.setdefault("workload", tuning.workload)
    reg.counter("tuning_points", **labels).inc(len(tuning.evaluated))
    reg.counter("tuning_front_size", **labels).inc(len(tuning.front))
    reg.counter("tuning_descent_rounds", **labels).inc(tuning.descent_rounds_run)
    reg.counter("tuning_quarantined", **labels).inc(len(tuning.quarantined))
    for point in tuning.front:
        cell = tuning.cells[point.cell_id]
        summary = point.summary
        point_labels = dict(
            labels,
            allocator=cell.allocator,
            knobs=json.dumps(dict(cell.knobs), sort_keys=True),
        )
        for objective, value in sorted(summary["objectives"].items()):
            reg.gauge(f"tuning_{objective}", **point_labels).set(float(value))
        reg.gauge("tuning_speedup", **point_labels).set(
            float(summary["speedup"])
        )
    return reg
