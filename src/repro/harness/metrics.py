"""Distribution metrics for the paper's figures.

The paper's duration plots (Figures 1, 2, 15, 16) are *time-weighted*: each
call contributes its own duration to the bin it falls in, so the y-axis reads
"time in calls (PDF %)" — a handful of 10^4-cycle calls can outweigh
thousands of 20-cycle hits.  Figure 6 is a per-call (not time) CDF over the
number of distinct size classes, most-used first.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.alloc.allocator import CallRecord


@dataclass(frozen=True)
class Histogram:
    """Log-spaced histogram of time spent in calls by call duration."""

    bin_edges: tuple[float, ...]
    """len(bins)+1 edges, in cycles."""
    weights: tuple[float, ...]
    """Percentage of total time per bin (sums to ~100)."""

    def cumulative(self) -> tuple[float, ...]:
        acc = 0.0
        out = []
        for w in self.weights:
            acc += w
            out.append(acc)
        return tuple(out)

    def peak_bins(self, min_share: float = 5.0) -> list[tuple[float, float, float]]:
        """Local maxima holding at least ``min_share``% of time, as
        (lo_edge, hi_edge, share%) — used to locate Figure 1's three peaks.

        A run of equal-height bins (a plateau) is one peak, reported once
        and spanning the whole run, not once per bin."""
        peaks = []
        i, n = 0, len(self.weights)
        while i < n:
            w = self.weights[i]
            j = i
            while j + 1 < n and self.weights[j + 1] == w:
                j += 1
            left = self.weights[i - 1] if i > 0 else 0.0
            right = self.weights[j + 1] if j + 1 < n else 0.0
            if w >= min_share and w >= left and w >= right:
                peaks.append((self.bin_edges[i], self.bin_edges[j + 1], w))
            i = j + 1
        return peaks


def duration_histogram(
    records: list[CallRecord],
    bins_per_decade: int = 4,
    max_decade: int = 6,
    malloc_only: bool = False,
) -> Histogram:
    """Time-in-calls PDF over log-spaced duration bins (Figures 1, 15, 16)."""
    if malloc_only:
        records = [r for r in records if r.is_malloc]
    num_bins = bins_per_decade * max_decade
    edges = [10 ** (i / bins_per_decade) for i in range(num_bins + 1)]
    weights = [0.0] * num_bins
    total = 0.0
    for r in records:
        total += r.cycles
        # Bin against the edges actually reported: floating-point rounding in
        # log10(cycles) * bins_per_decade can land a value one bin away from
        # the bracket [edges[i], edges[i+1]) that bisect finds directly.
        idx = min(num_bins - 1, max(0, bisect.bisect_right(edges, r.cycles) - 1))
        weights[idx] += r.cycles
    if total > 0:
        weights = [100.0 * w / total for w in weights]
    return Histogram(bin_edges=tuple(edges), weights=tuple(weights))


def time_weighted_cdf(
    records: list[CallRecord], thresholds: tuple[int, ...] = (20, 50, 100, 1000, 10000, 100000)
) -> dict[int, float]:
    """Cumulative % of allocator time in calls below each threshold
    (Figure 2's y-axis sampled at round numbers)."""
    total = sum(r.cycles for r in records)
    out: dict[int, float] = {}
    for t in thresholds:
        below = sum(r.cycles for r in records if r.cycles < t)
        out[t] = 100.0 * below / total if total else 0.0
    return out


def size_class_cdf(records: list[CallRecord], max_classes: int = 30) -> list[float]:
    """Per-call CDF over size classes, most frequently used first
    (Figure 6): entry k is the % of malloc calls covered by the top k+1
    classes."""
    counts: dict[int, int] = {}
    total = 0
    for r in records:
        if r.is_malloc and r.size_class > 0:
            counts[r.size_class] = counts.get(r.size_class, 0) + 1
            total += 1
    if not total:
        return []
    ordered = sorted(counts.values(), reverse=True)
    cdf = []
    acc = 0
    for c in ordered[:max_classes]:
        acc += c
        cdf.append(100.0 * acc / total)
    return cdf


def classes_for_coverage(records: list[CallRecord], coverage: float = 90.0) -> int:
    """How many size classes cover ``coverage``% of malloc calls (the
    Figure 6 headline metric: all but one workload need <5; xalancbmk ~30)."""
    cdf = size_class_cdf(records, max_classes=10**6)
    for i, pct in enumerate(cdf):
        if pct >= coverage:
            return i + 1
    return len(cdf)


def trace_cache_summary(*results) -> dict[str, float]:
    """Aggregate trace-scheduling memoization stats over run results.

    Accepts any objects carrying ``trace_cache_hits``/``trace_cache_misses``
    (:class:`~repro.harness.runner.RunResult`,
    :class:`~repro.harness.runner.MultiThreadRunResult`); returns hits,
    misses, lookups, and the pooled hit rate.  All zeros means nothing was
    scheduled.
    """
    hits = sum(r.trace_cache_hits for r in results)
    misses = sum(r.trace_cache_misses for r in results)
    lookups = hits + misses
    return {
        "hits": float(hits),
        "misses": float(misses),
        "lookups": float(lookups),
        "hit_rate": hits / lookups if lookups else 0.0,
    }


def intern_summary(*results) -> dict[str, float]:
    """Aggregate emission-template intern stats over run results.

    Accepts any objects carrying ``intern_hits``/``intern_misses``
    (:class:`~repro.harness.runner.RunResult`,
    :class:`~repro.harness.runner.MultiThreadRunResult`,
    :class:`~repro.harness.parallel.CellResult`); returns hits, misses,
    lookups, and the pooled hit rate.  All zeros means nothing was
    allocated.  Like the trace cache, these are measurement machinery,
    never science: interning is byte-invisible in every figure payload.
    """
    hits = sum(r.intern_hits for r in results)
    misses = sum(r.intern_misses for r in results)
    lookups = hits + misses
    return {
        "hits": float(hits),
        "misses": float(misses),
        "lookups": float(lookups),
        "hit_rate": hits / lookups if lookups else 0.0,
    }


def sampling_summary(*results) -> dict[str, float]:
    """Aggregate sampled-replay telemetry over run results.

    Accepts any objects carrying ``detailed_calls``/``warming_calls``
    (:class:`~repro.harness.runner.SampledRunResult`,
    :class:`~repro.harness.parallel.CellResult`); returns the pooled call
    counts and the detail fraction (the sampling cost knob: the share of
    measured calls that paid for detailed timing simulation).  All zeros
    means every run was exact (or nothing ran).
    """
    detailed = sum(getattr(r, "detailed_calls", 0) for r in results)
    warming = sum(getattr(r, "warming_calls", 0) for r in results)
    total = detailed + warming
    return {
        "detailed_calls": float(detailed),
        "warming_calls": float(warming),
        "measured_calls": float(total),
        "detail_fraction": detailed / total if total else 0.0,
    }


def profile_stage_shares(summary: dict) -> dict[str, float]:
    """Per-stage share of replay wall time from a
    :meth:`~repro.harness.profile.HotPathProfiler.summary` payload.

    Shares are relative to the ``replay`` stage (the whole op loop); an
    empty dict means the profiler never saw a replay."""
    stages = summary.get("stages", {})
    replay = stages.get("replay", {}).get("seconds", 0.0)
    if not replay:
        return {}
    return {
        name: stage["seconds"] / replay
        for name, stage in stages.items()
        if name != "replay"
    }


def mean_cycles(records: list[CallRecord], malloc_only: bool = True, fast_only: bool = False) -> float:
    sel = [
        r
        for r in records
        if (r.is_malloc or not malloc_only) and (r.is_fast_path or not fast_only)
    ]
    return sum(r.cycles for r in sel) / len(sel) if sel else 0.0


def median_cycles(records: list[CallRecord], malloc_only: bool = True) -> float:
    sel = sorted(r.cycles for r in records if r.is_malloc or not malloc_only)
    if not sel:
        return 0.0
    mid = len(sel) // 2
    return float(sel[mid]) if len(sel) % 2 else (sel[mid - 1] + sel[mid]) / 2.0
