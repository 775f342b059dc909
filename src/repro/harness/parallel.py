"""Parallel, fault-tolerant experiment harness.

Regenerating the paper's full evaluation replays every (workload ×
allocator-config × cache-size) cell through
:func:`~repro.harness.experiments.compare_workload` — on a Python timing
model, strictly serial replay is the dominant wall-clock cost.  This module
shards that experiment matrix across a ``multiprocessing`` worker pool:

* **determinism** — every cell carries its own seed and builds fresh
  machines on an identical op stream, so sharded results are byte-identical
  to serial ones (``tests/integration/test_parallel_differential.py``
  enforces this on the JSON serialization);
* **checkpointing** — each completed cell writes one JSON file under the
  checkpoint directory (atomically: temp file + rename), and a resumed run
  skips every cell whose checkpoint matches, so an interrupted or crashed
  run never recomputes finished work;
* **fault tolerance** — a failing cell is retried with exponential backoff
  up to ``max_retries`` times; a cell that keeps failing is *quarantined*
  and reported in the result, never silently dropped.  A worker process
  dying mid-task (OOM-kill, segfault) surfaces as a broken-pool error on
  its round; only then is the pool rebuilt, and only the cells in flight
  on it are retried;
* **observability** — a structured progress stream (``progress`` callback
  receiving dict events) reports tasks done/failed/retried/quarantined,
  per-cell wall time, and the pooled trace-cache hit rate via
  :func:`~repro.harness.metrics.trace_cache_summary`.

Scheduling is deliberately plain, because the cells sampled methodologies
produce (SMARTS-style interval plans) are small and numerous, and whatever
the pool adds per cell is what limits their throughput:

* **one cell per task, in matrix order** — the pool work-steals single
  cells, so no worker idles while another drains a multi-cell batch (cell
  costs differ severalfold across workload families);
* **parent-side op streams** — before the pool starts, the parent
  generates each distinct op stream once (:func:`build_warm_bank`) and the
  pool ``initializer`` hands the read-only :class:`WarmBank` to every
  worker (inherited for free under ``fork``).  The streams are
  seed-deterministic, so sharing them is invisible to results;
* **one pool per run** — the ``ProcessPoolExecutor`` is created once and
  reused across retry rounds; it is rebuilt only after a
  ``BrokenProcessPool`` (a worker killed outright).

Entry points: ``build_matrix`` to enumerate cells, ``run_matrix`` to
execute them, ``matrix_figure_data`` for the canonical (order-stable,
wall-time-free) figure/table payload.  Wired through
``repro.harness.sweeps`` (``jobs=``), the CLI (``python -m repro matrix
--jobs N --resume --checkpoint-dir D``) and
``benchmarks/bench_parallel_harness.py``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zlib
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.harness.experiments import (
    compare_workload,
    compare_workload_sampled,
    summarize_comparison,
    summarize_sampled_comparison,
)
from repro.harness.metrics import intern_summary, sampling_summary, trace_cache_summary
from repro.obs.bridges import matrix_registry, run_registry
from repro.obs.manifest import collect_manifest
from repro.obs.tracer import get_tracer
from repro.sim.sampling import SamplingConfig

CHECKPOINT_VERSION = 2
"""Bumped to 2 when cells grew ``metrics``/``manifest`` payloads — version-1
checkpoints are silently recomputed rather than resumed without provenance."""


# ---------------------------------------------------------------------------
# Matrix cells
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCell:
    """One cell of the experiment matrix: a workload replayed under baseline
    and Mallacc at one allocator configuration.  Fully declarative and
    picklable — the worker rebuilds fresh machines from these fields alone,
    which is what makes sharded replay bit-exact."""

    workload: str
    cache_entries: int = 32
    num_ops: int = 1000
    seed: int = 1
    model_app_traffic: bool = True
    sampled: bool = False
    """Replay through :func:`~repro.harness.experiments.compare_workload_sampled`
    instead of the exact comparison."""
    interval_ops: int = 200
    stride: int = 16
    sampler: str = "systematic"
    target_ci: float | None = None
    """Error budget in program-speedup CI half-width percentage points."""
    allocator: str = "tcmalloc"
    """Zoo allocator running the cell (must have a Mallacc flavour)."""

    @property
    def cell_id(self) -> str:
        """Stable identifier; doubles as the checkpoint file stem.

        Exact cells keep their historical ids (old checkpoint directories
        stay resumable; the allocator appears only when non-default);
        sampled cells append every sampling knob so a config change never
        reuses a stale checkpoint."""
        suffix = "" if self.model_app_traffic else "-noapp"
        if self.allocator != "tcmalloc":
            suffix += f"-{self.allocator}"
        if self.sampled:
            budget = f"-t{self.target_ci:g}" if self.target_ci is not None else ""
            suffix += (
                f"-smp-{self.sampler}-i{self.interval_ops}"
                f"-k{self.stride}{budget}"
            )
        return (
            f"{self.workload}-e{self.cache_entries}"
            f"-n{self.num_ops}-s{self.seed}{suffix}"
        )

    def sampling_config(self) -> SamplingConfig:
        return SamplingConfig(
            interval_ops=self.interval_ops,
            sampler=self.sampler,
            stride=self.stride,
            target_ci=self.target_ci,
            seed=self.seed,
        )


def derive_seed(base_seed: int, workload: str) -> int:
    """Deterministic per-task seed: stable across runs, processes, and
    shard assignment (crc32, not ``hash()``, so ``PYTHONHASHSEED`` is
    irrelevant).  Cells of the same workload share a seed so cache-size
    sweep points replay the identical op stream (the Figure 17
    methodology)."""
    return (base_seed + zlib.crc32(workload.encode("utf-8"))) % (2**31 - 1)


def build_matrix(
    workloads: Sequence[str],
    cache_sizes: Sequence[int] = (32,),
    num_ops: int = 1000,
    base_seed: int = 1,
    model_app_traffic: bool = True,
    per_task_seeds: bool = True,
    sampled: bool = False,
    interval_ops: int = 200,
    stride: int = 16,
    sampler: str = "systematic",
    target_ci: float | None = None,
    allocator: str = "tcmalloc",
) -> list[SweepCell]:
    """Enumerate the (workload × cache-size) matrix in canonical order.

    With ``per_task_seeds`` each workload gets a seed derived from
    ``base_seed`` via :func:`derive_seed`; otherwise every cell uses
    ``base_seed`` verbatim (the legacy serial-sweep convention).
    ``sampled=True`` replays every cell through the interval-sampling
    engine with the given knobs (see :class:`SweepCell`).
    """
    return [
        SweepCell(
            workload=name,
            cache_entries=size,
            num_ops=num_ops,
            seed=derive_seed(base_seed, name) if per_task_seeds else base_seed,
            model_app_traffic=model_app_traffic,
            sampled=sampled,
            interval_ops=interval_ops,
            stride=stride,
            sampler=sampler,
            target_ci=target_ci,
            allocator=allocator,
        )
        for name in workloads
        for size in cache_sizes
    ]


@dataclass
class CellResult:
    """The scalar outcome of one cell (a serialized
    :func:`~repro.harness.experiments.summarize_comparison` payload).

    ``wall_seconds`` and the intern counters are measurement machinery, not
    science — they are excluded from :meth:`figure_data` so serial and
    sharded payloads compare equal (and so interning stays byte-invisible
    in matrix output).
    """

    cell_id: str
    workload: str
    cache_entries: int
    num_ops: int
    seed: int
    summary: dict[str, float | int]
    wall_seconds: float = 0.0
    intern_hits: int = 0
    intern_misses: int = 0
    detailed_calls: int = 0
    """Calls through the detailed timing model (0 for exact cells, whose
    summary already accounts every call)."""
    warming_calls: int = 0
    metrics: dict = field(default_factory=dict)
    """This cell's serialized :class:`~repro.obs.metrics.MetricsRegistry`
    (baseline + mallacc telemetry, labeled) — checkpointed with the cell so
    the pool can merge worker registries without re-running anything."""
    manifest: dict = field(default_factory=dict)
    """Serialized :class:`~repro.obs.manifest.RunManifest` for this cell."""

    @property
    def trace_cache_hits(self) -> int:
        return int(self.summary.get("trace_cache_hits", 0))

    @property
    def trace_cache_misses(self) -> int:
        return int(self.summary.get("trace_cache_misses", 0))

    def figure_data(self) -> dict:
        """Deterministic figure/table payload for this cell."""
        return {
            "cell_id": self.cell_id,
            "workload": self.workload,
            "cache_entries": self.cache_entries,
            "num_ops": self.num_ops,
            "seed": self.seed,
            "summary": dict(sorted(self.summary.items())),
        }


def run_cell(cell: SweepCell) -> CellResult:
    """Execute one cell on fresh machines (the worker-side entry point)."""
    from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS

    registry = {**MICROBENCHMARKS, **MACRO_WORKLOADS}
    if cell.workload not in registry:
        raise ValueError(f"unknown workload {cell.workload!r}")
    workload = registry[cell.workload]
    manifest = collect_manifest(asdict(cell), seed=cell.seed, cell_id=cell.cell_id)
    ops = _op_stream(cell, workload)
    if cell.sampled:
        comparison = compare_workload_sampled(
            workload,
            num_ops=cell.num_ops,
            seed=cell.seed,
            cache_entries=cell.cache_entries,
            model_app_traffic=cell.model_app_traffic,
            sampling=cell.sampling_config(),
            ops=ops,
            allocator=cell.allocator,
        )
        summary = summarize_sampled_comparison(comparison)
        detailed = comparison.baseline.detailed_calls + comparison.mallacc.detailed_calls
        warming = comparison.baseline.warming_calls + comparison.mallacc.warming_calls
    else:
        comparison = compare_workload(
            workload,
            num_ops=cell.num_ops,
            seed=cell.seed,
            cache_entries=cell.cache_entries,
            model_app_traffic=cell.model_app_traffic,
            ops=ops,
            allocator=cell.allocator,
        )
        summary = summarize_comparison(comparison)
        detailed = warming = 0
    cell_metrics = run_registry(comparison.baseline, alloc="baseline")
    run_registry(comparison.mallacc, cell_metrics, alloc="mallacc")
    cell_metrics.counter("cells_done").inc()
    return CellResult(
        cell_id=cell.cell_id,
        workload=cell.workload,
        cache_entries=cell.cache_entries,
        num_ops=cell.num_ops,
        seed=cell.seed,
        summary=summary,
        intern_hits=comparison.baseline.intern_hits + comparison.mallacc.intern_hits,
        intern_misses=(
            comparison.baseline.intern_misses + comparison.mallacc.intern_misses
        ),
        detailed_calls=detailed,
        warming_calls=warming,
        metrics=cell_metrics.to_dict(),
        manifest=manifest.to_dict(),
    )


def _timed_cell(cell_fn: Callable[[SweepCell], CellResult], cell: SweepCell) -> CellResult:
    t0 = time.perf_counter()
    result = cell_fn(cell)
    result.wall_seconds = time.perf_counter() - t0
    if result.manifest:
        result.manifest["wall_seconds"] = result.wall_seconds
    return result


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------
def checkpoint_path(checkpoint_dir: str | os.PathLike, cell: SweepCell) -> Path:
    return Path(checkpoint_dir) / f"{cell.cell_id}.json"


def write_checkpoint(checkpoint_dir: str | os.PathLike, cell: SweepCell, result: CellResult) -> Path:
    """Persist one completed cell (see :func:`write_checkpoints`)."""
    (target,) = write_checkpoints(checkpoint_dir, [(cell, result)])
    return target


def write_checkpoints(
    checkpoint_dir: str | os.PathLike,
    pairs: Sequence[tuple[SweepCell, CellResult]],
) -> list[Path]:
    """Atomically persist completed cells, one ``<cell_id>.json`` each
    (temp file + rename, so a kill mid-write never leaves a truncated
    checkpoint behind)."""
    directory = Path(checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    targets: list[Path] = []
    for cell, result in pairs:
        payload = {
            "version": CHECKPOINT_VERSION,
            "cell": asdict(cell),
            "result": asdict(result),
        }
        fd, tmp = tempfile.mkstemp(prefix=f".{cell.cell_id}.", suffix=".tmp", dir=directory)
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
            target = checkpoint_path(directory, cell)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        targets.append(target)
    return targets


def load_checkpoint(checkpoint_dir: str | os.PathLike, cell: SweepCell) -> CellResult | None:
    """A cell's checkpointed result, or ``None`` if absent, unreadable, or
    written for a *different* cell definition (stale directories from an
    earlier matrix never masquerade as completed work)."""
    path = checkpoint_path(checkpoint_dir, cell)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("version") != CHECKPOINT_VERSION:
        return None
    if payload.get("cell") != asdict(cell):
        return None
    try:
        return CellResult(**payload["result"])
    except (KeyError, TypeError):
        return None


# ---------------------------------------------------------------------------
# Fork-server op streams
# ---------------------------------------------------------------------------
STREAM_PREWARM_MAX_OPS = 20_000
"""Streams longer than this are not pre-generated parent-side (memory),
only memoized lazily in whichever worker first replays them."""

MAX_WORKER_STREAMS = 16
"""Worker-side cap on lazily memoized op streams; evicting the oldest one
costs a regeneration, never correctness."""


@dataclass
class WarmBank:
    """Read-only op streams shared by every worker of one pool.

    ``streams`` also grows worker-side as cells generate streams the parent
    did not pre-build (bounded by :data:`MAX_WORKER_STREAMS`).
    ``stream_hits`` is per-process telemetry that never feeds cell results.
    """

    streams: dict[tuple, tuple] = field(default_factory=dict)
    """``(workload, seed, num_ops)`` → read-only tuple of ``Op``."""
    stream_hits: int = 0

    def summary(self) -> dict[str, int]:
        """JSON-ready bank size and hit counter (for :class:`MatrixStats` and
        :func:`repro.obs.bridges.warm_registry`; kept out of cell metrics)."""
        return {"streams": len(self.streams), "stream_hits": self.stream_hits}


_BANK: WarmBank | None = None
"""This process's bank: set in pool workers only, so serial runs stay cold."""


def _worker_init(bank: WarmBank | None) -> None:
    """Pool initializer: installs the parent-built bank in the worker (the
    fork-server handshake).  Runs once per worker process."""
    global _BANK
    _BANK = bank


def build_warm_bank(cells: Sequence[SweepCell]) -> WarmBank:
    """Parent-side pre-generation of every distinct op stream of ``cells``
    no longer than :data:`STREAM_PREWARM_MAX_OPS`, for the pool initializer
    to ship to every worker.  Builds no allocator and replays nothing."""
    from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS

    registry = {**MICROBENCHMARKS, **MACRO_WORKLOADS}
    bank = WarmBank()
    for cell in cells:
        workload = registry.get(cell.workload)
        key = (cell.workload, cell.seed, cell.num_ops)
        if (
            workload is not None
            and cell.num_ops <= STREAM_PREWARM_MAX_OPS
            and key not in bank.streams
        ):
            bank.streams[key] = tuple(workload.ops(seed=cell.seed, num_ops=cell.num_ops))
    return bank


def _op_stream(cell: SweepCell, workload) -> Iterable:
    """``cell``'s op stream: generated afresh with no bank installed (the
    serial path), else served from and memoized into the worker's bank.
    Streams are seed-deterministic, so reuse is invisible to results."""
    bank = _BANK
    if bank is None:
        return workload.ops(seed=cell.seed, num_ops=cell.num_ops)
    key = (cell.workload, cell.seed, cell.num_ops)
    ops = bank.streams.get(key)
    if ops is not None:
        bank.stream_hits += 1
        return ops
    ops = bank.streams[key] = tuple(workload.ops(seed=cell.seed, num_ops=cell.num_ops))
    while len(bank.streams) > MAX_WORKER_STREAMS:
        bank.streams.pop(next(iter(bank.streams)))
    return ops


def _run_pooled_cell(
    cell_fn: Callable[[SweepCell], CellResult], cell: SweepCell
) -> tuple[CellResult | None, str, int]:
    """Worker-side task: one timed cell or its error, plus the task's
    bank-hit delta.  The error travels as a string, so an exception that
    does not pickle still fails only its cell, never the pool."""
    before = _BANK.stream_hits if _BANK is not None else 0
    try:
        result, error = _timed_cell(cell_fn, cell), ""
    except Exception as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, (_BANK.stream_hits if _BANK is not None else 0) - before


# ---------------------------------------------------------------------------
# The sharded runner
# ---------------------------------------------------------------------------
@dataclass
class MatrixStats:
    """Run-level accounting for the progress/metrics stream."""

    cells_total: int = 0
    cells_done: int = 0
    cells_resumed: int = 0
    cells_failed: int = 0
    """Failed *attempts* (a cell that fails twice then succeeds counts 2)."""
    cells_retried: int = 0
    cells_quarantined: int = 0
    wall_seconds: float = 0.0
    batches: int = 0
    """Tasks dispatched, one per cell attempt (inline cells count too)."""
    pools_created: int = 0
    """Executors built over the run: 1 on a clean sharded run, +1 per
    broken-pool rebuild, 0 when everything ran inline or was resumed."""
    warm: dict[str, int] = field(default_factory=dict)
    """Bank size (parent-side) and pooled worker stream hits — pure
    measurement machinery, never merged into cell metrics."""
    per_cell_wall: dict[str, float] = field(default_factory=dict)
    trace_cache: dict[str, float] = field(default_factory=dict)
    intern: dict[str, float] = field(default_factory=dict)
    sampling: dict[str, float] = field(default_factory=dict)
    """Pooled :func:`~repro.harness.metrics.sampling_summary` over all
    completed cells (all zeros on an exact-only matrix)."""
    metrics: dict = field(default_factory=dict)
    """The merged :class:`~repro.obs.metrics.MetricsRegistry` of every
    completed cell (serialized) — the pool-level unified telemetry view."""


@dataclass
class MatrixResult:
    """Everything a sharded run produced, in canonical cell order."""

    results: dict[str, CellResult]
    quarantined: dict[str, str]
    stats: MatrixStats

    def __post_init__(self) -> None:
        overlap = set(self.results) & set(self.quarantined)
        if overlap:  # pragma: no cover - construction invariant
            raise ValueError(f"cells both completed and quarantined: {overlap}")


def _emit(progress: Callable[[dict], None] | None, event: dict) -> None:
    if progress is not None:
        progress(event)


@dataclass
class _RoundOutcome:
    """One :func:`_attempt_round`'s results (completed cells go to its
    ``on_done`` hook as they finish)."""

    failed: dict[str, str] = field(default_factory=dict)
    pool_broken: bool = False
    """A worker died outright this round; the caller must rebuild the pool
    before the next round (the only time a pool is ever rebuilt)."""
    stream_hits: int = 0


def _attempt_round(
    pending: list[SweepCell],
    cell_fn: Callable[[SweepCell], CellResult],
    jobs: int,
    pool: ProcessPoolExecutor | None,
    on_done: Callable[[str, CellResult], None],
) -> _RoundOutcome:
    """Run one attempt over ``pending`` cells.

    ``jobs <= 1`` executes inline (no pool: deterministic, debuggable, and
    what the serial differential baseline uses).  Otherwise every cell is
    one task on the *caller-owned* ``pool``, submitted in matrix order.
    ``on_done`` fires with each completed cell (the checkpoint hook).  A
    broken pool — a worker killed outright — fails only the cells in flight
    on it and sets ``pool_broken`` so the caller rebuilds once, not per
    attempt.
    """
    out = _RoundOutcome()
    if jobs <= 1:
        for cell in pending:
            try:
                result = _timed_cell(cell_fn, cell)
            except Exception as exc:
                out.failed[cell.cell_id] = f"{type(exc).__name__}: {exc}"
                continue
            on_done(cell.cell_id, result)
        return out

    if pool is None:  # pragma: no cover - caller contract
        raise ValueError("jobs > 1 requires a pool")
    futures = {}
    submit_error: str | None = None
    for cell in pending:
        if submit_error is None:
            try:
                futures[pool.submit(_run_pooled_cell, cell_fn, cell)] = cell
                continue
            except BrokenExecutor as exc:
                out.pool_broken = True
                submit_error = f"{type(exc).__name__}: {exc}"
        out.failed[cell.cell_id] = submit_error
    for future in as_completed(futures):
        cell = futures[future]
        try:
            result, error, hits = future.result()
        except Exception as exc:
            # Includes BrokenProcessPool: every cell in flight on a killed
            # pool lands here and is retried on the rebuilt pool.  Cells
            # that already completed are checkpointed and never re-run.
            if isinstance(exc, BrokenExecutor):
                out.pool_broken = True
            out.failed[cell.cell_id] = f"{type(exc).__name__}: {exc}"
            continue
        out.stream_hits += hits
        if result is None:
            out.failed[cell.cell_id] = error
        else:
            on_done(cell.cell_id, result)
    return out


def run_matrix(
    cells: Sequence[SweepCell],
    jobs: int = 1,
    checkpoint_dir: str | os.PathLike | None = None,
    resume: bool = False,
    max_retries: int = 2,
    backoff_seconds: float = 0.1,
    progress: Callable[[dict], None] | None = None,
    cell_fn: Callable[[SweepCell], CellResult] = run_cell,
) -> MatrixResult:
    """Shard ``cells`` across ``jobs`` workers with checkpoints and retry.

    * ``resume=True`` (requires ``checkpoint_dir``) skips every cell whose
      checkpoint matches its definition;
    * every completed cell is checkpointed as it finishes, so *any*
      interrupted run with a checkpoint directory is resumable;
    * a cell failing more than ``max_retries`` times is quarantined into
      ``MatrixResult.quarantined`` with its last error;
    * ``cell_fn`` must be picklable (a module-level function) when
      ``jobs > 1`` — injectable for fault-injection tests;
    * with ``jobs > 1`` and the real ``run_cell``, the parent pre-generates
      the op streams (:func:`build_warm_bank`) and the pool initializer
      installs them in every worker; injected ``cell_fn``s skip the bank.

    One executor serves the whole run, surviving retry rounds; it is
    rebuilt only after a broken pool (a worker killed outright).
    """
    cells = list(cells)
    ids = [c.cell_id for c in cells]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate cells in matrix: {dupes}")
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires a checkpoint_dir")

    stats = MatrixStats(cells_total=len(cells))
    completed: dict[str, CellResult] = {}
    tracer = get_tracer()
    trace_t0 = tracer.now_us() if tracer.enabled else 0
    t_start = time.perf_counter()

    pending: list[SweepCell] = []
    for cell in cells:
        prior = load_checkpoint(checkpoint_dir, cell) if resume else None
        if prior is not None:
            completed[cell.cell_id] = prior
            stats.cells_resumed += 1
        else:
            pending.append(cell)
    _emit(progress, {
        "event": "start",
        "cells": len(cells),
        "resumed": stats.cells_resumed,
        "jobs": jobs,
    })

    by_id = {c.cell_id: c for c in cells}

    def flush(cell_id: str, result: CellResult) -> None:
        """Commit one completed cell: checkpoint, then accounting and
        progress events."""
        if checkpoint_dir is not None:
            write_checkpoints(checkpoint_dir, [(by_id[cell_id], result)])
        completed[cell_id] = result
        stats.cells_done += 1
        stats.per_cell_wall[cell_id] = result.wall_seconds
        if tracer.enabled:
            # Worker cells run in other processes; log them parent-side
            # with explicit endpoints so the matrix trace shows every
            # cell as a span ending "now".
            dur_us = max(1, int(result.wall_seconds * 1e6))
            tracer.complete(
                "matrix_cell", tracer.now_us() - dur_us, dur_us,
                cell=cell_id, workload=result.workload,
            )
        _emit(progress, {
            "event": "cell_done",
            "cell": cell_id,
            "wall_seconds": result.wall_seconds,
            "done": stats.cells_done + stats.cells_resumed,
            "total": stats.cells_total,
        })

    bank: WarmBank | None = None
    if jobs > 1 and pending and cell_fn is run_cell:
        bank = build_warm_bank(pending)
    pool: ProcessPoolExecutor | None = None
    stream_hits = 0
    last_error: dict[str, str] = {}
    attempt = 0
    try:
        while pending and attempt <= max_retries:
            if attempt:
                delay = backoff_seconds * (2 ** (attempt - 1))
                _emit(progress, {
                    "event": "retry_round",
                    "attempt": attempt,
                    "cells": [c.cell_id for c in pending],
                    "backoff_seconds": delay,
                })
                stats.cells_retried += len(pending)
                time.sleep(delay)
            if jobs > 1 and pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=jobs,
                    initializer=_worker_init,
                    initargs=(bank,),
                )
                stats.pools_created += 1
                _emit(progress, {
                    "event": "pool_start",
                    "jobs": jobs,
                    "pools_created": stats.pools_created,
                })
            round_out = _attempt_round(pending, cell_fn, jobs, pool, flush)
            stats.batches += len(pending)
            stream_hits += round_out.stream_hits
            if round_out.pool_broken and pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
            for cell_id, error in round_out.failed.items():
                stats.cells_failed += 1
                last_error[cell_id] = error
                _emit(progress, {
                    "event": "cell_failed",
                    "cell": cell_id,
                    "attempt": attempt,
                    "error": error,
                })
            pending = [by_id[cid] for cid in ids if cid in round_out.failed]
            attempt += 1
    finally:
        if pool is not None:
            pool.shutdown()
    if bank is not None:
        stats.warm = {**bank.summary(), "stream_hits": stream_hits}

    quarantined = {cell.cell_id: last_error[cell.cell_id] for cell in pending}
    for cell_id, error in quarantined.items():
        stats.cells_quarantined += 1
        _emit(progress, {"event": "cell_quarantined", "cell": cell_id, "error": error})

    # Canonical order: results iterate in matrix order, not completion order.
    ordered = {cid: completed[cid] for cid in ids if cid in completed}
    stats.wall_seconds = time.perf_counter() - t_start
    stats.trace_cache = trace_cache_summary(*ordered.values())
    stats.intern = intern_summary(*ordered.values())
    stats.sampling = sampling_summary(*ordered.values())
    pooled = matrix_registry(r.metrics for r in ordered.values())
    pooled.counter("cells_resumed").inc(stats.cells_resumed)
    pooled.counter("cells_retried").inc(stats.cells_retried)
    pooled.counter("cells_quarantined").inc(stats.cells_quarantined)
    stats.metrics = pooled.to_dict()
    if tracer.enabled:
        tracer.complete(
            "run_matrix", trace_t0, tracer.now_us() - trace_t0,
            cells=stats.cells_total, jobs=jobs,
        )
    _emit(progress, {
        "event": "summary",
        "done": stats.cells_done,
        "resumed": stats.cells_resumed,
        "failed_attempts": stats.cells_failed,
        "retried": stats.cells_retried,
        "quarantined": stats.cells_quarantined,
        "wall_seconds": stats.wall_seconds,
        "trace_cache_hit_rate": stats.trace_cache["hit_rate"],
        "intern_hit_rate": stats.intern["hit_rate"],
        "batches": stats.batches,
        "pools_created": stats.pools_created,
    })
    return MatrixResult(results=ordered, quarantined=quarantined, stats=stats)


# ---------------------------------------------------------------------------
# Canonical output
# ---------------------------------------------------------------------------
def matrix_figure_data(result: MatrixResult) -> dict:
    """The order-stable figure/table payload of a matrix run.

    Contains only cell definitions and science (no wall times, worker
    counts, or retry noise), so any two runs of the same matrix — serial,
    sharded, resumed — serialize to identical bytes via
    :func:`matrix_to_json`.
    """
    return {
        "cells": [r.figure_data() for r in result.results.values()],
        "quarantined": sorted(result.quarantined),
    }


def matrix_to_json(result: MatrixResult) -> str:
    """Deterministic JSON serialization of :func:`matrix_figure_data`."""
    return json.dumps(matrix_figure_data(result), sort_keys=True, indent=2)
