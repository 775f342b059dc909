"""The benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload generates its inputs itself and hands the program only those
inputs (an ``ops=`` list, or ``sessions``/``arrivals``, or matrix cells).
A pass returns host time for the calls into the program, the number of
simulated allocator calls it drove, simulated results, a digest of every
simulated output, and (when traced) per-layer metrics.

Why these workloads:

* ``replay_macro`` -- 483.xalancbmk, 400.perlbench, xapian.abstracts.  Their
  application ring thrashes L1/L2 (xalancbmk: ~300 hierarchy probes per call
  at a ~2% L1 hit rate); refill and hierarchy layers carry the time.
* ``replay_micro`` -- tp_small, sized_deletes, gauss_free.  Fast-path bound,
  no application traffic: runner, fast-path twins, interning, timing and the
  malloc cache carry the time.  The prediction for hierarchy-ring or refill
  optimisations is no change here.
* ``traffic_mc`` -- open-loop Poisson arrivals at 350 rps (below the ~500 rps
  capacity estimate) on 4 simulated cores, xapian.abstracts sessions, JSQ
  scheduling over shared central lists.  At least 1000 measured requests so
  the p99 has 10 samples beyond it; sampling stays off.
* ``sampled_sweep`` -- sampled systematic cells over three macro workloads x
  cache sizes {4, 16, 32} through the parallel matrix harness: the only
  workload exercising functional warming, pool IPC, the warm bank and
  checkpoints.  100-call intervals at stride 8 keep ~86% of calls
  fast-forwarded, like the 200/16 default, with twice the intervals, which
  narrows the seed-to-seed swing of the sampled estimates.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import zlib
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from time import perf_counter

from repro.harness import parallel
from repro.harness.experiments import (
    WorkloadComparison,
    geomean,
    make_baseline,
    make_mallacc,
)
from repro.harness.profile import HotPathProfiler, machine_counter_snapshot
from repro.harness.runner import AppTraffic, run_workload
from repro.alloc.multithread import MultiThreadAllocator
from repro.traffic import (
    TrafficComparison,
    TrafficConfig,
    build_sessions,
    estimate_capacity_rps,
    run_traffic,
)
from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS, OpKind

from layers import ALLOC_PATHS, PER_LAYER_NAMES
from spans import (
    alloc_path_stats, nearest_rank, patched, samples_beyond, self_times, total_times,
)

REGISTRY = {**MICROBENCHMARKS, **MACRO_WORKLOADS}
CACHE_ENTRIES = 32


def family_seed(seed: int, name: str) -> int:
    """Per-stream seed: the run seed mixed with the stream name (crc32, so
    every process derives the same value)."""
    return (seed * 1_000_003 + zlib.crc32(name.encode())) % (2**31 - 1)


@dataclass
class PassResult:
    seconds: float = 0.0
    """Host seconds inside the program's entry points."""
    probe_s: float = 0.0
    """Host-speed probe time around the pass (set by the worker)."""
    calls: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    sim: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def _paper_error(pairs) -> float | None:
    """Mean |simulated - published| over (simulated, paper dict) pairs: the
    Table-2 speedup and the Fig-18 allocator share (both in %)."""
    diffs = []
    for speedup, fraction_pct, paper in pairs:
        if "tab2" in paper:
            diffs.append(abs(speedup - paper["tab2"]))
        if "fig18" in paper:
            diffs.append(abs(fraction_pct - paper["fig18"]))
    return sum(diffs) / len(diffs) if diffs else None


def _empty_layers() -> dict:
    return dict.fromkeys(PER_LAYER_NAMES, 0.0)


def _fill_alloc_layers(layers: dict, spans) -> None:
    for path, stats in alloc_path_stats(spans, ALLOC_PATHS).items():
        for key, value in stats.items():
            layers[f"alloc.{path}.{key}"] = value


def _fill_counter_layers(layers: dict, counters: dict, calls: int) -> None:
    counters = {k: counters.get(k, 0) for k in (
        "intern_hits", "intern_misses", "hierarchy_probes", "l1_hits", "l1_misses",
        "dram_accesses", "trace_cache_hits", "trace_cache_misses",
        "columnar_templates_compiled", "columnar_uops_compiled")}

    def rate(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    layers["intern.hits"] = counters["intern_hits"]
    layers["intern.misses"] = counters["intern_misses"]
    layers["intern.hit_rate"] = rate(counters["intern_hits"], counters["intern_misses"])
    layers["hier.probes_per_call"] = counters["hierarchy_probes"] / calls if calls else 0.0
    layers["hier.l1_hit_rate"] = rate(counters["l1_hits"], counters["l1_misses"])
    layers["hier.dram_accesses"] = counters["dram_accesses"]
    layers["sched.computed"] = counters["trace_cache_misses"]
    layers["sched.memo_hit_rate"] = rate(
        counters["trace_cache_hits"], counters["trace_cache_misses"]
    )
    layers["columnar.compiles"] = counters["columnar_templates_compiled"]
    layers["columnar.uops_compiled"] = counters["columnar_uops_compiled"]


def _fill_mcache_layers(layers: dict, stats) -> None:
    hits = sum(s.sz_hits for s in stats)
    misses = sum(s.sz_misses for s in stats)
    layers["mcache.sz_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    layers["mcache.evictions"] = sum(s.evictions for s in stats)


# ---------------------------------------------------------------------------
# Exact replays
# ---------------------------------------------------------------------------
class Replay:
    """Exact baseline-then-Mallacc comparisons on generated op lists."""

    pause_gc = True

    def __init__(self, name: str, families: tuple[str, ...], num_ops: int, ref_ops: int):
        self.name = name
        self.families = families
        self.num_ops = num_ops
        self.ref_ops = ref_ops

    def generate(self, seed: int, scale: float, rec, fault: str | None = None):
        n = max(50, int(self.num_ops * scale))
        streams = []
        for name in self.families:
            workload = REGISTRY[name]
            with rec.span("workloads.gen"):
                ops = list(workload.ops(seed=family_seed(seed, name), num_ops=n))
            streams.append((workload, ops))
        if fault == "slot":
            # A malloc into a slot that is still live: the runner rejects it.
            workload, ops = streams[0]
            first = next(op for op in ops if op.kind is OpKind.MALLOC)
            ops.insert(ops.index(first) + 1, first)
        return streams

    def build(self, inputs, rec):
        pairs = []
        for _ in inputs:
            with rec.span("experiments.build"):
                baseline = make_baseline()
            with rec.span("experiments.build"):
                mallacc = make_mallacc(cache_entries=CACHE_ENTRIES)
            pairs.append((baseline, mallacc))
        return pairs

    def run(self, inputs, allocators, rec, fault=None, out_dir=".") -> PassResult:
        out = PassResult()
        parts = []
        comparisons = []
        profiler = HotPathProfiler() if rec.enabled else None
        for (workload, ops), (baseline, mallacc) in zip(inputs, allocators):
            calls = sum(1 for op in ops if op.kind is not OpKind.ANTAGONIZE)
            results = []
            for flavor, alloc in (("baseline", baseline), ("mallacc", mallacc)):
                out.attempted += calls
                try:
                    seconds, result = self._replay(alloc, ops, workload.name, rec, profiler)
                except ValueError as exc:
                    out.failed += calls
                    out.errors.append(f"{workload.name}/{flavor}: {exc}")
                    results.append(None)
                    continue
                out.seconds += seconds
                out.calls += calls
                results.append(result)
                parts.append(workload.name + "/" + flavor)
                parts.append(result.warmup_cycles)
                parts.append(result.app_cycles)
                parts.append(",".join(f"{r.cycles}:{r.path.value}" for r in result.records))
            if fault == "conservation":
                _corrupt_heap(mallacc)
            for flavor, alloc in (("baseline", baseline), ("mallacc", mallacc)):
                try:
                    alloc.check_conservation()
                except AssertionError as exc:
                    out.errors.append(f"{workload.name}/{flavor} conservation: {exc}")
            parts.append(sorted(asdict(mallacc.malloc_cache.stats).items()))
            if None not in results:
                comparisons.append(
                    WorkloadComparison(workload.name, results[0], results[1], dict(workload.paper))
                )
        out.digest = _sha(parts)
        if comparisons:
            out.sim = {
                "sim_malloc_improvement_pct": geomean([c.malloc_improvement for c in comparisons]),
                "sim_program_speedup_pct": geomean([c.program_speedup for c in comparisons]),
            }
            out.extras["paper_error_pp"] = _paper_error(
                (c.program_speedup, 100.0 * c.allocator_fraction, c.paper) for c in comparisons
            )
            out.extras["per_stream"] = {
                c.workload: {
                    "malloc_improvement_pct": c.malloc_improvement,
                    "program_speedup_pct": c.program_speedup,
                    "allocator_fraction_pct": 100.0 * c.allocator_fraction,
                    "paper": c.paper,
                }
                for c in comparisons
            }
        if rec.enabled:
            out.layers = self._layers(rec, profiler, allocators, out.calls)
            out.layers["app_traffic.lines"] = 2 * sum(
                op.app_lines for _, ops in inputs for op in ops
            )
        return out

    @staticmethod
    def _replay(alloc, ops, name, rec, profiler):
        with ExitStack() as traced:
            if rec.enabled:
                for owner, attr, wrap in (
                    (alloc, "malloc", lambda f: rec.timed_call(f, lambda out: out[1])),
                    (alloc, "free", lambda f: rec.timed_call(f, lambda out: out)),
                    (alloc, "sized_free", lambda f: rec.timed_call(f, lambda out: out)),
                    (AppTraffic, "touch", lambda f: rec.timed_leaf(f, "app_traffic")),
                ):
                    traced.enter_context(patched(owner, attr, wrap))
            with rec.span("runner.run_workload"):
                t0 = perf_counter()
                result = run_workload(alloc, ops, name=name, profiler=profiler)
                return perf_counter() - t0, result

    @staticmethod
    def _layers(rec, profiler, allocators, calls) -> dict:
        layers = _empty_layers()
        spans = rec.spans
        totals = total_times(spans)
        layers["workloads.gen_s"] = totals.get("workloads.gen", 0.0)
        layers["experiments.build_s"] = totals.get("experiments.build", 0.0)
        layers["runner.self_s"] = self_times(spans).get("runner.run_workload", 0.0)
        _fill_alloc_layers(layers, spans)
        layers["app_traffic.s"] = totals.get("app_traffic", 0.0)
        summary = profiler.summary()
        for stage in ("build", "schedule", "columnar_compile", "emission", "refill"):
            layers[f"prof.{stage}_s"] = summary["stages"].get(stage, {}).get("seconds", 0.0)
        _fill_counter_layers(layers, summary["counters"], calls)
        _fill_mcache_layers(layers, [m.malloc_cache.stats for _, m in allocators])
        return layers

    def checks(self, inputs) -> list[str]:
        """Replay a prefix of each stream under ``REPRO_ENGINE=reference``
        (read when machines are constructed) and under the default engine;
        per-call cycles and paths must be identical."""
        errors = []
        for workload, ops in inputs:
            prefix = ops[: self.ref_ops]
            for flavor, factory in (
                ("baseline", make_baseline),
                ("mallacc", lambda: make_mallacc(cache_entries=CACHE_ENTRIES)),
            ):
                runs = []
                for engine in ("reference", "columnar"):
                    os.environ["REPRO_ENGINE"] = engine
                    try:
                        alloc = factory()
                    finally:
                        del os.environ["REPRO_ENGINE"]
                    try:
                        result = run_workload(alloc, prefix, name=workload.name)
                    except ValueError as exc:
                        runs.append(str(exc))
                        continue
                    runs.append([(r.cycles, r.path.value) for r in result.records])
                if runs[0] != runs[1]:
                    errors.append(
                        f"{workload.name}/{flavor}: reference engine differs on the "
                        f"first {len(prefix)} ops"
                    )
        return errors


def _corrupt_heap(alloc) -> None:
    """Self-test fault: mark a block sitting on a thread-cache free list as
    live, which :meth:`check_conservation` must reject."""
    for cl in range(1, alloc.table.num_classes):
        for ptr in alloc.thread_cache.lists[cl].iter_blocks():
            alloc.live[ptr] = (1, cl)
            return


# ---------------------------------------------------------------------------
# Open-loop multicore traffic
# ---------------------------------------------------------------------------
class Traffic:
    """Exact baseline-vs-Mallacc traffic on one generated session stream."""

    pause_gc = True

    def __init__(self, name: str, family: str, rps: float, duration_s: float, cores: int):
        self.name = name
        self.family = family
        self.rps = rps
        self.duration_s = duration_s
        self.cores = cores

    def config(self, seed: int, scale: float) -> TrafficConfig:
        return TrafficConfig(
            workload=self.family, arrival="poisson", rps=self.rps,
            duration_s=self.duration_s * scale, cores=self.cores,
            seed=family_seed(seed, self.family),
        )

    def generate(self, seed: int, scale: float, rec, fault: str | None = None):
        config = self.config(seed, scale)
        with rec.span("workloads.gen"), rec.span("traffic.build_sessions"):
            sessions, arrivals = build_sessions(config)
        return config, sessions, arrivals

    def build(self, inputs, rec):
        # run_traffic constructs its multicore allocators itself.
        return None

    def run(self, inputs, allocators, rec, fault=None, out_dir=".") -> PassResult:
        config, sessions, arrivals = inputs
        out = PassResult()
        results = {}
        wrap_malloc = lambda f: rec.timed_call(f, lambda o: o[1])  # noqa: E731
        wrap_free = lambda f: rec.timed_call(f, lambda o: o)  # noqa: E731
        built: list[MultiThreadAllocator] = []

        def capture(init):
            def wrapped(self, *args, **kwargs):
                init(self, *args, **kwargs)
                built.append(self)
            return wrapped

        for flavor, accelerated in (("baseline", False), ("mallacc", True)):
            out.attempted += len(sessions)
            try:
                with ExitStack() as traced:
                    if rec.enabled:
                        for owner, name, wrap in (
                            (MultiThreadAllocator, "__init__", capture),
                            (MultiThreadAllocator, "malloc", wrap_malloc),
                            (MultiThreadAllocator, "free", wrap_free),
                            (MultiThreadAllocator, "sized_free", wrap_free),
                            (AppTraffic, "touch", lambda f: rec.timed_leaf(f, "app_traffic")),
                        ):
                            traced.enter_context(patched(owner, name, wrap))
                    with rec.span("traffic.run"):
                        t0 = perf_counter()
                        result = run_traffic(
                            config, accelerated=accelerated, cache_entries=CACHE_ENTRIES,
                            sessions=sessions, arrivals=arrivals,
                        )
                        out.seconds += perf_counter() - t0
            except (ValueError, AssertionError) as exc:
                out.failed += len(sessions)
                out.errors.append(f"{flavor}: {exc}")
                continue
            if fault == "conservation" and accelerated:
                result.alloc_hist.observe(1)
            try:
                result.check_conservation()
            except AssertionError as exc:
                out.errors.append(f"{flavor} conservation: {exc}")
            out.failed += len(sessions) - result.completed
            out.calls += result.calls + result.warmup_calls
            results[flavor] = result
        if len(results) < 2:
            return out
        base, accel = results["baseline"], results["mallacc"]
        cmp = TrafficComparison(config=config, baseline=base, mallacc=accel)
        out.digest = _sha(
            [flavor for flavor in results]
            + [",".join(map(str, r.call_cycles)) for r in results.values()]
            + [
                ",".join(f"{q.core}:{q.start}:{q.completion}:{q.alloc_cycles}" for q in r.requests)
                for r in results.values()
            ]
            + [(r.contention_cycles, r.context_switches, r.app_cycles) for r in results.values()]
        )
        improvement = 100.0 * (base.alloc_cycles - accel.alloc_cycles) / base.alloc_cycles
        base_total = base.alloc_cycles + base.app_cycles
        speedup = 100.0 * (base_total - (accel.alloc_cycles + base.app_cycles)) / base_total
        out.sim = {
            "sim_malloc_improvement_pct": improvement,
            "sim_program_speedup_pct": speedup,
        }
        samples = accel.alloc_hist.count
        out.extras = {
            "paper_error_pp": _paper_error(
                [(speedup, 100.0 * base.alloc_cycles / base_total,
                  REGISTRY[self.family].paper)]
            ),
            "sim_alloc_p50_cycles": accel.alloc_hist.p50,
            "sim_alloc_p99_cycles": accel.alloc_hist.p99,
            "sim_p99_improvement_pct": cmp.p99_improvement,
            "baseline_alloc_p50_cycles": base.alloc_hist.p50,
            "baseline_alloc_p99_cycles": base.alloc_hist.p99,
            "percentile_samples": samples,
            "beyond_p99": samples_beyond(samples, 0.99),
            "measured_requests": accel.measured_requests,
            "queue_wait_samples": base.measured_requests + accel.measured_requests,
            "offered_rps": config.rps,
        }
        if rec.enabled:
            # The engine builds its own machines, so the runner's profiler
            # cannot be attached: read their lifetime counters instead.
            out.layers = self._layers(rec, results)
            machines = [m for mt in built for m in mt.core_machines]
            _fill_counter_layers(out.layers, machine_counter_snapshot(machines), out.calls)
            _fill_mcache_layers(
                out.layers,
                [v.malloc_cache.stats for mt in built if mt.accelerated for v in mt.threads],
            )
            out.layers["app_traffic.lines"] = 2 * sum(
                op.app_lines for s in sessions for op in s.ops
            )
        return out

    @staticmethod
    def _layers(rec, results) -> dict:
        layers = _empty_layers()
        spans = rec.spans
        totals = total_times(spans)
        layers["workloads.gen_s"] = totals.get("workloads.gen", 0.0)
        layers["traffic.build_sessions_s"] = totals.get("traffic.build_sessions", 0.0)
        layers["traffic.run_s"] = totals.get("traffic.run", 0.0)
        _fill_alloc_layers(layers, spans)
        layers["app_traffic.s"] = totals.get("app_traffic", 0.0)
        layers["traffic.requests"] = sum(r.completed for r in results.values())
        layers["traffic.contention_cycles"] = sum(r.contention_cycles for r in results.values())
        layers["traffic.context_switches"] = sum(r.context_switches for r in results.values())
        waits = sorted(
            q.queue_wait for r in results.values() for q in r.requests if not q.warmup
        )
        layers["traffic.queue_wait_p99_cycles"] = nearest_rank(waits, 0.99)[0]
        return layers

    def checks(self, inputs) -> list[str]:
        """The offered rate must stay below the engine's capacity estimate."""
        config, _, _ = inputs
        capacity = estimate_capacity_rps(config)
        if config.rps >= capacity:
            return [f"offered {config.rps} rps is not below capacity {capacity:.0f} rps"]
        return []


# ---------------------------------------------------------------------------
# Sampled matrix sweep
# ---------------------------------------------------------------------------
class SampledSweep:
    """Sampled systematic cells through the parallel matrix harness."""

    pause_gc = False
    """The timed work runs in pool workers forked inside the pass; they would
    inherit a paused collector for their whole life."""

    def __init__(self, name: str, families: tuple[str, ...], sizes: tuple[int, ...],
                 num_ops: int, interval_ops: int, stride: int):
        self.name = name
        self.families = families
        self.sizes = sizes
        self.num_ops = num_ops
        self.interval_ops = interval_ops
        self.stride = stride

    def generate(self, seed: int, scale: float, rec, fault: str | None = None):
        with rec.span("workloads.gen"):
            return parallel.build_matrix(
                self.families, cache_sizes=self.sizes,
                num_ops=max(400, int(self.num_ops * scale)), base_seed=seed, sampled=True,
                interval_ops=self.interval_ops, stride=self.stride,
            )

    def build(self, inputs, rec):
        # Cells build their allocators inside the pool workers.
        return None

    def checks(self, inputs) -> list[str]:
        # Quarantine and checkpoint round-trips are checked on every pass.
        return []

    def run(self, inputs, allocators, rec, fault=None, out_dir=".") -> PassResult:
        cells = inputs
        out = PassResult(attempted=len(cells))
        jobs = min(2, len(os.sched_getaffinity(0)))
        checkpoint_dir = tempfile.mkdtemp(prefix="checkpoints-", dir=out_dir)
        try:
            with ExitStack() as traced:
                if rec.enabled:
                    for name, span in (("build_warm_bank", "parallel.warm_bank"),
                                       ("write_checkpoints", "parallel.checkpoint")):
                        traced.enter_context(
                            patched(parallel, name, lambda f, span=span: rec.timed_leaf(f, span))
                        )
                with rec.span("parallel.run_matrix"):
                    t0 = perf_counter()
                    matrix = parallel.run_matrix(cells, jobs=jobs, checkpoint_dir=checkpoint_dir)
                    out.seconds = perf_counter() - t0
            for cell in cells:
                result = matrix.results.get(cell.cell_id)
                saved = parallel.load_checkpoint(checkpoint_dir, cell)
                if result is not None and (
                    saved is None or saved.figure_data() != result.figure_data()
                ):
                    out.errors.append(f"{cell.cell_id}: checkpoint does not round-trip")
        finally:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        stats = matrix.stats
        out.failed = stats.cells_quarantined
        for cell_id, error in matrix.quarantined.items():
            out.errors.append(f"{cell_id} quarantined: {error}")
        out.calls = int(stats.sampling["measured_calls"])
        out.digest = _sha([parallel.matrix_to_json(matrix)])
        summaries = [r.summary for r in matrix.results.values()]
        if summaries:
            out.sim = {
                "sim_malloc_improvement_pct": geomean([s["malloc_improvement"] for s in summaries]),
                "sim_program_speedup_pct": geomean([s["program_speedup"] for s in summaries]),
            }
            halfwidths = [(hi - lo) / 2 for lo, hi in (s["program_speedup_ci"] for s in summaries)]
            out.extras = {
                "sim_ci_halfwidth_pp": sum(halfwidths) / len(halfwidths),
                "paper_error_pp": _paper_error(
                    (r.summary["program_speedup"], 100.0 * r.summary["allocator_fraction"],
                     REGISTRY[r.workload].paper)
                    for r in matrix.results.values() if r.cache_entries == CACHE_ENTRIES
                ),
                "detail_fraction": stats.sampling["detail_fraction"],
            }
        if rec.enabled:
            out.layers = self._layers(rec, matrix, jobs)
        return out

    @staticmethod
    def _layers(rec, matrix, jobs) -> dict:
        layers = _empty_layers()
        totals = total_times(rec.spans)
        stats = matrix.stats
        layers["workloads.gen_s"] = totals.get("workloads.gen", 0.0)
        layers["sampling.detail_fraction"] = stats.sampling["detail_fraction"]
        layers["sampling.warming_calls"] = stats.sampling["warming_calls"]
        layers["sampling.detailed_calls"] = stats.sampling["detailed_calls"]
        layers["parallel.cells"] = stats.cells_total
        layers["parallel.batches"] = stats.batches
        layers["parallel.pools_created"] = stats.pools_created
        layers["parallel.retries"] = stats.cells_retried
        layers["parallel.quarantined"] = stats.cells_quarantined
        cell_s = sum(stats.per_cell_wall.values())
        layers["parallel.cell_s"] = cell_s
        layers["parallel.overhead_s"] = stats.wall_seconds - cell_s / jobs
        layers["parallel.warm_bank_s"] = totals.get("parallel.warm_bank", 0.0)
        layers["parallel.checkpoint_s"] = totals.get("parallel.checkpoint", 0.0)
        cells = matrix.results.values()
        counters = {
            name: sum(getattr(r, name) for r in cells)
            for name in ("trace_cache_hits", "trace_cache_misses", "intern_hits", "intern_misses")
        }
        _fill_counter_layers(layers, counters, calls=0)
        return layers


WORKLOADS = {
    w.name: w
    for w in (
        Replay("replay_macro", ("483.xalancbmk", "400.perlbench", "xapian.abstracts"),
               num_ops=3000, ref_ops=300),
        Replay("replay_micro", ("tp_small", "sized_deletes", "gauss_free"),
               num_ops=8000, ref_ops=600),
        Traffic("traffic_mc", "xapian.abstracts", rps=350.0, duration_s=3.2, cores=4),
        SampledSweep("sampled_sweep", ("400.perlbench", "xapian.abstracts", "483.xalancbmk"),
                     sizes=(4, 16, 32), num_ops=4000, interval_ops=100, stride=8),
    )
}
