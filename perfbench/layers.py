"""The benchmark's metric table: every metric it prints, and what it predicts.

``END_TO_END`` and ``PER_LAYER`` are mirrored by ``BENCHMARK.json`` at the
repository root (``test_perfbench.py`` keeps the two in step).  ``EXTRAS``
are printed beside them but are not part of the JSON result line, which
carries the same metric set on every workload: the raw host-time values, and
results that exist on some workloads only.

Each per-layer entry names the end-to-end metric it should move and the
workload where that should show.  Where a layer does no work on a workload
(for instance ``traffic.*`` on the replays) its metrics read 0.
"""

from __future__ import annotations

# (name, unit, better, bound, meaning)
END_TO_END = (
    ("calls_per_ref_s", "1/s", "higher", 0.25,
     "simulated allocator calls per reference second, first pass in a fresh "
     "process (cold); median over the run's fresh processes"),
    ("warm_calls_per_ref_s", "1/s", "higher", 0.25,
     "the same rate on repeat passes in the same process (process-wide "
     "memos warm); median over passes"),
    ("setup_s", "s", "lower", 0.25,
     "reference seconds from process start to constructed allocators: "
     "import, input generation, allocator construction; median over fresh "
     "processes"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident memory of a measuring process, pool workers included; "
     "median over processes"),
    ("sim_malloc_improvement_pct", "%", "higher", 0.25,
     "simulated: Mallacc vs baseline malloc cycles, geomean over the "
     "workload's streams (traffic_mc: allocator-call cycles); repeats exactly"),
    ("sim_program_speedup_pct", "%", "higher", 0.25,
     "simulated: whole-program speedup (allocator + application cycles), "
     "geomean over the workload's streams; repeats exactly"),
)
"""Host time is measured in *reference seconds*: a fixed pure-Python probe
(``worker.probe_seconds``) is timed right after set-up and after every pass,
and host seconds are scaled by ``PROBE_REF_S / probe_s`` (``run.py``; each
pass uses the mean of the probes on either side).  On a shared 2-CPU Linux VM
a fixed loop timed continuously varied by an interquartile 20% between
20-second windows, and whole runs shifted by 30% for minutes at a time; over
six seeds of ``replay_macro`` the scaling took the spread of the cold and
warm rates from 0.14 and 0.19 to 0.09 and 0.07, and of set-up from 0.23 to
0.08.  The probe is benchmark code, so no program change moves it.  The raw
host-time values are printed as ``calls_per_s``, ``warm_calls_per_s`` and
``setup_host_s``.  The sampled sweep's simulated estimates move with the
seed by up to ~17% (interquartile), hence the bound of the ``sim_*``
metrics."""

# (name, unit, meaning) -- printed beside the JSON metrics, not gated.
EXTRAS = (
    ("calls_per_s", "1/s", "cold simulated calls per host second"),
    ("warm_calls_per_s", "1/s", "warm simulated calls per host second"),
    ("setup_host_s", "s", "set-up in host seconds"),
    ("probe_ms", "ms", "median probe time around the passes (reference: 10 ms)"),
    ("failed_frac", "ratio", "failed ops, requests or quarantined cells per attempted"),
    ("paper_error_pp", "pp", "mean |simulated - published| over Table-2 speedup and "
     "Fig-18 allocator share (synthetic workload models)"),
    ("sim_alloc_p50_cycles", "cycles", "traffic_mc: Mallacc per-request allocation latency p50"),
    ("sim_alloc_p99_cycles", "cycles", "traffic_mc: Mallacc per-request allocation latency p99"),
    ("sim_p99_improvement_pct", "%", "traffic_mc: p99 allocation latency, Mallacc vs baseline"),
    ("sim_ci_halfwidth_pp", "pp", "sampled_sweep: mean 95% CI half-width of program speedup"),
)

ALLOC_PATHS = ("fast", "free_fast", "central", "page_alloc", "large", "free_slow", "free_large")
FAST_PATHS = ("fast", "free_fast")

_REPLAY_MICRO = "calls_per_ref_s on replay_micro"
_REPLAY_MACRO = "calls_per_ref_s on replay_macro (no change on replay_micro)"
_COLD_WARM = "calls_per_ref_s vs warm_calls_per_ref_s gap, setup_s (peak_rss_mb must not grow)"


def _alloc_layers():
    out = []
    for path in ALLOC_PATHS:
        moves = _REPLAY_MICRO if path in FAST_PATHS else _REPLAY_MACRO
        out += [
            (f"alloc.{path}.calls", "count", "lower", moves),
            (f"alloc.{path}.s", "s", "lower", moves),
            (f"alloc.{path}.us_p50", "us", "lower", moves),
            (f"alloc.{path}.us_p99", "us", "lower", moves),
            (f"alloc.{path}.sim_cycles", "cycles", "lower",
             "sim_malloc_improvement_pct (exact)"),
        ]
    return out


# (name, unit, better, end-to-end metric it should move)
PER_LAYER = tuple(
    [
        ("workloads.gen_s", "s", "lower", "setup_s on every workload"),
        ("experiments.build_s", "s", "lower", "setup_s on every workload"),
        ("runner.self_s", "s", "lower", _REPLAY_MICRO),
    ]
    + _alloc_layers()
    + [
        ("app_traffic.s", "s", "lower", _REPLAY_MACRO),
        ("app_traffic.lines", "count", "lower", _REPLAY_MACRO),
        ("prof.build_s", "s", "lower", _REPLAY_MICRO),
        ("prof.schedule_s", "s", "lower", _REPLAY_MICRO),
        ("prof.columnar_compile_s", "s", "lower", _REPLAY_MICRO),
        ("prof.emission_s", "s", "lower", _REPLAY_MACRO),
        ("prof.refill_s", "s", "lower", _REPLAY_MACRO),
        ("intern.hits", "count", "higher", _REPLAY_MICRO),
        ("intern.misses", "count", "lower", _REPLAY_MICRO),
        ("intern.hit_rate", "ratio", "higher", _REPLAY_MICRO),
        ("mcache.sz_hit_rate", "ratio", "higher", _REPLAY_MICRO),
        ("mcache.evictions", "count", "lower", _REPLAY_MICRO),
        ("hier.probes_per_call", "count", "lower", _REPLAY_MACRO),
        ("hier.l1_hit_rate", "ratio", "higher", _REPLAY_MACRO),
        ("hier.dram_accesses", "count", "lower", _REPLAY_MACRO),
        ("sched.computed", "count", "lower", _COLD_WARM),
        ("sched.memo_hit_rate", "ratio", "higher", _COLD_WARM),
        ("columnar.compiles", "count", "lower", _COLD_WARM),
        ("columnar.uops_compiled", "count", "lower", _COLD_WARM),
        ("traffic.build_sessions_s", "s", "lower", "setup_s on traffic_mc"),
        ("traffic.run_s", "s", "lower", "calls_per_ref_s on traffic_mc"),
        ("traffic.requests", "count", "higher", "calls_per_ref_s on traffic_mc"),
        ("traffic.contention_cycles", "cycles", "lower", "sim_alloc_p99_cycles on traffic_mc"),
        ("traffic.context_switches", "count", "lower", "sim_alloc_p99_cycles on traffic_mc"),
        ("traffic.queue_wait_p99_cycles", "cycles", "lower", "sim_alloc_p99_cycles on traffic_mc"),
        ("sampling.detail_fraction", "ratio", "lower",
         "calls_per_ref_s and sim_ci_halfwidth_pp on sampled_sweep"),
        ("sampling.warming_calls", "count", "higher", "calls_per_ref_s on sampled_sweep"),
        ("sampling.detailed_calls", "count", "lower",
         "calls_per_ref_s and sim_ci_halfwidth_pp on sampled_sweep"),
        ("parallel.cells", "count", "higher", "calls_per_ref_s on sampled_sweep"),
        ("parallel.batches", "count", "lower", "calls_per_ref_s on sampled_sweep"),
        ("parallel.pools_created", "count", "lower", "calls_per_ref_s on sampled_sweep"),
        ("parallel.retries", "count", "lower", "calls_per_ref_s on sampled_sweep"),
        ("parallel.quarantined", "count", "lower", "calls_per_ref_s on sampled_sweep"),
        ("parallel.cell_s", "s", "lower", "calls_per_ref_s on sampled_sweep"),
        ("parallel.overhead_s", "s", "lower", "calls_per_ref_s on sampled_sweep"),
        ("parallel.warm_bank_s", "s", "lower", "calls_per_ref_s on sampled_sweep"),
        ("parallel.checkpoint_s", "s", "lower", "calls_per_ref_s on sampled_sweep"),
        ("obs.trace_overhead", "ratio", "higher", "none: traced / untraced calls_per_ref_s"),
    ]
)

END_TO_END_NAMES = tuple(m[0] for m in END_TO_END)
PER_LAYER_NAMES = tuple(m[0] for m in PER_LAYER)
UNITS = {m[0]: m[1] for m in END_TO_END + PER_LAYER}
UNITS.update({m[0]: m[1] for m in EXTRAS})
