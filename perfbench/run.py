"""The repository benchmark: host throughput and exact simulated results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay_macro --seed 1 --seconds 24 --trace 0

Every measurement happens in fresh processes (``perfbench/worker.py``), run
one after another: ``calls_per_ref_s`` is the first pass of each process
(cold), ``warm_calls_per_ref_s`` the repeat passes, ``setup_s`` the time from
process start to constructed allocators.  Medians are taken over processes
and passes.  Host time is scaled to a reference host speed by a fixed probe
timed around every pass (see ``layers.py``); raw rates are printed as well.  Every simulated output is reduced to a digest that must be equal on
every pass of every process, traced or not; replays are also checked against
the reference engine on a prefix.  Any failed check makes the command exit
with code 1.

``--trace 1`` alternates untraced and traced processes and prints the
per-layer metrics of ``perfbench/layers.py``; spans are written to
``.perfbench_out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from layers import END_TO_END_NAMES, EXTRAS, PER_LAYER_NAMES, UNITS  # noqa: E402
from spans import PERCENTILE_TAIL, samples_beyond  # noqa: E402

#: Fresh measuring processes per run, sized so each gets one cold pass and
#: one warm pass within a 24 s run (a traffic pass alone takes ~9 s).
PROCESSES = {"replay_macro": 4, "replay_micro": 4, "traffic_mc": 1, "sampled_sweep": 2}
SETUP_SAMPLES = 7
"""Fresh processes timed for ``setup_s``; set-up-only processes make up the
difference when there are fewer measuring processes."""
RUN_LIMIT_S = 170.0


class ChildFailed(Exception):
    pass


def _spawn(args: dict, deadline: float) -> dict:
    """Run one worker to completion (killing its process group on timeout)
    and return its JSON report."""
    # The program's own knobs stay at their defaults, and bytecode is cached
    # in the output directory whatever the caller's settings, so set-up time
    # means the same thing on every host (compiled once, then loaded).
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(args)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    out = None
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        # Pool workers the worker left behind share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if proc.returncode is None:
            proc.communicate()
    if out is None:
        raise ChildFailed("worker timed out")
    if proc.returncode != 0:
        raise ChildFailed(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


PROBE_REF_S = 0.01
"""Probe time that defines the reference host speed: work timed at
``seconds`` while the probe took ``probe_s`` takes
``seconds * PROBE_REF_S / probe_s`` reference seconds."""


def _rate(p: dict) -> float:
    """Simulated calls per host second."""
    return p["calls"] / p["seconds"] if p["seconds"] > 0 else 0.0


def _ref_rate(p: dict) -> float:
    """Simulated calls per reference second: host-speed drift divided out."""
    return _rate(p) * p["probe_s"] / PROBE_REF_S


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float,
        fault: str | None) -> tuple[dict, list[str]]:
    """All processes of one benchmark run; returns (result, report lines)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    count = PROCESSES[workload]
    traced = [False, True] * max(1, count // 2) if trace else [False] * count
    base = {"workload": workload, "seed": seed, "scale": scale, "fault": fault,
            "out_dir": str(OUT_DIR), "budget_s": seconds / len(traced),
            "max_passes": 1 if trace else None}
    errors: list[str] = []
    reports = []
    for i, t in enumerate(traced):
        args = dict(base, role="measure", trace=t, slow_checks=(i == 0),
                    spans_path=str(OUT_DIR / f"spans-{workload}-s{seed}-p{i}.json"))
        try:
            reports.append((t, _spawn(args, deadline)))
        except ChildFailed as exc:
            errors.append(f"process {i}: {exc}")
    setups = [r for t, r in reports if not t]
    for _ in range(SETUP_SAMPLES - len(setups) if not trace else 0):
        try:
            setups.append(_spawn(dict(base, role="setup", trace=False), deadline))
        except ChildFailed as exc:
            errors.append(f"setup process: {exc}")

    passes = [(t, i, p) for t, r in reports for i, p in enumerate(r["passes"])]
    for t, r in reports:
        errors += r["errors"]
    attempted = sum(p["attempted"] for _, _, p in passes)
    failed = sum(p["failed"] for _, _, p in passes)
    digests = {p["digest"] for _, _, p in passes}
    if len(digests) > 1:
        errors.append(f"sim_digest differs across passes or processes: {sorted(digests)}")
    sims = [json.dumps(p["sim"], sort_keys=True) for _, _, p in passes]
    if len(set(sims)) > 1:
        errors.append("simulated results differ across passes or processes")
    if reports and any(r["extras"] != reports[0][1]["extras"] for _, r in reports):
        errors.append("simulated extras differ across processes")

    lines = []
    metrics: dict[str, float] = {}
    untraced = [r for t, r in reports if not t]
    cold = [r["passes"][0] for r in untraced]
    warm = [p for t, i, p in passes if not t and i > 0]
    extras = dict(reports[0][1]["extras"]) if reports else {}
    if trace:
        layer_reports = [r["layers"] for t, r in reports if t and r["layers"]]
        for name in PER_LAYER_NAMES:
            values = [lr[name] for lr in layer_reports]
            metrics[name] = statistics.median(values) if values else 0.0
        traced_cold = [_ref_rate(r["passes"][0]) for t, r in reports if t]
        if cold and traced_cold:
            metrics["obs.trace_overhead"] = (
                statistics.median(traced_cold) / statistics.median(map(_ref_rate, cold))
            )
    elif cold and warm:
        metrics["calls_per_ref_s"] = statistics.median(map(_ref_rate, cold))
        metrics["warm_calls_per_ref_s"] = statistics.median(map(_ref_rate, warm))
        metrics["setup_s"] = statistics.median(
            r["setup_s"] * PROBE_REF_S / r["setup_probe_s"] for r in setups
        )
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in untraced)
        metrics.update(passes[0][2]["sim"])
        extras["calls_per_s"] = statistics.median(map(_rate, cold))
        extras["warm_calls_per_s"] = statistics.median(map(_rate, warm))
        extras["setup_host_s"] = statistics.median(r["setup_s"] for r in setups)
        extras["probe_ms"] = 1e3 * statistics.median(p["probe_s"] for p in cold + warm)
        lines.append(
            f"# {len(cold)} cold passes, {len(warm)} warm passes, "
            f"{len(setups)} set-ups in fresh processes"
        )

    extras["failed_frac"] = failed / attempted if attempted else 1.0
    extras["sim_digest"] = passes[0][2]["digest"] if passes else ""
    names = PER_LAYER_NAMES if trace else END_TO_END_NAMES
    for name in names:
        if name in metrics:
            lines.append(f"{workload} {name} {metrics[name]:.6g} {UNITS[name]}")
    lines += _extra_lines(workload, extras)
    if trace and reports:
        lines += _percentile_lines(workload, reports, extras)
    for error in errors:
        lines.append(f"CHECK FAILED: {error}")

    correct = not errors and failed == 0 and attempted > 0 and set(metrics) >= set(names)
    result = {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": {
            name: {"value": metrics[name], "unit": UNITS[name]}
            for name in names if name in metrics
        },
    }
    detail = dict(result, extras=extras, errors=errors, seed=seed, trace=trace)
    (OUT_DIR / f"result-{workload}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True)
    )
    return result, lines


def _extra_lines(workload: str, extras: dict) -> list[str]:
    lines = []
    for name, unit, _ in EXTRAS:
        if name not in extras:
            continue
        value = extras[name]
        if value is None:
            lines.append(f"{workload} {name} n/a (no published values: model unvalidated here)")
            continue
        line = f"{workload} {name} {value:.6g} {unit}"
        if name in ("sim_alloc_p50_cycles", "sim_alloc_p99_cycles"):
            n = extras["percentile_samples"]
            line += f" (n={n}"
            if name.endswith("p99_cycles"):
                beyond = extras["beyond_p99"]
                line += f", {beyond} beyond" + (" LOW-SAMPLE" if beyond < PERCENTILE_TAIL else "")
            line += ")"
        lines.append(line)
    lines.append(f"{workload} sim_digest {extras['sim_digest']}")
    return lines


def _percentile_lines(workload: str, reports, extras: dict) -> list[str]:
    """Sample counts behind the traced p99s (per-call host time per path,
    queue wait per request)."""
    layers = next((r["layers"] for t, r in reports if t and r["layers"]), None)
    if not layers:
        return []
    counts = {
        key[:-6] + ".us_p99": int(n)
        for key, n in layers.items()
        if key.startswith("alloc.") and key.endswith(".calls") and n
    }
    if extras.get("queue_wait_samples"):
        counts["traffic.queue_wait_p99_cycles"] = extras["queue_wait_samples"]
    lines = []
    for name, n in counts.items():
        beyond = samples_beyond(n, 0.99)
        flag = " LOW-SAMPLE" if beyond < PERCENTILE_TAIL else ""
        lines.append(f"# {workload} {name} n={n} beyond={beyond}{flag}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input (the benchmark's own tests)")
    parser.add_argument("--fault", choices=("digest", "conservation", "slot"),
                        help="inject a fault the checks must catch (self-test)")
    args = parser.parse_args(argv)
    # A terminated run still stops its worker (see _spawn's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.scale, args.fault)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
