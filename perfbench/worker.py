"""One fresh benchmark process: set up, run passes, report one JSON line.

Started by ``run.py`` as ``python3 perfbench/worker.py '<json arguments>'``.
The clock starts before the program is imported, so ``setup_s`` covers the
import, input generation and allocator construction.  The first pass is the
cold one; warm passes rebuild allocators (untimed) and repeat until the
process's budget is spent.  A host-speed probe is timed after set-up and
after every pass.
"""

from time import perf_counter

T0 = perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import NullRecorder, SpanRecorder  # noqa: E402


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _probe_kernel() -> int:
    table: dict[int, _Cell] = {}
    log: list[int] = []
    for i in range(48_000):
        key = (i * 7) & 255
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(key, 0)
        cell.value += i
        log.append(cell.value & 7)
    return len(log)


def probe_seconds() -> float:
    """Median time of a fixed pure-Python kernel (dict lookups, attribute
    updates, small objects, list appends): the host's speed right now.  It is
    benchmark code, so no change to the program moves it."""
    gc.collect()
    times = []
    for _ in range(21):
        t0 = perf_counter()
        _probe_kernel()
        times.append(perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(args: dict) -> dict:
    rec = SpanRecorder() if args["trace"] else NullRecorder()
    import cases

    case = cases.WORKLOADS[args["workload"]]
    fault = args.get("fault")
    inputs = case.generate(args["seed"], args["scale"], rec, fault)
    allocators = case.build(inputs, rec)
    report = {"setup_s": perf_counter() - T0}
    probe = probe_seconds()
    report["setup_probe_s"] = probe
    if args["role"] == "setup":
        return report

    deadline = T0 + args["budget_s"]
    passes = []
    while True:
        if passes:
            allocators = case.build(inputs, NullRecorder())
        # Collections are made between passes, not inside them: a gen-2
        # collection would otherwise land in whichever pass crosses the
        # threshold and dominate the pass-to-pass spread.
        gc.collect()
        if case.pause_gc:
            gc.disable()
        started = perf_counter()
        try:
            result = case.run(
                inputs, allocators, rec if not passes else NullRecorder(),
                fault=fault, out_dir=args["out_dir"],
            )
        finally:
            gc.enable()
        # Each pass is bracketed by probes; the closing one opens the next.
        previous, probe = probe, probe_seconds()
        result.probe_s = (previous + probe) / 2
        if fault == "digest" and len(passes) == 1:
            result.digest = "0" * len(result.digest)
        passes.append(result)
        # Stop once another pass of the same length would overrun the budget;
        # a measuring process makes at least one warm pass.
        if len(passes) == args["max_passes"] or (
            len(passes) >= 2 and 2 * perf_counter() - started > deadline
        ):
            break

    peak_rss_mb = _peak_rss_mb()
    errors = [e for p in passes for e in p.errors]
    if args["slow_checks"]:
        errors += case.checks(inputs)
    if args["trace"]:
        rec.write(args["spans_path"])
    report.update(
        passes=[
            {"seconds": p.seconds, "probe_s": p.probe_s, "calls": p.calls,
             "attempted": p.attempted,
             "failed": p.failed, "digest": p.digest, "sim": p.sim}
            for p in passes
        ],
        extras=passes[0].extras,
        layers=passes[0].layers,
        errors=list(dict.fromkeys(errors)),
        peak_rss_mb=peak_rss_mb,
    )
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
