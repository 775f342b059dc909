"""Allocation-trace files: record and replay op streams.

A plain-text, line-oriented format so real applications' malloc traces (or
generated ones) can be replayed through the simulator and the comparison
harness:

.. code-block:: text

    # repro-trace v1
    m <slot> <size> [gap] [app_lines] [w]   # malloc
    f <slot> <size> [gap] [app_lines] [w]   # free (size informational)
    F <slot> <size> [gap] [app_lines] [w]   # sized free
    A                                       # antagonist eviction

``gap`` is application cycles since the previous call, ``app_lines`` cache
lines the application touched, and a trailing ``w`` marks warmup ops
(excluded from measurement).  Every numeric field is a non-negative
integer; surplus fields are an error.  Comments (``#``) and blank lines are
ignored.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

from repro.workloads.base import Op, OpKind, Workload

HEADER = "# repro-trace v1"

_KIND_TO_CODE = {
    OpKind.MALLOC: "m",
    OpKind.FREE: "f",
    OpKind.FREE_SIZED: "F",
    OpKind.ANTAGONIZE: "A",
}
_CODE_TO_KIND = {v: k for k, v in _KIND_TO_CODE.items()}


class TraceFormatError(ValueError):
    """Raised on malformed trace files, with the offending line number."""


def dump_ops(ops: Iterable[Op], path: str | Path) -> int:
    """Write an op stream; returns the number of ops written."""
    count = 0
    with open(path, "w") as fh:
        fh.write(HEADER + "\n")
        for op in ops:
            fh.write(format_op(op) + "\n")
            count += 1
    return count


def format_op(op: Op) -> str:
    code = _KIND_TO_CODE[op.kind]
    if op.kind is OpKind.ANTAGONIZE:
        return code
    fields = [code, str(op.slot), str(op.size)]
    fields.append(str(op.gap_cycles))
    fields.append(str(op.app_lines))
    if op.warmup:
        fields.append("w")
    return " ".join(fields)


def parse_line(line: str, lineno: int = 0) -> Op | None:
    """Parse one line; returns None for comments/blanks."""
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    parts = text.split()
    code = parts[0]
    if code not in _CODE_TO_KIND:
        raise TraceFormatError(f"line {lineno}: unknown op code {code!r}")
    kind = _CODE_TO_KIND[code]
    if kind is OpKind.ANTAGONIZE:
        if len(parts) > 1:
            raise TraceFormatError(f"line {lineno}: surplus fields after {code!r}")
        return Op(OpKind.ANTAGONIZE)
    try:
        warmup = parts[-1] == "w"
        numeric = [int(x) for x in (parts[1:-1] if warmup else parts[1:])]
    except ValueError as exc:
        raise TraceFormatError(f"line {lineno}: bad integer field") from exc

    if len(numeric) < 2:
        raise TraceFormatError(f"line {lineno}: too few fields for {code!r}")
    if len(numeric) > 4:
        raise TraceFormatError(f"line {lineno}: surplus fields for {code!r}")
    for name, value in zip(("slot", "size", "gap", "app_lines"), numeric):
        if value < 0:
            raise TraceFormatError(f"line {lineno}: negative {name} {value}")
    slot, size, gap, app_lines = numeric + [0] * (4 - len(numeric))
    return Op(
        kind=kind, size=size, slot=slot, gap_cycles=gap, app_lines=app_lines, warmup=warmup
    )


def load_ops(path: str | Path) -> list[Op]:
    """Read a trace file into an op list (validating slot discipline)."""
    ops: list[Op] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            op = parse_line(line, lineno)
            if op is not None:
                ops.append(op)
    _validate(ops)
    return ops


def _validate(ops: list[Op]) -> None:
    live: set[int] = set()
    for i, op in enumerate(ops):
        if op.kind is OpKind.MALLOC:
            if op.slot in live:
                raise TraceFormatError(f"op {i}: slot {op.slot} already live")
            if op.size <= 0:
                raise TraceFormatError(f"op {i}: malloc of size {op.size}")
            live.add(op.slot)
        elif op.kind in (OpKind.FREE, OpKind.FREE_SIZED):
            if op.slot not in live:
                raise TraceFormatError(f"op {i}: free of dead slot {op.slot}")
            live.discard(op.slot)


def trace_workload(path: str | Path, name: str | None = None) -> Workload:
    """Wrap a trace file as a :class:`Workload` (re-read per run)."""
    path = Path(path)

    def generator(seed: int, num_ops: int) -> Iterator[Op]:
        del seed  # recorded traces are literal
        ops = load_ops(path)
        return iter(ops[:num_ops] if num_ops else ops)

    loaded = load_ops(path)
    return Workload(
        name=name or path.stem,
        generator=generator,
        default_ops=len(loaded),
        description=f"recorded trace ({len(loaded)} ops) from {path}",
    )
