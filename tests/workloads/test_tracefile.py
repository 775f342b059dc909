"""Tests for trace-file record/replay."""

import pytest

from repro.harness.runner import run_workload
from repro.harness.experiments import make_baseline
from repro.workloads import MICROBENCHMARKS
from repro.workloads.base import Op, OpKind
from repro.workloads.tracefile import (
    HEADER,
    TraceFormatError,
    dump_ops,
    format_op,
    load_ops,
    parse_line,
    trace_workload,
)


class TestFormat:
    def test_roundtrip_each_kind(self):
        ops = [
            Op(OpKind.MALLOC, size=64, slot=0, gap_cycles=10, app_lines=3),
            Op(OpKind.ANTAGONIZE),
            Op(OpKind.FREE, slot=0, gap_cycles=5),
            Op(OpKind.MALLOC, size=32, slot=1, warmup=True),
            Op(OpKind.FREE_SIZED, size=32, slot=1),
        ]
        parsed = [parse_line(format_op(op), i) for i, op in enumerate(ops)]
        assert parsed == ops

    def test_comments_and_blanks_skipped(self):
        assert parse_line("# hello") is None
        assert parse_line("   ") is None
        assert parse_line(HEADER) is None

    def test_unknown_code_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown op code"):
            parse_line("x 1 2", 7)

    def test_bad_integers_rejected(self):
        with pytest.raises(TraceFormatError, match="bad integer"):
            parse_line("m one 64", 3)

    def test_too_few_fields(self):
        with pytest.raises(TraceFormatError, match="too few"):
            parse_line("m 5", 2)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("m -1 64", "negative slot"),
            ("F 1 -8", "negative size"),
            ("m 1 64 -500 3", "negative gap"),
            ("m 1 64 10 -7", "negative app_lines"),
            ("f 1 64 10 -7 w", "negative app_lines"),
            ("m 1 64 1 2 3 4 5", "surplus fields"),
            ("m 1 64 1 2 3 w", "surplus fields"),
            ("A junk", "surplus fields"),
        ],
    )
    def test_bad_fields_rejected_with_line_number(self, line, message):
        with pytest.raises(TraceFormatError, match=f"line 9: {message}"):
            parse_line(line, 9)

    def test_defaults_for_optional_fields(self):
        op = parse_line("m 3 128")
        assert op.gap_cycles == 0 and op.app_lines == 0 and not op.warmup


class TestFiles:
    def test_dump_and_load(self, tmp_path):
        path = tmp_path / "t.trace"
        ops = list(MICROBENCHMARKS["tp_small"].ops(num_ops=120))
        written = dump_ops(ops, path)
        loaded = load_ops(path)
        assert written == len(ops)
        assert loaded == ops

    def test_validation_catches_double_malloc(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(f"{HEADER}\nm 0 64\nm 0 64\n")
        with pytest.raises(TraceFormatError, match="already live"):
            load_ops(path)

    def test_validation_catches_dead_free(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(f"{HEADER}\nf 7 64\n")
        with pytest.raises(TraceFormatError, match="dead slot"):
            load_ops(path)

    def test_validation_catches_zero_size(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(f"{HEADER}\nm 0 0\n")
        with pytest.raises(TraceFormatError, match="size"):
            load_ops(path)


class TestReplay:
    def test_replay_matches_generated_run(self, tmp_path):
        """A recorded trace replays to exactly the same cycle counts as the
        generator it was recorded from."""
        path = tmp_path / "tp.trace"
        ops = list(MICROBENCHMARKS["tp_small"].ops(seed=1, num_ops=200))
        dump_ops(ops, path)
        workload = trace_workload(path)

        direct = run_workload(make_baseline(), iter(ops))
        replayed = run_workload(make_baseline(), workload.ops())
        assert [r.cycles for r in direct.records] == [
            r.cycles for r in replayed.records
        ]

    def test_workload_metadata(self, tmp_path):
        path = tmp_path / "x.trace"
        dump_ops(list(MICROBENCHMARKS["gauss"].ops(seed=2, num_ops=50)), path)
        w = trace_workload(path, name="custom")
        assert w.name == "custom"
        assert w.default_ops > 0
        assert "recorded trace" in w.description
