"""Run manifests (provenance) and the compare-based regression differ,
including the ``repro report --compare`` CLI exit-code contract: exit 0 on
identical runs, nonzero on an injected regression."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.obs.compare import (
    DEFAULT_IGNORE,
    compare_payloads,
    flatten,
    load_payload,
    render_deltas,
)
from repro.obs.manifest import (
    ENV_KNOBS,
    RunManifest,
    collect_manifest,
    config_fingerprint,
)


class TestConfigFingerprint:
    def test_insertion_order_free(self):
        a = config_fingerprint({"x": 1, "y": [1, 2], "z": {"k": "v"}})
        b = config_fingerprint({"z": {"k": "v"}, "y": [1, 2], "x": 1})
        assert a == b
        assert len(a) == 16

    def test_value_sensitive(self):
        assert config_fingerprint({"ops": 100}) != config_fingerprint({"ops": 101})

    def test_non_json_values_stringified(self):
        # default=str: exotic values fingerprint rather than crash
        config_fingerprint({"path": object()})


class TestManifest:
    def test_collect_captures_env_knobs(self, monkeypatch):
        for knob in ENV_KNOBS:
            monkeypatch.delenv(knob, raising=False)
        monkeypatch.setenv("REPRO_INTERN_VALIDATE", "1")
        m = collect_manifest({"entry": "test"}, seed=9, alloc="baseline")
        assert m.env == (("REPRO_INTERN_VALIDATE", "1"),)
        assert m.seed == 9
        assert dict(m.extra)["alloc"] == "baseline"
        assert dict(m.config)["entry"] == '"test"'
        assert m.config_hash == config_fingerprint({"entry": "test"})

    def test_frozen(self):
        m = collect_manifest()
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.seed = 3

    def test_finished_fills_wall_seconds(self):
        m = collect_manifest()
        done = m.finished(1.5)
        assert done.wall_seconds == 1.5
        assert m.wall_seconds == 0.0  # original untouched
        assert done.config_hash == m.config_hash

    def test_roundtrip(self):
        m = collect_manifest({"ops": 10}, seed=2, alloc="mallacc").finished(0.25)
        back = RunManifest.from_dict(json.loads(m.to_json()))
        assert back == m

    def test_from_dict_ignores_unknown_keys(self):
        m = collect_manifest()
        payload = m.to_dict()
        payload["future_field"] = "whatever"
        assert RunManifest.from_dict(payload) == m

    def test_describe_one_line(self):
        m = collect_manifest({"ops": 10}, seed=2)
        text = m.describe()
        assert "\n" not in text
        assert m.config_hash in text
        assert "seed=2" in text


class TestComparePayloads:
    def test_identical_payloads_match(self):
        payload = {"summary": {"speedup": 1.23, "cycles": 400}, "name": "tp"}
        assert compare_payloads(payload, dict(payload)) == []
        assert "OK" in render_deltas([])

    def test_numeric_change_flagged_with_relative_delta(self):
        a = {"cycles": 100.0}
        b = {"cycles": 110.0}
        (delta,) = compare_payloads(a, b)
        assert delta.path == "cycles"
        assert delta.rel_delta == pytest.approx(10.0 / 110.0)
        assert delta.reason == "changed"

    def test_threshold_suppresses_small_deltas(self):
        a, b = {"cycles": 100.0}, {"cycles": 104.0}
        assert compare_payloads(a, b, threshold=0.05) == []
        assert len(compare_payloads(a, b, threshold=0.01)) == 1

    def test_bool_change_flagged_even_with_threshold(self):
        # bools are not numbers here: True -> False is categorical
        deltas = compare_payloads({"ok": True}, {"ok": False}, threshold=0.5)
        assert len(deltas) == 1
        assert deltas[0].rel_delta == float("inf")

    def test_missing_keys_flagged(self):
        deltas = compare_payloads({"a": 1, "b": 2}, {"a": 1, "c": 3})
        reasons = {d.path: d.reason for d in deltas}
        assert reasons == {"b": "missing_in_b", "c": "missing_in_a"}

    def test_wall_time_and_manifest_ignored_by_default(self):
        a = {"summary": {"x": 1}, "manifest": {"git_sha": "aaa"},
             "wall_seconds": 1.0, "started_at": 5.0}
        b = {"summary": {"x": 1}, "manifest": {"git_sha": "bbb"},
             "wall_seconds": 9.0, "started_at": 6.0}
        assert compare_payloads(a, b) == []
        assert compare_payloads(a, b, ignore=()) != []

    def test_custom_ignore_patterns(self):
        a, b = {"noise": {"x": 1}, "signal": 5}, {"noise": {"x": 2}, "signal": 5}
        assert compare_payloads(a, b, ignore=DEFAULT_IGNORE + ("noise.*",)) == []

    def test_flatten_paths(self):
        flat = flatten({"rows": [{"cy": 1}, {"cy": 2}], "n": "tp"})
        assert flat == {"rows.0.cy": 1, "rows.1.cy": 2, "n": "tp"}

    def test_render_limits_output(self):
        deltas = compare_payloads({str(i): i for i in range(60)}, {})
        text = render_deltas(deltas, limit=5)
        assert "FLAGGED: 60 delta(s)" in text
        assert "... and 55 more" in text

    def test_load_payload_rejects_non_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="expected a JSON object"):
            load_payload(path)


class TestCompareCLI:
    """The acceptance contract: ``repro report --compare`` exits 0 on two
    identical runs and nonzero on an injected regression."""

    def _run_payload(self, tmp_path, name, **overrides):
        path = tmp_path / f"{name}.json"
        argv = ["run", "tp_small", "--ops", "150", "--seed", "3",
                "--json", str(path)]
        main(argv)
        payload = load_payload(path)
        if overrides:
            payload["summary"].update(overrides)
            path.write_text(json.dumps(payload))
        return path

    def test_identical_runs_exit_zero(self, tmp_path, capsys):
        a = self._run_payload(tmp_path, "a")
        b = self._run_payload(tmp_path, "b")
        main(["report", "--compare", str(a), str(b)])  # no SystemExit
        assert "OK: payloads match" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        a = self._run_payload(tmp_path, "a")
        bad = self._run_payload(tmp_path, "bad", program_speedup=0.0)
        with pytest.raises(SystemExit) as exc:
            main(["report", "--compare", str(a), str(bad)])
        assert exc.value.code == 1
        assert "FLAGGED" in capsys.readouterr().out

    def test_threshold_flag_waives_small_drift(self, tmp_path, capsys):
        a = self._run_payload(tmp_path, "a")
        payload = load_payload(a)
        drifted = dict(payload)
        drifted["summary"] = dict(payload["summary"])
        for key, value in payload["summary"].items():
            if isinstance(value, float) and value:
                drifted["summary"][key] = value * 1.0001
        b = tmp_path / "drift.json"
        b.write_text(json.dumps(drifted))
        main(["report", "--compare", str(a), str(b), "--threshold", "0.01"])
        assert "OK: payloads match" in capsys.readouterr().out
