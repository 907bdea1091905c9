"""The ``python -m repro.obs`` CLI and its ``repro obs`` alias."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.obs.__main__ import main as obs_main
from repro.obs.trace import TraceRecorder


@pytest.fixture
def trace_path(tmp_path):
    rec = TraceRecorder()
    with rec.span("emulator.request", index=0) as handle:
        rec.event("offload.retry", attempt=1)
        handle.add(latency_ms=75.0, fork_path=[1])
    path = tmp_path / "trace.jsonl"
    rec.dump_jsonl(path)
    return path


class TestObsReport:
    def test_text_report(self, trace_path, capsys):
        assert obs_main(["report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "trace report" in out
        assert "emulator.request" in out

    def test_json_report(self, trace_path, capsys):
        assert obs_main(["report", str(trace_path), "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["unparsed"] == 0
        assert parsed["fork_counts"] == {"1": 1}

    def test_strict_passes_clean_trace(self, trace_path):
        assert obs_main(["report", str(trace_path), "--strict"]) == 0

    def test_strict_fails_on_unparsed(self, trace_path, capsys):
        with trace_path.open("a") as handle:
            handle.write("this is not json\n")
        assert obs_main(["report", str(trace_path), "--strict"]) == 1
        assert "unparsed" in capsys.readouterr().err

    def test_lenient_tolerates_unparsed(self, trace_path):
        with trace_path.open("a") as handle:
            handle.write("this is not json\n")
        assert obs_main(["report", str(trace_path)]) == 0

    @pytest.mark.parametrize("strict", [False, True])
    def test_garbage_only_exits_two_like_diff(self, tmp_path, capsys, strict):
        # Unparsed lines and not one record: an unrecognised input, not a
        # trace with a few bad lines. ``diff`` rejects the same file.
        path = tmp_path / "broken.jsonl"
        path.write_text("this is not json\n")
        assert obs_main(["diff", str(path), str(path)]) == 2
        diff_err = capsys.readouterr().err
        argv = ["report", str(path)] + (["--strict"] if strict else [])
        assert obs_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == diff_err.replace(" diff: ", " report: ", 1)
        assert len(captured.err.strip().splitlines()) == 1

    def test_strict_fails_on_empty_trace(self, tmp_path, capsys):
        # A recorder that wrote nothing must not pass the CI gate.
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert obs_main(["report", str(path)]) == 0
        assert obs_main(["report", str(path), "--strict"]) == 1
        assert "no trace records" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "absent.jsonl"
        assert obs_main(["report", str(missing), "--strict"]) == 2
        err = capsys.readouterr().err
        assert "absent.jsonl" in err
        assert len(err.strip().splitlines()) == 1

    def test_unrecognised_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"\xff\xfe\x00binary")
        assert obs_main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert "trace.jsonl" in err
        assert len(err.strip().splitlines()) == 1


class TestTopLevelAlias:
    def test_repro_obs_report(self, trace_path, capsys):
        assert repro_main(["obs", "report", str(trace_path)]) == 0
        assert "trace report" in capsys.readouterr().out

    def test_repro_obs_strict_propagates_exit(self, trace_path):
        with trace_path.open("a") as handle:
            handle.write("garbage\n")
        assert repro_main(["obs", "report", str(trace_path), "--strict"]) == 1
