"""CLI behavior of ``python -m repro.analysis --flow``: exit codes, JSON
output, report files and inline suppressions."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.__main__ import main

REPO = Path(__file__).resolve().parents[2]

#: What ``make flowcheck`` (and the CI lint job) gates, relative to the
#: repo root: path-scoped rules (print-call's benchmarks/examples
#: carve-out) key on the leading path component.
GATED = ("src/repro", "benchmarks", "examples")

CLEAN = """
    def _helper(x):
        return x + 1
"""

BROKEN = """
    def f(bandwidth_mbps):
        return 8.0 / bandwidth_mbps
"""


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(textwrap.dedent(CLEAN))
    return path


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text(textwrap.dedent(BROKEN))
    return path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, clean_file):
        assert main(["--flow", str(clean_file)]) == 0

    def test_findings_exit_one(self, broken_file):
        assert main(["--flow", str(broken_file)]) == 1

    def test_repo_source_is_clean(self, monkeypatch):
        monkeypatch.chdir(REPO)
        assert main(["--flow", *GATED]) == 0

    @pytest.mark.parametrize(
        "name", ["does_not_exist", "broken.txt"], ids=["missing", "not-py"]
    )
    def test_bad_target_exits_two(self, broken_file, name, capsys):
        # A gate that checks zero files must not pass: a named target
        # that is neither a directory nor a .py file is a usage error.
        target = broken_file.parent / name
        if name.endswith(".txt"):
            target.write_text(broken_file.read_text())
        assert main(["--flow", str(broken_file), str(target)]) == 2
        assert name in capsys.readouterr().err

    def test_list_rules_exits_zero(self, capsys):
        assert main(["--flow", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("div-guard", "float-eq", "ambient-rng",
                        "tensor-alias", "boundary-contract", "print-call"):
            assert rule_id in out

    def test_artifact_mode_without_targets_exits_two(self, capsys):
        assert main([]) == 2


class TestJsonOutput:
    def test_schema_on_findings(self, broken_file, capsys):
        code = main(["--flow", "--json", str(broken_file)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "version", "files_checked", "findings", "suppressed"
        }
        assert payload["version"] == 2
        assert payload["files_checked"] == 1
        assert payload["suppressed"] == 0
        (finding,) = payload["findings"]
        assert finding["rule"] == "div-guard"
        assert finding["path"] == str(broken_file)
        assert finding["line"] == 3
        assert finding["severity"] == "error"
        assert "bandwidth_mbps" in finding["message"]
        assert finding["hint"]

    def test_schema_on_clean_tree(self, clean_file, capsys):
        assert main(["--flow", "--json", str(clean_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []


class TestReportFile:
    def test_report_written_alongside_human_output(self, broken_file,
                                                   tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["--flow", "--report", str(report), str(broken_file)])
        assert code == 1
        payload = json.loads(report.read_text())
        assert payload["version"] == 2
        assert payload["findings"][0]["rule"] == "div-guard"
        # stdout stays human-readable: not JSON.
        out = capsys.readouterr().out
        assert "div-guard" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


class TestSuppressionViaCli:
    def test_suppressed_finding_reported_in_counts(self, tmp_path, capsys):
        path = tmp_path / "suppressed.py"
        path.write_text(
            "def _f(bandwidth_mbps):\n"
            "    return 8.0 / bandwidth_mbps"
            "  # flowcheck: ignore[div-guard] -- test\n"
        )
        assert main(["--flow", "--json", str(path)]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["findings"] == []
        assert payload["suppressed"] == 1
        assert captured.err.strip() == (
            "flowcheck: 1 file(s), 0 finding(s), 1 suppressed"
        )

