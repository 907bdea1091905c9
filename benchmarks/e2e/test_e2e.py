"""Self-test of the end-to-end benchmark.

Run from the repository root with::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Units run in-process at their smallest size (one unit per workload, one
traced unit), so the test checks the benchmark's plumbing, not its timings.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layertrace import HOOKS, LayerTracer
from workloads import GOLDEN_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Metrics that must repeat exactly between two traced runs of one seed.
EXACT_SUFFIXES = (".calls", ".rows_per_call", ".hit_rate")


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.fixture(scope="module")
def golden():
    return run.load_golden()


@pytest.fixture(scope="module")
def originals():
    return {repr(hook): hook.current() for hook in HOOKS}


@pytest.fixture(scope="module")
def traced(golden, originals):
    return {
        name: run.measure_traced(w, GOLDEN_SEED, golden, count=1, probe_blocks=2)
        for name, w in WORKLOADS.items()
    }


@pytest.fixture(scope="module")
def untraced(golden):
    return {
        name: run.measure(w, GOLDEN_SEED, 0.0, golden) for name, w in WORKLOADS.items()
    }


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_emitted_with_units(untraced):
    for name, result in untraced.items():
        line = run.result_line(result)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"], name
        assert {m: v["unit"] for m, v in line["metrics"].items()} == _units("end_to_end")
        assert all(v["value"] > 0 for v in line["metrics"].values()), name


def test_per_layer_metrics_emitted_with_units(traced):
    for name, result in traced.items():
        line = run.result_line(result)
        assert line["correct"], name
        assert {m: v["unit"] for m, v in line["metrics"].items()} == _units("per_layer")


def test_traced_counts_repeat(traced, golden):
    for name, workload in WORKLOADS.items():
        again = run.result_line(
            run.measure_traced(workload, GOLDEN_SEED, golden, count=1, probe_blocks=2)
        )["metrics"]
        first = run.result_line(traced[name])["metrics"]
        exact = [
            m
            for m, v in first.items()
            if v["unit"] == "count" or m.endswith(EXACT_SUFFIXES)
        ]
        assert exact
        assert {m: first[m] for m in exact} == {m: again[m] for m in exact}, name


def test_perturbed_golden_fails(golden):
    workload = WORKLOADS["serve"]
    perturbed = copy.deepcopy(golden)
    perturbed["serve"][0]["requests"] += 1
    fixture = workload.setup(GOLDEN_SEED)
    units = run.run_units(workload, fixture, GOLDEN_SEED, perturbed, count=2)
    assert [u.failed for u in units] == [True, False]
    assert run.run_units(workload, fixture, GOLDEN_SEED, golden, count=1)[0].failed is False


def test_hooks_restored_after_traced_run(traced, originals):
    assert {repr(h): h.current() for h in HOOKS} == originals
    for hook in HOOKS:
        assert hook.current() is originals[repr(hook)], hook


def test_install_wraps_every_hook(originals):
    tracer = LayerTracer()
    with tracer.installed():
        assert all(h.current() is not originals[repr(h)] for h in HOOKS)
    assert all(h.current() is originals[repr(h)] for h in HOOKS)


def test_self_times_add_up_to_wall(traced):
    layers = traced["scenario"]["layers"]
    assert sum(row["share"] for row in layers.values()) == pytest.approx(1.0)
    assert layers["rl.update"]["calls"] > 0
    assert layers["session.infer"]["calls"] == 0


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_cli_prints_result_line_last():
    proc = _cli(ROOT, "--workload", "replay-chaos", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in _units("end_to_end").items():
        assert any(line.split()[:1] == [name] and unit in line for line in lines[:-1])


def test_cli_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path, "--workload", "serve", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
