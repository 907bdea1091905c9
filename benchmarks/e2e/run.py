"""End-to-end benchmark of the search and serving halves, one workload per run.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload scenario --seed 2 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --workload serve --trace 1 --trace-out serve.jsonl

``--trace 0`` sets up ``SETUP_REPEATS`` times, then times units of the
workload until ``--seconds`` have passed, and reports the end-to-end
metrics. ``--trace 1`` runs each of the workload's fixed number of traced
units twice, back to back: plain, and with every layer hook of
``layertrace.HOOKS`` installed. It reports the per-layer metrics plus the
instrumentation probes. Either way the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the lines above it
print every metric by name with its unit. Nothing is written to disk
unless ``--out`` or ``--trace-out`` names a file.

``--write-golden`` (seed 2 only) runs one full cycle of the workload and
stores its unit digests in ``golden.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

# One BLAS/OpenMP thread, set before numpy is first imported (numpy loads
# only with the workloads, below).
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
GOLDEN_PATH = HERE / "golden.json"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

SETUP_REPEATS = 5

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "iter_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    """Per-layer metrics (``--trace 1``) and their units."""
    from layertrace import HIT_RATE_LAYERS, LAYERS
    from workloads import COUNT_NAMES

    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.share"] = "frac"
    units["rl.forward.rows_per_call"] = "rows"
    for layer in HIT_RATE_LAYERS:
        units[f"{layer}.hit_rate"] = "frac"
    for name in COUNT_NAMES:
        units[name] = "count"
    units["trace.overhead_frac"] = "frac"
    units["trace.unattributed_share"] = "frac"
    units["obs.recording_us"] = "us"
    units["obs.span_off_us"] = "us"
    units["perf.registry_us"] = "us"
    return units


# ---------------------------------------------------------------------------
# Running units
# ---------------------------------------------------------------------------
class Unit:
    """One timed unit as the report sees it."""

    def __init__(self, index: int, slot: int) -> None:
        self.index = index
        self.slot = slot
        self.wall_s = 0.0
        self.result = None
        self.problems: List[str] = []

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_unit(workload, fixture, seed: int, index: int, golden, tracer=None) -> Unit:
    """Run unit ``index`` of the workload (traced when ``tracer`` is given).

    A unit that raises, breaks a guarantee, or (for the golden seed)
    digests differently from ``golden.json`` is failed; the run goes on.
    """
    from workloads import GOLDEN_SEED, Timer, unit_seed

    unit = Unit(index, index % workload.cycle)
    timer = Timer(tracer, index)
    try:
        unit.result = workload.run_unit(
            fixture, unit_seed(seed, unit.slot), unit.slot, timer
        )
    except Exception:  # a failing unit is reported, not fatal
        traceback.print_exc(file=sys.stderr)
        unit.problems.append("raised")
    unit.wall_s = timer.elapsed_s
    expected = (golden or {}).get(workload.name, []) if seed == GOLDEN_SEED else []
    if unit.result is not None:
        unit.problems += unit.result.problems
        if unit.slot < len(expected) and unit.result.digest != expected[unit.slot]:
            unit.problems.append(f"digest differs from golden.json slot {unit.slot}")
    for problem in unit.problems:
        print(f"FAILED {workload.name} unit {index}: {problem}", file=sys.stderr)
    return unit


def run_units(
    workload,
    fixture,
    seed: int,
    golden: Optional[Dict[str, list]],
    count: Optional[int] = None,
    seconds: float = 0.0,
) -> List[Unit]:
    """Run ``count`` units, or units until ``seconds`` have passed (≥ 1)."""
    units: List[Unit] = []
    start = time.perf_counter()
    while True:
        units.append(run_unit(workload, fixture, seed, len(units), golden))
        if count is not None:
            if len(units) >= count:
                return units
        elif time.perf_counter() - start >= seconds:
            return units


def load_golden() -> Dict[str, list]:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def _summary(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end_metrics(
    setup_s: List[float], units: List[Unit]
) -> Dict[str, Dict[str, Any]]:
    import numpy as np

    ok = [u for u in units if u.result is not None]
    op_s = [u.result.op_s for u in ok if u.result.op_s is not None]
    if op_s:
        op_us = list(np.concatenate(op_s) * 1e6)
    else:
        op_us = [u.wall_s * 1e6 / u.result.ops for u in ok]
    summaries = {
        "setup_s": _summary(setup_s),
        "iter_s": _summary([u.wall_s for u in ok]),
        "ops_per_s": _summary([u.result.ops / u.wall_s for u in ok]),
        "op_p50_us": _summary(op_us),
        "peak_rss_mb": _summary(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        ),
    }
    if op_s:
        # Ungated: only per-call timings have enough samples for a tail.
        summaries["op_p50_us"]["p99"] = float(np.percentile(op_us, 99))
    return {name: {**s, "unit": END_TO_END[name]} for name, s in summaries.items()}


def per_layer_metrics(
    tracer, baseline: List[Unit], traced: List[Unit], probes: Dict[str, float]
) -> Dict[str, Dict[str, Any]]:
    from layertrace import HIT_RATE_LAYERS, LAYERS, ROOT
    from workloads import COUNT_NAMES

    table = tracer.layer_table(len(traced))
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = table[layer]["calls"]
        values[f"{layer}.share"] = table[layer]["share"]
    values["rl.forward.rows_per_call"] = table["rl.forward"]["rows_per_call"]
    rates = tracer.hit_rates()
    for layer in HIT_RATE_LAYERS:
        values[f"{layer}.hit_rate"] = rates[layer]
    ok = [u for u in traced if u.result is not None]
    for name in COUNT_NAMES:
        values[name] = sum(u.result.counts[name] for u in ok) / max(len(ok), 1)
    plain_s = sum(u.wall_s for u in baseline)
    values["trace.overhead_frac"] = tracer.wall_s() / plain_s - 1.0
    values["trace.unattributed_share"] = table[ROOT]["share"]
    values.update(probes)
    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------
def measure(workload, seed: int, seconds: float, golden) -> Dict[str, Any]:
    """Untraced run: repeated set-up, then units for ``seconds``."""
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        fixture = workload.setup(seed)
        setup_s.append(time.perf_counter() - start)
    units = run_units(workload, fixture, seed, golden, seconds=seconds)
    return {
        "units": units,
        "metrics": end_to_end_metrics(setup_s, units),
    }


def measure_traced(
    workload, seed: int, golden, count: Optional[int] = None, probe_blocks: Optional[int] = None
) -> Dict[str, Any]:
    """Traced run: ``count`` units each run plain and traced, then probes."""
    from layertrace import LayerTracer
    from workloads import PROBE_BLOCKS, instrumentation_probes, serving_fixture

    count = count or workload.traced_units
    fixture = workload.setup(seed)
    tracer = LayerTracer()
    baseline: List[Unit] = []
    traced: List[Unit] = []
    for index in range(count):
        # Each unit runs plain and traced back to back, so machine drift
        # hits both alike; which goes first alternates.
        for plain in (True, False) if index % 2 == 0 else (False, True):
            if plain:
                baseline.append(run_unit(workload, fixture, seed, index, golden))
            else:
                with tracer.installed():
                    traced.append(run_unit(workload, fixture, seed, index, golden, tracer))
    probes = instrumentation_probes(
        serving_fixture(seed), seed, probe_blocks or PROBE_BLOCKS
    )
    return {
        "units": baseline + traced,
        "metrics": per_layer_metrics(tracer, baseline, traced, probes),
        "layers": tracer.layer_table(count),
        "tracer": tracer,
    }


def result_line(run: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON object the benchmark prints last."""
    units = run["units"]
    failed = sum(u.failed for u in units)
    return {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in run["metrics"].items()
        },
    }


def print_report(workload, seed: int, trace: bool, run: Dict[str, Any]) -> None:
    units = run["units"]
    failed = sum(u.failed for u in units)
    print(
        f"e2e {workload.name} seed={seed} trace={int(trace)} "
        f"units={len(units)} failed={failed} failed_frac={failed / len(units):.4g} "
        f"(op = {workload.op})"
    )
    for name, m in run["metrics"].items():
        spread = (
            f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}" if "n" in m else ""
        )
        if "p99" in m:
            spread += f"  p99 {m['p99']:.6g}"
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']:<6}{spread}")
    if trace:
        print(f"  {'layer':<22} {'calls/iter':>12} {'self_ms/iter':>14} {'share':>8}")
        for layer, row in run["layers"].items():
            print(
                f"  {layer:<22} {row['calls']:>12.6g} "
                f"{row['self_ms']:>14.6g} {row['share']:>8.4f}"
            )


def write_golden(workload, seed: int) -> None:
    """Store one full cycle of unit digests for the golden seed."""
    from workloads import GOLDEN_SEED

    if seed != GOLDEN_SEED:
        raise SystemExit(f"golden digests are for seed {GOLDEN_SEED}")
    fixture = workload.setup(seed)
    units = run_units(workload, fixture, seed, None, count=workload.cycle)
    if any(u.failed for u in units):
        raise SystemExit("a unit failed; golden.json not written")
    golden = load_golden()
    golden[workload.name] = [u.result.digest for u in units]
    # One digest per line keeps the file small and its diffs readable.
    blocks = [
        f" {json.dumps(name)}: [\n"
        + ",\n".join(f"  {json.dumps(d, sort_keys=True)}" for d in digests)
        + "\n ]"
        for name, digests in sorted(golden.items())
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {len(units)} {workload.name} digests to {GOLDEN_PATH.name}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full report as JSON here")
    parser.add_argument("--trace-out", help="write the traced spans as JSONL here")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.trace_out and not args.trace:
        parser.error("--trace-out needs --trace 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.write_golden:
        write_golden(workload, args.seed)
        return 0

    golden = load_golden()
    if args.trace:
        run = measure_traced(workload, args.seed, golden)
    else:
        run = measure(workload, args.seed, args.seconds, golden)
    print_report(workload, args.seed, bool(args.trace), run)
    line = result_line(run)
    if args.out:
        report = {
            **line,
            "workload": workload.name,
            "seed": args.seed,
            "metrics": run["metrics"],
            "layers": run.get("layers"),
            "units": [
                {
                    "index": u.index,
                    "wall_s": u.wall_s,
                    "problems": u.problems,
                    "digest": u.result.digest if u.result else None,
                }
                for u in run["units"]
            ],
        }
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if args.trace_out:
        Path(args.trace_out).write_text(run["tracer"].to_jsonl())
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
