"""Flowcheck rule goldens: each rule fires on a broken snippet and stays
silent on idiomatic repo code."""

import io
import re
import shutil
import textwrap
import tokenize
from pathlib import Path

import pytest

from repro.analysis.flowcheck import check_paths, check_source

REPO = Path(__file__).resolve().parents[2]
REPO_SRC = REPO / "src" / "repro"

#: What ``make flowcheck`` gates, relative to the repo root.
GATED = ("src/repro", "benchmarks", "examples")

_PRAGMA = re.compile(r"#\s*flowcheck:\s*ignore\[([^\]]+)\]")


def findings(source, path="src/repro/latency/sample.py"):
    return check_source(textwrap.dedent(source), path).sorted_findings()


def rules(source, path="src/repro/latency/sample.py"):
    return [f.rule for f in findings(source, path)]


class TestDivGuard:
    def test_unguarded_suspect_division_fires(self):
        src = """
            def f(bandwidth_mbps):
                return 8.0 / bandwidth_mbps
            """
        assert "div-guard" in rules(src)

    def test_if_raise_guard_silences(self):
        src = """
            def f(bandwidth_mbps):
                if bandwidth_mbps <= 0:
                    raise ValueError("bad")
                return 8.0 / bandwidth_mbps
            """
        assert "div-guard" not in rules(src)

    def test_guard_on_one_path_only_fires(self):
        src = """
            def f(bandwidth_mbps, fast):
                if fast:
                    if bandwidth_mbps <= 0:
                        raise ValueError("bad")
                return 8.0 / bandwidth_mbps
            """
        assert "div-guard" in rules(src)

    def test_max_clamp_silences(self):
        src = """
            def f(latency_ms):
                return 1.0 / max(latency_ms, 1e-9)
            """
        assert "div-guard" not in rules(src)

    def test_require_positive_call_silences(self):
        src = """
            from repro.contracts import require_positive

            def f(bandwidth_mbps):
                require_positive(bandwidth_mbps, "bandwidth_mbps")
                return 8.0 / bandwidth_mbps
            """
        assert "div-guard" not in rules(src)

    def test_non_suspect_denominator_ignored(self):
        src = """
            def f(count):
                return 8.0 / count
            """
        assert "div-guard" not in rules(src)

    def test_comprehension_filter_narrows(self):
        src = """
            def f(bandwidths):
                return [1.0 / w for w in bandwidths if w > 0]
            """
        assert "div-guard" not in rules(src)


class TestFloatEq:
    def test_float_literal_comparison_fires(self):
        src = """
            def f(scale):
                return scale == 0.0
            """
        assert "float-eq" in rules(src)

    def test_isclose_silences(self):
        src = """
            import math

            def f(scale: float):
                return math.isclose(scale, 0.0, abs_tol=1e-12)
            """
        assert "float-eq" not in rules(src)

    def test_int_comparison_ignored(self):
        src = """
            def f(n):
                return n == 0
            """
        assert "float-eq" not in rules(src)


class TestMathDomain:
    def test_unguarded_log_in_scope_fires(self):
        src = """
            import math

            def f(x):
                return math.log(x)
            """
        assert "math-domain" in rules(src, path="src/repro/mdp/sample.py")

    def test_guarded_log_silent(self):
        src = """
            import math

            def f(x):
                if x <= 0:
                    raise ValueError("bad")
                return math.log(x)
            """
        assert "math-domain" not in rules(src, path="src/repro/mdp/sample.py")

    def test_out_of_scope_package_ignored(self):
        src = """
            import math

            def f(x):
                return math.log(x)
            """
        assert "math-domain" not in rules(src, path="src/repro/model/sample.py")

    def test_sqrt_of_square_silent(self):
        src = """
            import math

            def f(x):
                return math.sqrt(x ** 2)
            """
        assert "math-domain" not in rules(src, path="src/repro/mdp/sample.py")


class TestRngDiscipline:
    def test_ambient_numpy_call_fires(self):
        src = """
            import numpy as np

            def f():
                return np.random.normal()
            """
        assert "ambient-rng" in rules(src)

    def test_ambient_random_module_fires(self):
        src = """
            import random

            def f():
                return random.random()
            """
        assert "ambient-rng" in rules(src)

    def test_unseeded_default_rng_fires(self):
        src = """
            import numpy as np

            def f():
                return np.random.default_rng()
            """
        assert "unseeded-generator" in rules(src)

    def test_seeded_default_rng_silent(self):
        src = """
            import numpy as np

            def f(seed):
                return np.random.default_rng(seed)
            """
        assert rules(src) == []

    def test_threaded_generator_silent(self):
        src = """
            import numpy as np

            def f(rng: np.random.Generator):
                return rng.normal()
            """
        assert rules(src) == []

    def test_local_name_shadowing_not_confused(self):
        src = """
            def f(random):
                return random.random()
            """
        assert "ambient-rng" not in rules(src)


class TestTensorAlias:
    def test_inplace_augassign_on_param_fires(self):
        src = """
            import numpy as np

            def f(weights: np.ndarray):
                weights *= 2.0
                return weights
            """
        assert "tensor-alias" in rules(src)

    def test_subscript_store_on_param_fires(self):
        src = """
            import numpy as np

            def f(weights: np.ndarray):
                weights[0] = 0.0
                return weights
            """
        assert "tensor-alias" in rules(src)

    def test_copy_first_silences(self):
        src = """
            import numpy as np

            def f(weights: np.ndarray):
                weights = weights.copy()
                weights *= 2.0
                return weights
            """
        assert "tensor-alias" not in rules(src)

    def test_cache_lookup_mutation_fires(self):
        src = """
            def f(cache, key):
                hit = cache[key]
                hit += 1.0
                return hit
            """
        assert "tensor-alias" in rules(src)

    def test_unannotated_param_ignored(self):
        src = """
            def f(weights):
                weights *= 2.0
                return weights
            """
        assert "tensor-alias" not in rules(src)


class TestBoundaryContract:
    def test_unvalidated_unit_param_fires(self):
        src = """
            def estimate(size_bytes, bandwidth_mbps):
                return size_bytes * 8.0 + bandwidth_mbps
            """
        assert "boundary-contract" in rules(src)

    def test_require_call_satisfies(self):
        src = """
            from repro.contracts import require_positive

            def estimate(bandwidth_mbps):
                require_positive(bandwidth_mbps, "bandwidth_mbps")
                return bandwidth_mbps
            """
        assert "boundary-contract" not in rules(src)

    def test_if_raise_satisfies(self):
        src = """
            def estimate(bandwidth_mbps):
                if bandwidth_mbps <= 0:
                    raise ValueError("bad")
                return bandwidth_mbps
            """
        assert "boundary-contract" not in rules(src)

    def test_private_function_exempt(self):
        src = """
            def _estimate(bandwidth_mbps):
                return bandwidth_mbps
            """
        assert "boundary-contract" not in rules(src)

    def test_stub_exempt(self):
        src = """
            class Policy:
                def sample(self, bandwidth_mbps):
                    ...
            """
        assert "boundary-contract" not in rules(src)

    def test_out_of_scope_package_exempt(self):
        src = """
            def estimate(bandwidth_mbps):
                return bandwidth_mbps
            """
        assert "boundary-contract" not in rules(src, path="src/repro/nn/sample.py")


class TestPrintCall:
    def test_library_print_fires(self):
        src = """
            def f(x):
                print(x)
            """
        assert "print-call" in rules(src)

    def test_experiments_package_exempt(self):
        src = """
            def f(x):
                print(x)
            """
        assert rules(src, path="src/repro/experiments/sample.py") == []

    def test_main_entry_point_exempt(self):
        src = """
            def main():
                print("hello")
            """
        assert "print-call" not in rules(src)

    def test_dunder_main_module_exempt(self):
        src = """
            def f(x):
                print(x)
            """
        assert rules(src, path="src/repro/latency/__main__.py") == []


class TestMonotonicClock:
    def test_wall_clock_duration_fires(self):
        src = """
            import time

            def f():
                start = time.time()
                work()
                return time.time() - start
            """
        assert rules(src).count("monotonic-clock") == 2

    def test_from_import_alias_fires(self):
        src = """
            from time import time

            def f():
                return time()
            """
        assert "monotonic-clock" in rules(src)

    def test_perf_counter_silent(self):
        src = """
            import time

            def f():
                return time.perf_counter()
            """
        assert "monotonic-clock" not in rules(src)

    def test_perf_package_fires(self):
        src = """
            import time

            def f():
                return time.time()
            """
        assert rules(src, path="src/repro/perf/sample.py") == [
            "monotonic-clock"
        ]

    def test_obs_package_fires(self):
        src = """
            import time

            def f():
                return time.time()
            """
        assert rules(src, path="src/repro/obs/sample.py") == [
            "monotonic-clock"
        ]

    @pytest.mark.parametrize(
        "src, expected",
        [
            (
                """
                import time

                def _measure(work):
                    start = time.time()
                    work()
                    return time.time() - start
                """,
                2,
            ),
            (
                """
                import time

                def _measure(work):
                    start = time.perf_counter()
                    work()
                    return time.perf_counter() - start
                """,
                0,
            ),
            (
                """
                def _delta(end_ms, start_ms):
                    return end_ms - start_ms
                """,
                0,
            ),
        ],
        ids=["time-time-span", "perf-counter-span", "unrelated-subtraction"],
    )
    def test_span_goldens(self, src, expected):
        # Span math is flagged through its time.time() reads, in every
        # package — perf/obs included.
        for path in ("src/repro/latency/sample.py", "src/repro/perf/s.py"):
            assert rules(src, path=path).count("monotonic-clock") == expected

    def test_unrelated_time_method_silent(self):
        src = """
            def f(event):
                return event.time()
            """
        assert "monotonic-clock" not in rules(src)

    def test_pragma_suppresses(self):
        src = """
            import time

            def stamp():
                return time.time()  # flowcheck: ignore[monotonic-clock] -- timestamp-of-record
            """
        assert "monotonic-clock" not in rules(src)


class TestLegacyRules:
    def test_mutable_default_still_caught(self):
        src = """
            def f(items=[]):
                return items
            """
        assert "mutable-default" in rules(src)

    def test_bare_except_still_caught(self):
        src = """
            def f():
                try:
                    return 1
                except:
                    return 0
            """
        assert "bare-except" in rules(src)

    def test_syntax_error_reported_not_raised(self):
        assert rules("def f(:\n") == ["syntax"]

    @pytest.mark.parametrize(
        "src, expected",
        [
            ("def f(*, x={}):\n    return x\n", ["mutable-default"]),
            ("def f(x=dict()):\n    return x\n", ["mutable-default"]),
            ("g = lambda x=[]: x\n", ["mutable-default"]),
            ("async def f(x=set()):\n    return x\n", ["mutable-default"]),
            ("def f(x=(), y=None, z=0):\n    return x, y, z\n", []),
            ("def f(x=list((1,)), y=dict(a=1)):\n    return x, y\n", []),
            ("try:\n    pass\nexcept ValueError:\n    pass\n", []),
        ],
        ids=[
            "kwonly-dict",
            "argless-dict-call",
            "lambda-list",
            "async-def",
            "immutable-defaults",
            "calls-with-args",
            "typed-except",
        ],
    )
    def test_flat_rule_goldens(self, src, expected):
        assert rules(src) == expected


class TestSuppression:
    def test_inline_pragma_suppresses_named_rule(self):
        src = """
            def f(bandwidth_mbps):
                return 8.0 / bandwidth_mbps  # flowcheck: ignore[div-guard] -- test
            """
        assert "div-guard" not in rules(src)

    def test_pragma_counts_suppressed(self):
        src = """
            def f(bandwidth_mbps):
                return 8.0 / bandwidth_mbps  # flowcheck: ignore[div-guard]
            """
        result = check_source(textwrap.dedent(src), "src/repro/latency/s.py")
        assert result.suppressed == 1

    def test_pragma_for_other_rule_does_not_suppress(self):
        src = """
            def f(bandwidth_mbps):
                return 8.0 / bandwidth_mbps  # flowcheck: ignore[float-eq]
            """
        assert "div-guard" in rules(src)

    def test_bare_pragma_suppresses_nothing(self):
        # A pragma must name its rules; the bare form is not a pragma.
        src = """
            def _f(bandwidth_mbps):
                return 8.0 / bandwidth_mbps  # flowcheck: ignore
            """
        result = check_source(textwrap.dedent(src), "src/repro/latency/s.py")
        assert [f.rule for f in result.findings] == ["div-guard"]
        assert result.suppressed == 0

    def test_multi_rule_pragma_on_one_line(self):
        # One comment, several rules — and matching is case-insensitive,
        # so uppercase unit-rule ids mix with lowercase classic ids.
        src = """
            def _f(latency_ms, timeout_s, bandwidth_mbps):
                return (latency_ms + timeout_s) / bandwidth_mbps  # flowcheck: ignore[UNIT-MISMATCH,div-guard] -- test
            """
        found = rules(src)
        assert "UNIT-MISMATCH" not in found
        assert "div-guard" not in found

    def test_multi_rule_pragma_suppresses_only_listed(self):
        src = """
            def _f(latency_ms, timeout_s, bandwidth_mbps):
                return (latency_ms + timeout_s) / bandwidth_mbps  # flowcheck: ignore[UNIT-MISMATCH,float-eq]
            """
        found = rules(src)
        assert "UNIT-MISMATCH" not in found
        assert "div-guard" in found

    def test_pragma_on_continuation_line(self):
        # Findings anchor on the statement's first line; the pragma sits
        # on a later physical line of the same logical statement (where
        # formatters put trailing comments) and must still apply.
        src = """
            def _f(latency_ms, timeout_s):
                return (
                    latency_ms
                    + timeout_s  # flowcheck: ignore[UNIT-MISMATCH] -- mixed on purpose
                )
            """
        assert "UNIT-MISMATCH" not in rules(src)

    def test_pragma_inside_string_literal_is_inert(self):
        src = """
            def _f(bandwidth_mbps):
                note = "# flowcheck: ignore[div-guard]"
                return 8.0 / bandwidth_mbps, note
            """
        assert "div-guard" in rules(src)


class TestRepoIsClean:
    def test_src_repro_has_no_unsuppressed_findings(self):
        result = check_paths([REPO_SRC])
        assert result.sorted_findings() == []
        assert result.files_checked > 50

    def test_every_pragma_names_a_live_finding(self, tmp_path, monkeypatch):
        # Strip every pragma comment from a copy of the gated tree: the
        # engine must then report exactly the (rule, path, line) triples
        # the pragmas named — no pragma is dead, none hides a second
        # finding. A pragma names the line its comment sits on.
        named = set()
        for top in GATED:
            shutil.copytree(
                REPO / top,
                tmp_path / top,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            for file in sorted((tmp_path / top).rglob("*.py")):
                source = file.read_text()
                lines = source.splitlines(keepends=True)
                tokens = tokenize.generate_tokens(io.StringIO(source).readline)
                for token in tokens:
                    match = _PRAGMA.match(token.string)
                    if token.type != tokenize.COMMENT or not match:
                        continue
                    row, col = token.start
                    lines[row - 1] = lines[row - 1][:col].rstrip() + "\n"
                    rel = file.relative_to(tmp_path).as_posix()
                    for rule in match.group(1).split(","):
                        named.add((rule.strip().lower(), rel, row))
                file.write_text("".join(lines))
        assert named, "the gated tree carries no pragmas to check"

        monkeypatch.chdir(tmp_path)
        result = check_paths(GATED)
        assert result.suppressed == 0
        found = [
            (f.rule.lower(), Path(f.path).as_posix(), f.line)
            for f in result.findings
        ]
        assert set(found) == named
        assert len(found) == len(named)
