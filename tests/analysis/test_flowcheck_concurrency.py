"""Concurrency-safety goldens: SHARED-MUTABLE / WORKER-RNG and the
``@worker_safe`` reachability that scopes them (pre-clearing the
multiprocessing fan-out, ROADMAP item 3).
"""

import textwrap

from repro.analysis.flowcheck import check_source


def findings(source, path="src/repro/latency/sample.py"):
    return check_source(textwrap.dedent(source), path).sorted_findings()


def rules(source, path="src/repro/latency/sample.py"):
    return [f.rule for f in findings(source, path)]


class TestSharedMutable:
    def test_direct_mutation_in_worker_safe_fires(self):
        src = """
            from repro.runtime.workers import worker_safe

            _CACHE = {}

            @worker_safe
            def evaluate(key, value):
                _CACHE[key] = value
                return value
            """
        assert "SHARED-MUTABLE" in rules(src)

    def test_transitive_mutation_fires_with_root_attribution(self):
        src = """
            from repro.runtime.workers import worker_safe

            _RESULTS = []

            def _record(value):
                _RESULTS.append(value)

            @worker_safe
            def evaluate(value):
                _record(value)
                return value
            """
        hits = [f for f in findings(src) if f.rule == "SHARED-MUTABLE"]
        assert hits
        # The finding names the worker-safe root the mutation is
        # reachable from, so the reader knows which pool is affected.
        assert any("evaluate" in f.diagnostic.message for f in hits)

    def test_global_rebinding_fires(self):
        src = """
            from repro.runtime.workers import worker_safe

            _REGISTRY = {}

            @worker_safe
            def reset():
                global _REGISTRY
                _REGISTRY = {}
            """
        assert "SHARED-MUTABLE" in rules(src)

    def test_same_code_without_worker_safe_is_silent(self):
        # Module caches are fine in single-process code; only
        # worker-bound paths are held to the stricter contract.
        src = """
            _CACHE = {}

            def evaluate(key, value):
                _CACHE[key] = value
                return value
            """
        assert "SHARED-MUTABLE" not in rules(src)

    def test_local_mutation_in_worker_safe_is_silent(self):
        src = """
            from repro.runtime.workers import worker_safe

            @worker_safe
            def evaluate(values):
                out = []
                for v in values:
                    out.append(v)
                return out
            """
        assert "SHARED-MUTABLE" not in rules(src)


class TestWorkerRng:
    def test_const_seeded_rng_in_worker_safe_fires(self):
        # Every worker running this gets the *same* stream — the fan-out
        # silently degenerates to N copies of one sample path.
        src = """
            import numpy as np
            from repro.runtime.workers import worker_safe

            @worker_safe
            def draw(n):
                rng = np.random.default_rng(42)
                return rng.normal(size=n)
            """
        assert "WORKER-RNG" in rules(src)

    def test_module_level_rng_used_in_worker_safe_fires(self):
        src = """
            import numpy as np
            from repro.runtime.workers import worker_safe

            _RNG = np.random.default_rng(0)

            @worker_safe
            def draw(n):
                return _RNG.normal(size=n)
            """
        assert "WORKER-RNG" in rules(src)

    def test_rng_seeded_from_parameter_is_silent(self):
        # The repo convention: the caller derives per-worker seeds with
        # spawn_worker_seeds / worker_rng and passes them in.
        src = """
            import numpy as np
            from repro.runtime.workers import worker_safe

            @worker_safe
            def draw(seed, n):
                rng = np.random.default_rng(seed)
                return rng.normal(size=n)
            """
        assert "WORKER-RNG" not in rules(src)

    def test_const_seed_outside_worker_paths_is_silent(self):
        # Deterministic seeds are the *point* in single-process
        # experiment code; only worker-bound paths are flagged.
        src = """
            import numpy as np

            def draw(n):
                rng = np.random.default_rng(42)
                return rng.normal(size=n)
            """
        assert "WORKER-RNG" not in rules(src)


class TestWorkerSafeRuntimeHelpers:
    def test_decorator_exempts_no_rules(self):
        # worker_safe is an analysis marker, not a suppression: other
        # findings inside the function still fire.
        src = """
            from repro.runtime.workers import worker_safe

            @worker_safe
            def f(bandwidth_mbps):
                return 8.0 / bandwidth_mbps
            """
        assert "div-guard" in rules(src)
