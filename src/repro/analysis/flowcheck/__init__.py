"""flowcheck — dataflow-based numeric-safety & RNG-discipline analyzer.

The repo-code half of :mod:`repro.analysis` and the repo's one lint
engine, built in passes: per-module symbol tables, an
intraprocedural guard-tracking dataflow interpreter, a cross-module
project index (function summaries, unit inference, call graph,
worker-bound reachability), and rule plugins that emit the shared
:class:`~repro.analysis.diagnostics.Diagnostic` type.

Rule catalog (stable ids):

==================== =====================================================
``div-guard``         division by bandwidth/latency/probability-like value
                      with no zero-guard on some path
``float-eq``          exact ``==``/``!=`` on floats
``math-domain``       log/sqrt/exp domain or overflow hazard in
                      reward/accuracy/RL code
``ambient-rng``       draw from the process-global RNG
``unseeded-generator`` RNG constructed without an explicit seed
``tensor-alias``      in-place mutation of a parameter/cached array
``boundary-contract`` public latency/search/runtime function with
                      unvalidated unit parameters
``print-call``        print() outside experiments//benchmarks//examples//
                      __main__/main()
``mutable-default``   mutable default argument
``bare-except``       bare ``except:``
``monotonic-clock``   any ``time.time()`` call (the wall clock steps under
                      NTP; time durations with ``perf_counter``)
``syntax``            file does not parse
``UNIT-MISMATCH``     arithmetic/comparison mixing incompatible units
                      (``_ms`` + ``_s``, percent vs fraction, missing 8x
                      between bytes and bits)
``UNIT-CONVERT``      value whose inferred unit contradicts the suffix of
                      the name it is bound to or returned as
``UNIT-ARG``          call-site argument unit contradicts the parameter's
                      declared unit (suffix or ``Annotated[float, "ms"]``)
``SHARED-MUTABLE``    module-level state mutated on a code path reachable
                      from a ``@worker_safe`` entry point
``WORKER-RNG``        constant-seeded or module-level RNG used on a
                      worker-bound path (streams would collide)
``SPAN-LEAK``         span/handle acquired outside ``with`` not released
                      on every exit, including exception edges
``SINK-FLUSH``        worker-bound result sink that can reach an exit
                      with unflushed buffered data
``SWALLOWED-FAULT``   broad/fault-typed handler that neither re-raises
                      nor records the caught fault
``BREAKER-PROTOCOL``  ``record_*`` not gated by its own preceding
                      ``CircuitBreaker.allow()`` on some path
==================== =====================================================

The four typestate rules run resource state machines over per-function
control-flow graphs with explicit exception edges (:mod:`.cfg`,
:mod:`.typestate`).

Accept a finding inline with ``# flowcheck: ignore[rule-id] -- why``
(several ids comma-separated, matched case-insensitively); a pragma must
name its rules. Run the gate with
``python -m repro.analysis --flow src/repro benchmarks examples`` or
``make flowcheck``; ``--json`` prints the JSON report on stdout and
``--report FILE`` writes it to a file.
"""

from .core import Finding, make_finding
from .engine import CheckResult, check_paths, check_source
from .rules import all_rule_ids, rule_catalog

__all__ = [
    "CheckResult",
    "Finding",
    "all_rule_ids",
    "check_paths",
    "check_source",
    "make_finding",
    "rule_catalog",
]
