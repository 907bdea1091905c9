"""Static analysis for searchable artifacts and for the repo itself.

Two halves:

- the **domain verifier** (:mod:`repro.analysis.verifier`): rule-based
  static checks over model specs, compression plans, fixed/tree runtime
  plans and whole model trees, producing structured
  :class:`~repro.analysis.diagnostics.Diagnostic` findings without
  executing anything. Wired into ``SearchContext`` (debug mode), the
  ``repro.search.serialize`` load paths (always) and runtime plan
  admission, plus ``python -m repro.analysis artifact.json``;
- the **repo lint** (:mod:`repro.analysis.flowcheck`): the one lint
  engine over the repo's own source — numeric safety, RNG discipline,
  units, worker safety and resource typestate, plus the flat
  ``mutable-default`` / ``bare-except`` checks — run by ``make lint``,
  ``make flowcheck`` and ``python -m repro.analysis --flow``. It is
  imported only by the CLI, never by this package, so loading
  :mod:`repro.analysis` costs the verifier alone.
"""

from .artifact import detect_kind, verify_artifact
from .diagnostics import (
    Diagnostic,
    Severity,
    VerificationError,
    errors_of,
    format_report,
    has_errors,
    raise_on_error,
)
from .verifier import (
    compile_and_verify_tree,
    verify_bandwidth_types,
    verify_branch_plan,
    verify_candidate,
    verify_compression_plan,
    verify_fixed_plan,
    verify_memo_keys,
    verify_model_spec,
    verify_partition_point,
    verify_split,
    verify_tree,
)

__all__ = [
    "Diagnostic",
    "Severity",
    "VerificationError",
    "errors_of",
    "format_report",
    "has_errors",
    "raise_on_error",
    "detect_kind",
    "verify_artifact",
    "compile_and_verify_tree",
    "verify_bandwidth_types",
    "verify_branch_plan",
    "verify_candidate",
    "verify_compression_plan",
    "verify_fixed_plan",
    "verify_memo_keys",
    "verify_model_spec",
    "verify_partition_point",
    "verify_split",
    "verify_tree",
]
