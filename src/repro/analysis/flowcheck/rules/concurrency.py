"""Concurrency-safety rule family — pre-clearing the multiprocessing path.

ROADMAP item 3 fans search/evaluation across a worker pool. Code that
will run inside workers is marked ``@worker_safe``
(:func:`repro.runtime.workers.worker_safe`); these rules walk the call
graph from those roots and flag the two process-safety hazards that
silently corrupt fan-out results:

- ``SHARED-MUTABLE``: a worker-bound function mutates module-level state
  (the process-wide ``PerfRegistry``/``MemoPool``, scenario registries).
  Under ``fork`` each worker mutates its own stale copy and the parent
  merge sees nothing; under ``spawn`` the state resets entirely.
- ``WORKER-RNG``: a worker-bound function constructs a generator from a
  constant seed (every worker then draws the *identical* stream and the
  "independent" replicas are copies), or draws on a module-level
  generator (stream shared/duplicated across workers).
"""

from __future__ import annotations

from typing import Dict

from ..core import ModuleInfo
from ..project import ProjectIndex


class SharedMutableRule:
    id = "SHARED-MUTABLE"

    def catalog(self) -> Dict[str, str]:
        return {
            self.id: (
                "worker-bound code mutates module-level state (lost or "
                "duplicated across pool workers)"
            )
        }

    def check(
        self, project: ProjectIndex, module: ModuleInfo, report
    ) -> None:
        for summary in project.summaries_for(module):
            root = project.worker_bound.get(summary.fqname)
            if root is None:
                continue
            for mutation in summary.mutations:
                via = (
                    ""
                    if root == summary.fqname
                    else f" (reachable from worker-safe `{root}`)"
                )
                report(
                    self.id,
                    mutation.line,
                    f"worker-bound {summary.function.qualname} "
                    f"{mutation.how}: module-level `{mutation.target}`"
                    f"{via}",
                    hint=(
                        "thread a per-worker instance through parameters "
                        "and merge results in the parent instead of "
                        "sharing process globals"
                    ),
                )


class WorkerRngRule:
    id = "WORKER-RNG"

    def catalog(self) -> Dict[str, str]:
        return {
            self.id: (
                "worker-bound code seeds from a constant or draws on a "
                "module-level generator (identical streams per worker)"
            )
        }

    def check(
        self, project: ProjectIndex, module: ModuleInfo, report
    ) -> None:
        for summary in project.summaries_for(module):
            root = project.worker_bound.get(summary.fqname)
            if root is None:
                continue
            for hazard in summary.rng_hazards:
                if hazard.kind == "const-seed":
                    message = (
                        f"worker-bound {summary.function.qualname} seeds "
                        f"{hazard.detail} from a constant — every worker "
                        "draws the identical stream"
                    )
                else:
                    message = (
                        f"worker-bound {summary.function.qualname} "
                        f"{hazard.detail}"
                    )
                report(
                    self.id,
                    hazard.line,
                    message,
                    hint=(
                        "derive per-worker seeds with repro.runtime."
                        "workers.spawn_worker_seeds / worker_rng "
                        "(SeedSequence.spawn) and pass the generator in"
                    ),
                )

