"""Clock-discipline rule.

``monotonic-clock``: ``time.time()`` is the wall clock — NTP slews it,
DST and manual adjustments jump it — so durations measured with it can
come out negative or wildly wrong. Everything in this repo that times a
region (perf spans, trace records) uses ``time.perf_counter()`` (or
``time.monotonic()``), so every ``time.time()`` call is flagged,
:mod:`repro.perf` and :mod:`repro.obs` included. A call that truly needs
a timestamp-of-record documents that decision at the call site with an
inline ``# flowcheck: ignore[monotonic-clock]`` pragma.
"""

from __future__ import annotations

import ast
from typing import Dict

from ..core import ModuleInfo


class MonotonicClockRule:
    id = "monotonic-clock"

    def catalog(self) -> Dict[str, str]:
        return {
            self.id: (
                "time.time() wall-clock call (use time.perf_counter() "
                "for durations)"
            )
        }

    def check(self, module: ModuleInfo, report) -> None:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if module.resolve(node.func) != "time.time":
                continue
            report(
                self.id,
                node,
                "time.time() reads the wall clock",
                hint=(
                    "use time.perf_counter() (monotonic) for durations; "
                    "keep time.time() for pragma-documented "
                    "timestamps-of-record only"
                ),
            )
