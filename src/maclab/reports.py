"""Machine-readable verification reports.

A report records the check name, its parameters, a status and, on
failure, at least one witness (the offending coefficient index together
with the expected and actual values).  The status is PASSED only when
every identity held in exact equality.  The canonical JSON form excludes
wall time so that reruns are byte-identical; timing is carried
separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["VerificationReport", "Status"]


class Status:
    PASSED = "PASSED"
    FAILED = "FAILED"
    NOT_STABILIZED = "NOT_STABILIZED"


@dataclass
class VerificationReport:
    check: str
    parameters: dict
    status: str
    witnesses: list = field(default_factory=list)
    wall_time: float | None = None

    def __post_init__(self):
        if self.status == Status.FAILED and not self.witnesses:
            raise ValueError("a FAILED report needs at least one witness")

    @property
    def passed(self) -> bool:
        return self.status == Status.PASSED

    def canonical_obj(self) -> dict:
        return {
            "check": self.check,
            "parameters": self.parameters,
            "status": self.status,
            "witnesses": self.witnesses,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_obj(), sort_keys=True, separators=(",", ":"))

    def text(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
        line = f"[{self.status}] {self.check} ({params})"
        for w in self.witnesses[:5]:
            line += f"\n    witness: {w}"
        return line

