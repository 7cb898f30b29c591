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

__all__ = ["VerificationReport", "Status"]


class Status:
    PASSED = "PASSED"
    FAILED = "FAILED"
    NOT_STABILIZED = "NOT_STABILIZED"


class VerificationReport:
    __slots__ = ("check", "parameters", "status", "witnesses", "wall_time")

    def __init__(self, check: str, parameters: dict, status: str,
                 witnesses: list | None = None, wall_time: float | None = None):
        if status == Status.FAILED and not witnesses:
            raise ValueError("a FAILED report needs at least one witness")
        self.check, self.parameters, self.status = check, parameters, status
        self.witnesses = [] if witnesses is None else witnesses
        self.wall_time = wall_time

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

