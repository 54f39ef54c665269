"""Structured pass/fail reports shared by the validators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass(frozen=True)
class Check:
    """Outcome of one named check, with an optional JSON-able witness."""

    check_id: str
    passed: bool
    detail: str = ""
    witness: Mapping[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"id": self.check_id, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = dict(self.witness)
        return out


@dataclass(frozen=True)
class VerificationReport:
    """An ordered bundle of checks."""

    title: str
    checks: tuple[Check, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def find(self, check_id: str) -> Check:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)

    def to_dict(self) -> dict[str, Any]:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }

    def render_text(self) -> str:
        lines = [self.title]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            line = f"  [{mark}] {c.check_id}"
            if c.detail:
                line += f"  {c.detail}"
            if c.witness:
                pretty = ", ".join(f"{k}={v}" for k, v in c.witness.items())
                line += f"  ({pretty})"
            lines.append(line)
        n_fail = len(self.failed())
        lines.append(f"  {len(self.checks) - n_fail} passed, {n_fail} failed")
        return "\n".join(lines)
