"""Lightweight result records for validation runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ValidationError


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one named axiom check."""

    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


@dataclass
class AxiomReport:
    """Collection of named residuals from a validation pass."""

    subject: str
    checks: list[AxiomCheck] = field(default_factory=list)

    def add(self, name: str, residual: float, threshold: float) -> None:
        self.checks.append(AxiomCheck(name, float(residual), float(threshold)))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def raise_if_failed(self) -> "AxiomReport":
        bad = self.failures
        if bad:
            worst = max(bad, key=lambda c: c.residual / max(c.threshold, 1e-300))
            raise ValidationError(worst.name, worst.residual, worst.threshold)
        return self

    def as_dict(self) -> dict:
        """Plain-dict form; a non-finite residual becomes None so the dict is strict JSON."""
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "residual": c.residual if math.isfinite(c.residual) else None,
                    "threshold": c.threshold,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }

    def __str__(self) -> str:
        lines = [f"validation of {self.subject}: {'ok' if self.ok else 'FAILED'}"]
        for c in self.checks:
            mark = "ok " if c.passed else "BAD"
            lines.append(f"  [{mark}] {c.name:<42s} residual {c.residual:.3e} (tol {c.threshold:.1e})")
        return "\n".join(lines)
