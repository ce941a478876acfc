"""Verification reports and their JSON/CSV serialization.

A report is deterministic given (context, grid, truncation policy): residuals
are serialized as exact rational strings on the exact backend and as decimal
strings on the float backend, and grids are emitted in sorted key order so
repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List

import mpmath

from .context import GaussianRational

__all__ = ["VerificationReport", "numeric_verdict", "reports_to_json"]


def scalar_str(x) -> str:
    if isinstance(x, GaussianRational):
        if x.im == 0:
            return str(x.re)
        return f"{x.re}{'+' if x.im >= 0 else '-'}{abs(x.im)}i"
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if isinstance(x, float):
        return repr(x)
    return mpmath.nstr(x, 12)


def numeric_verdict(residual, tol: float, tail: float):
    """The one numeric pass rule: (passed, residual string).  A residual
    passes iff it is at most tol + tail and the tail is finite: an inf or nan
    tail bounds nothing, so it fails whatever the residual."""
    r = float(residual)
    return math.isfinite(tail) and r <= tol + tail, repr(r)


@dataclass
class VerificationReport:
    id: str
    mode: str
    grid: Dict[str, object]
    residual: str
    tail_bound: float
    passed: bool
    note: str = ""
    extra: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "id": self.id,
            "mode": self.mode,
            "grid": {k: scalar_str(v) if not isinstance(v, (int, str)) else v
                     for k, v in sorted(self.grid.items())},
            "residual": self.residual,
            "tail_bound": repr(float(self.tail_bound)),
            "pass": self.passed,
        }
        if self.note:
            d["note"] = self.note
        if self.extra:
            d["extra"] = {k: scalar_str(v) if not isinstance(v, (int, str, bool)) else v
                          for k, v in sorted(self.extra.items())}
        return d


def reports_to_json(reports: List[VerificationReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=1)
