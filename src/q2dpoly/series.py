"""Truncated bivariate formal power series in (u, v).

The carrier for both sides of every generating-function identity: arithmetic
is exact modulo total degree, so two series agree up to order N iff their
coefficient maps are identical.  Exact-backend coefficients are (Gaussian)
rationals; float-backend coefficients are mpmath numbers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from mpmath import mp

from .context import QContext, is_zero

__all__ = ["TruncatedBiSeries"]

Key = Tuple[int, int]


class TruncatedBiSeries:
    """A power series sum c[i,j] u^i v^j known exactly for i + j <= order."""

    __slots__ = ("ctx", "order", "coeffs")

    def __init__(self, ctx: QContext, order: int, coeffs: Optional[Dict[Key, object]] = None):
        self.ctx = ctx
        self.order = order
        self.coeffs: Dict[Key, object] = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                if i + j <= order and not is_zero(c):
                    self.coeffs[(i, j)] = c

    # -- constructors -------------------------------------------------------
    @classmethod
    def one(cls, ctx: QContext, order: int) -> "TruncatedBiSeries":
        return cls(ctx, order, {(0, 0): ctx.one()})

    @classmethod
    def monomial(cls, ctx: QContext, order: int, c, i: int, j: int) -> "TruncatedBiSeries":
        return cls(ctx, order, {(i, j): c})

    @classmethod
    def poch_factor(cls, ctx: QContext, order: int, c, i: int, j: int,
                    inverse: bool = False) -> "TruncatedBiSeries":
        """(c u^i v^j; q)_inf, or its reciprocal, expanded by the Euler sums.

        The monomial degree must be positive so the expansion terminates at the
        truncation order:  (x;q)_inf = sum (-x)^r q^C(r,2) / (q;q)_r  and
        1/(x;q)_inf = sum x^r / (q;q)_r with x = c u^i v^j.
        """
        if i + j <= 0:
            raise ValueError("poch_factor needs a positive-degree monomial")
        out: Dict[Key, object] = {}
        r = 0
        while r * (i + j) <= order:
            if inverse:
                coef = c**r / ctx.qq(r)
            else:
                coef = (-c) ** r * ctx.qpow(r * (r - 1) // 2) / ctx.qq(r)
            out[(r * i, r * j)] = coef
            r += 1
        return cls(ctx, order, out)

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        if isinstance(other, TruncatedBiSeries):
            out = dict(self.coeffs)
            for k, c in other.coeffs.items():
                out[k] = out.get(k, self.ctx.zero()) + c
            return TruncatedBiSeries(self.ctx, min(self.order, other.order), out)
        out = dict(self.coeffs)
        out[(0, 0)] = out.get((0, 0), self.ctx.zero()) + other
        return TruncatedBiSeries(self.ctx, self.order, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedBiSeries(self.ctx, self.order, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedBiSeries) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedBiSeries):
            return TruncatedBiSeries(
                self.ctx, self.order, {k: c * other for k, c in self.coeffs.items()}
            )
        N = min(self.order, other.order)
        out: Dict[Key, object] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i + j <= N:
                    k = (i, j)
                    out[k] = out.get(k, self.ctx.zero()) + c1 * c2
        return TruncatedBiSeries(self.ctx, N, out)

    __rmul__ = __mul__

    def log1p_part(self) -> "TruncatedBiSeries":
        """log(self) for a series with constant term exactly 1."""
        c0 = self.coeffs.get((0, 0), self.ctx.zero())
        if c0 != 1:
            raise ValueError("log needs constant term 1")
        t = TruncatedBiSeries(
            self.ctx, self.order, {k: c for k, c in self.coeffs.items() if k != (0, 0)}
        )
        out = TruncatedBiSeries(self.ctx, self.order)
        power = TruncatedBiSeries.one(self.ctx, self.order)
        for k in range(1, self.order + 1):
            power = power * t
            if not power.coeffs:
                break
            out = out + power * (Fraction((-1) ** (k + 1), k) if self.ctx.is_exact else ((-1) ** (k + 1) / mp.mpf(k)))
        return out

    def exp_part(self) -> "TruncatedBiSeries":
        """exp(self) for a series with zero constant term."""
        if (0, 0) in self.coeffs:
            raise ValueError("exp needs zero constant term")
        out = TruncatedBiSeries.one(self.ctx, self.order)
        power = TruncatedBiSeries.one(self.ctx, self.order)
        fact = 1
        for k in range(1, self.order + 1):
            power = power * self
            if not power.coeffs:
                break
            fact *= k
            out = out + power * (Fraction(1, fact) if self.ctx.is_exact else 1 / mp.mpf(fact))
        return out

    def pow_fraction(self, e: Fraction) -> "TruncatedBiSeries":
        """self**e for rational e, constant term 1 (via exp(e log self))."""
        return (self.log1p_part() * (e if self.ctx.is_exact else float(e))).exp_part()

    # -- queries -------------------------------------------------------------
    def coeff(self, i: int, j: int):
        return self.coeffs.get((i, j), self.ctx.zero())

    def __eq__(self, other):
        if not isinstance(other, TruncatedBiSeries):
            return NotImplemented
        return self._zero_diff(other)

    def _zero_diff(self, other) -> bool:
        N = min(self.order, other.order)
        for k in set(self.coeffs) | set(other.coeffs):
            if k[0] + k[1] > N:
                continue
            if not is_zero(self.coeff(*k) - other.coeff(*k)):
                return False
        return True

    def __repr__(self):
        terms = sorted(self.coeffs)[:6]
        inner = ", ".join(f"u^{i} v^{j}: {self.coeffs[(i,j)]}" for i, j in terms)
        return f"TruncatedBiSeries(order={self.order}, {{{inner}{', ...' if len(self.coeffs) > 6 else ''}}})"

