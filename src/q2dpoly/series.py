"""Truncated bivariate formal power series in (u, v).

The carrier for both sides of every generating-function identity: a
:class:`~q2dpoly.polyfamilies.BivarPoly` in (u, v) known exactly for total
degree i + j <= order, so two series agree up to order N iff their
coefficient maps are identical.  The ring operations are the polynomial
ones; a result keeps the lower order of its operands, and the product drops
the terms above it.
"""

from __future__ import annotations

from typing import Dict, Optional

from .context import QContext
from .polyfamilies import BivarPoly, Key

__all__ = ["TruncatedBiSeries"]


class TruncatedBiSeries(BivarPoly):
    """A power series sum c[i,j] u^i v^j known exactly for i + j <= order."""

    __slots__ = ("order",)

    def __init__(self, ctx: QContext, order: int, coeffs: Optional[Dict[Key, object]] = None):
        self.order = order
        super().__init__(ctx, coeffs and {k: c for k, c in coeffs.items()
                                          if k[0] + k[1] <= order})

    def _like(self, coeffs, other) -> "TruncatedBiSeries":
        return TruncatedBiSeries(self.ctx, min(self.order, getattr(other, "order", self.order)),
                                 coeffs)

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
        1/(x;q)_inf = sum x^r / (q;q)_r with x = c u^i v^j.  The powers of c
        (or -c) are successive products from its zeroth power, so each has
        the type and value of the per-term power.
        """
        if i + j <= 0:
            raise ValueError("poch_factor needs a positive-degree monomial")
        out: Dict[Key, object] = {}
        base = c if inverse else -c
        power = base**0
        r = 0
        while r * (i + j) <= order:
            if inverse:
                coef = power / ctx.qq(r)
            else:
                coef = power * ctx.qpow(r * (r - 1) // 2) / ctx.qq(r)
            out[(r * i, r * j)] = coef
            power = power * base
            r += 1
        return cls(ctx, order, out)

    # -- the truncating product ----------------------------------------------
    def __mul__(self, other):
        if not isinstance(other, BivarPoly):
            return self._like({k: c * other for k, c in self.coeffs.items()}, other)
        N = min(self.order, getattr(other, "order", self.order))
        out: Dict[Key, object] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i + j <= N:
                    k = (i, j)
                    out[k] = out.get(k, self.ctx.zero()) + c1 * c2
        return TruncatedBiSeries(self.ctx, N, out)

    __rmul__ = __mul__
