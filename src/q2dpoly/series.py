"""Truncated bivariate formal power series in (u, v).

The carrier for both sides of every generating-function identity: a
:class:`~q2dpoly.polyfamilies.BivarPoly` in (u, v) known exactly for total
degree i + j <= order, so two series agree up to order N iff their
coefficient maps are identical.  The ring operations are the polynomial
ones, on BivarPoly's exact integer numerators over one common denominator
(exact backend only); a result keeps the lower order of its operands, and
the product drops the terms above it.
"""

from __future__ import annotations

from typing import Dict, Optional

from .context import QContext
from .polyfamilies import BivarPoly, Key

__all__ = ["TruncatedBiSeries"]


class TruncatedBiSeries(BivarPoly):
    """A power series sum c[i,j] u^i v^j known exactly for i + j <= order.

    Stored as a :class:`~q2dpoly.polyfamilies.BivarPoly` (exact: integer
    numerators over one denominator, ``coeffs`` built as Fractions and
    GaussianRationals on first read) that keeps only the terms up to the
    order.  The truncating product is BivarPoly's one product, which skips
    the pairs above the order instead of forming them.
    """

    __slots__ = ("order",)

    def __init__(self, ctx: QContext, order: int, coeffs: Optional[Dict[Key, object]] = None):
        self.order = order
        super().__init__(ctx, coeffs)

    def _trim(self, coeffs: dict) -> dict:
        """The terms of total degree at most the order."""
        N = self.order
        return {k: c for k, c in coeffs.items() if k[0] + k[1] <= N}

    def _blank(self, other) -> "TruncatedBiSeries":
        return TruncatedBiSeries(self.ctx, min(self.order, getattr(other, "order", self.order)))

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
        return self._product(other, min(self.order, getattr(other, "order", self.order)))

    __rmul__ = __mul__
