"""Exact truncated-series identity checkers (generating functions).

Both sides of each generating function are built as
:class:`~q2dpoly.series.TruncatedBiSeries` in (u, v) up to a total order N,
with the polynomial variables frozen at exact sample points.  Each checker
returns the difference series, and the check passes iff it is exactly zero.
The plain generating functions (eqGFHq, eq:hp3) are the shifted ones at
(j, k) = (0, 0), so the registry runs the shifted checkers there.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .context import GaussianRational, QContext
from .polyfamilies import coeffs, eval_poly
from .qkernel import qbinom
from .series import TruncatedBiSeries as TBS

F = Fraction

DEFAULT_Z = (GaussianRational(F(3, 2), F(1, 2)), GaussianRational(F(3, 2), F(-1, 2)))


def finite_poch_series(ctx: QContext, order: int, c, i: int, j: int, n: int) -> TBS:
    """(c u^i v^j; q)_n as a truncated series (finite product; i=j=0 allowed)."""
    out = TBS.one(ctx, order)
    for r in range(n):
        out = out * (TBS.one(ctx, order) - TBS.monomial(ctx, order, c * ctx.qpow(r), i, j))
    return out


def _zpoints(ctx, pt):
    z1 = ctx.scalar(pt.get("z1", DEFAULT_Z[0]))
    z2 = ctx.scalar(pt.get("z2", DEFAULT_Z[1]))
    return z1, z2


def _lhs(ctx, N, value):
    """The left side sum_{m+n <= N} value(m, n) u^m v^n as a series of order N."""
    return TBS(ctx, N, {(m, n): value(m, n) for m in range(N + 1) for n in range(N + 1 - m)})


def gf_shift_H(ctx, pt):
    """Shifted-index GF for the first family (first printed variant).  At
    (j, k) = (0, 0) the l-sum is its l = 0 term, 1, and this is eqGFHq:

    sum H u^m v^n / ((q;q)_m (q;q)_n) == (uv;q)inf/((uz1,vz2;q)inf).
    """
    N = pt.get("order", 8)
    j, k = pt.get("j", 1), pt.get("k", 1)
    z1, z2 = _zpoints(ctx, pt)
    lhs = _lhs(ctx, N, lambda m, n: (eval_poly(coeffs(ctx, "Hq", m + j, n + k), z1, z2)
                                     / (ctx.qq(m) * ctx.qq(n))))
    pref = (TBS.poch_factor(ctx, N, ctx.qpow(j + k), 1, 1)
            * TBS.poch_factor(ctx, N, z1, 1, 0, inverse=True)
            * TBS.poch_factor(ctx, N, z2, 0, 1, inverse=True))
    if j == k == 0:  # the l-sum is 1
        return lhs - pref
    # z1^{j-l} (q^l v / z1;q)_{j-l} = prod_{i<j-l} (z1 - q^{l+i} v), and so for
    # z2^{k-l} (q^j u / z2;q)_{k-l}: the sum needs no powers of z1, z2
    total = TBS(ctx, N)
    for l in range(min(j, k) + 1):
        c = (qbinom(ctx, j, l) * qbinom(ctx, k, l) * ctx.qpow(l * (l - 1) // 2)
             * (-1) ** l * ctx.qq(l))
        t = TBS.one(ctx, N)
        for i in range(j - l):
            t = t * (TBS.monomial(ctx, N, z1, 0, 0) - TBS.monomial(ctx, N, ctx.qpow(l + i), 0, 1))
        for i in range(k - l):
            t = t * (TBS.monomial(ctx, N, z2, 0, 0) - TBS.monomial(ctx, N, ctx.qpow(j + i), 1, 0))
        t = t * finite_poch_series(ctx, N, z2, 0, 1, l)
        total = total + c * t
    return lhs - pref * total


def gf_shift_h(ctx, pt):
    """Shifted-index GF for the second family.  The printed prefactor is
    garbled; this is the re-derived closed form (ledger):

    sum h_{m+j,n+k} q^{(m+j-n-k)^2/2} u^m v^n / ((q;q)_m(q;q)_n)
      = (-1)^{j+k} (-u z1 q^{j+1/2}, -v z2 q^{k+1/2};q)inf / (-uv;q)inf
        * sum_l [j l][k l] (-1)^l (q;q)_l
          prod_{i<j-l}(v - z1 q^{i+1/2}) prod_{i<k-l}(u - z2 q^{i+1/2}) (-uv;q)_l.

    At (j, k) = (0, 0) the l-sum is its l = 0 term, 1, and this is eq:hp3:

    sum h q^{(m-n)^2/2} u^m v^n / ((q;q)_m (q;q)_n)
        == (-q^{1/2} u z1, -q^{1/2} v z2;q)inf / (-uv;q)inf.
    """
    N = pt.get("order", 8)
    j, k = pt.get("j", 1), pt.get("k", 1)
    z1, z2 = _zpoints(ctx, pt)
    s = ctx.q_half_pow(1)
    lhs = _lhs(ctx, N, lambda m, n: (eval_poly(coeffs(ctx, "hq", m + j, n + k), z1, z2)
                                     * s ** ((m + j - n - k) ** 2) / (ctx.qq(m) * ctx.qq(n))))
    pref = (TBS.poch_factor(ctx, N, -z1 * s * ctx.qpow(j), 1, 0)
            * TBS.poch_factor(ctx, N, -z2 * s * ctx.qpow(k), 0, 1)
            * TBS.poch_factor(ctx, N, -1, 1, 1, inverse=True))
    if j == k == 0:  # the l-sum is 1
        return lhs - pref
    total = TBS(ctx, N)
    for l in range(min(j, k) + 1):
        c = qbinom(ctx, j, l) * qbinom(ctx, k, l) * (-1) ** l * ctx.qq(l)
        t = TBS.one(ctx, N)
        for i in range(j - l):
            t = t * (TBS.monomial(ctx, N, 1, 0, 1) - TBS.monomial(ctx, N, z1 * s * ctx.qpow(i), 0, 0))
        for i in range(k - l):
            t = t * (TBS.monomial(ctx, N, 1, 1, 0) - TBS.monomial(ctx, N, z2 * s * ctx.qpow(i), 0, 0))
        t = t * finite_poch_series(ctx, N, -1, 1, 1, l)
        total = total + c * t
    return lhs - (-1) ** (j + k) * pref * total


def gf_disk(ctx, pt):
    """Classical disk GF: sum C^nu u^m v^n/(m! n!) == (1 - uz1 - vz2 + uv)^-nu."""
    N = pt.get("order", 8)
    nu = Fraction(pt.get("nu", F(3, 2)))
    z1, z2 = _zpoints(ctx, pt)
    lhs = _lhs(ctx, N, lambda m, n: (eval_poly(coeffs(ctx, "C_disk", m, n, nu=nu), z1, z2)
                                     / (math.factorial(m) * math.factorial(n))))
    # the binomial series (1 - w)^-nu = sum_k (nu)_k w^k / k! in
    # w = u z1 + v z2 - uv, which has no constant term, so w^k starts at order k
    w = (TBS.monomial(ctx, N, z1, 1, 0) + TBS.monomial(ctx, N, z2, 0, 1)
         - TBS.monomial(ctx, N, 1, 1, 1))
    rhs = power = TBS.one(ctx, N)
    c = F(1)
    for k in range(1, N + 1):
        power = power * w
        c = c * (nu + k - 1) / k
        rhs = rhs + power * c
    return lhs - rhs
