"""Radial zeros, zeros of the Ramanujan function, and the limit/asymptotic
reports for all three families.

All polynomials here factor as (angular monomial) x (radial polynomial in
x = |z|^2), so the zero set in z consists of circles.  The radial factor is a
Wall, q-Laguerre or little q-Jacobi polynomial with exact rational
coefficients, and its roots are real, positive and simple.  They are isolated
on exact signs: the denominators are cleared once, and one integer Horner
pass gives the exact sign of the polynomial at a dyadic point num/2^k.  A
geometric grid of short dyadic points between power-of-two root bounds (the
roots of these q-polynomials spread over many octaves) brackets every root,
bisection on exact dyadics narrows each bracket to a relative width of at
most 10^-precision, and a point where the sign is 0 is an exact root.
`certified_width` is the relative width of the final exact brackets; mpf is
used only to convert their midpoints and take square roots.  Root finding
deliberately avoids companion-matrix eigenvalues: the coefficients carry
q^{k^2}-type scales on which eigensolvers lose digits, while an exact sign
cannot be wrong (Collins & Akritas, SYMSAC 1976).  The zeros of A_q are
isolated the same way on its truncation, whose tail is bounded exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp

from .context import QContext, as_fraction
from .polyfamilies import FamilyTable, _integer_form, radial_reduce
from .qkernel import aq_function, qpoch, qpoch_inf, theta4

F = Fraction

_MANTISSA_BITS = 30  # of the scan points

__all__ = ["ZeroSet", "LimitReport", "radial_zeros", "aq_zeros",
           "zero_limit_report", "asymptotic_report"]


@dataclass
class ZeroSet:
    """Circle radii of one member, largest first.  Each r^2 lies in an exact
    dyadic bracket whose endpoints have opposite exact signs of the radial
    factor; certified_width is the largest relative width (b - a)/b of those
    brackets, 0.0 when every root was hit exactly."""

    family: str
    m: int
    n: int
    params: Dict
    radii: List[mpmath.mpf]
    certified_width: float

    def to_dict(self):
        return {
            "family": self.family, "m": self.m, "n": self.n,
            "radii": [mpmath.nstr(r, 17) for r in self.radii],
            "certified_width": self.certified_width,
        }


@dataclass
class LimitReport:
    """Errors of a limit per size; monotone (each error below the one
    before) and final_error (the last) are derived from them."""

    target: str
    sizes: List[int]
    errors: List[float]
    monotone: bool = field(init=False)
    final_error: float = field(init=False)

    def __post_init__(self):
        e = self.errors
        self.monotone = all(e[i + 1] < e[i] for i in range(len(e) - 1))
        self.final_error = e[-1]

    def to_csv(self) -> str:
        lines = ["size,error"]
        for s, e in zip(self.sizes, self.errors):
            lines.append(f"{s},{e!r}")
        return "\n".join(lines) + "\n"


def _limit_sizes(sizes: Sequence[int]) -> List[int]:
    """sizes as a list, refused (ValueError) below two: a report over one
    size compares nothing, so it would read monotone by default."""
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ValueError(f"a limit report needs two or more sizes, got {sizes}")
    return sizes


def _integer_poly(coeffs):
    """(desc, den): the rational polynomial (low-to-high `Fraction`
    coefficients) times their least common denominator den, as integers
    high-to-low; the numerators are those of the exact `BivarPoly` form."""
    num, _, den = _integer_form(dict(enumerate(coeffs)))
    return [num.get(r, 0) for r in reversed(range(len(coeffs)))], den


def _horner(desc, num, k):
    """2^{k deg} P(num / 2^k) for the integer polynomial P (high-to-low
    coefficients): an exact integer with the sign of P at that dyadic point."""
    acc = desc[0]
    for i in range(1, len(desc)):
        acc = acc * num + (desc[i] << (k * i))
    return acc


def _sign(desc, x):
    v = _horner(desc, *x)
    return (v > 0) - (v < 0)


def _dyadic(t: float):
    """A short dyadic (num, k), k >= 0, within 2^-30 (relative) of 2^t."""
    e = math.floor(t)
    num = round(2.0 ** (t - e + _MANTISSA_BITS))
    k = _MANTISSA_BITS - e
    if k < 0:
        return num << -k, 0
    shift = min((num & -num).bit_length() - 1, k)
    return num >> shift, k - shift


def _scan(desc, lo: float, hi: float, npts: int):
    """Ascending (a, b, sign P(a)) brackets of the sign changes of P on the
    dyadic points near 2^t, t = lo .. hi in npts steps; a point where P is
    exactly 0 is a root and comes back as (x, x, 0)."""
    pts = [_dyadic(lo + (hi - lo) * i / npts) for i in range(npts + 1)]
    signs = [_sign(desc, x) for x in pts]
    out = []
    for i, (x, s) in enumerate(zip(pts, signs)):
        if s == 0:
            out.append((x, x, 0))
        elif i < npts and s * signs[i + 1] < 0:
            out.append((x, pts[i + 1], s))
    return out


def _bisect(desc, a, b, sa: int, digits: int):
    """Bisect the bracket a < b of dyadics, P(a) of sign sa, on exact signs
    until (b - a) 10^digits <= b.  Returns (A, B, K) with a = A/2^K and
    b = B/2^K; A == B when a bisection point is an exact root."""
    (A, ka), (B, kb) = a, b
    K = max(ka, kb)
    A, B = A << (K - ka), B << (K - kb)
    if sa == 0:
        return A, A, K
    scale = 10 ** digits
    while (B - A) * scale > B:
        M, A, B, K = A + B, A << 1, B << 1, K + 1
        s = _sign(desc, (M, K))
        if s == 0:
            return M, M, K
        if s == sa:
            A = M
        else:
            B = M
    return A, B, K


def _to_mpf(A, B, K):
    """The bracket midpoint (A + B) / 2^{K+1} in the working precision."""
    return mpmath.ldexp(mpmath.mpf(A + B), -(K + 1))


def _root_log2(desc) -> int:
    """e with |x| <= 2^e at every root x of the polynomial (high-to-low):
    Fujiwara's bound 2 max_i |c_i / c_0|^{1/i}, its last term halved, taken
    on bit lengths.  Unlike Cauchy's 1 + max_i |c_i / c_0| it follows the
    q^{k^2} scales of these coefficients (Hq(40, 40) at q = 1/4: roots in
    [2^-79, 1], Cauchy's range [2^-1563, 4], this one [2^-81, 4])."""
    d, lead = len(desc) - 1, abs(desc[0]).bit_length()
    return 1 + max(math.ceil((abs(c).bit_length() - lead + 1 - (i == d)) / i)
                   for i, c in enumerate(desc[1:], 1))


def _poly_prec_bits(precision: int) -> int:
    # only the final midpoints and their square roots are taken in mpf
    return int(64 + 3.5 * precision)


def _find_roots(desc, count: int, precision: int, log2_q: float,
                refine_top: Optional[int] = None) -> Tuple[List[Tuple[int, int, int]], float]:
    """Exact brackets (A, B, K) of all positive roots of the integer
    polynomial (high-to-low), expected `count` of them, largest first, and
    the largest relative width of the deep brackets.  Each scan point's sign
    is exact, so `count` sign changes on `count` = deg simple roots isolate
    them all.  When refine_top = j, only the j largest roots are bisected to
    the full relative width 10^-precision (the rest to 10^-8)."""
    if desc[0] == 0 or desc[-1] == 0:
        raise ArithmeticError("radial polynomial degenerate (zero end coefficient)")
    hi, lo = _root_log2(desc), -_root_log2(desc[::-1])
    subdiv = 8
    while True:
        npts = int(subdiv * (hi - lo) / log2_q) + 2
        brackets = _scan(desc, lo, hi, npts)
        if len(brackets) >= count:
            break
        subdiv *= 2
        if subdiv > 512:
            raise ArithmeticError(
                f"found {len(brackets)} sign changes, expected {count}")
    if len(brackets) != count:
        raise ArithmeticError(
            f"root count mismatch: {len(brackets)} brackets for {count} roots")
    roots = []
    width = 0.0
    for idx, (a, b, sa) in enumerate(reversed(brackets)):
        deep = refine_top is None or idx < refine_top
        A, B, K = _bisect(desc, a, b, sa, precision if deep else min(precision, 8))
        roots.append((A, B, K))
        if deep:
            width = max(width, (B - A) / B)
    return roots, width


def radial_zeros(ctx: QContext, family: str, m: int, n: int, b=None,
                 precision: int = 20, refine_top: Optional[int] = None) -> ZeroSet:
    """The min(m, n) circle radii of the (m, n) member: roots r = sqrt(x) of
    the radial factor in x = |z|^2, sorted decreasing, isolated on exact
    signs; certified_width is the largest relative width of the exact
    brackets of x.  A radial factor with a non-real coefficient (a complex
    b, say) or a precision below 1 raises ValueError."""
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    if min(m, n) < 1:
        return ZeroSet(family, m, n, {"b": b}, [], 0.0)
    rf = radial_reduce(ctx if ctx.is_exact else QContext(ctx.q_fraction), family, m, n, b=b)
    desc, _ = _integer_poly([as_fraction(c) for c in rf.radial_coeffs])
    roots_x, width = _find_roots(desc, min(m, n), precision,
                                 abs(math.log2(ctx.q_fraction)), refine_top)
    with mp.workprec(_poly_prec_bits(precision)):
        radii = [mpmath.sqrt(_to_mpf(*r)) for r in roots_x]
    return ZeroSet(family, m, n, {"b": b}, radii, width)


def aq_zeros(ctx: QContext, count: int, precision: int = 20) -> List[mpmath.mpf]:
    """First `count` zeros 0 < i_1(q) < i_2(q) < ... of A_q, isolated on the
    exact signs of the truncation A_N(x) = sum_{n <= N} c_n (-x)^n,
    c_n = q^{n^2}/(q;q)_n, and certified so the truncation tail cannot flip
    the signs at the ends of the scan brackets or of the final brackets.
    N grows with `precision`, so the tail stays 40 digits below it.  A
    count of 0 gives no zeros; a negative one, or a precision below 1,
    raises ValueError."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    q = ctx.q_fraction
    qf = float(q)
    # the scan runs up to x_hi = q^-(2 count + 2), taken in logarithms, as is
    # q^{N^2} x_hi^N > 10^-(precision + 40): x_hi overflows a double from
    # count 255 on at q = 1/4, and x_hi^N from about ten zeros on
    N = 2 * count + 12
    log_qf = math.log(qf)
    log_x_hi = -(2 * count + 2) * log_qf
    while N * (N * log_qf + log_x_hi) > -(precision + 40) * math.log(10):
        N += 4
    ectx = ctx if ctx.is_exact else QContext(q)
    cs = [(-1) ** n * ectx.qpow(n * n) / ectx.qq(n) for n in range(N + 1)]
    desc, den = _integer_poly(cs)
    # for x <= x_hi the terms past N shrink by a ratio r << 1/2, so
    # |A_q - A_N| <= t_{N+1} / (1 - r), t_{N+1} = q^{(N+1)^2} x^{N+1} /
    # ((q;q)_N (1 - q^{N+1})), and (1 - r)(1 - q^{N+1}) >= 1/2
    tail_c = 2 * ectx.qpow((N + 1) ** 2) / ectx.qq(N)
    tail_n, tail_d = tail_c.numerator * den, tail_c.denominator

    def clears_tail(x):
        # |A_N(x)| = |horner| / (den 2^{kN}) > tail_c x^{N+1}, x = num/2^k,
        # compared on integers
        num, k = x
        return abs(_horner(desc, num, k)) * tail_d << k > tail_n * num ** (N + 1)

    # below x = (1-q)/q the terms fall (ratio q^{2n+1} x/(1 - q^{n+1}) < 1),
    # so A_q(x) >= 1 - qx/(1-q) > 0: the scan starts at min(1, (1-q)/q)
    lo = min(0.0, math.log2((1 - qf) / qf))
    hi = -(2 * count + 2) * math.log2(qf)
    subdiv = 16
    while True:
        brackets = _scan(desc, lo, hi, int(subdiv * (2 * count + 3)))
        if len(brackets) >= count:
            break
        subdiv *= 2
        if subdiv > 1024:
            raise ArithmeticError("A_q bracketing failed")
    zeros = []
    with mp.workprec(_poly_prec_bits(precision)):
        for a, b, sa in brackets[:count]:
            A, B, K = _bisect(desc, a, b, sa, precision)
            if not all(map(clears_tail, (a, b, (A, K), (B, K)))):
                raise ArithmeticError("truncation tail could flip a bracket sign")
            zeros.append(_to_mpf(A, B, K))
    return zeros


def _ladder_error(ctx: QContext, family: str, b, j: int, M: int, precision: int) -> float:
    """|r_j(M, M) - q^{(j-1)/2}|, at least the certified width of r_j.  The
    convergence is q^{O(M^2)}-fast, so the error sits at the certification
    floor; the certified precision grows with M so that this bound decreases."""
    prec_M = max(precision, 6 + 3 * M)
    zs = radial_zeros(ctx, family, M, M, b=b, precision=prec_M, refine_top=j)
    q = ctx.q_fraction
    with mp.workprec(_poly_prec_bits(prec_M)):
        target_r = (mp.mpf(q.numerator) / q.denominator) ** (mp.mpf(j - 1) / 2)
        err = float(abs(zs.radii[j - 1] - target_r))
    return max(err, zs.certified_width * float(zs.radii[j - 1]))


def zero_limit_report(ctx: QContext, target: str, j: int,
                      sizes: Sequence[int], b=None,
                      precision: int = 20) -> LimitReport:
    """Convergence of the j-th largest zero circle:

    limH, limp:  |r_j(M, M) - q^{(j-1)/2}|  -> 0,
    limh:        |q^M r_j(M, M) - 1/sqrt(i_j(q))| -> 0 (i_j from aq_zeros).

    The measure of the first (and disk) family puts mass on every radius
    q^{k/2} with k >= 0, so the largest zero tends to q^0 = 1; the printed
    limit q^{j/2} indexes the same ladder shifted by one (the computed radii
    at (40,40) are 1, q^{1/2}, q, ... to ten digits; ledger).  j counts
    from 1: a j below 1 raises ValueError.
    """
    sizes = _limit_sizes(sizes)
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    if any(j > M for M in sizes):
        raise ValueError("j exceeds the zero count at this size")
    if target == "limH":
        error = lambda M: _ladder_error(ctx, "Hq", None, j, M, precision)
    elif target == "limp":
        pb = F(1, 4) if b is None else b
        error = lambda M: _ladder_error(ctx, "pq", pb, j, M, precision)
    elif target == "limh":
        q = ctx.q_fraction
        aq_prec = max(precision, 25)
        ivals = aq_zeros(ctx, j, precision=aq_prec)
        with mp.workprec(_poly_prec_bits(aq_prec)):
            tgt = 1 / mpmath.sqrt(ivals[j - 1])

        def error(M):
            zs = radial_zeros(ctx, "hq", M, M, precision=precision)
            with mp.workprec(200):
                return float(abs(mp.mpf(q.numerator ** M) / q.denominator ** M
                                 * zs.radii[j - 1] - tgt))
    else:
        raise ValueError(target)
    return LimitReport(target=target, sizes=sizes, errors=[error(M) for M in sizes])


# ---------------------------------------------------------------------------
# large-degree asymptotics
# ---------------------------------------------------------------------------

def asymptotic_report(ctx: QContext, target: str, sizes: Sequence[int],
                      point: Optional[Dict] = None) -> LimitReport:
    """|LHS/limit - 1| per size for the large-degree limits.

    Targets: Hm_inf (m -> inf, n fixed), Hn_inf, Hmn_inf, p_inf, PR_h
    (Plancherel-Rotach scaling a = b = 1/2) and theta4_scaled, which uses
    (a, b, c, d) = (1/4, 0, 1/4, 0) with sizes m = n = M == 1 (mod 4), so
    tau = (M-1)/2 and chi = 1/2 (the stated constraint 0 < tau < min(m,n)
    then holds, unlike the boundary choice tau = m).  Every limit divides by
    z1 z2 (PR_h by w1 w2), so a point where that product is 0 raises ValueError.
    """
    sizes = _limit_sizes(sizes)
    pt = dict(point or {})
    z1 = ctx.scalar(pt.get("z1", 2))
    z2 = ctx.scalar(pt.get("z2", 2))
    if target != "PR_h" and z1 * z2 == 0:
        raise ValueError(f"{target} has no limit at z1 z2 = 0")
    # the limits do not depend on the size, and where the point does not
    # move either, one table serves every size: each read fills only the
    # band its entry needs (see FamilyTable)
    if target == "Hmn_inf":
        tab = FamilyTable(ctx, "Hq", z1, z2)
        lim = qpoch_inf(ctx, 1 / (z1 * z2))[0]
        ratio = lambda M: tab[M, M] / (z1**M * z2**M) / lim
    elif target == "Hm_inf":
        tab = FamilyTable(ctx, "Hq", z1, z2)
        n = int(pt.get("n", 0))
        lim = z2**n * qpoch(ctx, 1 / (z1 * z2), n)
        ratio = lambda M: tab[M, n] / z1**M / lim
    elif target == "Hn_inf":
        tab = FamilyTable(ctx, "Hq", z1, z2)
        m = int(pt.get("m", 0))
        lim = z1**m * qpoch(ctx, 1 / (z1 * z2), m)
        ratio = lambda M: tab[m, M] / z2**M / lim
    elif target == "p_inf":
        b = pt.get("b", F(1, 4))
        tab = FamilyTable(ctx, "pq", z1, z2, b=b)
        lim = (qpoch_inf(ctx, ctx.scalar(b) * ctx.q)[0]
               * qpoch_inf(ctx, 1 / (z1 * z2))[0])
        ratio = lambda M: tab[M, M] / (z1**M * z2**M) / lim
    elif target == "PR_h":
        # Plancherel-Rotach scaling a = b = 1/2; the printed (q;q)_inf^2
        # factor is spurious (it belongs inside the sum as (q;q)_m (q;q)_n,
        # which the proof display drops; ledger)
        w1 = ctx.scalar(pt.get("w1", 1))
        w2 = ctx.scalar(pt.get("w2", 1))
        if w1 * w2 == 0:
            raise ValueError("PR_h has no limit at w1 w2 = 0")
        aqv, _ = aq_function(ctx, 1 / (w1 * w2))

        def ratio(M):
            sc = ctx.qpow(-M)
            val = FamilyTable(ctx, "hq", w1 * sc, w2 * sc)[M, M]
            return val / (w1**M * w2**M * ctx.qpow(-M * M)) / aqv
    elif target == "theta4_scaled":
        if any(M % 4 != 1 for M in sizes):
            raise ValueError("theta4_scaled sizes must be 1 mod 4")
        s = ctx.q_half_pow(1)
        qqinf = qpoch_inf(ctx, ctx.q)[0]
        th, _ = theta4(ctx, z1 * z2 * s, s)

        def ratio(M):
            tau = (M - 1) // 2
            scale = ctx.qpow((M - 1) // 4)
            val = FamilyTable(ctx, "Hq", z1 * scale, z2 * scale)[M, M]
            # exponent M^2/2 - M/2 - tau^2/2 - tau*chi, all integral here
            E = (M * M - M) // 2 - (tau * tau + tau) // 2
            return (qqinf * val * (-z1 * z2) ** tau
                    / (z1**M * z2**M * ctx.qpow(E)) / th)
    else:
        raise ValueError(target)
    return LimitReport(target=target, sizes=sizes,
                       errors=[float(abs(ratio(M) - 1)) for M in sizes])
