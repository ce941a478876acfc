"""Orthogonality measures, inner products, moments, q-beta integrals,
angular quadrature checks and the positivity results.

The discrete measures (first family and the q-disk family) live on circles
|z| = q^{k/2} with angular uniform measure; the angular integral is resolved
symbolically as a Kronecker delta on Fourier indices, so an inner product is
a finite sum of radial moments.  By the q-binomial theorem each moment is a
rational part in q (and b) times one factor F of the measure, whose (a;q)_inf
products carry the only truncation tail; the norms share F, so on the exact
backend orthogonality is an exact zero test.

The second family is orthogonal with respect to dx dy / (-z zbar;q)_inf on
the plane; its radial moments are computed by trapezoidal quadrature on a
geometric grid in log space (the integrand decays super-geometrically at both
ends, so the quadrature converges spectrally in the step refinement).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import mpmath
from mpmath import mp

from .context import GaussianRational, QContext, conj, is_zero
from .polyfamilies import BivarPoly, FamilyTable, coeffs, eval_poly
from .qkernel import (PoleError, QPochPrefix, phi_series, qbinom, qpoch, qpoch_inf,
                      qpoch_inf_ladder, qpoch_inf_ratio, times)
from .reports import VerificationReport, numeric_verdict, scalar_str

F = Fraction

__all__ = [
    "InnerProductResult", "moment", "inner_product",
    "ortho_table", "ortho_csv",
    "qbeta_check", "angular_quadrature_check", "gram_positivity",
    "orthonormal_seq_check", "gram_matrix",
]


@dataclass
class InnerProductResult:
    value: object
    tail_bound: float
    closed_form: object
    rel_error: float


# ---------------------------------------------------------------------------
# radial moments
# ---------------------------------------------------------------------------

# every radial moment table (with F for Hq / pq), keyed by measure, context
# settings and b; a table is only ever extended, so a read prefix stays valid
_H_MOMENT_CACHE: Dict = {}


def _discrete_moments(ctx, family: str, b=None):
    """The memo entry (F, moments read so far) of an Hq / pq measure; F, the
    factor of all its moments and norms, is 1/(q;q)_inf times (bq;q)_inf for
    pq, by one :func:`qpoch_inf_ratio`.  A relative tail of F >= 1 (a loose
    tail_tol) or b = q^-j, j >= 1, where (bq;q)_j = 0, raises ValueError."""
    b = b if family == "pq" else None
    key = (family, ctx.backend, ctx.q_fraction, ctx.precision_bits, ctx.default_trunc, b)
    entry = _H_MOMENT_CACHE.get(key)
    if entry is not None:
        return entry
    qf = ctx.q_fraction
    j = (round((math.log(b.numerator) - math.log(b.denominator)) / -math.log(qf))
         if isinstance(b, (int, Fraction)) and b > 1 else 0)
    if j and b * qf ** j == 1:
        raise ValueError(f"b = {b} is q^-{j}, where the pq measure degenerates: (bq;q)_{j} = 0")
    try:
        with ctx.workprec():  # bq is rounded at the caller's mp.prec otherwise
            fac = qpoch_inf_ratio(ctx, [] if b is None else [ctx.scalar(b) * ctx.q], [ctx.q])
    except PoleError:  # (q;q)_inf not bounded away from 0
        fac = None
    if fac is None or not fac[1] < ctx.mag(fac[0]):
        raise ValueError(f"tail tolerance {ctx.default_trunc.tail_tol:g} leaves the moment "
                         "factor with a relative tail >= 1; use a smaller one")
    entry = _H_MOMENT_CACHE[key] = (fac, [])
    return entry


def _radial_moments(ctx, family: str, nmax: int, b=None) -> List[Tuple[object, float]]:
    """(value, tail) of the raw radial moments of the family's measure for
    the powers h = 0..nmax, memoized.

    hq: int_0^inf x^h/(-x;q)_inf dx (h_radial_moments_batch).
    Hq / pq: sum_k w_k (q^{k/2})^{2h}, w_k = q^k/(q;q)_k times (bq;q)_k for
    pq, which the q-binomial theorem (Gasper-Rahman (1.3.2)) sums to r_h F:
    r_h = (q;q)_h, over (bq;q)_{h+1} for pq, is rational in q and b, and F
    is the factor of :func:`_discrete_moments`.  The tail is |r_h| times F's."""
    if family == "hq":
        key = ("hq", ctx.backend, ctx.q_fraction, ctx.precision_bits, ctx.default_trunc)
        table = _H_MOMENT_CACHE.get(key)
        if table is None or len(table) <= nmax:
            table = _H_MOMENT_CACHE[key] = h_radial_moments_batch(ctx, nmax)
        return table[: nmax + 1]
    if family not in ("Hq", "pq"):
        raise ValueError(f"unknown family {family!r}")
    (fac, fac_tail), table = _discrete_moments(ctx, family, b)
    if len(table) <= nmax:
        with ctx.workprec():
            pre = QPochPrefix(ctx, ctx.scalar(b) * ctx.q) if family == "pq" else None
            for h in range(len(table), nmax + 1):
                r = ctx.qq(h) / pre(h + 1) if pre else ctx.qq(h)
                table.append((r * fac, ctx.mag(r) * fac_tail))
    return table[: nmax + 1]


_H_NODES_PER_POWER = 16  # hq nodes x = q^{-i/16}: h = log(1/q)/8 in u = log x
_H_HALFWIDTH = 56  # and q^56 <= x <= q^-56


def h_radial_moments_batch(ctx, nmax: int) -> List[Tuple[object, float]]:
    """(value, error) of int_0^inf x^j/(-x;q)_inf dx for j = 0..nmax.

    Trapezoid in u with x = e^u on the nodes x_i = q^{-i/d}, |i| <= n,
    d = _H_NODES_PER_POWER, n = d _H_HALFWIDTH; the even nodes give the
    step-h rule.  Nodes d apart differ by a factor 1/q, so each of the d
    residue classes of nodes is one :func:`qpoch_inf_ladder` of (-x;q)_inf:
    only its smallest node takes a truncated (-x;q)_inf, and every weight has
    that base's relative truncation error.

    The error is the sum of
      - |v_h - v_{h/2}|, the step-doubling estimate of the quadrature error
        (an estimate, not a bound: the rule converges like exp(-2 pi^2/h_u));
      - x_min^{j+1}/(j+1), which bounds the part below the grid, as
        0 < 1/(-x;q)_inf <= 1;
      - X^{j+1-L} q^{-L(L-1)/2}/(L-j-1), L = _H_HALFWIDTH, which bounds the
        part above the top node X = q^{-L}, as (-x;q)_inf >= x^L q^{L(L-1)/2}
        (inf when L <= j+1);
      - 2 eps |value|, eps the largest relative tail of the base products.
    """
    d = _H_NODES_PER_POWER
    n = d * _H_HALFWIDTH
    with ctx.workprec(40):
        # hu is exactly half the step-h spacing, so the even nodes are bitwise
        # the nodes of the step-h rule
        hu = -mpmath.log(ctx.q) / d
        xs = [mpmath.exp(i * hu) for i in range(-n, n + 1)]
        # residue class r, the nodes xs[r::d], is one ladder read downwards
        pinf = [None] * len(xs)
        eps = 0.0
        for r in range(d):
            vals, rel = qpoch_inf_ladder(ctx, [-xv for xv in reversed(xs[r::d])])
            pinf[r::d] = vals[::-1]
            eps = max(eps, rel)
        even = [mp.mpf(0)] * (nmax + 1)
        odd = [mp.mpf(0)] * (nmax + 1)
        for i, (xv, pv) in enumerate(zip(xs, pinf)):
            sums = odd if (i + n) % 2 else even
            w = xv / pv
            for j in range(nmax + 1):
                sums[j] += w
                w = w * xv
        x_min, x_top = xs[0], xs[-1]
        L = _H_HALFWIDTH
        out = []
        for j in range(nmax + 1):
            v1 = even[j] * (2 * hu)
            v2 = (even[j] + odd[j]) * hu
            upper = (x_top ** (j + 1 - L) * ctx.qpow(-L * (L - 1) // 2) / (L - j - 1)
                     if L > j + 1 else mpmath.inf)
            err = abs(v2 - v1) + x_min ** (j + 1) / (j + 1) + upper + 2 * eps * abs(v2)
            out.append((v2, float(err)))
    return out


# ---------------------------------------------------------------------------
# moments of the (suitably normalized) measures
# ---------------------------------------------------------------------------

def moment(ctx: QContext, family: str, m: int, n: int, b=None) -> Tuple[object, float]:
    """int zeta^m conj(zeta)^n dmu for the family's measure.

    Hq / pq: normalized so Hq gives (q;q)_n delta_{mn} (Cor.-19
    convention), from the closed-form radial moments.  hq: the
    dx dy/(pi (-z zbar;q)_inf) convention, so the (j, j) moment is
    (q;q)_j log(1/q) q^{-C(j+1,2)}.
    Returns (value, tail).  The discrete moment is the :func:`times` of the
    raw moment and (q;q)_inf, whose tail bounds the error of the product.
    """
    if m != n:
        return ctx.zero(), 0.0
    raw = _radial_moments(ctx, family, n, b=b)[n]
    if family == "hq":
        return raw
    with ctx.workprec():
        return times(ctx, raw, qpoch_inf(ctx, ctx.q))


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def _angular_pairs(P: BivarPoly, Q: BivarPoly):
    """Pairs of coefficients surviving the angular Kronecker delta
    (i - j == u - v), with their combined radial degree (i+j+u+v)/2."""
    out = []
    for (i, j), cp in P.coeffs.items():
        for (u, v), cq in Q.coeffs.items():
            if i - j == u - v:
                out.append(((i + j + u + v) // 2, cp, cq))
    return out


def _closed_norm(ctx, family, m, n, b):
    """The (m, n) norm as (value, tail).  hq: pi log(1/q) (q;q)_m (q;q)_n /
    q^{((m-n)^2 + m + n)/2}, an integer power.  Hq / pq: N F, N = q^{mn}
    (q;q)_m (q;q)_n, times (bq;q)_m (bq;q)_n/(1 - b q^{m+n+1}) for pq, F the
    factor of the moments (:func:`_discrete_moments`), and tail |N| t_F."""
    if family == "hq":
        power = ctx.qpow(-(((m - n) ** 2 + m + n) // 2))
        return mp.pi * mpmath.log(1 / ctx.q) * ctx.qq(m) * ctx.qq(n) * power, 0.0
    (fac, fac_tail), _ = _discrete_moments(ctx, family, b)
    N = ctx.qpow(m * n) * ctx.qq(m) * ctx.qq(n)
    if family == "pq":
        bq = ctx.scalar(b) * ctx.q
        N = N * qpoch(ctx, bq, m) * qpoch(ctx, bq, n) / (1 - bq * ctx.qpow(m + n))
    return N * fac, ctx.mag(N) * fac_tail


def inner_product(ctx: QContext, family: str, mn: Tuple[int, int],
                  st: Tuple[int, int], b=None, K=None) -> InnerProductResult:
    """<P_{m,n}, P_{s,t}> for the family's orthogonality measure, with the
    known closed-form norm on the diagonal (0 off it).  The discrete
    measures are raw (not normalized), which matches the closed-form norms;
    hq is taken against dx dy/(-z zbar;q)_inf, pi times its moments.

    Hq / pq: each moment is r_h F and the norm N F, for rational r_h and N
    and the one factor F of the measure, so value - closed_form is (S - N) F,
    S = sum c_p conj(c_q) r_h: exactly 0 on the exact backend where S = N.
    The tail bounds the truncation error of value and closed_form (F's
    (a;q)_inf tail, which bounds its own rounding too, and the hq
    quadrature's error), not the rounding of the sums here.  ``K``, the cut
    of the moment sums the closed forms replaced, has no effect and warns
    (perfbench's audit workload still passes it)."""
    if K is not None:
        warnings.warn("inner_product's K has no effect", DeprecationWarning, stacklevel=2)
    if family == "hq" and ctx.is_exact:
        raise ValueError("hq inner products need the float backend "
                         "(its radial moments are quadratures)")
    m, n = mn
    s, t = st
    with ctx.workprec():
        P = coeffs(ctx, family, m, n, b=b)
        Q = coeffs(ctx, family, s, t, b=b)
        pairs = _angular_pairs(P, Q.conj_coeffs())
        moms = _radial_moments(ctx, family, max((hp for hp, _, _ in pairs), default=0), b=b)
        value, tail = ctx.zero(), 0.0
        for hp, cp, cq in pairs:
            mv, mt = moms[hp]
            value = value + cp * cq * mv
            tail += ctx.mag(cp * cq) * mt
        if family == "hq":
            value, tail = value * mp.pi, tail * float(mp.pi)
        closed, closed_tail = (_closed_norm(ctx, family, m, n, b) if (m, n) == (s, t)
                               else (ctx.zero(), 0.0))
        tail += closed_tail
        rel = ctx.mag(value - closed) / max(1.0, ctx.mag(closed))
    return InnerProductResult(value=value, tail_bound=tail, closed_form=closed,
                              rel_error=float(rel))


def ortho_table(ctx: QContext, family: str, N: int, b=None):
    """Every <P_{m,n}, P_{s,t}> with m, n, s, t <= N, as (table, worst
    diagonal rel_error, worst off-diagonal |value|); the table maps
    (m, n, s, t) to its InnerProductResult, in lexicographic order."""
    if N < 0:
        raise ValueError(f"ortho_table needs N >= 0, got {N}")
    table = {}
    worst_diag = worst_off = 0.0
    for m, n, s, t in itertools.product(range(N + 1), repeat=4):
        r = table[m, n, s, t] = inner_product(ctx, family, (m, n), (s, t), b=b)
        if (m, n) == (s, t):
            worst_diag = max(worst_diag, r.rel_error)
        else:
            worst_off = max(worst_off, ctx.mag(r.value))
    return table, worst_diag, worst_off


def ortho_csv(table) -> str:
    """An ortho_table table as CSV: values and closed forms to 12 digits,
    rel_error as its repr; no trailing newline."""
    rows = ["m,n,s,t,value_re,value_im,closed_re,closed_im,rel_error"]
    for (m, n, s, t), r in table.items():
        v = r.value
        exact = isinstance(v, (int, Fraction))
        parts = (v if exact else mpmath.re(v), 0 if exact else mpmath.im(v),
                 mpmath.re(r.closed_form), mpmath.im(r.closed_form))
        rows.append(f"{m},{n},{s},{t},{','.join(mpmath.nstr(x, 12) for x in parts)},"
                    f"{r.rel_error!r}")
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# q-beta integral checks
# ---------------------------------------------------------------------------

def _euler_4fold(ctx, cap, weight, moms, u1, v1, v2, u2):
    """sum w(u1,a) w(v1,b) w(v2,c) w(u2,d) M_{(a+b+c+d)/2} over a, b, c,
    d < cap: the 4-fold Euler expansion of a q-beta integrand with the
    angular delta a + c = b + d resolved.  ``weight(x, r)`` is the Euler
    weight, ``moms[N]`` the radial moment as (value, error).  Returns
    (total, tail), the tail summing each moment's error times its weight."""
    total = ctx.zero()
    tail = 0.0
    for a_ in range(cap):
        for c_ in range(cap):
            for b_ in range(cap):
                d_ = a_ + c_ - b_
                if d_ < 0 or d_ >= cap:
                    continue
                mv, mt = moms[(a_ + b_ + c_ + d_) // 2]
                w = weight(u1, a_) * weight(v1, b_) * weight(v2, c_) * weight(u2, d_)
                total = total + w * mv
                tail += ctx.mag(w) * mt
    return total, tail


def qbeta_check(ctx: QContext, kind: str, params: Dict) -> VerificationReport:
    """H_beta: int dmu / ((u1 z, v1 zbar, v2 z, u2 zbar;q)inf) over the Hq
    measure against its closed product form; h_beta: the hq family's q-beta
    integral (eqqbqta-type) against dx dy/(-z zbar;q)_inf.  The left side is
    a 4-fold Euler expansion with the angular delta resolved symbolically,
    at the context's precision.  H_beta reads the closed-form Hq moments
    (q;q)_j/(q;q)_inf, whose tail is that of (q;q)_inf; h_beta reads the hq
    moments from their closed form pi log(1/q) (q;q)_j q^{-j(j+1)/2} (the
    integer-alpha Ramanujan integral; Askey, Amer. Math. Monthly 87 (1980)),
    which carry no truncation tail."""
    with ctx.workprec():
        u1 = ctx.scalar(params.get("u1", F(1, 8)))
        u2 = ctx.scalar(params.get("u2", F(1, 8)))
        v1 = ctx.scalar(params.get("v1", F(1, 8)))
        v2 = ctx.scalar(params.get("v2", F(1, 8)))
        cap = int(params.get("cap", 26))
        tol = float(params.get("tol", 1e-12))

        if kind == "H_beta":
            def coefw(x, r):  # Euler1 weights of 1/(x z;q)_inf
                return x**r / ctx.qq(r)

            moms = _radial_moments(ctx, "Hq", 2 * cap)
            rhs, rhs_tail = qpoch_inf_ratio(
                ctx, [u1 * u2 * v1 * v2], [ctx.q, u1 * u2, v1 * v2, u1 * v1, u2 * v2])
        elif kind == "h_beta":
            s = ctx.q_half_pow(1)

            def coefw(x, r):  # Euler2 weights of (-q^{1/2} x z;q)_inf
                return ctx.qpow(r * (r - 1) // 2) * (s * x) ** r / ctx.qq(r)

            scale = mp.pi * mpmath.log(1 / ctx.q)
            moms = [(scale * ctx.qq(j) * ctx.qpow(-(j * (j + 1) // 2)), 0.0)
                    for j in range(2 * cap + 1)]
            # derived closed form: the printed denominator (u1u2v1v2;q)_inf is
            # (u1u2v1v2/q;q)_inf (single-factor q-shift typo; ledger)
            pr, pr_tail = qpoch_inf_ratio(ctx, [-u1 * v1, -u2 * v2, -u1 * u2, -v1 * v2],
                                          [u1 * u2 * v1 * v2 / ctx.q])
            rhs, rhs_tail = scale * pr, float(scale) * pr_tail
        else:
            raise ValueError(kind)
        lhs, tail = _euler_4fold(ctx, cap, coefw, moms, u1, v1, v2, u2)
        rho = max(ctx.mag(u1), ctx.mag(u2), ctx.mag(v1), ctx.mag(v2))
        tail += 20.0 * float(rho) ** cap / (1 - float(rho)) + rhs_tail
        passed, residual = numeric_verdict(ctx.mag(lhs - rhs), tol, tail)
    return VerificationReport(
        id=f"QBETA-{kind}", mode="NUMERIC-QSUM",
        grid={"u1": u1, "u2": u2, "v1": v1, "v2": v2, "cap": cap},
        residual=residual, tail_bound=tail, passed=passed)


# ---------------------------------------------------------------------------
# angular quadrature checks
# ---------------------------------------------------------------------------

def _trapezoid_theta(f, M: int):
    """Means of f over 2M and over M equispaced angles, f returning (value,
    tail): (mean over 2M, mean over M, mean node tail over 2M).  The M
    angles are the even ones of the 2M, bitwise, so f is called 2M times."""
    tot, half, tail = mp.mpc(0), mp.mpc(0), 0.0
    for r in range(2 * M):
        v, t = f(2 * mp.pi * r / (2 * M))
        tot += v
        tail += t
        if r % 2 == 0:
            half += v
    return tot / (2 * M), half / M, tail / (2 * M)


def angular_quadrature_check(ctx: QContext, kind: str, params: Dict,
                             M: int = 64) -> VerificationReport:
    """AskeyRoy: trapezoidal check of the Askey-Roy integral.
    AskeyWilsonOrtho: the additional first-family orthogonality with the
    (q, e^{2i th}, e^{-2i th};q)_inf weight.  Convergence is certified by
    doubling M; the tail is twice the doubling change plus the truncation
    tails of the node products and of the closed form, all at the
    context's precision."""
    tol = float(params.get("tol", 1e-12))
    with ctx.workprec():
        if kind == "AskeyRoy":
            a = ctx.scalar(params.get("a", F(1, 4)))
            b = ctx.scalar(params.get("b", F(1, 5)))
            al = ctx.scalar(params.get("alpha", F(1, 6)))
            be = ctx.scalar(params.get("beta", F(1, 7)))
            c = ctx.scalar(params.get("c", F(2, 5)))
            for x in (a, b, al, be):
                if ctx.mag(x) >= 1:
                    raise ValueError("parameters must lie inside the unit circle")

            def integrand(th):
                e = mpmath.exp(1j * th)
                return qpoch_inf_ratio(
                    ctx, [c * e / be, ctx.q * e / (c * al), c * al / e, ctx.q * be / (c * e)],
                    [a * e, b * e, al / e, be / e])

            rhs, rhs_tail = qpoch_inf_ratio(
                ctx, [a * b * al * be, c, ctx.q / c, c * al / be, ctx.q * be / (c * al)],
                [a * al, a * be, b * al, b * be, ctx.q])
            rid, grid, note = ("ANGULAR-AskeyRoy",
                               {"M": 2 * M, "a": a, "b": b, "alpha": al, "beta": be, "c": c}, "")
        elif kind == "AskeyWilsonOrtho":
            p_ = int(params.get("p", 2))
            s_ = int(params.get("s", 2))
            rpar = ctx.scalar(params.get("r", F(1, 2)))
            qinf = qpoch_inf(ctx, ctx.q)

            def integrand(th):
                e = mpmath.exp(1j * th)
                w, w_tail = times(ctx, qinf, qpoch_inf_ratio(ctx, [e * e, 1 / (e * e)]))
                tot = mp.mpc(0)
                for j in range(p_ + 1):
                    for k in range(s_ + 1):
                        tot += (eval_poly(coeffs(ctx, "Hq", j, k), rpar * e, rpar / e)
                                * eval_poly(coeffs(ctx, "Hq", s_ - k, p_ - j), rpar * e, rpar / e)
                                / (ctx.qq(j) * ctx.qq(k) * ctx.qq(s_ - k) * ctx.qq(p_ - j)))
                return w * tot, w_tail * ctx.mag(tot)

            rhs, rhs_tail = mp.mpc(0), 0.0
            if s_ == p_:
                r2 = rpar * rpar
                pref = r2**p_ * qpoch(ctx, 1 / r2, p_) / ctx.qq(p_)
                tot, tot_tail = phi_series(ctx, [ctx.qpow(-s_)], [ctx.qpow(1 - p_) * r2],
                                           ctx.q)
                # the special Askey-Wilson integral evaluates to 2 pi/((q,ab;q)inf),
                # not pi as printed, which doubles the closed form (ledger)
                rhs, rhs_tail = 2 * pref * tot, 2 * ctx.mag(pref) * tot_tail
            rid, grid = "ANGULAR-AskeyWilsonOrtho", {"M": 2 * M, "p": p_, "s": s_, "r": rpar}
            note = ("closed form doubled: the two-parameter Askey-Wilson integral "
                    "constant is 2 pi, not pi (ledger)")
        else:
            raise ValueError(kind)
        lhs2, lhs1, lhs_tail = _trapezoid_theta(integrand, M)
        conv = ctx.mag(lhs2 - lhs1)
        tail = 2 * conv + lhs_tail + rhs_tail
        passed, residual = numeric_verdict(ctx.mag(lhs2 - rhs), tol, tail)
    return VerificationReport(
        id=rid, mode="NUMERIC-SERIES", grid=grid, residual=residual,
        tail_bound=tail, passed=passed, note=note,
        extra={"doubling_decrease": float(conv)})


# ---------------------------------------------------------------------------
# positivity (section-9 material)
# ---------------------------------------------------------------------------

def gram_matrix(ctx: QContext, kind: str, N: int, z) -> List[List[object]]:
    """Exact Gram matrices of the positivity lemma.

    doH: G_{mn} = H_{m,n}(iz, i zbar | q) / i^{m+n} = q^{mn} h_{m,n}(z, zbar|1/q);
    doh: G_{mn} = q^{-mn} h_{m,n}(iz, i zbar|q)/i^{m+n} = H_{m,n}(z, zbar | 1/q),
    the diagonal-congruent sqrt-free version of the printed q^{(m-n)^2/2} form.
    The values H_{m,n}(iz, i zbar) and h_{m,n}(iz, i zbar) are read from one
    recurrence table (:class:`FamilyTable`) at (iz, i zbar), and i^{-(m+n)}
    from the four powers i^0, i^-1, i^-2, i^-3.
    """
    if kind not in ("doH", "doh"):
        raise ValueError(kind)
    z = ctx.scalar(z)
    i = ctx.i_unit()
    tab = FamilyTable(ctx, "Hq" if kind == "doH" else "hq", i * z, i * conj(z))
    i_inv = [i ** -k for k in range(4)]
    G = []
    for m in range(N + 1):
        row = []
        for n in range(N + 1):
            val = tab[m, n] * i_inv[(m + n) % 4]
            if kind == "doh":
                val = val * ctx.qpow(-m * n)
            row.append(val)
        G.append(row)
    return G


def _real_minor(det) -> Fraction:
    """A leading minor of a Hermitian matrix as a Fraction; it is real."""
    if isinstance(det, GaussianRational):
        if det.im != 0:
            raise ArithmeticError("Hermitian minor with nonzero imaginary part")
        det = det.re
    return Fraction(det)


def _minor_pivoted(G, r: int) -> Fraction:
    """The r x r leading minor of G by Gaussian elimination over Q(i) with
    row swaps on that block alone."""
    A = [[G[i][j] for j in range(r)] for i in range(r)]
    det = Fraction(1)
    sign = 1
    for col in range(r):
        piv = None
        for row in range(col, r):
            if not is_zero(A[row][col]):
                piv = row
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            sign = -sign
        p = A[col][col]
        det = det * p
        for row in range(col + 1, r):
            f = A[row][col] / p
            for cc in range(col, r):
                A[row][cc] = A[row][cc] - f * A[col][cc]
    return _real_minor(sign * det)


def _leading_minors_exact(G) -> List[Fraction]:
    """Leading principal minors of a Hermitian matrix over Q(i), exactly.

    One Gaussian elimination over Q(i) without pivoting: the k-th leading
    minor is the product of the first k pivots.  A zero pivot at column k
    makes minor k+1 exactly 0; every larger minor is then taken on its own
    by :func:`_minor_pivoted`.
    """
    N = len(G)
    A = [list(row) for row in G]
    minors: List[Fraction] = []
    det = Fraction(1)
    for col in range(N):
        p = A[col][col]
        if is_zero(p):
            minors.append(Fraction(0))
            minors.extend(_minor_pivoted(G, r) for r in range(col + 2, N + 1))
            break
        det = det * p
        minors.append(_real_minor(det))
        for row in range(col + 1, N):
            f = A[row][col] / p
            for cc in range(col + 1, N):
                A[row][cc] = A[row][cc] - f * A[col][cc]
    return minors


def gram_positivity(ctx: QContext, kind: str, N: int, z) -> VerificationReport:
    """All leading principal minors > 0, exactly, on the exact backend."""
    if not ctx.is_exact:
        raise ValueError("gram_positivity needs the exact backend")
    if is_zero(ctx.scalar(z)):
        raise ValueError("z must be nonzero")
    if not 0 <= N <= 12:
        raise ValueError(f"gram_positivity needs 0 <= N <= 12 (desk scale), got {N}")
    G = gram_matrix(ctx, kind, N, z)
    minors = _leading_minors_exact(G)
    passed = all(mi > 0 for mi in minors)
    return VerificationReport(
        id=f"GRAM-{kind}", mode="EXACT-POLY",
        grid={"N": N, "z": scalar_str(ctx.scalar(z)), "q": scalar_str(ctx.q_fraction)},
        residual="0" if passed else "minor<=0",
        tail_bound=0.0, passed=bool(passed),
        extra={"minors": ";".join(scalar_str(mi) for mi in minors)})


def _e_seq(ctx, j, l):
    """e_j(l|q) = sum_m [m l][j m] q^C(j-m,2) (-1)^{j-m} (== delta_{jl})."""
    tot = ctx.zero()
    for m in range(l, j + 1):
        tot = tot + (qbinom(ctx, m, l) * qbinom(ctx, j, m)
                     * ctx.qpow((j - m) * (j - m - 1) // 2) * (-1) ** (j - m))
    return tot


def _f_seq(ctx, j, l):
    """f_j(l|q) = sum_m [m l][j m] q^{m^2/2 - m l} (-q^{1/2})^{j-m}
    (== q^{-j^2/2} delta_{jl}); needs the square root of q."""
    tot = ctx.zero()
    for m in range(l, j + 1):
        tot = tot + (qbinom(ctx, m, l) * qbinom(ctx, j, m)
                     * ctx.q_half_pow(m * m) * ctx.qpow(-m * l)
                     * (-ctx.q_half_pow(1)) ** (j - m))
    return tot


def _mpf(x):
    """x (an mpf, or a Fraction of the exact backend) as an mpf."""
    return mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mp.mpf(x)


def orthonormal_seq_check(ctx: QContext, kind: str, j: int, k: int, z) -> VerificationReport:
    """The orthonormal-sequence sums of the positivity section.

    do7:  sum_l q^C(l,2) (q;q)_l |z|^{-2l} e_j(l) e_k(l)
              == q^C(j,2) (q;q)_j |z|^{-2j} delta_{jk},
    do8:  sum_l q^{l^2} (q;q)_l |z|^{-2l} f_j(l) f_k(l)
              == (q;q)_j |z|^{-2j} delta_{jk}.

    The printed closed forms carry a log(1/q) (do7) resp. 1/(q^{j+1};q)_inf
    (do8) factor inherited from mixing the normalized and unnormalized moment
    conventions; the consistent forms above are what the basis expansions
    imply (ledger).  Both closed forms are reported, the printed one at the
    context's precision (its residual an mpf where it overflows a double).
    """
    if kind == "do7":
        seq = _e_seq

        def weight(l):  # q^C(l,2) (q;q)_l, also the closed form's factor
            return ctx.qpow(l * (l - 1) // 2) * ctx.qq(l)

        norm = weight

        def printed_factor():  # log(1/q) q^{-j^2}, over the consistent form
            return -mpmath.log(_mpf(ctx.q_fraction)) * _mpf(ctx.qpow(-j * j))
    elif kind == "do8":
        seq = _f_seq

        def weight(l):  # q^{l^2} (q;q)_l
            return ctx.qpow(l * l) * ctx.qq(l)

        norm = ctx.qq

        def printed_factor():  # 1/(q;q)_inf, over the consistent form
            return _mpf(qpoch_inf_ratio(ctx, (), [ctx.q])[0])
    else:
        raise ValueError(kind)
    z = ctx.scalar(z)
    az2 = ctx.abs2(z)
    if az2 == 0:
        raise ValueError("z must be nonzero")
    total = ctx.zero()
    # e_j(l), f_j(l) vanish for l > j, so the sum terminates at min(j, k)
    for l in range(min(j, k) + 1):
        total = total + weight(l) / az2**l * seq(ctx, j, l) * seq(ctx, k, l)
    closed = norm(j) / az2**j if j == k else ctx.zero()
    diff = total - closed
    if ctx.is_exact:
        # decided exactly: a residual below a double's range must still fail
        passed = is_zero(diff)
        residual = "0" if passed else scalar_str(diff)
    else:
        passed, residual = numeric_verdict(ctx.mag(diff), 1e-8, 0.0)
    with ctx.workprec():
        printed = _mpf(closed) * printed_factor() if j == k else 0
        printed_res = abs(_mpf(total) - printed)  # real: z enters as |z|^2
    as_float = float(printed_res)
    return VerificationReport(
        id=f"ORTHOSEQ-{kind}", mode="EXACT-POLY" if ctx.is_exact else "NUMERIC-SERIES",
        grid={"j": j, "k": k, "z": scalar_str(z)},
        residual=residual, tail_bound=0.0, passed=bool(passed),
        note="consistent closed form (printed forms mix normalizations; ledger)",
        extra={"printed_form_residual": as_float if math.isfinite(as_float) else printed_res})
