"""q-calculus primitives: shifted factorials, basic hypergeometric series
and the special functions used by the polynomial families (Ramanujan's
entire function, theta_4, the second Jackson q-Bessel functions, and the
Schur polynomials of the generalized Rogers--Ramanujan identity).

Truncated infinite objects carry an explicit tail bound: the sum/product is
cut once the next term times a geometric majorant drops below the tolerance
of the context's one truncation policy, ``ctx.default_trunc``, and the
majorant value is returned alongside the value.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .context import QContext, as_fraction, is_zero

__all__ = [
    "DivergenceError",
    "PoleError",
    "qpoch",
    "qpoch_inf",
    "qpoch_inf_ratio",
    "times",
    "QPochPrefix",
    "qbinom",
    "qbinom_inv",
    "phi_series",
    "aq_function",
    "theta4",
    "bessel_i2_series",
    "schur_a",
    "schur_b",
]


class DivergenceError(ArithmeticError):
    """A truncated sum failed to decay within the term budget."""


class PoleError(ArithmeticError):
    """A series parameter sits on a pole q**(-k) of the term ratio."""


# ---------------------------------------------------------------------------
# q-shifted factorials
# ---------------------------------------------------------------------------

def qpoch(ctx: QContext, a, n):
    """(a; q)_n for a nonnegative integer n (a negative n raises ValueError),
    read off a :class:`QPochPrefix`; the infinite product is :func:`qpoch_inf`.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"(a;q)_n needs n >= 0, got {n}")
    return QPochPrefix(ctx, a)(n)


def qpoch_inf(ctx: QContext, a):
    """(a; q)_infty as (value, tail_bound).

    The product is cut at K with |a| q^K / (1-q) <= min(1/2, tail_tol); the
    remaining factors multiply the partial product by exp(+-eps) with
    eps = |a| q^K / (1-q), so |true - partial| <= 2 eps |partial| once
    eps <= 1/2.  On the exact backend the value is the truncated product and
    the bound is reported the same way.  The cut follows ctx.default_trunc.
    """
    with ctx.workprec():
        tr = ctx.default_trunc
        a = ctx.scalar(a)
        qf = float(ctx.q_fraction)
        amag = ctx.mag(a)
        out = ctx.one()
        k = 0
        while True:
            eps = amag * qf**k / (1 - qf)
            if eps <= min(0.5, tr.tail_tol) or k >= tr.max_terms:
                break
            out = out * (1 - a * ctx.qpow(k))
            k += 1
        eps = amag * qf**k / (1 - qf)
        if eps > 0.5:
            raise DivergenceError(
                f"(a;q)_inf truncation budget exhausted at {tr.max_terms} factors"
            )
        tail = 2 * eps * (ctx.mag(out) + 1e-300)
        if math.isinf(tail):  # |out| overflows a double
            tail = 2 * eps * abs(out)
        return out, tail


def _rel_tail(ctx: QContext, v, t) -> float:
    """t / |v|, taken on mpf where |v| overflows a double; inf at v = 0."""
    m = ctx.mag(v)
    if math.isinf(m):
        return float(t / abs(v))
    return t / m if m else math.inf


def times(ctx: QContext, x, y):
    """The product of two truncated values x = (v, t) and y = (w, s), each a
    value and a bound on its error, as (v w, |v| s + t |w| + t s).

    With |x' - v| <= t and |y' - w| <= s,
    x' y' - v w = v (y' - w) + (x' - v) w + (x' - v)(y' - w), so the bound
    holds for every x', y' within the tails.  The first-order rule without
    t s does not: at t = |v|/2, s = |w|/2 it gives |v w|, and factors off by
    their full tails in phase are off by 5/4 |v w|.
    """
    v, t = x
    w, s = y
    return v * w, ctx.mag(v) * s + t * ctx.mag(w) + t * s


def qpoch_inf_ratio(ctx: QContext, nums, dens=()):
    """prod_a (a;q)_inf / prod_b (b;q)_inf over a in nums, b in dens, as
    (value, tail_bound), with one :func:`qpoch_inf` call per distinct factor
    (a squared factor is listed twice and computed once).

    Each factor is its truncated value v times (1 + d), |d| <= e = tail/|v|,
    so the quotient is off by at most
    |value| (prod (1 + e_a) / prod (1 - e_b) - 1), summed in logs: the naive
    form cancels to 0 in doubles once e is near 1e-34.  A numerator factor
    that is zero makes the value zero; a denominator factor not bounded away
    from zero (e_b >= 1) raises PoleError.  Where a factor or the value
    overflows a double, e and the bound are taken on mpf magnitudes.
    """
    with ctx.workprec():
        facs = {}
        for a in (*nums, *dens):
            if a not in facs:
                facs[a] = qpoch_inf(ctx, a)
        num, den, log_err = ctx.one(), ctx.one(), 0.0
        for a in nums:
            v, t = facs[a]
            num = num * v
            if ctx.mag(v):
                log_err += math.log1p(_rel_tail(ctx, v, t))
        for b in dens:
            v, t = facs[b]
            e = _rel_tail(ctx, v, t)
            if e >= 1:
                raise PoleError(f"({b!r};q)_inf in a denominator is not bounded away from 0")
            den = den * v
            log_err -= math.log1p(-e)
        value = num / den
        tail = ctx.mag(value) * math.expm1(log_err)
        return value, tail if math.isfinite(tail) else abs(value) * math.expm1(log_err)


class QPochPrefix:
    """n -> (a; q)_n read off one running product that is extended on read:
    the kernel's one loop over the factors (1 - a q^k), k = 0, 1, ...

    :func:`qpoch` reads one, so entry n is bitwise ``qpoch(ctx, a, n)``; a
    sum over n costs one factor per term instead of n.  Entries are computed
    at the ``mp.prec`` of the read that extends the product.
    """

    def __init__(self, ctx: QContext, a):
        self.ctx = ctx
        self.a = ctx.scalar(a)
        self.vals = [ctx.one()]

    def __call__(self, n: int):
        vals = self.vals
        while len(vals) <= n:
            vals.append(vals[-1] * (1 - self.a * self.ctx.qpow(len(vals) - 1)))
        return vals[n]


def qbinom(ctx: QContext, m: int, k: int):
    """Gaussian binomial [m k]_q; zero outside 0 <= k <= m (negative m included)."""
    if k < 0 or m < 0 or k > m:
        return ctx.zero()
    return ctx.qq(m) / (ctx.qq(k) * ctx.qq(m - k))


def qbinom_inv(ctx: QContext, m: int, k: int):
    """Gaussian binomial [m k] in the base 1/q, zero outside 0 <= k <= m: its
    base-1/q factors read in base q, (q^-m;q)_k / (q^-k;q)_k, so that no
    inversion identity is assumed."""
    if k < 0 or m < 0 or k > m:
        return ctx.zero()
    return qpoch(ctx, ctx.qpow(-m), k) / qpoch(ctx, ctx.qpow(-k), k)


# ---------------------------------------------------------------------------
# basic hypergeometric series
# ---------------------------------------------------------------------------

def _is_q_negative_power(ctx: QContext, a) -> Optional[int]:
    """If a == q**-N exactly for some 0 <= N <= 4096, return N.  With q =
    num/den, q**-N = den**N/num**N is in lowest terms, so a matches iff its
    numerator and denominator are those powers; N comes from a logarithm."""
    if not ctx.is_exact:
        return None
    try:
        av = as_fraction(a)
    except (ValueError, TypeError):
        return None
    if av <= 0:
        return None
    num, den = ctx.q_fraction.numerator, ctx.q_fraction.denominator
    N = round(math.log(av.numerator) / math.log(den))
    if 0 <= N <= 4096 and av.numerator == den**N and av.denominator == num**N:
        return N
    return None


def phi_series(ctx: QContext, numerators: Sequence, denominators: Sequence, z):
    """The basic hypergeometric series r_phi_s(numerators; denominators; q, z)
    as (value, tail_bound).

    Term n carries the usual ((-1)^n q^C(n,2))^e factor, e = 1+s-r.  A
    terminating series (a numerator q**-N on the exact backend, or a term
    that vanishes) is summed in full with tail 0.  Otherwise, for e >= 0,
    every term ratio after term t_n is at most

        R_n = |z| q^{ne} prod_a (1 + |a| q^n) / ((1 - q^{n+1}) prod_b (1 - |b| q^n))

    once every |b| q^n < 1, so the terms after t_n sum to at most
    |t_n| R_n / (1 - R_n) when R_n < 1 (R_n is evaluated in doubles and
    rounded up).  The sum stops at the first n where that bound is at most
    tail_tol * max(1, |sum|) and reports it; no such n within max_terms
    raises DivergenceError.  Where a magnitude overflows a double, both
    sides of that test would be inf, so it is made on mpf magnitudes, and
    the bound is reported as an mpf.
    """
    with ctx.workprec():
        tr = ctx.default_trunc
        nums = [ctx.scalar(a) for a in numerators]
        dens = [ctx.scalar(b) for b in denominators]
        z = ctx.scalar(z)
        extra = 1 + len(dens) - len(nums)

        ns = [_is_q_negative_power(ctx, a) for a in nums]
        nmax = min((N for N in ns if N is not None), default=None)
        qf = float(ctx.q_fraction)
        zmag = ctx.mag(z)
        amags = [ctx.mag(a) for a in nums]
        bmags = [ctx.mag(b) for b in dens]

        term = ctx.one()
        total = ctx.one()
        n = 0
        while n != nmax and not is_zero(term):
            if nmax is None and extra >= 0:
                qn = qf**n
                den_bound = 1 - qn * qf
                for bm in bmags:
                    den_bound *= 1 - bm * qn
                if den_bound > 0:
                    ratio_bound = (1 + 1e-12) * zmag * qn**extra / den_bound
                    for am in amags:
                        ratio_bound *= 1 + am * qn
                    if ratio_bound < 1:
                        tail = ctx.mag(term) * ratio_bound / (1 - ratio_bound)
                        scale = max(1.0, ctx.mag(total))
                        if not (math.isfinite(tail) and math.isfinite(scale)):
                            tail = abs(term) * ratio_bound / (1 - ratio_bound)
                            scale = max(1, abs(total))
                        if tail <= tr.tail_tol * scale:
                            return total, tail
            if nmax is None and n >= tr.max_terms:
                raise DivergenceError("phi series did not converge in budget")
            # ratio from term n to n+1
            num_fac = ctx.one()
            for a in nums:
                num_fac = num_fac * (1 - a * ctx.qpow(n))
            den_fac = 1 - ctx.qpow(n + 1)
            for b in dens:
                f = 1 - b * ctx.qpow(n)
                if is_zero(f):
                    raise PoleError(f"denominator parameter {b!r} hits q**-{n}")
                den_fac = den_fac * f
            ratio = num_fac * z / den_fac
            if extra:
                ratio = ratio * ((-1) * ctx.qpow(n)) ** extra
            term = term * ratio
            total = total + term
            n += 1
        return total, 0.0


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def aq_function(ctx: QContext, z):
    """Ramanujan's entire function A_q(z) = sum q^{n^2} (-z)^n / (q;q)_n,
    which is 0phi1(-; 0; q, -qz), as :func:`phi_series`'s (value,
    tail_bound)."""
    with ctx.workprec():
        return phi_series(ctx, [], [0], -ctx.q * ctx.scalar(z))


def theta4(ctx: QContext, w, p):
    """theta_4(w; p) = sum_{n in Z} (-1)^n p^{n^2} w^n, |p| < 1, w != 0.

    Returns (value, tail_bound).  The convention (plain w^n, no half-integer
    characteristics) is the one calibrated against the scaled large-degree
    behaviour of the first 2D family; see the asymptotics module.
    """
    with ctx.workprec():
        tr = ctx.default_trunc
        w = ctx.scalar(w)
        p = ctx.scalar(p)
        pmag = ctx.mag(p)
        if pmag >= 1:
            raise ValueError("theta4 needs |p| < 1")
        wmag = ctx.mag(w)
        if wmag == 0:
            raise ZeroDivisionError("theta4 needs w != 0")
        total = ctx.one()
        winv = 1 / w
        for n in range(1, tr.max_terms):
            total = total + (-1) ** n * p ** (n * n) * (w**n + winv**n)
            nxt = pmag ** ((n + 1) ** 2) * max(wmag, 1 / wmag) ** (n + 1)
            if nxt < tr.tail_tol and pmag ** (2 * n + 3) * max(wmag, 1 / wmag) < 0.5:
                return total, 4 * nxt
        raise DivergenceError("theta4 truncation budget exhausted")


def bessel_i2_series(ctx: QContext, qnu, y):
    """The modified Jackson q-Bessel sum in its fractional-power-free form.

    With q^nu := qnu, returns
        ((qnu*q;q)_inf / (q;q)_inf) * sum_n q^{n^2} qnu^n y^n / ((q;q)_n (qnu*q;q)_n),
    which equals b^{-nu/2} I^{(2)}_nu(2 sqrt(b); q) at y = b.  The sum is
    0phi1(-; qnu q; q, q qnu y).  Keeping qnu as a scalar sidesteps z^{nu}
    branch choices entirely.  Returns (value, tail_bound): the :func:`times`
    of the prefactor's :func:`qpoch_inf_ratio` and the :func:`phi_series` sum.
    """
    with ctx.workprec():
        qnu = ctx.scalar(qnu)
        pref = qpoch_inf_ratio(ctx, [qnu * ctx.q], [ctx.q])
        return times(ctx, pref, phi_series(ctx, [], [qnu * ctx.q], ctx.q * qnu * ctx.scalar(y)))


def schur_a(ctx: QContext, m: int):
    """Schur polynomial a_m(q) = sum_j q^{j^2+j} [m-j-2 over j]_q.

    The Gaussian binomial is zero outside 0 <= j <= m-j-2.  The m = 0 value is
    pinned to 1: the generalized Rogers--Ramanujan identity at m = 0 is the
    first Rogers--Ramanujan identity, which forces a_0 = 1 (numerically
    confirmed for m = 0..8 in the test suite), while the bare sum would give 0.
    """
    if m == 0:
        return ctx.one()
    total = ctx.zero()
    for j in range(max(0, (m - 2) // 2) + 1):
        total = total + ctx.qpow(j * j + j) * qbinom(ctx, m - j - 2, j)
    return total


def schur_b(ctx: QContext, m: int):
    """Schur polynomial b_m(q) = sum_j q^{j^2} [m-j-1 over j]_q (zero convention).

    b_0 = 0 under the zero convention, which matches the generalized
    Rogers--Ramanujan identity at m = 0.
    """
    total = ctx.zero()
    for j in range(max(0, (m - 1) // 2) + 1):
        total = total + ctx.qpow(j * j) * qbinom(ctx, m - j - 1, j)
    return total
