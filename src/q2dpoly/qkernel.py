"""q-calculus primitives: shifted factorials, basic hypergeometric series
and the special functions used by the polynomial families (Ramanujan's
entire function, theta_4, the second Jackson q-Bessel functions, and the
Schur polynomials of the generalized Rogers--Ramanujan identity).

Truncated infinite objects carry an explicit tail bound: the sum is cut
once the next term times a geometric majorant drops below the tolerance of
the context's one truncation policy, ``ctx.default_trunc``, and the
majorant value is returned alongside the value.  The kernel has one
convergent-sum engine, the loop of :func:`phi_series`; (a;q)_inf is Euler's
series 0phi0(-; -; q, a) summed by it, and its tail bounds the truncation
plus the rounding of the sum (the product of the factors (1 - a q^k), the
kernel's one such loop, is ``QPochPrefix``'s and serves only where the
series would cancel); (a;q)_inf at a, aq, aq^2, ... is one
:func:`qpoch_inf_ladder`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import mpmath
from mpmath import mp

from .context import GUARD_BITS, QContext, as_fraction, conj, is_zero

__all__ = [
    "DivergenceError",
    "PoleError",
    "qpoch",
    "qpoch_inf",
    "qpoch_inf_ladder",
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
    """(a; q)_infty as (value, tail_bound), by Euler's series

        (a;q)_inf = sum_k (-1)^k q^C(k,2) a^k / (q;q)_k = 0phi0(-; -; q, a)

    (Gasper--Rahman (1.3.16)), summed by the loop of :func:`phi_series`,
    whose terms fall like q^{k^2/2}: about 13 terms at q = 1/2 and tail_tol
    1e-34, where the product needs about 112 factors.  The sum stops on the
    engine's proven truncation bound taken relative to the sum, so the
    relative tail stays within tail_tol (ctx.default_trunc) however small
    the value.

    The tail adds a rounding bound c n u S, S = sum |t_k| over the n + 1
    terms (accumulated in doubles), u = 2^(1-p) at the working precision p
    of ctx.workprec() (twice the unit roundoff e = 2^-p), r = q/(1-q) and
    c = 1.01 (n + 8)(1 + r)/2 (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., sections 3.1 and 4.2).  Step k -> k+1 multiplies
    the term by (a / (1 - q^{k+1})) (-q^k) with four roundings (the
    complex product of the term with the ratio at most one per part), and
    the table values q^k carry at most (k + 2) e (q itself rounded once,
    its power once more), which the subtraction 1 - q^{k+1} scales by
    q^{k+1}/(1 - q^{k+1}) <= r.  So step k costs at most
    (k + 8 + (k + 3) r) e <= (n + 7)(1 + r) e for k < n, term t_k is off by
    at most n (n + 7)(1 + r) e relative, and the running sum adds
    gamma_n S <= n e S (each part of a complex sum is rounded once).  The
    total, n (n + 8)(1 + r) e S = c n u S / 1.01, is first order; 1.01
    covers the second-order terms and the double sums.  On the exact
    backend u = 0.

    The series cancels where a sits at or near q^-k: where S exceeds
    2^16 |value|, which would spend the 16 guard bits of ctx.workprec(), the
    value and its tail come from the product instead (:func:`_qpoch_inf_product`).
    For a <= 0 every term has one sign, so S = |value|; for |a| < 1,
    S / |value| <= (-|a|;q)_inf / (|a|;q)_inf, which passes 2^16 only as |a|
    nears 1 (a = 0.999 does at q = 29/39, not at q = 1/2).
    """
    with ctx.workprec():
        a = ctx.scalar(a)
        value, tail, n, S = _phi_sum(ctx, [], [], a, True)
        m = _dmag(ctx, value)
        if math.isinf(m):
            m = abs(value)
        if S > 2**GUARD_BITS * m:
            return _qpoch_inf_product(ctx, a)
        u = 0.0 if ctx.is_exact else 2.0 ** (1 - mp.prec)
        r = float(ctx.q_fraction) / (1 - float(ctx.q_fraction))
        return value, tail + 1.01 * (n + 8) * (1 + r) / 2 * n * u * S


def qpoch_inf_ladder(ctx: QContext, args):
    """[(a;q)_inf for a in args], each arg q times the one before, and the
    relative tail of the base: only the last, smallest arg calls
    :func:`qpoch_inf`, and every other rung is (1 - a) times the one after
    it, (a;q)_inf = (1 - a)(aq;q)_inf (Gasper--Rahman, ch. 1), so it carries
    the base's cut.  The ladder's own rounding is not in that tail."""
    base, tail = qpoch_inf(ctx, args[-1])
    out = [base]
    for a in reversed(args[:-1]):
        out.append((1 - a) * out[-1])
    out.reverse()
    return out, tail / ctx.mag(base)


def _qpoch_inf_product(ctx: QContext, a):
    """(a; q)_infty as (value, tail_bound) from the product of its first K
    factors, read off a :class:`QPochPrefix`: :func:`qpoch_inf`'s route
    where Euler's series would cancel past its guard bits.

    K is the first index with eps = |a| q^K / (1 - q) <= min(1/2, tail_tol);
    the remaining factors multiply the partial product by exp(+-eps), so it
    is off by at most 2 eps of itself once eps <= 1/2.  Rounding: with
    u = 2^(1-p) (twice the unit roundoff e = 2^-p), the computed factor
    f_k' = 1 - a q^k is off by at most ((k + 3) |a| q^k + |f_k'|) e (q^k
    carries (k + 2) e, the product with a one more, the subtraction one), so
    by e_k = ((k + 3) |a| q^k + |f_k'|) u with room for the doubles, and the
    K products add K e each.  The product of the f_k' is then off by at most
    prod (|f_k'| + e_k) - prod |f_k'|, that is expm1(sum log1p(e_k/|f_k'|))
    of it; where a computed factor is 0, the value is 0 and the bound is
    prod (|f_k'| + e_k) itself.  A near-zero factor, a close to q^-k, is
    where this bound is large: it is then the factor's own rounding over
    its size.
    """
    tr = ctx.default_trunc
    qf = float(ctx.q_fraction)
    amag = ctx.mag(a)
    K = 0
    while amag * qf**K / (1 - qf) > min(0.5, tr.tail_tol) and K < tr.max_terms:
        K += 1
    eps = amag * qf**K / (1 - qf)
    if eps > 0.5:
        raise DivergenceError(f"(a;q)_inf truncation budget exhausted at {tr.max_terms} factors")
    out = QPochPrefix(ctx, a)(K)
    u = 0.0 if ctx.is_exact else 2.0 ** (1 - mp.prec)
    mags = [_dmag(ctx, 1 - a * ctx.qpow(k)) for k in range(K)]
    errs = [((k + 3) * amag * qf**k + mk) * u for k, mk in enumerate(mags)]
    if all(mags):
        rel = 2 * eps + math.expm1(math.fsum(map(math.log1p, (e / mk for e, mk in zip(errs, mags)))))
        tail = (rel + 1.01 * K * u) * (ctx.mag(out) + 1e-300)
        if math.isinf(tail):  # |out| overflows a double
            tail = (rel + 1.01 * K * u) * abs(out)
        return out, tail
    if not u:  # an exact zero factor: (a;q)_inf is 0
        return out, 0.0
    bound = (1 + 2 * eps) * 1.01 * mpmath.exp(math.fsum(math.log(mk + e) for mk, e in zip(mags, errs)))
    return out, float(bound) if bound < 1e300 else bound


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
    (a squared factor is listed twice and computed once).  A factor whose
    argument is the conjugate of one already computed is read as that value
    conjugated, with the same tail: q is real, so (conj a;q)_inf is
    conj((a;q)_inf) term by term in Euler's series.

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
            if a in facs:
                continue
            ac = conj(a)
            if ac in facs:
                v, t = facs[ac]
                facs[a] = conj(v), t
            else:
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
    raises DivergenceError.  The magnitudes of the test are doubles taken
    from the real and imaginary parts.  Where a magnitude overflows a
    double, both sides of that test would be inf, so it is made on mpf
    magnitudes, and the bound is reported as an mpf.
    """
    value, tail, _, _ = _phi_sum(ctx, numerators, denominators, z, False)
    return value, tail


def _dmag(ctx: QContext, x) -> float:
    """ctx.mag(x) without its mpmath.fabs: an mpf's is abs(float(x)), the
    same double; an mpc's comes from the doubles of its parts, within an
    ulp or two of float(|x|) (inf past the double range), without the
    full-precision hypot and square root of |x|."""
    if isinstance(x, mpmath.mpf):
        return abs(float(x))
    if isinstance(x, mpmath.mpc):
        return math.hypot(float(x.real), float(x.imag))
    return ctx.mag(x)


def _phi_sum(ctx: QContext, numerators, denominators, z, relative: bool):
    """:func:`phi_series`'s loop, as (value, tail_bound, n, S): n steps
    taken and S = sum |t_k| over the n + 1 terms summed, in doubles (an mpf
    once a term passes the double range).  With ``relative`` the stop scale
    is max(|sum|, 2^-16 S) in place of max(1, |sum|), so that the tail is
    relative to the value wherever |value| >= 2^-16 S (:func:`qpoch_inf`
    keeps the series only there)."""
    with ctx.workprec():
        tr = ctx.default_trunc
        nums = [ctx.scalar(a) for a in numerators]
        dens = [ctx.scalar(b) for b in denominators]
        z = ctx.scalar(z)
        extra = 1 + len(dens) - len(nums)
        dens = [b for b in dens if not is_zero(b)]  # a factor 1 - 0 q^n is 1

        ns = [_is_q_negative_power(ctx, a) for a in nums]
        nmax = min((N for N in ns if N is not None), default=None)
        qf = float(ctx.q_fraction)
        zmag = ctx.mag(z)
        amags = [ctx.mag(a) for a in nums]
        bmags = [ctx.mag(b) for b in dens]
        floor = 2.0**-GUARD_BITS

        term = ctx.one()
        total = ctx.one()
        S = 0.0
        qn = ctx.qpow(0)
        n = 0
        while n != nmax and not is_zero(term):
            tm = _dmag(ctx, term)
            S = S + (tm if math.isfinite(tm) else abs(term))
            if nmax is None and extra >= 0:
                qfn = qf**n
                den_bound = 1 - qfn * qf
                for bm in bmags:
                    den_bound *= 1 - bm * qfn
                if den_bound > 0:
                    ratio_bound = (1 + 1e-12) * zmag * qfn**extra / den_bound
                    for am in amags:
                        ratio_bound *= 1 + am * qfn
                    if ratio_bound < 1:
                        tail = tm * ratio_bound / (1 - ratio_bound)
                        tot = _dmag(ctx, total)
                        scale = max(tot, floor * S) if relative else max(1.0, tot)
                        if not (math.isfinite(tail) and math.isfinite(scale)):
                            tail = abs(term) * ratio_bound / (1 - ratio_bound)
                            scale = max(abs(total), floor * S) if relative else max(1, abs(total))
                        if tail <= tr.tail_tol * scale:
                            return total, tail, n, S
            if nmax is None and n >= tr.max_terms:
                raise DivergenceError("phi series did not converge in budget")
            # ratio from term n to n+1; products with 1 and a power 1 are skipped
            qn1 = ctx.qpow(n + 1)
            ratio = z
            if nums:
                num_fac = 1 - nums[0] * qn
                for a in nums[1:]:
                    num_fac = num_fac * (1 - a * qn)
                ratio = num_fac * z
            den_fac = 1 - qn1
            for b in dens:
                f = 1 - b * qn
                if is_zero(f):
                    raise PoleError(f"denominator parameter {b!r} hits q**-{n}")
                den_fac = den_fac * f
            ratio = ratio / den_fac
            if extra == 1:
                ratio = ratio * -qn
            elif extra:
                ratio = ratio * (-qn) ** extra
            term = term * ratio
            total = total + term
            qn = qn1
            n += 1
        return total, 0.0, n, S


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
