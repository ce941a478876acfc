"""Numeric identity checkers: series, constrained multisums, q-integral sums.

Every checker runs on the float backend (mpmath at the context precision),
evaluates both sides at fixed scalar parameter points and returns
(residual_magnitude, tail_bound, info).  Double series are summed over a
rectangle with geometric tail extrapolation; conditionally convergent sums
(the Ramanujan h-expansion) are summed along diagonals m - n = d with
Abel-type pairing; constrained multisums use a roots-of-unity filter over the
capped index boxes, which reproduces the capped constrained sum exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Tuple

import mpmath
from mpmath import mp

from .context import QContext
from .polyfamilies import (FamilyTable, _power_table, coeffs, eval_poly,
                           little_q_jacobi_coeff_list, radial_reduce)
from .qkernel import (QPochPrefix, aq_function, bessel_i2_series, phi_series,
                      qbinom, qbinom_inv, qpoch, qpoch_inf, qpoch_inf_ladder,
                      qpoch_inf_ratio, schur_a, schur_b, times)

F = Fraction

DEFAULT_Z1 = complex(1.5, 0.5)
DEFAULT_Z2 = complex(1.5, -0.5)


# ---------------------------------------------------------------------------
# summation helpers
# ---------------------------------------------------------------------------

# a shell of sum2d is negligible below SHELL_TOL * max(1, |partial sum|)
SHELL_TOL = 1e-30


def sum2d(ctx, term: Callable[[int, int], object], cap: int) -> Tuple[object, float]:
    """Sum term(m, n) over the capped quadrant, shell by shell (m+n = const),
    stopping when three consecutive shells are negligible; the tail bound is a
    geometric extrapolation of the last shell."""
    total = ctx.zero()
    shell_mags = []
    for s in range(cap + 1):
        shell = ctx.zero()
        for m_ in range(s + 1):
            shell = shell + term(m_, s - m_)
        total = total + shell
        shell_mags.append(ctx.mag(shell))
        scale = max(1.0, ctx.mag(total))
        if len(shell_mags) >= 4 and all(x <= SHELL_TOL * scale for x in shell_mags[-3:]):
            hist = [x for x in shell_mags[-6:] if x > 0]
            ratio = 0.5
            if len(hist) >= 2:
                ratio = min(0.9, max(hist[i + 1] / hist[i] for i in range(len(hist) - 1)))
            tail = shell_mags[-1] * ratio / (1 - ratio)
            return total, tail
    # budget exhausted without three quiet shells: report the last shell as tail
    last = shell_mags[-1] if shell_mags else 0.0
    return total, 2.0 * last


def paired_diagonal_sum(ctx, term: Callable[[int, int], object], dmax: int,
                        nmax: int, tol: float) -> Tuple[object, float]:
    """Sum term(m, n) over m, n >= 0 grouped by d = m - n.

    Along each diagonal the partial terms may only converge in the Abel sense
    (consecutive terms nearly cancel); pairing t_k + t_{k+1} restores
    geometric decay, so each diagonal is summed in consecutive pairs.
    """
    total = ctx.zero()
    tail = 0.0
    for d in range(-dmax, dmax + 1):
        diag = ctx.zero()
        k = 0
        last_pair = None
        t0 = t1 = ctx.zero()
        while k < nmax:
            m_, n_ = (k + d, k) if d >= 0 else (k, k - d)
            t0 = term(m_, n_)
            t1 = term(m_ + 1, n_ + 1)
            pair = t0 + t1
            diag = diag + pair
            pm = ctx.mag(pair)
            if last_pair is not None and pm <= tol and last_pair <= tol:
                tail += pm
                break
            last_pair = pm
            k += 2
        # Abel boundary term: with t_n -> (-1)^n kappa the pair sums miss
        # kappa/2 (Abel sum of sum (-1)^n kappa); estimate kappa at the deep end
        kappa = ((-1) ** k * t0 + (-1) ** (k + 1) * t1) / 2
        total = total + diag + kappa / 2
        tail += ctx.mag(t0 + t1)
    return total, 4.0 * tail


def laurent_block(terms):
    """Laurent coefficients {d: c_d} of a block S(z) = sum_k c_k z^{d_k},
    given by its (d_k, c_k) terms: each c_d = sum_{d_k = d} c_k is summed
    once, so a (J+1)^2-term double sum in z^{m-n} becomes 2J+1 coefficients."""
    out = {}
    for d, c in terms:
        out[d] = out[d] + c if d in out else c
    return out


def unity_filter_sum(blocks, weight=None, caps_range: int = 0):
    """(1/M) sum_r w(omega^r) prod_i S_i(omega^r) as (value, tail), with M
    large enough that the filter is exact for the capped index boxes (the
    theta weight's aliasing error is left to the caller).  Each block S_i is
    given by its Laurent coefficients (:func:`laurent_block`) and evaluated
    at each root by Horner.  ``weight(z)`` returns (value, tail) and must
    satisfy w(conj z) = conj(w(z)) with the same tail; the tail is the node
    mean of each weight tail times its node's block product, i.e. of
    |node term| times the weight's relative tail.

    When every block coefficient is real, node M - r is the conjugate of
    node r, and so is its term: only nodes r = 0..(M-1)/2 are evaluated,
    node 0 counts once, and every other node adds 2 Re(w prod) and twice
    its tail.  Blocks with a complex coefficient are evaluated at all M
    nodes."""
    M = 2 * caps_range + 1
    horner = []  # (lowest power, coefficients from the highest power down)
    real = True
    for blk in blocks:
        lo, hi = min(blk), max(blk)
        cs = [blk.get(d, 0) for d in range(hi, lo - 1, -1)]
        real = real and all(mpmath.im(c) == 0 for c in cs)
        horner.append((lo, cs))
    total = mp.mpf(0) if real else mp.mpc(0)
    tail = 0.0
    for r in range(caps_range + 1 if real else M):
        zr = mpmath.exp(2j * mpmath.pi * r / M)
        w, w_tail = (mp.mpc(1), 0.0) if weight is None else weight(zr)
        prod = mp.mpc(1)
        for lo, cs in horner:
            acc = cs[0]
            for c in cs[1:]:
                acc = acc * zr + c
            prod = prod * (acc * zr**lo)
        term, node_tail = w * prod, w_tail * float(abs(prod))
        if real:  # node r > 0 stands for itself and its conjugate, node M - r
            k = 2 if r else 1
            term, node_tail = k * term.real, k * node_tail
        total += term
        tail += node_tail
    return total / M, tail / M


def _box_block(J, term):
    """laurent_block of sum_{0 <= m, n <= J} term(m, n) z^{m-n}."""
    return laurent_block((m_ - n_, term(m_, n_)) for m_ in range(J + 1) for n_ in range(J + 1))


# ---------------------------------------------------------------------------
# value tables for the polynomial families
# ---------------------------------------------------------------------------

class _RadialTable(dict):
    """Family values through the radial reductions (the eq:circle2 /
    eq:askeyroy2 / q-Laguerre routes), read as tab[m, n], built on first
    read; with weights (u, v) each value is scaled by
    u^m v^n / ((q;q)_m (q;q)_n), as in :class:`FamilyTable`."""

    def __init__(self, ctx, family, z1, z2, weights=None):
        super().__init__()
        self.args = (ctx, family, z1, z2, weights)

    def __missing__(self, key):
        ctx, family, z1, z2, weights = self.args
        rf = radial_reduce(ctx, family, *key)
        a = abs(rf.angular_index)
        mono = z1**a if not rf.swapped else z2**a
        val = rf.prefactor * mono * rf.radial_value(z1 * z2)
        if weights is not None:
            (m_, n_), (u, v) = key, weights
            val = val * u**m_ * v**n_ / (ctx.qq(m_) * ctx.qq(n_))
        self[key] = val
        return val


def _family_values(ctx, family, z1, z2, radial=False, weights=None):
    """Values of the (m, n) members at (z1, z2), read as tab[m, n] and
    filled on read: by the three-term recurrences, or through the radial
    reductions when radial is set; with weights (u, v), both routes hold
    the values times u^m v^n / ((q;q)_m (q;q)_n)."""
    if radial:
        return _RadialTable(ctx, family, z1, z2, weights)
    return FamilyTable(ctx, family, z1, z2, weights=weights)


# ---------------------------------------------------------------------------
# NUMERIC-SERIES entries
# ---------------------------------------------------------------------------

def num_gf_H_ab(ctx, pt):
    """eqHmnu+v with the statement's (a/u;q)_n index typo corrected to m:
    both sides evaluated at scalars."""
    z1, z2 = ctx.scalar(pt.get("z1", DEFAULT_Z1)), ctx.scalar(pt.get("z2", DEFAULT_Z2))
    a, b = ctx.scalar(pt.get("a", F(1, 5))), ctx.scalar(pt.get("b", F(1, 6)))
    u, v = ctx.scalar(pt.get("u", F(1, 7))), ctx.scalar(pt.get("v", F(1, 8)))
    # the terms H_{m,n} u^m (a/u;q)_m v^n (b/v;q)_n / ((q;q)_m (q;q)_n)
    Ht = FamilyTable(ctx, "Hq", z1, z2, weights=(u, v))
    pa, pb = QPochPrefix(ctx, a / u), QPochPrefix(ctx, b / v)
    lhs, tail1 = sum2d(ctx, lambda m_, n_: Ht[m_, n_] * pa(m_) * pb(n_), cap=40)
    # the closed form's k-sum is (a z1, b z2;q)inf 2phi2(a/u, b/v; a z1, b z2; q, uv)
    pref = qpoch_inf_ratio(ctx, [a * z1, b * z2], [u * z1, v * z2])
    rhs, rhs_tail = times(ctx, pref, phi_series(ctx, [a / u, b / v], [a * z1, b * z2], u * v))
    return ctx.mag(lhs - rhs), tail1 + rhs_tail, {}


def num_p_conn_H_inv(ctx, pt):
    """eqcinnhtop: H_{m,n} as a q^{k/2}-dilated sum of the disk family."""
    m_, n_ = pt.get("m", 3), pt.get("n", 2)
    z1, z2 = ctx.scalar(pt.get("z1", DEFAULT_Z1)), ctx.scalar(pt.get("z2", DEFAULT_Z2))
    b = ctx.scalar(pt.get("b", F(1, 4)))
    s = ctx.q_half_pow(1)
    lhs = eval_poly(coeffs(ctx, "Hq", m_, n_), z1, z2)
    inv = qpoch_inf_ratio(ctx, (), [b * ctx.q])
    P = coeffs(ctx, "pq", m_, n_, b=b)
    beta = b * s ** (m_ + n_ + 2)
    # |p(s^k z)| <= A for every k, since s^k <= 1
    A = sum(ctx.mag(c) * ctx.mag(z1) ** i * ctx.mag(z2) ** j for (i, j), c in P.coeffs.items())
    bmag, qf = ctx.mag(beta), float(ctx.q_fraction)
    tr = ctx.default_trunc
    total = ctx.zero()
    for k in range(tr.max_terms):
        coef = (-beta) ** k * ctx.qpow(k * (k - 1) // 2) / ctx.qq(k)
        total = total + coef * eval_poly(P, s**k * z1, s**k * z2)
        # the terms after k: |coef_{k+1}| = t_next, every later coefficient
        # ratio |beta| q^k' / (1 - q^{k'+1}) is at most rho, and each
        # |p(s^k' z)| <= A, so they sum to at most A t_next / (1 - rho)
        t_next = ctx.mag(coef) * bmag * qf**k / (1 - qf ** (k + 1))
        rho = bmag * qf ** (k + 1) / (1 - qf)
        cut = A * t_next / (1 - rho) if rho < 1 else math.inf
        if cut <= tr.tail_tol:
            break
    rhs, rhs_tail = times(ctx, inv, (total, cut))
    return ctx.mag(lhs - rhs), rhs_tail, {}


def num_gf_shift_p(ctx, pt):
    """eq:eqGFpplus (first printed variant) at scalars.  At (j, k) = (0, 0)
    the l-sum is one 2phi1 with coefficient 1 and this is eq:jp's generating
    function, the registry's p-GF."""
    j, k = pt.get("j", 1), pt.get("k", 1)
    z1, z2 = ctx.scalar(pt.get("z1", DEFAULT_Z1)), ctx.scalar(pt.get("z2", DEFAULT_Z2))
    b = ctx.scalar(pt.get("b", F(1, 4)))
    u, v = ctx.scalar(pt.get("u", F(1, 7))), ctx.scalar(pt.get("v", F(1, 8)))
    cap = 48
    # the only Euler-weighted sum not read from a weighted table: its terms
    # take the weight of (m, n) but the value of (m + j, n + k), and a
    # weighted table holds each value with its own index's weight
    Pt = FamilyTable(ctx, "pq", z1, z2, b=b)
    lhs, tail = sum2d(ctx, lambda m_, n_: Pt[m_ + j, n_ + k] * u**m_ * v**n_
                      / (ctx.qq(m_) * ctx.qq(n_)), cap=cap)

    pref = qpoch_inf_ratio(ctx, [b * ctx.q, u * v * ctx.qpow(j + k)], [u * z1, v * z2])
    # the l-sum of the closed form, with (v z2;q)_l (v z2 q^l;q)_i = (v z2;q)_i (v z2 q^i;q)_l,
    # is sum_i c_i (v z2;q)_i 2phi1(u z1, v z2 q^i; uv q^{j+k}; q, b q^{1+j+k-i})
    total, phi_tail = ctx.zero(), 0.0
    for i in range(min(j, k) + 1):
        c = (qbinom(ctx, j, i) * qbinom(ctx, k, i) * (-1) ** i
             * z1 ** (j - i) * z2 ** (k - i) * ctx.qpow(i * (i - 1) // 2) * ctx.qq(i)
             * qpoch(ctx, v / z1 * ctx.qpow(i), j - i)
             * qpoch(ctx, u / z2 * ctx.qpow(j), k - i)
             * qpoch(ctx, z2 * v, i))
        phi, t = phi_series(ctx, [u * z1, v * z2 * ctx.qpow(i)], [u * v * ctx.qpow(j + k)],
                            b * ctx.qpow(1 + j + k - i))
        total = total + c * phi
        phi_tail += ctx.mag(c) * t
    rhs, rhs_tail = times(ctx, pref, (total, phi_tail))
    return ctx.mag(lhs - rhs), tail + rhs_tail, {}


def _h_weighted_sum(ctx, z1, z2, cm, cn, denm, denn, extra_exp, cap):
    """sum over m,n of extra_exp(m,n) h_{m,n}(z1,z2) cm^m cn^n /
    ((q;q)_m denm(m) (q;q)_n denn(n))."""
    ht = FamilyTable(ctx, "hq", z1, z2, weights=(cm, cn))
    return sum2d(ctx, lambda m_, n_: extra_exp(m_, n_) * ht[m_, n_] / (denm(m_) * denn(n_)),
                 cap=cap)


def num_cor19_2phi1(ctx, pt):
    """eq2phi1gf: both closed forms, inside the common convergence region; the
    analytic-continuation claim for the 1phi1 form is recorded untested."""
    q = ctx.q
    s = ctx.q_half_pow(1)
    a, b = ctx.scalar(pt.get("a", F(1, 3))), ctx.scalar(pt.get("b", F(1, 4)))
    c, d = ctx.scalar(pt.get("c", F(1, 8))), ctx.scalar(pt.get("d", F(1, 9)))
    z1, z2 = ctx.scalar(pt.get("z1", 2)), ctx.scalar(pt.get("z2", 3))
    pa, pb = QPochPrefix(ctx, a), QPochPrefix(ctx, b)
    lhs, tail = _h_weighted_sum(
        ctx, z1, z2, -c / (s * a * z1), -d / (s * b * z2),
        QPochPrefix(ctx, c), QPochPrefix(ctx, d),
        lambda m_, n_: pa(m_) * pb(n_) * s ** ((m_ - n_) ** 2),
        cap=44)
    pr = qpoch_inf_ratio(ctx, [c / a, d / b], [c, d])
    arg = -c * d / (q * a * b * z1 * z2)
    rhs, rhs_tail = times(ctx, pr, phi_series(ctx, [a, b], [ctx.zero()], arg))
    # 1phi1 form; the printed version drops two minus signs (ledger):
    # the correct bottom parameter and argument are -cd/(q b z1 z2), -cd/(q a z1 z2)
    beta = -c * d / (q * b * z1 * z2)
    pr2 = qpoch_inf_ratio(ctx, [c / a, d / b, beta], [c, d, arg])
    rhs2, rhs2_tail = times(ctx, pr2, phi_series(ctx, [a], [beta], -c * d / (q * a * z1 * z2)))
    r = max(ctx.mag(lhs - rhs), ctx.mag(lhs - rhs2))
    return r, tail + max(rhs_tail, rhs2_tail), {
        "extension_claim": "untested outside |cdq/(ab z1 z2)|<1"}


def num_cor19_aq(ctx, pt):
    q = ctx.q
    c, d = ctx.scalar(pt.get("c", F(1, 7))), ctx.scalar(pt.get("d", F(1, 6)))
    z1, z2 = ctx.scalar(pt.get("z1", 2)), ctx.scalar(pt.get("z2", 3))
    lhs, tail = _h_weighted_sum(
        ctx, z1, z2, c / z1, d / z2,
        QPochPrefix(ctx, c * q), QPochPrefix(ctx, d * q),
        lambda m_, n_: ctx.qpow(m_ * m_ - m_ * n_ + n_ * n_), cap=40)
    rhs, rhs_tail = times(ctx, aq_function(ctx, c * d / (z1 * z2)),
                          qpoch_inf_ratio(ctx, (), [c * q, d * q]))
    return ctx.mag(lhs - rhs), tail + rhs_tail, {}


def num_cor19_aq2(ctx, pt):
    q = ctx.q
    c, d = ctx.scalar(pt.get("c", F(1, 8))), ctx.scalar(pt.get("d", F(1, 9)))
    z1, z2 = ctx.scalar(pt.get("z1", DEFAULT_Z1)), ctx.scalar(pt.get("z2", DEFAULT_Z2))
    lhs, tail = _h_weighted_sum(
        ctx, z1, z2, c, d,
        QPochPrefix(ctx, c * z1 * q), QPochPrefix(ctx, d * z2 * q),
        lambda m_, n_: ctx.qpow(m_ * m_ - m_ * n_ + n_ * n_), cap=40)
    rhs, rhs_tail = times(ctx, aq_function(ctx, c * d),
                          qpoch_inf_ratio(ctx, (), [c * z1 * q, d * z2 * q]))
    return ctx.mag(lhs - rhs), tail + rhs_tail, {}


def num_gis_pgf(ctx, pt):
    """eqhasPGF at cd = -q^s: the A_q value collapses to the Schur-polynomial
    combination of the generalized Rogers--Ramanujan identity.  Its products
    1/(q, q^4;q^5)inf and 1/(q^2, q^3;q^5)inf are taken in base q^5, at the
    context's precision and truncation policy, with their tails."""
    q = ctx.q
    sidx = pt.get("s", 0)
    c = ctx.scalar(pt.get("c", F(1, 3)))
    d = -ctx.qpow(sidx) / c
    z1, z2 = ctx.scalar(pt.get("z1", F(1, 2))), ctx.scalar(pt.get("z2", F(1, 3)))
    lhs, tail = _h_weighted_sum(
        ctx, z1, z2, c, d,
        QPochPrefix(ctx, c * z1 * q), QPochPrefix(ctx, d * z2 * q),
        lambda m_, n_: ctx.qpow(m_ * m_ - m_ * n_ + n_ * n_), cap=44)

    qf = ctx.q_fraction
    c5 = QContext(qf**5, backend="float", precision_bits=ctx.precision_bits,
                  default_trunc=ctx.default_trunc)
    r14, t14 = qpoch_inf_ratio(c5, (), [qf, qf**4])
    r23, t23 = qpoch_inf_ratio(c5, (), [qf**2, qf**3])
    am = ctx.scalar(schur_a(QContext(qf), sidx))
    bm = ctx.scalar(schur_b(QContext(qf), sidx))
    sign = (-1) ** sidx * ctx.qpow(-(sidx * (sidx - 1) // 2))
    gis = sign * (am * r14 - bm * r23)
    gis_tail = ctx.mag(sign) * (ctx.mag(am) * t14 + ctx.mag(bm) * t23)
    rhs, rhs_tail = times(ctx, (gis, gis_tail), qpoch_inf_ratio(ctx, (), [c * z1 * q, d * z2 * q]))
    return ctx.mag(lhs - rhs), tail + rhs_tail, {"schur_convention": "a0=1 pinned by RR1"}


def num_cor20_i2(ctx, pt):
    q = ctx.q
    s = ctx.q_half_pow(1)
    b = ctx.scalar(pt.get("b", F(1, 3)))
    c, d = ctx.scalar(pt.get("c", F(1, 8))), ctx.scalar(pt.get("d", F(1, 10)))
    z1, z2 = ctx.scalar(pt.get("z1", 1)), ctx.scalar(pt.get("z2", 1))
    pb = QPochPrefix(ctx, b)
    lhs, tail = _h_weighted_sum(
        ctx, z1, z2, c / s, -d / (s * b),
        QPochPrefix(ctx, c * z1), QPochPrefix(ctx, d * z2),
        lambda m_, n_: ctx.qpow(m_ * (m_ - 1) // 2) * pb(n_) * s ** ((m_ - n_) ** 2),
        cap=48)
    # printed q^nu = c d q^{-2}/b; the a -> infinity limit of the corrected
    # 1phi1 form yields q^nu = -c d q^{-2}/b (ledger)
    qnu = -c * d / (q * q * b)
    bes = bessel_i2_series(ctx, qnu, b)
    rhs, rhs_tail = times(ctx, qpoch_inf_ratio(ctx, [d * z2 / b, q], [c * z1, d * z2]), bes)
    return ctx.mag(lhs - rhs), tail + rhs_tail, {}


# --- Ramanujan-type generating functions -----------------------------------

def _ram_H(ctx, pt, radial=False):
    """eq:ramHgen1 with q = exp(-2k^2): (residual, tail) of the closed form
    against the H-series, whose values come from the recurrences or, when
    radial is set, from the Wall reductions."""
    q = ctx.q
    s = ctx.q_half_pow(1)
    kpar = mpmath.sqrt(-mpmath.log(q) / 2)
    mm = ctx.scalar(pt.get("mpar", F(1, 3)))
    a, b = ctx.scalar(pt.get("a", F(1, 4))), ctx.scalar(pt.get("b", F(1, 5)))
    x = mpmath.exp(2j * mm * kpar)
    # the printed statement omits the (q;q)_inf/(abq;q)_inf normalization
    # that the Gaussian-integral derivation produces (ledger)
    lhs, lhs_tail = qpoch_inf_ratio(ctx, [q, -a * q * x, -b * q / x], [a * b * q])
    tab = _family_values(ctx, "Hq", a, b, radial, weights=(s * x, s / x))
    cap = 64
    sd = _power_table(s, [d * d for d in range(cap + 1)])
    rhs, tail = sum2d(ctx, lambda s_, t_: tab[s_, t_] * sd[(s_ - t_) ** 2], cap=cap)
    return ctx.mag(lhs - rhs), tail + lhs_tail


def num_ram_gen_H(ctx, pt):
    """eq:ramHgen1 with q = exp(-2k^2)."""
    r, tail = _ram_H(ctx, pt)
    return r, tail + 1e-28, {}


def _ram_genh_rhs(ctx, pt, radial=False):
    """The h-series of eq:ramhgen1 and its parameters: (value, tail, a, b, x)."""
    q = ctx.q
    s = ctx.q_half_pow(1)
    kpar = mpmath.sqrt(-mpmath.log(q) / 2)
    mm = ctx.scalar(pt.get("mpar", F(1, 5)))
    a, b = ctx.scalar(pt.get("a", F(1, 4))), ctx.scalar(pt.get("b", F(1, 5)))
    x = mpmath.exp(mm * kpar)
    cap = 60 if radial else 170
    tab = _family_values(ctx, "hq", a, b, radial, weights=(s * x, s / x))
    val, tail = sum2d(ctx, lambda s_, t_: tab[s_, t_], cap=cap)
    return val, tail, a, b, x


def _ram_genh_derived(ctx, a, b, x):
    """The derived closed form of eq:ramhgen1,
    (q a b;q)inf / ((-q, a q^{1/2} x, b q^{1/2}/x;q)inf), as (value, tail)."""
    q = ctx.q
    s = ctx.q_half_pow(1)
    return qpoch_inf_ratio(ctx, [q * a * b], [-q, a * s * x, b * s / x])


def num_ram_gen_h(ctx, pt):
    """eq:ramhgen1: the printed left side (comma reading) is checked literally
    and the re-derived left side is reported alongside (see note)."""
    rhs, tail, a, b, x = _ram_genh_rhs(ctx, pt)
    x2 = x * x
    lhs_printed, printed_tail = qpoch_inf_ratio(ctx, [a * b], [-a * b, a * x2, b / x2])
    derived, _ = _ram_genh_derived(ctx, a, b, x)
    r_printed = ctx.mag(lhs_printed - rhs)
    r_derived = ctx.mag(derived - rhs)
    tail += printed_tail
    info = {"printed_residual": float(r_printed), "derived_residual": float(r_derived),
            "printed_form_matches": bool(r_printed <= 1e-10 + tail)}
    return r_printed, tail + 1e-26, info


def num_ram_gen_h_alt(ctx, pt):
    """Derived variant of eq:ramhgen1 (ledger): with u = q^{1/2} e^{mk},
    v = q^{1/2} e^{-mk},

      sum h_{s,t}(a,b) u^s v^t / ((q;q)_s (q;q)_t)
        = (q a b;q)inf / ((-q, a q^{1/2} e^{mk}, b q^{1/2} e^{-mk};q)inf).
    """
    rhs, tail, a, b, x = _ram_genh_rhs(ctx, pt)
    lhs, lhs_tail = _ram_genh_derived(ctx, a, b, x)
    return ctx.mag(lhs - rhs), tail + lhs_tail + 1e-26, {}


def _ram_genC_params(pt):
    return pt.get("apar", 0.7), pt.get("bpar", 0.9), pt.get("cpar", 0.45)


def _ram_genC_rhs(ctx, pt, radial=False):
    """The h-series of eq:ramhgen2, summed along paired diagonals (Abel-type)."""
    apar, bpar, cpar = _ram_genC_params(pt)
    qa, qb = ctx.q ** apar, ctx.q ** bpar
    cap, dmax = 140, 90
    hv = _family_values(ctx, "hq", qa, qb, radial, weights=(1, 1))
    qc = {d: ctx.q ** (cpar * d) for d in range(-dmax, dmax + 1)}  # one per diagonal
    return paired_diagonal_sum(ctx, lambda m_, n_: hv[m_, n_] * qc[m_ - n_],
                               dmax=dmax, nmax=cap, tol=1e-27)


def _ram_genC_closed(ctx, pt, printed=False):
    """The closed form of eq:ramhgen2 as (value, tail): the printed one
    carries (-q^{a+b};q)inf, the derived one (-1;q)inf in its place."""
    apar, bpar, cpar = _ram_genC_params(pt)
    qab = ctx.q ** (apar + bpar)
    return qpoch_inf_ratio(ctx, [qab], [-qab if printed else ctx.scalar(-1),
                                        ctx.q ** (apar + cpar), ctx.q ** (bpar - cpar)])


def num_ram_gen_C(ctx, pt):
    """eq:ramhgen2: printed closed form checked literally; the re-derived form
    replaces (-q^{a+b};q)inf by (-1;q)inf (see note).  The double series is
    Abel-type (diagonal pairing) and is summed once for both forms."""
    rhs, tail = _ram_genC_rhs(ctx, pt)
    printed, printed_tail = _ram_genC_closed(ctx, pt, printed=True)
    derived, _ = _ram_genC_closed(ctx, pt)
    r_printed = ctx.mag(printed - rhs)
    r_derived = ctx.mag(derived - rhs)
    tail += printed_tail
    info = {"printed_residual": float(r_printed), "derived_residual": float(r_derived),
            "printed_form_matches": bool(r_printed <= 1e-8 + tail)}
    return r_printed, tail + 1e-24, info


def num_ram_gen_C_alt(ctx, pt):
    rhs, tail = _ram_genC_rhs(ctx, pt)
    lhs, lhs_tail = _ram_genC_closed(ctx, pt)
    return ctx.mag(lhs - rhs), tail + lhs_tail + 1e-24, {}


def num_ram_gen_lag(ctx, pt):
    """The q-Laguerre / Wall reductions of the Ramanujan-type expansions:
    the three series are re-evaluated through the radial reductions and
    compared against the same closed forms (derived variants where the
    printed ones fail)."""
    # (1) first-family version of eq:ramHgen2 via Wall reduction
    r1, tail1 = _ram_H(ctx, pt, radial=True)
    # (2) q-Laguerre version of the derived eq:ramhgen1
    rhs2, tail2, a, b, x = _ram_genh_rhs(ctx, pt, radial=True)
    lhs2, lhs2_tail = _ram_genh_derived(ctx, a, b, x)
    r2 = ctx.mag(lhs2 - rhs2)
    # (3) q-Laguerre version of the derived eq:ramhgen2
    rhs3, tail3 = _ram_genC_rhs(ctx, pt, radial=True)
    lhs3, lhs3_tail = _ram_genC_closed(ctx, pt)
    r3 = ctx.mag(lhs3 - rhs3)
    return max(r1, r2, r3), tail1 + tail2 + tail3 + lhs2_tail + lhs3_tail + 1e-24, {
        "wall_residual": float(r1), "laguerre_residual": float(r2),
        "laguerre_c_residual": float(r3)}


def num_bes_wall(ctx, pt):
    """The Wall expansion behind eq:bessel2wall.

    The printed identity rests on the bilateral generating function
    sum_n t^n J^(2)_n(x;q) = (-x^2/4;q)inf/((xt/2, x/(2t);q)inf), which is
    numerically refuted (and the printed k-sum diverges termwise).  What the
    Wall reduction of the first family actually yields is the coefficient
    identity

      [t^n] (x^2;q)inf/((x t, x/t;q)inf)
          = x^n (1/(q;q)_n) sum_k (-1)^k q^C(k,2) x^{2k} p_k(1; q^n|q)/(q;q)_k,

    which is what this entry certifies (Fourier extraction of the closed
    product against the Wall k-sum); the printed form's residual is reported
    in the note.
    """
    q = ctx.q
    nidx = int(pt.get("n", 1))
    x = ctx.scalar(pt.get("x", F(1, 5)))
    x2 = x * x
    qalpha = ctx.qpow(nidx)

    # LHS: [t^n] of the closed product, by roots-of-unity extraction on M nodes
    num = qpoch_inf(ctx, x2)

    def node(zr):  # 1/zr = conj zr on the unit circle: one Euler series for the pair
        return times(ctx, num, qpoch_inf_ratio(ctx, (), [x * zr, x * mpmath.conj(zr)]))

    M = 97
    lhs, node_tail = unity_filter_sum([{-nidx: 1}], weight=node, caps_range=M // 2)

    # the Wall polynomials p_k(x; q^n|q): little q-Jacobi at b = 0
    tot_corr = ctx.zero()
    for k in range(140):
        pk1 = sum(little_q_jacobi_coeff_list(ctx, qalpha, 0, k))
        t_corr = (-1) ** k * ctx.qpow(k * (k - 1) // 2) * x2**k * pk1 / ctx.qq(k)
        tot_corr = tot_corr + t_corr
        if k > 10 and ctx.mag(t_corr) < 1e-32:
            break
    rhs = x**nidx / ctx.qq(nidx) * tot_corr

    # printed variant, truncated where its terms are still decreasing
    tot_printed = ctx.zero()
    prev = None
    poch = QPochPrefix(ctx, qalpha * q)  # (q^{n+1};q)_k
    for k in range(40):
        pk = sum(c * x2**r for r, c in enumerate(little_q_jacobi_coeff_list(ctx, qalpha, 0, k)))
        t_pr = pk / (ctx.qq(k) * poch(k))
        if prev is not None and ctx.mag(t_pr) > prev:
            break
        tot_printed = tot_printed + t_pr
        prev = ctx.mag(t_pr)
    pref_printed, _ = qpoch_inf_ratio(ctx, [qalpha * q, -x2], [q, x2])
    # J^(2)_alpha(2x;q)/x^alpha for the printed comparison
    jr, _ = bessel_i2_series(ctx, qalpha, -x2)
    r_printed = ctx.mag(jr - pref_printed * tot_printed)

    resid = ctx.mag(lhs - rhs)
    info = {"printed_residual": float(r_printed), "printed_form_matches": False,
            "note": "printed bilateral GF premise refuted; certified Wall-sum "
                    "coefficient identity instead"}
    return resid, 1e-24 + node_tail + float((ctx.mag(x)) ** (M - 3 * nidx - 2)), info


# ---------------------------------------------------------------------------
# NUMERIC-QSUM entries (Ramanujan q-beta integrals)
# ---------------------------------------------------------------------------

def num_rambeta(ctx, pt, with_ab: bool):
    """eq:rambeta1 (with_ab) / eq:rambeta3: the bilateral q-sum against the
    closed product form.

    The nodes t = q^n, n = -120..159, read their products (-t, -q/t;q)inf
    (and (-t q^b, -q^{a+1}/t;q)inf) off :func:`qpoch_inf_ladder`.  The tail
    adds to the edge terms each side's truncated products: the ladders'
    relative tails times |lhs| (the terms are positive) and the closed
    form's :func:`qpoch_inf_ratio` tail.
    """
    apar = ctx.scalar(pt.get("apar", F(1, 3)))
    bpar = ctx.scalar(pt.get("bpar", 1))
    cpar = ctx.scalar(pt.get("cpar", F(1, 2)))
    q = ctx.q
    n0, K = -120, 280

    def ladder(c):  # [(-c q^k;q)inf for k < K] and its relative tail
        return qpoch_inf_ladder(ctx, [-c * ctx.qpow(k) for k in range(K)])

    # node k sits at t = q^(n0 + k): A = (-t;q)inf and C = (-t q^b;q)inf are
    # read at k, B = (-q/t;q)inf and D = (-q^{a+1}/t;q)inf at K-1-k
    A, lad_rel = ladder(ctx.qpow(n0))
    B, rel = ladder(ctx.qpow(2 - n0 - K))
    lad_rel += rel
    if with_ab:
        C, rel = ladder(ctx.qpow(n0) * q ** bpar)
        lad_rel += rel
        D, rel = ladder(q ** (apar + 1) * ctx.qpow(1 - n0 - K))
        lad_rel += rel

    total = ctx.zero()
    edge = 0.0
    for k in range(K):
        t = ctx.qpow(n0 + k)
        f = t ** cpar / (A[k] * B[K - 1 - k])
        if with_ab:
            f = f * C[k] * D[K - 1 - k]
        total = total + f
        if k in (0, K - 1):
            edge += ctx.mag(f)
    lhs = total
    num_args = [q, -(q ** cpar), -(q ** (1 - cpar))]
    den_args = [ctx.scalar(-1), -q]
    if with_ab:
        num_args.append(q ** (apar + bpar))
        den_args += [q ** (apar + cpar), q ** (bpar - cpar)]
    rhs, rhs_tail = qpoch_inf_ratio(ctx, num_args, den_args)
    # both sums' tails decay geometrically; bound them by the edge terms
    tail = 8.0 * edge + lad_rel * ctx.mag(lhs) + rhs_tail
    return ctx.mag(lhs - rhs), tail, {}


# ---------------------------------------------------------------------------
# constrained multisums
# ---------------------------------------------------------------------------

def num_circle(ctx, pt, radial=False):
    """eq:circle / eq:circle2 in the theta-weighted unconstrained reading:
    the (sum m - sum n)^2 exponent together with its sign is the Fourier
    weight of the Jacobi triple product (q, q^{1/2} z, q^{1/2}/z;q)inf, so the
    sum runs over all six indices against that weight (the printed "summation
    over m1+m2+m3 = n1+n2+n3" keeps only the dominant Fourier mode, and the
    printed extra q^{(m1+n1)/2} does not survive re-derivation; numerics
    adjudicate at 1e-8, see ledger).  radial=True routes every family value
    through its radial reduction (the eq:circle2 route)."""
    J = pt.get("J", 8)
    t = [ctx.scalar(v) for v in pt.get("t", (F(1, 8), F(1, 9), F(1, 10), F(1, 11)))]
    x = [ctx.scalar(v) for v in pt.get("x", (F(1, 8), F(1, 8), F(1, 9), F(1, 9)))]
    s = ctx.q_half_pow(1)
    q = ctx.q

    ht = _family_values(ctx, "hq", t[0] * t[2], t[1] * t[3], radial,
                        weights=(-x[0] * x[2], -x[1] * x[3]))
    H1 = _family_values(ctx, "Hq", t[0], t[1], radial, weights=(x[0], x[1]))
    H2 = _family_values(ctx, "Hq", t[2], t[3], radial, weights=(x[2], x[3]))
    S1 = _box_block(J, lambda m_, n_: ht[m_, n_] * s ** ((m_ - n_) ** 2))
    S2 = _box_block(J, lambda m_, n_: H1[m_, n_])
    S3 = _box_block(J, lambda m_, n_: H2[m_, n_])
    qinf = qpoch_inf(ctx, q)

    def weight(z):  # theta weight (q, q^{1/2} z, q^{1/2}/z; q)_inf
        # 1/z = conj z on the unit circle: one Euler series for the pair
        return times(ctx, qinf, qpoch_inf_ratio(ctx, [s * z, s * mpmath.conj(z)]))

    rhs, rhs_tail = unity_filter_sum([S1, S2, S3], weight=weight, caps_range=3 * J + 24)
    lhs, lhs_tail = qpoch_inf_ratio(
        ctx, [t[i] * x[i] * s for i in range(4)]
        + [x[0] * x[1], x[2] * x[3], t[0] * t[1] * t[2] * t[3] * x[0] * x[1] * x[2] * x[3] * q * q],
        [t[0] * t[1] * x[0] * x[1], t[0] * t[3] * x[0] * x[3], t[1] * t[2] * x[1] * x[2],
         t[2] * t[3] * x[2] * x[3], -x[0] * x[1] * x[2] * x[3]])
    # crude geometric tail majorant from the largest parameter magnitude
    rho = max(ctx.mag(v) for v in (x[0] * x[2], x[1] * x[3], x[0], x[1], x[2], x[3]))
    tail = 40.0 * float(rho) ** (J + 1) / (1 - float(rho))
    return ctx.mag(lhs - rhs), tail + rhs_tail + lhs_tail, {}


def num_askey_roy_exp(ctx, pt, radial=False):
    """eq:askeyroy / eq:askeyroy2 in the convergent split (ledger): the printed
    split carries a divergent h-block pair (their diagonal ratios are exact
    reciprocals), so the blocks are expanded with |uv| = lam^2 < 1:

      S1: (c e^{i th}/beta, c alpha e^{-i th};q)inf = (-lam^2;q)inf *
          sum h_{m,n}(z1,z2) q^{(m-n)^2/2} lam^{m+n} e^{i th(m-n)} / (...),
          z1 = -c/(beta sqrt(q) lam), z2 = -c alpha/(sqrt(q) lam),
      S2: likewise for (q e^{i th}/(c alpha), q beta e^{-i th}/c;q)inf,
      S3/S4: 1/((a e^{i th}, alpha e^{-i th});q)inf = sum H_{m,n}(1,1) a^m
             alpha^n e^{i th(m-n)} / (...) / (a alpha;q)inf,

    and the Askey-Roy integral gives the filtered product sum

      = (ab alpha beta, c, q/c, c alpha/beta, q beta/(c alpha);q)inf
        / ((a beta, b alpha, q;q)inf (-lam^2;q)inf^2).
    """
    J = pt.get("J", 8)
    lam = ctx.scalar(pt.get("lam", F(1, 2)))
    a = ctx.scalar(pt.get("a", F(1, 8)))
    b = ctx.scalar(pt.get("b", F(1, 9)))
    al = ctx.scalar(pt.get("alpha", F(1, 10)))
    be = ctx.scalar(pt.get("beta", F(1, 11)))
    c = ctx.scalar(pt.get("cpar", F(1, 8)))
    q = ctx.q
    s = ctx.q_half_pow(1)

    z11 = -c / (be * s * lam)
    z12 = -c * al / (s * lam)
    z21 = -q / (c * al * s * lam)
    z22 = -q * be / (c * s * lam)

    def hblock(z1, z2):
        tab = _family_values(ctx, "hq", z1, z2, radial, weights=(lam, lam))
        return _box_block(J, lambda m_, n_: tab[m_, n_] * s ** ((m_ - n_) ** 2))

    def Hblock(p1, p2):
        tab = _family_values(ctx, "Hq", ctx.one(), ctx.one(), radial, weights=(p1, p2))
        return _box_block(J, lambda m_, n_: tab[m_, n_])

    rhs, _ = unity_filter_sum([hblock(z11, z12), hblock(z21, z22), Hblock(a, al), Hblock(b, be)],
                              caps_range=4 * J)
    lam2 = -lam * lam
    lhs, lhs_tail = qpoch_inf_ratio(
        ctx, [a * b * al * be, c, q / c, c * al / be, q * be / (c * al)],
        [a * be, b * al, q, lam2, lam2])
    rho = max(float(ctx.mag(v)) for v in (lam * lam, a, b, al, be))
    tail = 60.0 * rho ** (J + 1) / (1 - rho)
    return ctx.mag(lhs - rhs), tail + lhs_tail, {}


def num_qks1(ctx, pt):
    """eq:qks1 checked as literally printed (with the evidently missing
    u^{m3} power restored); the exponentials e^{pi +- 2 i psi} etc. are taken
    at face value, and the suspected typo is flagged in the note."""
    J = pt.get("J", 8)
    u = ctx.scalar(pt.get("u", F(1, 8)))
    v = ctx.scalar(pt.get("v", F(1, 7)))
    phi = ctx.scalar(pt.get("phi", F(1, 3)))
    psi = ctx.scalar(pt.get("psi", F(1, 5)))
    q = ctx.q
    s = ctx.q_half_pow(1)

    def cont_qH(nn, xarg, binom):
        # continuous q-Hermite H_n(cos theta | base), cos theta = xarg; binom: [n k] in base
        th = mpmath.acos(xarg)
        return sum((binom(ctx, nn, k) * mpmath.exp(1j * (nn - 2 * k) * th)
                    for k in range(nn + 1)), mp.mpc(0))

    sinpsi = mpmath.sin(psi)
    cosphi = mpmath.cos(phi)
    cospsi = mpmath.cos(psi)
    Hm1 = [cont_qH(n_, sinpsi, qbinom_inv) for n_ in range(J + 1)]
    Hm3 = [cont_qH(n_, cosphi, qbinom) for n_ in range(J + 1)]
    Hm4 = [cont_qH(n_, cospsi, qbinom) for n_ in range(J + 1)]

    def block(sign, vals, coef):
        return laurent_block((sign * m_, vals[m_] * coef(m_) / ctx.qq(m_)) for m_ in range(J + 1))

    def gauss(m_):
        return mpmath.power(q, mp.mpf(m_ * m_) / 2) / v**m_

    S1 = block(1, Hm1, lambda m_: gauss(m_) * (-1) ** m_)
    S2 = block(-1, Hm1, gauss)
    S3 = block(1, Hm3, lambda m_: u**m_)
    S4 = block(-1, Hm4, lambda m_: v**m_)

    rhs, _ = unity_filter_sum([S1, S2, S3, S4], caps_range=4 * J)
    epi = mpmath.exp(mpmath.pi)
    e2ip = mpmath.exp(2j * psi)
    ehalf = mpmath.exp(mpmath.pi / 2)
    lhs, lhs_tail = qpoch_inf_ratio(
        ctx, [u * u * v * v, s, s, s * epi * e2ip, s / (epi * e2ip)],
        [u * v * mpmath.exp(1j * (phi + psi)) * ehalf,
         u * v * mpmath.exp(1j * (phi - psi)) / ehalf,
         u * v * mpmath.exp(-1j * (phi - psi)) * ehalf,
         u * v * mpmath.exp(-1j * (phi + psi)) / ehalf, q])
    rho = max(float(ctx.mag(u)), float(ctx.mag(v)))
    tail = 40.0 * rho ** (J + 1) / (1 - rho) + lhs_tail
    return ctx.mag(lhs - rhs), tail, {
        "suspected_typo": "e^{pi+2i psi} appears to be a real exponential; "
                          "checked as printed"}
