from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q2dpoly.context import GaussianRational as GR
from q2dpoly.context import QContext, TruncationPolicy, as_fraction
from q2dpoly import qkernel
from q2dpoly.polyfamilies import BivarPoly
from q2dpoly.qkernel import (DivergenceError, PoleError, QPochPrefix,
                             aq_function, bessel_i2_series, phi_series, qbinom,
                             qbinom_inv, qpoch, qpoch_inf, qpoch_inf_ladder,
                             qpoch_inf_ratio, schur_a, schur_b, theta4)


@pytest.fixture(scope="module")
def ctx():
    return QContext(F(1, 2))


@pytest.fixture(scope="module")
def fctx():
    return QContext(F(1, 2), sqrt_q="auto", backend="float", precision_bits=180,
                    default_trunc=TruncationPolicy(max_terms=500, tail_tol=1e-40))


def test_qpoch_empty_product(ctx):
    assert qpoch(ctx, F(3, 7), 0) == 1


def test_qpoch_single_factor(ctx):
    assert qpoch(ctx, ctx.q, 1) == F(1, 2)


def test_qpoch_vanishing_factor(ctx):
    assert qpoch(ctx, 2, 3) == 0


@pytest.mark.parametrize("n", [-1, -5])
def test_qpoch_negative_index_raises(ctx, n):
    # a negative order is refused, not read as the empty product
    with pytest.raises(ValueError):
        qpoch(ctx, F(3, 5), n)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_qpoch_is_a_prefix_read_bitwise(backend):
    c = QContext(F(2, 5), backend=backend, precision_bits=160)
    for a in (c.q, c.scalar(F(3, 7)), c.scalar(complex(0.5, -1.25)), c.qpow(-3)):
        pre = QPochPrefix(c, a)
        pre(12)  # filled in one pass, then read back
        for n in range(13):
            v = qpoch(c, a, n)
            assert v == pre(n) and type(v) is type(pre(n)), (a, n)


def _qbinom_base(ctx, base, m, k):
    """The Gaussian binomial in the base `base` as its direct product, the
    form that qbinom_inv reindexes into base q."""
    if k < 0 or m < 0 or k > m:
        return ctx.zero()
    num = den = ctx.one()
    for i in range(k):
        num = num * (1 - base ** (m - i))
        den = den * (1 - base ** (i + 1))
    return num / den


@pytest.mark.parametrize("q", [F(1, 2), F(2, 5), F(9, 25)])
def test_qbinom_inv_is_the_base_inverse_product(q):
    c = QContext(q)
    for m in range(13):
        for k in range(m + 1):
            assert qbinom_inv(c, m, k) == _qbinom_base(c, 1 / c.q, m, k), (m, k)


def test_qbinom_inv_vanishes_outside_its_range(ctx):
    for m, k in ((3, -1), (3, 4), (-1, 0), (-2, -1), (0, 1)):
        assert qbinom_inv(ctx, m, k) == 0 and _qbinom_base(ctx, 1 / ctx.q, m, k) == 0


def test_qbinom_inv_float_agrees_with_the_base_inverse_product():
    c = QContext(F(2, 5), backend="float", precision_bits=160)
    with c.workprec():
        for m in range(13):
            for k in range(m + 1):
                ref = _qbinom_base(c, 1 / c.q, m, k)
                assert abs(qbinom_inv(c, m, k) - ref) <= 1e-40 * abs(ref), (m, k)


@pytest.mark.parametrize("v, t, w, s", [
    (mpmath.mpc(3, -1), 1e-3, mpmath.mpf(-2), 1e-2),
    (mpmath.mpc("0.5", "0.25"), 1e-20, mpmath.mpc(-7, 2), 3e-18),
    (mpmath.mpf(2), 1.0, mpmath.mpc(0, 3), 1.5),  # t = |v|/2, s = |w|/2
])
def test_times_bounds_every_product_within_the_tails(fctx, v, t, w, s):
    # x' = v + r t e^{ia} v/|v| and y' = w + r' s e^{ib} w/|w|: a = b = 0 is
    # in phase, a = pi or b = pi out of phase, r, r' <= 1
    value, tail = qkernel.times(fctx, (v, t), (w, s))
    assert value == v * w
    with mpmath.workprec(180):
        uv, uw = v / abs(v), w / abs(w)
        worst = 0
        for r in (F(1, 2), 1):
            for a in range(8):
                for b in range(8):
                    x = v + r * t * mpmath.expjpi(F(a, 4)) * uv
                    y = w + r * s * mpmath.expjpi(F(b, 4)) * uw
                    worst = max(worst, abs(x * y - v * w))
        assert worst <= tail * (1 + 1e-12), (worst, tail)
        # the bound is reached: both factors at their full tails, in phase
        assert worst >= tail * (1 - 1e-12)
        if t == abs(v) / 2 and s == abs(w) / 2:
            # the first-order rule |v| s + t |w| = |v w| misses 1/4 |v w|
            first_order = abs(v) * s + t * abs(w)
            assert abs(worst - F(5, 4) * abs(v * w)) <= 1e-40 and worst > first_order


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8),
       st.fractions(min_value=F(-2), max_value=F(2)))
def test_qpoch_splitting(m, n, a):
    ctx = QContext(F(2, 5))
    lhs = qpoch(ctx, a, m + n)
    rhs = qpoch(ctx, a, m) * qpoch(ctx, a * ctx.qpow(m), n)
    assert lhs == rhs


def test_qpoch_inf_tail_reported(fctx):
    val, tail = qpoch_inf(fctx, fctx.scalar(F(1, 3)))
    with mpmath.workdps(45):
        direct = mpmath.qp(mpmath.mpf(1) / 3, mpmath.mpf(1) / 2)
        assert abs(val - direct) < 1e-30
    assert tail >= 0


def test_qpoch_inf_budget_exhausted_raises():
    with pytest.raises(DivergenceError):
        qpoch_inf(QContext(F(1, 2), default_trunc=TruncationPolicy(max_terms=1)), 1)


# (a;q)_inf against an independent reference: argument classes of Euler's
# series (small complex a, a = -x up to 2^56, the cancelling a = 1.6 and
# 15.07+6.37i, a = 0.999 near 1) and of the product route (a = q^-3 (1 + 1e-20),
# where the series would cancel past its guard bits)
QPOCH_INF_CASES = [
    (F(1, 2), complex(0.12, 0.16)), (F(1, 2), complex(-0.5, 0.7)),
    (F(1, 5), complex(0.12, 0.16)), (F(1, 5), complex(-0.5, 0.7)),
    (F(1, 2), -F(1, 3)), (F(1, 2), -3), (F(1, 2), -2**20), (F(1, 2), -2**56),
    (F(1, 5), -2**56),
    (F(1, 5), F(8, 5)),
    (F(1, 2), complex(15.07, 6.37)),
    (F(1, 2), F(999, 1000)), (F(1, 5), F(999, 1000)),
    (F(1, 2), "q^-3"), (F(1, 5), "q^-3"),
]


def _qpoch_inf_case(q, a, tail_tol=1e-34):
    """The numeric-sweep context at q (160 bits) and the argument a as it is
    passed."""
    c = QContext(q, backend="float", precision_bits=160,
                 default_trunc=TruncationPolicy(max_terms=400, tail_tol=tail_tol))
    with c.workprec():
        return c, c.qpow(-3) * (1 + mpmath.mpf(10) ** -20) if a == "q^-3" else c.scalar(a)


def _product_400(q, a):
    """prod (1 - a q^k) at 400 bits, cut where |a| q^k < 1e-125."""
    with mpmath.workprec(400):
        qv = mpmath.mpf(q.numerator) / q.denominator
        out, k = mpmath.mpf(1), 0
        while abs(a) * qv**k >= mpmath.mpf(10) ** -125:
            out *= 1 - a * qv**k
            k += 1
        return out


@pytest.mark.parametrize("tail_tol", [1e-34, 1e-60])
@pytest.mark.parametrize("q, a", QPOCH_INF_CASES)
def test_qpoch_inf_tail_bounds_error(q, a, tail_tol):
    # at tail_tol 1e-60 the cut is below the rounding of 176 bits, so the
    # tail must bound the rounding too
    c, a = _qpoch_inf_case(q, a, tail_tol)
    val, tail = qpoch_inf(c, a)
    with mpmath.workprec(400):
        assert abs(val - _product_400(q, a)) <= tail
    if tail_tol == 1e-34 and (abs(a) < 1 or (a.imag == 0 and a.real <= 0)):
        # the product's level: 2 tail_tol plus a rounding term far below it
        assert tail <= 2.01e-34 * abs(val)


def test_qpoch_inf_loose_tolerance_stays_a_bound():
    # at tail_tol 1/2, Euler's series stops at (q;q)_inf = 1/3 with tail
    # 1/18, which holds the true 0.2888
    c = QContext(F(1, 2), backend="float", precision_bits=160,
                 default_trunc=TruncationPolicy(max_terms=400, tail_tol=0.5))
    val, tail = qpoch_inf(c, c.q)
    with c.workprec():
        assert abs(val - mpmath.mpf(1) / 3) < 1e-40 and 0.05 < tail < 0.06
    assert abs(val - _product_400(F(1, 2), c.q)) <= tail


def test_qpoch_inf_at_a_negative_power_of_q_is_zero(ctx, fctx):
    # a = q^-2 makes the factor k = 2 vanish: Euler's series cancels to its
    # rounding there, and the product route gives the zero
    assert qpoch_inf(ctx, 4) == (0, 0.0)
    val, tail = qpoch_inf(fctx, 4)
    assert val == 0 and 0 < tail < 1e-45


@pytest.mark.parametrize("q, a", [(F(1, 2), complex(0.12, 0.16)), (F(1, 2), -2**56),
                                  (F(1, 5), F(8, 5))])
def test_qpoch_inf_inside_interval_enclosure(q, a):
    # an independent check in interval arithmetic: the product of the first
    # K factors, times the rest, which lies within 2 eps of 1 for
    # eps = |a| q^K / (1 - q) <= 1/2, encloses (a;q)_inf; value +- tail must
    # hold every corner of that box
    c, a = _qpoch_inf_case(q, a)
    val, tail = qpoch_inf(c, a)
    iv = mpmath.iv
    prec, iv.prec = iv.prec, 400
    try:
        ai = iv.mpc(iv.mpf(a.real), iv.mpf(a.imag)) if isinstance(a, mpmath.mpc) else iv.mpf(a)
        qi = iv.mpf(q.numerator) / q.denominator
        prod, k = iv.mpf(1), 0
        while float(abs(a)) * float(q) ** k > 1e-60:
            prod = prod * (1 - ai * qi**k)
            k += 1
        eps = abs(ai) * qi**k / (1 - qi)
        assert eps.b <= 0.5
        unit = iv.mpf([-1, 1])
        if isinstance(a, mpmath.mpc):
            box = prod + iv.mpc(unit, unit) * 2 * eps * abs(prod)
            ends = [(x, y) for x in (box.real.a, box.real.b) for y in (box.imag.a, box.imag.b)]
        else:
            box = prod * (1 + 2 * eps * unit)
            ends = [(box.a, 0), (box.b, 0)]
    finally:
        iv.prec = prec
    with mpmath.workprec(400):
        corners = [mpmath.mpc(mpmath.mpf(x), mpmath.mpf(y)) for x, y in ends]
        assert all(abs(x - val) <= tail for x in corners), (corners, val, tail)


@pytest.mark.parametrize("q", [F(1, 2), F(1, 5)])
def test_qpoch_inf_ladder_matches_per_node_products(q):
    # the four RAMBETA ladders (-c q^k;q)_inf, k < 280 (a = 1/3, b = 1),
    # against one qpoch_inf per node
    tail_tol, terms = (1e-34, 400) if q == F(1, 2) else (1e-36, 500)
    c = QContext(q, sqrt_q="auto", backend="float", precision_bits=160,
                 default_trunc=TruncationPolicy(max_terms=terms, tail_tol=tail_tol))
    with c.workprec():
        K = 280
        for base in (c.qpow(-120), c.qpow(-158), c.qpow(-120) * c.q, c.q ** F(4, 3) * c.qpow(-159)):
            vals, rel = qpoch_inf_ladder(c, [-base * c.qpow(k) for k in range(K)])
            assert 0 < rel <= 2 * tail_tol
            for k in range(K):
                ref = qpoch_inf(c, -base * c.qpow(k))[0]
                assert c.mag(vals[k] - ref) <= 4 * tail_tol * c.mag(ref), (k, base)


def test_float_qpow_matches_pow_at_each_precision():
    c = QContext(F(1, 3), backend="float", precision_bits=160)
    seen = {}
    for bits in (53, 200, 53, 200):
        with mpmath.workprec(bits):
            for n in (-3, 0, 7, 40):
                assert c.qpow(n) == c.q ** n
            seen[bits] = c.qpow(40)
    assert seen[53] != seen[200]


def test_float_qq_cache_filled_at_context_precision():
    # the first call runs at 53 bits; the prefix must still be the one a
    # fresh context builds inside its own working precision
    c = QContext(F(1, 3), backend="float", precision_bits=160)
    c.qq(30)
    fresh = QContext(F(1, 3), backend="float", precision_bits=160)
    with c.workprec():
        assert c.qq(30) == fresh.qq(30)


def test_qbinom_conventions(ctx):
    assert qbinom(ctx, 5, 0) == 1
    assert qbinom(ctx, 2, 3) == 0
    assert qbinom(ctx, -1, 0) == 0
    q = ctx.q
    assert qbinom(ctx, 4, 2) == (1 + q**2) * (1 + q + q**2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10))
def test_qbinom_symmetry(m, k):
    ctx = QContext(F(1, 3))
    assert qbinom(ctx, m, k) == qbinom(ctx, m, m - k)


def test_terminating_qbt(ctx):
    # sum_k [n k] q^C(k,2) (-z)^k == (z;q)_n
    z = GR(F(3, 2), F(1, 2))
    for n in range(11):
        s = sum((qbinom(ctx, n, k) * ctx.qpow(k * (k - 1) // 2) * (-z) ** k
                 for k in range(n + 1)), start=F(0))
        assert s == qpoch(ctx, z, n)


def _dq_power(P, n):
    for _ in range(n):
        P = P.qdiff(1)
    return P


def test_leibniz_rule(ctx):
    # D_q^n (f g)(x) == sum_k [n k] D_q^k f(x) D_q^{n-k} g(q^k x) for monomials
    x = F(2, 3)
    for a in range(6):
        for b in range(6):
            f = BivarPoly(ctx, {(a, 0): F(1)})
            g = BivarPoly(ctx, {(b, 0): F(1)})
            for n in range(1, 6):
                lhs = _dq_power(f * g, n).dilate(x)
                rhs = sum((qbinom(ctx, n, k) * _dq_power(f, k).dilate(x)
                           * _dq_power(g, n - k).dilate(ctx.qpow(k) * x)
                           for k in range(n + 1)), start=BivarPoly(ctx))
                assert lhs == rhs, (a, b, n)


@pytest.mark.parametrize("q", [F(1, 10), F(1, 2)])
def test_phi_series_past_double_range(q):
    # Euler's series for (-x;q)_inf at x = q^-56 has terms beyond 1.8e308;
    # the stop must not take inf <= tol * inf for convergence
    c = QContext(q, backend="float", precision_bits=160,
                 default_trunc=TruncationPolicy(max_terms=400, tail_tol=1e-36))
    with c.workprec():
        x = c.qpow(-56)
        val, tail = phi_series(c, [], [], -x)
        ref, _ = qpoch_inf(c, -x)
        assert abs(val - ref) <= 1e-35 * abs(ref)
        assert tail <= 1e-36 * abs(val)


@pytest.mark.parametrize("q", [F(1, 10), F(1, 2)])
def test_qpoch_inf_tails_past_double_range(q):
    # (-x;q)_inf at x = q^-56 overflows a double (2.5e1596 at q = 1/10), yet
    # its tail and the tail of (-x;q)_inf / (-xq;q)_inf = 1 + x stay finite
    c = QContext(q, backend="float", precision_bits=160,
                 default_trunc=TruncationPolicy(max_terms=400, tail_tol=1e-36))
    with c.workprec():
        x = c.qpow(-56)
        val, tail = qpoch_inf(c, -x)
        euler, euler_tail = phi_series(c, [], [], -x)
        assert mpmath.isfinite(tail) and 0 < tail <= 1e-35 * abs(val)
        assert abs(val - euler) <= tail + euler_tail
        ratio, ratio_tail = qpoch_inf_ratio(c, [-x], [-x * c.q])
        assert mpmath.isfinite(ratio_tail) and ratio_tail > 0
        assert abs(ratio - (1 + x)) <= ratio_tail


def _q_negative_power_scan(ctx, a):
    """The reference: walk q**0, q**-1, ... up to q**-4096 until a is met
    or passed (exact contexts only)."""
    if not ctx.is_exact:
        return None
    try:
        av = as_fraction(a)
    except (ValueError, TypeError):
        return None
    if av <= 0:
        return None
    x = F(1)
    for n in range(4097):
        if x == av:
            return n
        x = x / ctx.q_fraction
        if x > av and n > 0 and x > av / ctx.q_fraction:
            return None
    return None


@pytest.mark.parametrize("q", [F(1, 2), F(2, 5), F(9, 25)])
def test_q_negative_power_test_matches_scan(q):
    ectx = QContext(q)
    cands = [ectx.qpow(-N) * f for N in range(61) for f in (1, 1 + F(1, 7), 1 - F(1, 7))]
    cands += [1, F(1), 0, F(-1), -ectx.qpow(-3), GR(ectx.qpow(-2)), GR(ectx.qpow(-2), 1),
              GR(0, 1), ectx.q, 1 / (1 - ectx.q)]
    for a in cands:
        assert qkernel._is_q_negative_power(ectx, a) == _q_negative_power_scan(ectx, a), a
    assert [qkernel._is_q_negative_power(ectx, ectx.qpow(-N)) for N in range(61)] == list(range(61))
    fctx_ = QContext(q, backend="float")
    for a in (1, fctx_.qpow(-3), fctx_.q):
        assert qkernel._is_q_negative_power(fctx_, a) is None


def test_phi_series_trivial(fctx):
    val, tail = phi_series(fctx, [fctx.scalar(F(1, 3))], [fctx.scalar(F(1, 5))], fctx.zero())
    assert val == 1 and tail == 0
    # terminating at order 0: numerator q^0 = 1
    ctx = QContext(F(1, 2))
    val, tail = phi_series(ctx, [1, F(1, 3)], [F(1, 5)], F(1, 7))
    assert val == 1 and tail == 0


def test_phi_series_q_gauss(fctx):
    # 2phi1(a, b; c; q, c/(ab)) == (c/a, c/b;q)inf / (c, c/ab;q)inf
    with fctx.workprec():
        a, b, c = fctx.scalar(F(1, 3)), fctx.scalar(F(1, 4)), fctx.scalar(F(1, 16))
        lhs, _ = phi_series(fctx, [a, b], [c], c / (a * b))
        rhs = (qpoch_inf(fctx, c / a)[0] * qpoch_inf(fctx, c / b)[0]
               / (qpoch_inf(fctx, c)[0] * qpoch_inf(fctx, c / (a * b))[0]))
        assert abs(lhs - rhs) < 1e-30


def test_phi_series_pole_raises(ctx):
    with pytest.raises(PoleError):
        val, tail = phi_series(ctx, [F(1, 3)], [ctx.qpow(-2)], F(1, 5))


def _series_ctx(bits, tail_tol, max_terms):
    return QContext(F(1, 2), sqrt_q="auto", backend="float", precision_bits=bits,
                    default_trunc=TruncationPolicy(max_terms=max_terms, tail_tol=tail_tol))


def _q_gauss(c):  # 2phi1(a, b; c; q, c/(ab)) at a, b, c = 1/3, 1/4, 1/16
    a, b, cc = (c.scalar(F(1, k)) for k in (3, 4, 16))
    return phi_series(c, [a, b], [cc], cc / (a * b))


def _q_gauss_closed(c):  # (c/a, c/b;q)inf / (c, c/(ab);q)inf
    a, b, cc = (c.scalar(F(1, k)) for k in (3, 4, 16))
    return qpoch_inf_ratio(c, [cc / a, cc / b], [cc, cc / (a * b)])


def _bessel_0phi1(c):  # COR20-I2's sum: 0phi1(-; qnu q; q, q qnu b), qnu = -cd/(q^2 b)
    b, cc, d = (c.scalar(F(1, k)) for k in (3, 8, 10))
    qnu = -cc * d / (c.q * c.q * b)
    return phi_series(c, [], [qnu * c.q], c.q * qnu * b)


def _h_gf_ab_2phi2(c):  # H-GF-AB's sum: 2phi2(a/u, b/v; a z1, b z2; q, uv)
    a, b, u, v = (c.scalar(F(1, k)) for k in (5, 6, 7, 8))
    z1, z2 = c.scalar(complex(1.5, 0.5)), c.scalar(complex(1.5, -0.5))
    return phi_series(c, [a / u, b / v], [a * z1, b * z2], u * v)


SERIES_CASES = {
    "q-Gauss": (_q_gauss, _q_gauss_closed),
    "A_q real": (lambda c: aq_function(c, 3),) * 2,
    "A_q complex": (lambda c: aq_function(c, complex(1.5, 0.5)),) * 2,
    "Bessel 0phi1": (_bessel_0phi1,) * 2,
    "H-GF-AB 2phi2": (_h_gf_ab_2phi2,) * 2,
}


@pytest.mark.parametrize("tail_tol", [1e-34, 1e-20])
@pytest.mark.parametrize("case", sorted(SERIES_CASES))
def test_phi_series_tail_bounds_error(case, tail_tol):
    # the reported tail bounds the distance to a closed form, or else to the
    # same series at twice the precision and tail_tol 1e-60
    series, reference = SERIES_CASES[case]
    c = _series_ctx(160, tail_tol, 400)
    ref_ctx = _series_ctx(320, 1e-60, 2000)
    with c.workprec():
        val, tail = series(c)
    with ref_ctx.workprec():
        ref, _ = reference(ref_ctx)
        err = abs(val - ref)
    assert 0 < tail <= 10 * tail_tol
    assert err <= tail, (err, tail)


def test_phi_series_outside_disc_raises(fctx):
    # a non-terminating 2phi1 converges only for |z| < 1
    with pytest.raises(DivergenceError):
        phi_series(fctx, [F(1, 3), F(1, 4)], [F(1, 5)], 2)


def test_aq_trivial(fctx):
    val, tail = aq_function(fctx, 0)
    assert val == 1


def test_theta4_trivial_and_symmetry(fctx):
    w = fctx.scalar(F(5, 7))
    val, _ = theta4(fctx, w, fctx.scalar(1e-40))
    assert abs(val - 1) < 1e-30
    p = fctx.scalar(F(1, 3))
    v1, _ = theta4(fctx, w, p)
    v2, _ = theta4(fctx, F(7, 5), p)
    assert abs(v1 - v2) < 1e-35


def test_theta4_rejects_large_nome(fctx):
    with pytest.raises(ValueError):
        theta4(fctx, fctx.scalar(2), fctx.scalar(2))


def test_schur_small_values(ctx):
    q = ctx.q
    # finite sums under the Gaussian-binomial zero convention, with a_0 pinned
    assert schur_a(ctx, 0) == 1 and schur_b(ctx, 0) == 0
    assert schur_a(ctx, 1) == 0 and schur_b(ctx, 1) == 1
    assert schur_a(ctx, 2) == 1 and schur_b(ctx, 2) == 1
    assert schur_a(ctx, 3) == 1 and schur_b(ctx, 3) == 1 + q
    assert schur_a(ctx, 4) == 1 + q**2


def test_schur_gis_calibration(fctx):
    """The generalized Rogers-Ramanujan identity pins the m = 0 convention:
    a_0 = 1, b_0 = 0 (the bare zero-convention sum would give a_0 = 0).
    Verified here for m = 0..8."""
    q = fctx.q
    tr = fctx.default_trunc
    exact = QContext(F(1, 2))
    wp = fctx.workprec()
    wp.__enter__()

    def poch5(e):
        out = fctx.one()
        k = 0
        while fctx.mag(fctx.qpow(e + 5 * k)) > 1e-42:
            out *= 1 - fctx.qpow(e + 5 * k)
            k += 1
        return out

    d1, d2 = poch5(1) * poch5(4), poch5(2) * poch5(3)
    for m in range(9):
        lhs = mpmath.nsum(lambda n: fctx.qpow(int(n) ** 2 + m * int(n)) / fctx.qq(int(n)),
                          [0, mpmath.inf])
        am = fctx.scalar(schur_a(exact, m))
        bm = fctx.scalar(schur_b(exact, m))
        rhs = (-1) ** m * fctx.qpow(-(m * (m - 1) // 2)) * (am / d1 - bm / d2)
        assert abs(lhs - rhs) < 1e-32, m
    wp.__exit__(None, None, None)


def test_bessel_i2_value(fctx):
    # q^nu = q (nu = 1): compare against the defining series of I_1^(2)
    q = fctx.q
    y = fctx.scalar(F(1, 5))
    val, tail = bessel_i2_series(fctx, q, y)
    with fctx.workprec():
        direct = fctx.zero()
        for n in range(60):
            direct += (fctx.qpow(n * (n + 1)) * y**n
                       / (fctx.qq(n) * qpoch(fctx, q * q, n)))
        direct *= qpoch_inf(fctx, q * q)[0] / qpoch_inf(fctx, q)[0]
        assert abs(val - direct) < 1e-30


def test_qpoch_inf_ratio_carries_factor_tails(fctx, monkeypatch):
    a, b, c = (fctx.scalar(F(1, k)) for k in (3, 5, 7))
    with fctx.workprec():
        (va, ta), (vb, tb), (vc, tc) = (qpoch_inf(fctx, x) for x in (a, b, c))
        calls = []
        monkeypatch.setattr(qkernel, "qpoch_inf",
                            lambda ctx, x: calls.append(x) or qpoch_inf(ctx, x))
        val, tail = qpoch_inf_ratio(fctx, [a, a], [b, c])
        assert calls == [a, b, c]  # the squared factor is computed once
        assert val == va * va / (vb * vc)
        # relative tails near 1e-40 survive: prod(1+e)/prod(1-e) - 1 in
        # doubles would round to 0
        rel = 2 * ta / fctx.mag(va) + tb / fctx.mag(vb) + tc / fctx.mag(vc)
        assert 0 < rel < 1e-38
        assert tail >= fctx.mag(val) * rel
        assert tail <= fctx.mag(val) * rel * (1 + 1e-12)
        # a vanishing numerator factor is exact; a vanishing denominator raises
        assert qpoch_inf_ratio(fctx, [fctx.one(), b], [c]) == (0, 0.0)
        with pytest.raises(PoleError):
            qpoch_inf_ratio(fctx, [b], [fctx.one()])


@pytest.mark.parametrize("as_den", [False, True], ids=["nums", "dens"])
def test_qpoch_inf_ratio_reads_a_conjugate_pair_off_one_series(fctx, monkeypatch, as_den):
    # q is real, so (conj a;q)_inf = conj((a;q)_inf): the pair takes one
    # Euler series, and matches the two-series value within its tail
    with fctx.workprec():
        a = fctx.scalar(GR(F(3, 10), F(2, 5)))
        va, vc = qpoch_inf(fctx, a)[0], qpoch_inf(fctx, mpmath.conj(a))[0]
        calls = []
        monkeypatch.setattr(qkernel, "qpoch_inf",
                            lambda ctx, x: calls.append(x) or qpoch_inf(ctx, x))
        pair = [a, mpmath.conj(a)]
        val, tail = qpoch_inf_ratio(fctx, (), pair) if as_den else qpoch_inf_ratio(fctx, pair)
        assert calls == [a]
        two = 1 / (va * vc) if as_den else va * vc
        assert 0 < tail and fctx.mag(val - two) <= tail


def test_euler_identities_truncated(fctx):
    # sum z^n/(q;q)_n == 1/(z;q)inf and sum (-z)^n q^C(n,2)/(q;q)_n == (z;q)inf
    with fctx.workprec():
        z = fctx.scalar(F(2, 7))
        s1 = fctx.zero()
        s2 = fctx.zero()
        for n in range(200):
            s1 += z**n / fctx.qq(n)
            s2 += (-z) ** n * fctx.qpow(n * (n - 1) // 2) / fctx.qq(n)
        v, tail = qpoch_inf(fctx, z)
        assert abs(s1 - 1 / v) <= 1e-38 + tail
        assert abs(s2 - v) <= 1e-38 + tail
