import math
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mp

from q2dpoly import measures
from q2dpoly.context import GaussianRational as GR
from q2dpoly.context import QContext, TruncationPolicy
from q2dpoly.measures import (_leading_minors_exact,
                              _minor_pivoted, angular_quadrature_check,
                              gram_matrix, gram_positivity,
                              h_radial_moments_batch, inner_product, moment,
                              ortho_table, orthonormal_seq_check, qbeta_check)
from q2dpoly.polyfamilies import BivarPoly, coeffs, eval_poly
from q2dpoly.qkernel import QPochPrefix, qpoch_inf, qpoch_inf_ratio

TR = TruncationPolicy(max_terms=400, tail_tol=1e-36)


@pytest.fixture(scope="module")
def fctx():
    return QContext(F(1, 4), sqrt_q="auto", backend="float", precision_bits=160,
                    default_trunc=TR)


@pytest.fixture(scope="module")
def fctx2():
    return QContext(F(1, 2), sqrt_q="auto", backend="float", precision_bits=160,
                    default_trunc=TR)


def test_discrete_moments(fctx):
    val, tail = moment(fctx, "Hq", 1, 1)
    assert abs(val - fctx.qq(1)) < 1e-20 + tail
    off, _ = moment(fctx, "Hq", 2, 1)
    assert off == 0
    # indices up to 6: (q;q)_n
    for n in range(7):
        v, t = moment(fctx, "Hq", n, n)
        assert abs(v - fctx.qq(n)) / abs(fctx.qq(n)) < 1e-10


def test_h_moments_match_closed_form(fctx2):
    # int x^j/(-x;q)inf dx == (q;q)_j log(1/q) q^{-j(j+1)/2}
    with fctx2.workprec():
        for j in range(7):
            val, err = h_radial_moments_batch(fctx2, j)[j]
            closed = fctx2.qq(j) * mpmath.log(2) / fctx2.qpow(j * (j + 1) // 2)
            assert abs(val - closed) / abs(closed) < 1e-10, j
    v0, _ = moment(fctx2, "hq", 0, 0)
    with fctx2.workprec():
        assert abs(v0 - mpmath.log(2)) < 1e-12


def _per_node_moments(ctx, nmax):
    """Reference: the step/2 = 1/16 trapezoid sums on x = q^{-i/16}, |i| <= 16*56,
    with (-x;q)_inf taken afresh at every node."""
    n = 16 * 56
    with ctx.workprec(40):
        hu = -mpmath.log(ctx.q) / 16
        sums = [mp.mpf(0)] * (nmax + 1)
        for i in range(-n, n + 1):
            xv = mpmath.exp(i * hu)
            w = xv / qpoch_inf(ctx, -xv)[0]
            for j in range(nmax + 1):
                sums[j] += w
                w = w * xv
        return [s * hu for s in sums]


@pytest.mark.parametrize("q", [F(1, 2), F(1, 4), F(2, 3), F(1, 10)])
def test_h_moment_chain_matches_per_node_products(q):
    ctx = QContext(q, backend="float", precision_bits=160, default_trunc=TR)
    got = h_radial_moments_batch(ctx, 6)
    ref = _per_node_moments(ctx, 6)
    with ctx.workprec(40):
        for j in range(7):
            assert abs(got[j][0] - ref[j]) <= 4 * TR.tail_tol * ref[j], j


@pytest.mark.parametrize("q, js", [
    (F(1, 2), list(range(7)) + [40, 42, 44]),  # the top cut dominates at j >= 40
    (F(1, 4), list(range(7))),
])
def test_h_moment_error_bounds_true_error(q, js):
    # the quadrature against the library's closed-form table, which carries
    # the angular pi: pi times the quadrature is within pi err plus the
    # table's tail of it
    ctx = QContext(q, backend="float", precision_bits=160, default_trunc=TR)
    moms = h_radial_moments_batch(ctx, max(js))
    table = measures._radial_moments(ctx, "hq", max(js))
    with ctx.workprec(40):
        for j in js:
            closed, closed_tail = table[j]
            val, err = moms[j]
            assert abs(mp.pi * val - closed) <= mp.pi * err + closed_tail, j


def test_h_moments_match_adaptive_quadrature():
    # at q = 9/10 the trapezoid reference is off (its fixed window cuts the
    # integrand), so mpmath's adaptive quadrature checks the closed form
    q = F(9, 10)
    ctx = QContext(q, backend="float", precision_bits=128)
    table = measures._radial_moments(ctx, "hq", 2)
    qm = mp.mpf(q.numerator) / q.denominator
    for h, (val, _) in enumerate(table):
        ref = mp.pi * mpmath.quad(lambda x: x**h / mpmath.qp(-x, qm),
                                  [0, 1, 10, 100, 1000, mpmath.inf])
        assert abs(val - ref) <= 1e-13 * ref, h


def test_h_moment_cache_keyed_by_truncation_policy(monkeypatch):
    monkeypatch.setattr(measures, "_H_MOMENT_CACHE", {})
    loose = QContext(F(1, 2), backend="float", precision_bits=160,
                     default_trunc=TruncationPolicy(400, 1e-8))
    tight = QContext(F(1, 2), backend="float", precision_bits=160, default_trunc=TR)
    measures._radial_moments(loose, "hq", 0)
    got = measures._radial_moments(tight, "hq", 0)[0]
    measures._H_MOMENT_CACHE.clear()
    assert got == measures._radial_moments(tight, "hq", 0)[0]
    with tight.workprec():
        assert abs(got[0] - mp.pi * mpmath.log(2)) <= got[1]


def test_inner_product_restores_precision_on_error(fctx):
    prec = mp.prec
    with pytest.raises(ValueError) as kept:
        inner_product(fctx, "Hx", (0, 0), (0, 0))
    # kept holds the traceback, so a suspended workprec frame would still be alive
    assert mp.prec == prec, kept.value


def test_H_inner_products(fctx):
    r = inner_product(fctx, "Hq", (1, 0), (0, 1))
    assert fctx.mag(r.value) < 1e-14  # angular selection
    r = inner_product(fctx, "Hq", (1, 1), (1, 1))
    assert r.rel_error < 1e-12
    # closed form q^{mn}(q;q)_m(q;q)_n/(q;q)inf at (1,1)
    with fctx.workprec():
        expected = fctx.qpow(1) * fctx.qq(1) ** 2 / mpmath.qp(fctx.q, fctx.q)
        assert abs(r.value - expected) < 1e-12


def test_p_inner_products(fctx):
    r = inner_product(fctx, "pq", (2, 1), (2, 1), b=F(1, 4))
    assert r.rel_error < 1e-12
    r0 = inner_product(fctx, "pq", (2, 1), (2, 1), b=0)
    rH = inner_product(fctx, "Hq", (2, 1), (2, 1))
    assert fctx.mag(r0.value - rH.value) < 1e-13


def test_h_inner_products(fctx2):
    r = inner_product(fctx2, "hq", (2, 1), (2, 1))
    assert r.rel_error < 1e-10
    off = inner_product(fctx2, "hq", (2, 1), (1, 2))
    assert fctx2.mag(off.value) < 1e-10


def test_qbeta_trivial_and_generic(fctx2):
    rep = qbeta_check(fctx2, "H_beta", {"u1": 0, "u2": 0, "v1": 0, "v2": 0, "cap": 2})
    assert rep.passed
    rep = qbeta_check(fctx2, "H_beta", {"cap": 22})
    assert rep.passed, rep.residual
    rep = qbeta_check(fctx2, "h_beta", {"cap": 16, "tol": 1e-10})
    assert rep.passed, rep.residual


def test_qbeta_h_beta_default_parameters(fctx2):
    # the default cap 26 reads moments up to j = 52, past where the
    # quadrature's error bound is finite; the closed-form moments carry no tail
    rep = qbeta_check(fctx2, "h_beta", {})
    assert rep.passed and math.isfinite(rep.tail_bound), (rep.residual, rep.tail_bound)
    assert float(rep.residual) <= 1e-30, rep.residual


def test_qbeta_H_beta_summed_at_context_precision(fctx2):
    # the Euler sum and the closed form at 160 bits, not at the process's
    # 53: the residual sits far below double rounding
    rep = qbeta_check(fctx2, "H_beta", {"cap": 16})
    assert rep.passed and float(rep.residual) <= 1e-20, rep.residual


def test_truncation_doubling_decreases_residual(fctx2):
    # convergence monotonicity: doubling the multisum caps shrinks the residual
    r1 = qbeta_check(fctx2, "H_beta", {"cap": 8})
    r2 = qbeta_check(fctx2, "H_beta", {"cap": 16})
    assert float(r2.residual) < float(r1.residual)


def test_angular_askey_roy(fctx2):
    rep = angular_quadrature_check(fctx2, "AskeyRoy", {}, M=48)
    assert rep.passed, rep.residual
    # a = b = 0 specialization still matches
    rep0 = angular_quadrature_check(fctx2, "AskeyRoy", {"a": 0, "b": 0}, M=48)
    assert rep0.passed


def test_angular_askey_roy_doubling(fctx2):
    r1 = angular_quadrature_check(fctx2, "AskeyRoy", {}, M=12)
    r2 = angular_quadrature_check(fctx2, "AskeyRoy", {}, M=24)
    assert float(r2.extra["doubling_decrease"]) <= float(r1.extra["doubling_decrease"]) * 1.01


def test_angular_askey_wilson(fctx2):
    rep = angular_quadrature_check(fctx2, "AskeyWilsonOrtho", {"p": 2, "s": 2}, M=48)
    assert rep.passed, rep.residual
    rep = angular_quadrature_check(fctx2, "AskeyWilsonOrtho", {"p": 3, "s": 2}, M=48)
    assert rep.passed and float(rep.residual) < 1e-10


def test_angular_nodes_evaluated_once(fctx2, monkeypatch):
    # the M-point trapezoid reads the even nodes of the 2M-point one: at
    # M = 16 AskeyRoy takes 32 node products and one closed form
    calls = []

    def counting(*args, **kw):
        calls.append(args)
        return qpoch_inf_ratio(*args, **kw)

    monkeypatch.setattr(measures, "qpoch_inf_ratio", counting)
    assert angular_quadrature_check(fctx2, "AskeyRoy", {}, M=16).passed
    assert len(calls) == 33


def test_angular_checks_at_context_precision(fctx2):
    # the trapezoid sums and closed forms at 160 bits, not at the process's
    # 53: both residuals sit far below double rounding
    for kind, params in (("AskeyRoy", {}), ("AskeyWilsonOrtho", {"p": 2, "s": 2})):
        rep = angular_quadrature_check(fctx2, kind, params)
        assert rep.passed and float(rep.residual) <= 1e-30, (kind, rep.residual)


def test_angular_rejects_unit_circle(fctx2):
    with pytest.raises(ValueError):
        angular_quadrature_check(fctx2, "AskeyRoy", {"a": 1}, M=8)


def test_gram_positivity_trivial_and_small():
    ctx = QContext(F(1, 2))
    rep = gram_positivity(ctx, "doH", 0, 1)
    assert rep.passed and rep.extra["minors"] == "1"
    for kind in ("doH", "doh"):
        rep = gram_positivity(ctx, kind, 2, 1)
        assert rep.passed


def _gram_from_explicit_sums(ctx, kind, N, z):
    """The Gram matrix from the explicit sums: coeffs, dilated by i in both
    variables, evaluated at (z, zbar), times i^{-(m+n)} (and q^{-mn} for doh)."""
    z = ctx.scalar(z)
    zb = z.conjugate() if isinstance(z, GR) else z
    i = ctx.i_unit()
    fam = "Hq" if kind == "doH" else "hq"
    G = []
    for m in range(N + 1):
        row = []
        for n in range(N + 1):
            val = eval_poly(coeffs(ctx, fam, m, n).dilate(i, i), z, zb) * i ** (-(m + n))
            if kind == "doh":
                val = val * ctx.qpow(-m * n)
            row.append(val)
        G.append(row)
    return G


def test_gram_matrix_matches_explicit_sums():
    for q in (F(2, 5), F(1, 2), F(5, 7)):
        ctx = QContext(q)
        for z in (1, GR(1, 1), 2, F(3, 2), GR(F(1, 2), 1)):
            for kind in ("doH", "doh"):
                got = gram_matrix(ctx, kind, 8, z)
                ref = _gram_from_explicit_sums(ctx, kind, 8, z)
                for m in range(9):
                    for n in range(9):
                        a, b = got[m][n], ref[m][n]
                        assert type(a) is type(b) and a == b, (q, z, kind, m, n)


def test_gram_matrix_reads_the_recurrence_table(monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("gram_matrix must not expand the explicit sums")

    monkeypatch.setattr(measures, "coeffs", banned)
    monkeypatch.setattr(measures, "eval_poly", banned)
    monkeypatch.setattr(BivarPoly, "dilate", banned)
    ctx = QContext(F(1, 2))
    for kind in ("doH", "doh"):
        assert len(gram_matrix(ctx, kind, 4, GR(1, 1))) == 5


@pytest.mark.parametrize("G, minors", [
    # the 2x2 block is singular, the 3x3 one is not
    ([[1, 1, 0], [1, 1, 1], [0, 1, 0]], [1, 0, -1]),
    # complex Hermitian: zero pivot at column 1, then two more sizes
    ([[1, GR(0, 1), 0, 2], [GR(0, -1), 1, 1, 0], [0, 1, 3, GR(1, 1)],
      [2, 0, GR(1, -1), 5]], [1, 0, -1, -9]),
])
def test_minors_after_zero_pivot_match_pivoted(G, minors):
    G = [[GR(x) if not isinstance(x, GR) else x for x in row] for row in G]
    pivoted = [_minor_pivoted(G, r) for r in range(1, len(G) + 1)]
    got = _leading_minors_exact(G)
    assert got == pivoted == minors
    assert all(type(x) is F for x in got)


def test_gram_rejects_zero_point():
    ctx = QContext(F(1, 2))
    with pytest.raises(ValueError):
        gram_positivity(ctx, "doH", 2, 0)


def test_orthonormal_seq_exact_and_numeric(fctx2):
    ctx = QContext(F(9, 25), sqrt_q=F(3, 5))
    for kind in ("do7", "do8"):
        for (j, k) in ((0, 0), (1, 2), (3, 3)):
            rep = orthonormal_seq_check(ctx, kind, j, k, F(3, 2))
            assert rep.passed, (kind, j, k, rep.residual)
    rep = orthonormal_seq_check(fctx2, "do8", 2, 2, 1.5)
    assert rep.passed


def test_orthonormal_seq_tiny_exact_residual_fails(monkeypatch):
    # 1/10**400 is 0.0 as a float; the exact check must still fail on it
    e_seq = measures._e_seq
    monkeypatch.setattr(measures, "_e_seq",
                        lambda ctx, j, l: e_seq(ctx, j, l) + F(1, 10**400))
    rep = orthonormal_seq_check(QContext(F(1, 2)), "do7", 2, 2, F(3, 2))
    assert not rep.passed
    assert rep.residual != "0" and F(rep.residual) != 0


@pytest.mark.parametrize("kind", ["do7", "do8"])
@pytest.mark.parametrize("j", [46, 60])
def test_orthonormal_seq_printed_form_at_large_j(fctx2, kind, j):
    # the printed form is taken at the context's precision: at j = 46 the
    # double q**(j(j+1)/2) it once divided by is 0.0.  do8 needs q**(1/2),
    # which is rational at q = 1/4, not at 1/2
    exact = QContext(F(1, 2)) if kind == "do7" else QContext(F(1, 4), sqrt_q=F(1, 2))
    for ctx in (fctx2, exact):
        rep = orthonormal_seq_check(ctx, kind, j, j, F(3, 2))
        printed = rep.extra["printed_form_residual"]
        assert rep.passed, (ctx, rep.residual)
        assert mpmath.isfinite(printed) and printed > 0, (ctx, printed)


@pytest.mark.parametrize("kind, j, backend, value", [
    ("do7", 2, "float", 0.3737168477392268),
    ("do7", 2, "exact", 0.3737168477392268),
    ("do8", 4, "float", 0.029559715939961335),
])
def test_orthonormal_seq_printed_form_residual_pinned(fctx2, kind, j, backend, value):
    # the values of the double-precision printed forms these replace
    ctx = fctx2 if backend == "float" else QContext(F(1, 2))
    rep = orthonormal_seq_check(ctx, kind, j, j, F(3, 2))
    assert rep.passed
    assert abs(rep.extra["printed_form_residual"] - value) <= 1e-12 * value


def test_gram_and_ortho_table_refuse_a_negative_size(fctx):
    with pytest.raises(ValueError):
        gram_positivity(QContext(F(1, 2)), "doH", -1, 1)
    with pytest.raises(ValueError):
        ortho_table(fctx, "Hq", -1)


DISCRETE_MEASURES = [("Hq", None)] + [("pq", F(b)) for b in ("1/4", "0", "-1/2", "-3", "-10")]


@pytest.mark.parametrize("h", range(9))
def test_discrete_moment_matches_cut_sum(h):
    # the closed form (q;q)_h/(bq;q)_{h+1} (bq;q)_inf/(q;q)_inf (b = 0: Hq)
    # against the q-binomial series it sums, sum_{k <= 400} w_k q^{kh} with
    # w_k = q^k (bq;q)_k/(q;q)_k.  Past k = 400 the terms fall below
    # q^{401} (-|b|q;q)_inf/(q;q)_inf, which is below 1e-100 here, so the
    # slack 1e-44 |ref| covers the cut sum's rounding at 160 bits
    for q in (F(1, 4), F(1, 2)):
        ctx = QContext(q, backend="float", precision_bits=160,
                       default_trunc=TruncationPolicy(400, 1e-40))
        for kind, b in DISCRETE_MEASURES:
            val, tail = measures._radial_moments(ctx, kind, h, b=b)[h]
            with ctx.workprec():
                pre = QPochPrefix(ctx, 0 if b is None else ctx.scalar(b) * ctx.q)
                ref = mpmath.fsum(ctx.qpow(k) * pre(k) / ctx.qq(k) * ctx.qpow(k * h)
                                  for k in range(401))
                assert abs(val - ref) <= tail + 1e-44 * abs(ref), (q, kind, b)
                assert tail <= 1e-39 * abs(ref), (q, kind, b)


@pytest.mark.parametrize("q", [F(1, 4), F(1, 2)])
def test_discrete_moments_within_tail_of_closed_forms(q):
    # each moment r_h F is within its tail |r_h| t_F of the closed form
    # evaluated by mpmath's products at 320 bits; at tail_tol 1e-20 F's cut,
    # not rounding, decides, and the tail must cover it
    ctx = QContext(q, backend="float", precision_bits=160,
                   default_trunc=TruncationPolicy(400, 1e-20))
    for kind, b in DISCRETE_MEASURES:
        table = measures._radial_moments(ctx, kind, 8, b=b)
        with mp.workprec(320):
            qm = mp.mpf(q.numerator) / q.denominator
            bq = 0 if b is None else b * qm
            errs = []
            for h, (val, tail) in enumerate(table):
                closed = (mpmath.qp(qm, qm, h) / mpmath.qp(bq, qm, h + 1)
                          * mpmath.qp(bq, qm) / mpmath.qp(qm, qm))
                errs.append(abs(val - closed))
                assert errs[h] <= tail, (kind, b, h)
        assert errs[0] >= 1e-30 * abs(table[0][0]), (kind, b)  # the cut, not rounding


@pytest.mark.parametrize("q", [F(1, 4), F(2, 5), F(3, 4)])
def test_ortho_table_is_an_exact_zero_test(q):
    # on the exact backend value - closed form is (S - N) F, S and N rational
    # and F the one factor of the moments (pi log(1/q) as a Fraction for hq):
    # exactly 0 at every index pair
    ctx = QContext(q)
    for kind, b in [("Hq", None), ("pq", F(1, 4)), ("pq", 0), ("pq", F(-1, 2)), ("hq", None)]:
        table, worst_diag, worst_off = ortho_table(ctx, kind, 4, b)
        assert worst_diag == worst_off == 0.0, (kind, b)
        for (m, n, s, t), r in table.items():
            if (m, n) == (s, t):
                assert r.rel_error == 0.0 and r.value == r.closed_form, (kind, b, m, n)
            else:
                assert type(r.value) is F and r.value == 0, (kind, b, m, n, s, t)


@pytest.mark.parametrize("q", [F(2, 3), F(3, 4), F(9, 10)])
def test_h_ortho_float_audit_as_q_rises(q):
    # the hq audit on the float backend at the CLI's defaults: the closed-form
    # moments share pi log(1/q) with the norms, so only the sums' rounding
    # (near 1e-44 at 144 bits) is left; a moment quadrature on a fixed window
    # is off by 3e-10 at q = 2/3 and by 8e-3 at q = 9/10
    ctx = QContext(q, backend="float", precision_bits=128)
    _, worst_diag, worst_off = ortho_table(ctx, "hq", 2)
    assert worst_diag <= 1e-38 and worst_off <= 1e-38, (worst_diag, worst_off)


def test_inner_product_K_is_deprecated(fctx):
    # the moment cut is gone; the keyword still parses, warns and changes nothing
    with pytest.warns(DeprecationWarning, match="K has no effect"):
        r = inner_product(fctx, "Hq", (2, 1), (2, 1), K=80)
    assert r == inner_product(fctx, "Hq", (2, 1), (2, 1))


@pytest.mark.parametrize("tail_tol", [1e-36, 1e-40, 1e-46])
def test_ortho_diagonal_error_within_tail(tail_tol):
    # the closed form's (q;q)_inf cut enters the tail: at tail_tol 1e-36 the
    # diagonal error is about 2.5e-37, where the moments' K-cut is near 1e-49.
    # The tail bounds truncation, not rounding, and the diagonal values cancel
    # by about 1e15 (4.8e-53 at (5, 5) and 160 bits), so the cuts are taken at
    # 320 bits, where rounding is far below them
    ctx = QContext(F(1, 4), backend="float", precision_bits=320,
                   default_trunc=TruncationPolicy(500, tail_tol))
    table, _, _ = ortho_table(ctx, "Hq", 5)
    with ctx.workprec():
        for (m, n, s, t), r in table.items():
            if (m, n) == (s, t):
                assert abs(r.value - r.closed_form) <= r.tail_bound, (m, n, tail_tol)


@pytest.mark.parametrize("b", [-3, -10])
def test_p_moment_tail_bounds_truncation_error_for_negative_b(fctx, b):
    # outside 0 <= b <= 2/q the factors |1 - b q^{j+1}| exceed 1; the cut of
    # (bq;q)_inf in F must still enter the tail: a moment at tail_tol 1e-12
    # is within its tail of the one at 1e-36
    loose = QContext(F(1, 4), sqrt_q="auto", backend="float", precision_bits=160,
                     default_trunc=TruncationPolicy(400, 1e-12))
    for h in range(3):
        val, tail = moment(loose, "pq", h, h, b=F(b))
        ref, _ = moment(fctx, "pq", h, h, b=F(b))
        with fctx.workprec():
            assert abs(val - ref) <= tail, (b, h)


@pytest.mark.parametrize("q", [F(1, 2), F(1, 4), F(3, 4), F(9, 10)])
def test_h_discrete_moment_tail_bounds_error(q):
    # the normalized (n, n) moment is (q;q)_n; its tail must cover the tail
    # of (q;q)_inf times the raw moment, which exceeds 1 and grows as q -> 1
    for tail_tol in (1e-12, 1e-20, 1e-34):
        ctx = QContext(q, backend="float", precision_bits=160,
                       default_trunc=TruncationPolicy(500, tail_tol))
        for n in range(8):
            val, tail = moment(ctx, "Hq", n, n)
            with ctx.workprec():
                assert abs(val - ctx.qq(n)) <= tail, (tail_tol, n)


def test_moment_tables_shared_across_callers(monkeypatch, fctx):
    # one memo entry per measure: the Hq factor F, read by every moment
    # table and by the norms
    monkeypatch.setattr(measures, "_H_MOMENT_CACHE", {})
    long = measures._radial_moments(fctx, "Hq", 6)
    assert len(measures._H_MOMENT_CACHE) == 1
    assert measures._radial_moments(fctx, "Hq", 3) == long[:4]
    inner_product(fctx, "Hq", (2, 1), (2, 1))
    assert len(measures._H_MOMENT_CACHE) == 1


def test_pq_factor_formed_at_working_precision(monkeypatch):
    # b q = 2/15 is not dyadic: formed at the caller's 53 bits it would put a
    # 1e-17 relative error into F, far past the 1e-36 tail, and into every
    # inner product that later reads F from the memo.  The moment, from an
    # empty memo and at the default mp.prec, is within its tail of mpmath's
    # closed form at 320 bits, and an inner product after it is bitwise the
    # one on a fresh memo
    monkeypatch.setattr(measures, "_H_MOMENT_CACHE", {})
    q, b = F(2, 5), F(1, 3)
    ctx = QContext(q, backend="float", precision_bits=160, default_trunc=TR)
    assert mp.prec == 53
    val, tail = moment(ctx, "pq", 2, 2, b=b)
    assert 0 < tail < 1e-30
    with mp.workprec(320):
        qm, bq = mp.mpf(2) / 5, mp.mpf(2) / 15
        closed = mpmath.qp(qm, qm, 2) / mpmath.qp(bq, qm, 3) * mpmath.qp(bq, qm)
        assert abs(val - closed) <= tail
    after = inner_product(ctx, "pq", (2, 1), (2, 1), b=b)
    measures._H_MOMENT_CACHE.clear()
    assert inner_product(ctx, "pq", (2, 1), (2, 1), b=b) == after
