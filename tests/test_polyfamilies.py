import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from q2dpoly.context import GaussianRational as GR
from q2dpoly.context import QContext
from q2dpoly.identities import check_identity
from q2dpoly.polyfamilies import (BivarPoly, FamilyTable, coeffs, eval_poly,
                                  little_q_jacobi_coeff_list, poly_to_json,
                                  q_laguerre_coeff_list, radial_reduce)
from q2dpoly.qkernel import aq_function, qbinom, qpoch, qpoch_inf, theta4
from q2dpoly.zeros import asymptotic_report

Z1 = GR(F(3, 2), F(1, 2))
Z2 = GR(F(3, 2), F(-1, 2))
B = F(1, 3)


@pytest.fixture(scope="module")
def ctx():
    return QContext(F(2, 5))


def test_first_family_small(ctx):
    q = ctx.q
    H = coeffs(ctx, "Hq", 1, 1)
    assert H.coeff(1, 1) == 1 and H.coeff(0, 0) == -(1 - q)
    assert coeffs(ctx, "Hq", 0, 0).coeff(0, 0) == 1


def test_second_family_small(ctx):
    q = ctx.q
    h = coeffs(ctx, "hq", 1, 1)
    assert h.coeff(1, 1) == q and h.coeff(0, 0) == -(1 - q)
    hm0 = coeffs(ctx, "hq", 4, 0)
    assert hm0.coeff(4, 0) == 1 and len(hm0.coeffs) == 1


def test_disk_family_small(ctx):
    q = ctx.q
    p = coeffs(ctx, "pq", 1, 1, b=B)
    assert p.coeff(1, 1) == (1 - B * q) * (1 - B * q**2)
    assert p.coeff(0, 0) == -(1 - q) * (1 - B * q)


def test_disk_family_matches_per_term_qpoch():
    # the running (bq;q)_j prefix gives the values of one qpoch per term,
    # bit for bit on the float backend too
    for c in (QContext(F(2, 5)), QContext(F(2, 5), backend="float", precision_bits=160)):
        bb = c.scalar(B)
        for m, n in ((0, 0), (3, 0), (2, 5), (6, 6)):
            ref = {(m - k, n - k): qbinom(c, m, k) * qbinom(c, n, k) * (-1) ** k
                   * c.qpow(k * (k - 1) // 2) * c.qq(k) * qpoch(c, bb * c.q, m + n - k)
                   for k in range(min(m, n) + 1)}
            assert coeffs(c, "pq", m, n, b=B).coeffs == ref


def test_disk_at_b_zero_is_first_family(ctx):
    for m in range(9):
        for n in range(9):
            assert coeffs(ctx, "pq", m, n, b=0) == coeffs(ctx, "Hq", m, n)


def test_eval_examples():
    ctx = QContext(F(1, 2))
    assert eval_poly(coeffs(ctx, "Hq", 1, 1), 1, 1) == F(1, 2)
    assert eval_poly(coeffs(ctx, "hq", 1, 1), 1, 1) == 2 * F(1, 2) - 1
    P = coeffs(ctx, "Hq", 4, 3)
    assert eval_poly(P, 0, 0) == P.coeff(0, 0)


def test_recurrence_oracle_equals_explicit(ctx):
    for fam in ("Hq", "hq"):
        for m in range(9):
            for n in range(9):
                a = FamilyTable(ctx, fam, Z1, Z2)[m, n]
                b = eval_poly(coeffs(ctx, fam, m, n), Z1, Z2)
                assert a == b, (fam, m, n)


def _swap(P):
    return BivarPoly(P.ctx, {(j, i): c for (i, j), c in P.coeffs.items()})


def test_index_symmetry(ctx):
    for fam in ("Hq", "hq"):
        for m in range(9):
            for n in range(9):
                assert _swap(coeffs(ctx, fam, m, n)) == coeffs(ctx, fam, n, m)
    for m in range(9):
        for n in range(9):
            assert _swap(coeffs(ctx, "pq", m, n, b=B)) == coeffs(ctx, "pq", n, m, b=B)


def test_radial_reduce_roundtrip(ctx):
    for fam, b in (("Hq", None), ("hq", None), ("pq", B)):
        for m in range(9):
            for n in range(9):
                rf = radial_reduce(ctx, fam, m, n, b=b)
                assert rf.expand() == coeffs(ctx, fam, m, n, b=b), (fam, m, n)
                assert rf.angular_index == m - n
                assert len(rf.radial_coeffs) == min(m, n) + 1


def test_radial_prefactors_match_reductions(ctx):
    q = ctx.q
    # h_{n,n}: prefactor (-1)^n (q;q)_n with an order-0 q-Laguerre factor
    rf = radial_reduce(ctx, "hq", 3, 3)
    assert rf.prefactor == -ctx.qq(3) * -1 * -1  # (-1)^3 (q;q)_3
    # p_{m,m}: prefactor (-1)^m q^C(m,2) (bq;q)_m (q;q)_m
    rf = radial_reduce(ctx, "pq", 2, 2, b=B)
    assert rf.prefactor == ctx.qpow(1) * qpoch(ctx, B * q, 2) * ctx.qq(2)
    # Hq (1,1): -(q;q)_1 * Wall p_1(x; 1|q)
    rf = radial_reduce(ctx, "Hq", 1, 1)
    assert rf.prefactor == -(1 - q)


def _wall(ctx, a, n, x):
    """Wall p_n(x; a|q), summed from its little q-Jacobi list at b = 0."""
    return sum(c * x**r for r, c in enumerate(little_q_jacobi_coeff_list(ctx, a, 0, n)))


def test_univariate_values(ctx):
    x = F(3, 7)
    assert _wall(ctx, ctx.qpow(2), 0, x) == 1


def test_wall_consistency_with_first_family(ctx):
    # plugging the Wall factor back reproduces values of the first family
    for m in range(2, 6):
        for n in range(m + 1):
            v1 = eval_poly(coeffs(ctx, "Hq", m, n), 2, F(3, 2))
            v2 = ((-1) ** n * ctx.qq(m) * ctx.qpow(n * (n - 1) // 2) / ctx.qq(m - n)
                  * 2 ** (m - n) * _wall(ctx, ctx.qpow(m - n), n, 3))
            assert v1 == v2


def test_degree_and_leading_coefficient_invariants(ctx):
    for m in range(7):
        for n in range(7):
            H = coeffs(ctx, "Hq", m, n)
            h = coeffs(ctx, "hq", m, n)
            p = coeffs(ctx, "pq", m, n, b=B)
            assert max(i for i, _ in H.coeffs) == m and max(j for _, j in H.coeffs) == n
            assert H.coeff(m, n) == 1
            assert h.coeff(m, n) == ctx.qpow(m * n)
            assert p.coeff(m, n) == qpoch(ctx, B * ctx.q, m + n)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_monic_in_z1_z2_property(m, n):
    ctx = QContext(F(1, 3))
    P = coeffs(ctx, "Hq", m, n)
    assert all(i <= m and j <= n for (i, j) in P.coeffs)


def test_scaled_classical_limit():
    # q = 1 - eps: coefficients of H(z1 sqrt(eps), z2 sqrt(eps)|q)/eps^{(m+n)/2}
    # approach the Ito 2D Hermite coefficients monotonically in eps
    ref = coeffs(QContext(F(1, 2)), "H_classical", 3, 3)
    errs = []
    for e in (1, 2, 3):
        eps = F(1, 10**e)
        cq = QContext(1 - eps)
        P = coeffs(cq, "Hq", 3, 3)
        worst = 0.0
        for k in range(4):
            scaled = P.coeff(3 - k, 3 - k) / eps**k
            worst = max(worst, abs(float(scaled - ref.coeff(3 - k, 3 - k))))
        errs.append(worst)
    assert errs[0] > errs[1] > errs[2]


def test_poly_to_json_writes_exact_parts(ctx):
    P = coeffs(ctx, "pq", 3, 2, b=B)
    doc = json.loads(poly_to_json(P))
    assert (doc["family"], doc["m"], doc["n"], doc["params"]) == ("pq", 3, 2, {"b": "1/3"})
    assert doc["coeffs"] == [[i, j, str(P.coeff(i, j)), "0"] for i, j in sorted(P.coeffs)]
    # complex coefficients keep both parts; a real one (here at (0, 0)) reads
    # as a Fraction and writes "0" for its imaginary part
    P = coeffs(ctx, "Hq", 2, 2).dilate(GR(0, 1), 1)
    parts = {k: (c.re, c.im) if isinstance(c, GR) else (c, 0) for k, c in P.coeffs.items()}
    assert not isinstance(P.coeff(0, 0), GR) and isinstance(P.coeff(1, 1), GR)
    doc = json.loads(poly_to_json(P))
    assert doc["coeffs"] == [[i, j, str(F(parts[i, j][0])), str(parts[i, j][1])]
                             for i, j in sorted(P.coeffs)]


def test_real_values_read_as_fractions():
    # i^k i^k = (-1)^k is real, so every coefficient of Hq(2,2)(i z1, i z2)
    # is real: it reads as a Fraction, and no imaginary numerator is stored
    ctx = QContext(F(2, 5))
    P = coeffs(ctx, "Hq", 2, 2).dilate(GR(0, 1), GR(0, 1))
    assert [(k, type(c), c) for k, c in P.coeffs.items()] == [
        ((2, 2), F, 1), ((1, 1), F, F(147, 125)), ((0, 0), F, F(126, 625))]
    assert not P._im and all(type(P.coeff(*k)) is F for k in P.coeffs)
    # likewise a value: Hq(1,1) at (i, i) is -1 - (1 - q)
    v = eval_poly(coeffs(QContext(F(1, 2)), "Hq", 1, 1), GR(0, 1), GR(0, 1))
    assert type(v) is F and v == F(-3, 2)


def _qdiff_by_ring_ops(P, var, e, alpha, beta):
    """The weighted q-difference spelled with ring operations:
    (1 + alpha z1 z2) P - (1 + beta z1 z2) P(q^e z_var), with its monomial
    z_var divided out, times 1/(1 - q^e)."""
    ctx = P.ctx
    i0, j0 = (1, 0) if var == 1 else (0, 1)
    zz = BivarPoly(ctx, {(1, 1): ctx.one()})
    num = (1 + alpha * zz) * P - (1 + beta * zz) * P.dilate_q(e * i0, e * j0)
    assert all(i >= i0 and j >= j0 for i, j in num.coeffs)
    out = BivarPoly(ctx, {(i - i0, j - j0): c for (i, j), c in num.coeffs.items()})
    return out * (1 / (1 - ctx.qpow(e)))


def _random_poly(ctx, rng, gaussian):
    def frac():
        return F(rng.randint(-9, 9), rng.randint(1, 7))

    return BivarPoly(ctx, {(rng.randint(0, 5), rng.randint(0, 5)):
                           GR(frac(), frac()) if gaussian else frac() for _ in range(8)})


@pytest.mark.parametrize("alpha, beta", [(0, 0), (0, 1), (0, -1), (F(-1, 3), -1)])
@pytest.mark.parametrize("e", [1, -1])
@pytest.mark.parametrize("var", [1, 2])
@pytest.mark.parametrize("gaussian", [False, True], ids=["fraction", "gaussian"])
def test_qdiff_equals_ring_operation_formula(ctx, gaussian, var, e, alpha, beta):
    rng = random.Random(f"{gaussian}{var}{e}{alpha}{beta}")
    for _ in range(6):
        P = _random_poly(ctx, rng, gaussian)
        got = P.qdiff(var, e, alpha=alpha, beta=beta)
        ref = _qdiff_by_ring_ops(P, var, e, alpha, beta)
        assert got.coeffs.keys() == ref.coeffs.keys()
        assert all(got.coeffs[k] == ref.coeffs[k] for k in ref.coeffs)


# ---------------------------------------------------------------------------
# the exact integer kernel against per-coefficient Fraction loops
# ---------------------------------------------------------------------------

def _kept(d):
    return {k: c for k, c in d.items() if c != 0}


def _loop_sum(P, other, sign):
    """P + sign * other for a coefficient map P and a map or scalar other."""
    out = dict(P)
    if isinstance(other, dict):
        for k, c in other.items():
            out[k] = out.get(k, F(0)) + (c if sign > 0 else -c)
    else:
        out[(0, 0)] = out.get((0, 0), F(0)) + (other if sign > 0 else -1 * other)
    return _kept(out)


def _loop_mul(P, Q, top=None):
    out = {}
    for (i1, j1), c1 in P.items():
        for (i2, j2), c2 in Q.items():
            k = (i1 + i2, j1 + j2)
            if top is None or k[0] + k[1] <= top:
                out[k] = out.get(k, F(0)) + c1 * c2
    return _kept(out)


def _loop_powers(z, top):
    table = [z**0]
    for _ in range(top):
        table.append(table[-1] * z)
    return table


def _loop_dilate(P, c1, c2):
    p1 = _loop_powers(c1, max((i for i, _ in P), default=0))
    p2 = _loop_powers(c2, max((j for _, j in P), default=0))
    return _kept({(i, j): c * p1[i] * p2[j] for (i, j), c in P.items()})


def _loop_qdiff(ctx, P, var, e, alpha, beta):
    inv = 1 / (1 - ctx.qpow(e))
    out = {}
    for (i, j), c in P.items():
        d = i if var == 1 else j
        qd = ctx.qpow(e * d)
        if d:
            k = (i - 1, j) if var == 1 else (i, j - 1)
            out[k] = out.get(k, F(0)) + c * (1 - qd) * inv
        if alpha or beta:
            k = (i, j + 1) if var == 1 else (i + 1, j)
            out[k] = out.get(k, F(0)) + c * (alpha - beta * qd) * inv
    return _kept(out)


def _loop_eval(P, z1, z2):
    items = sorted(P.items())
    p1 = _loop_powers(z1, max((i for (i, _), _ in items), default=0))
    p2 = _loop_powers(z2, max((j for (_, j), _ in items), default=0))
    terms = [c * p1[i] * p2[j] for (i, j), c in items]
    total = terms[0] if terms else F(0)
    for t in terms[1:]:
        total = total + t
    return total


def _same_exact(a, b):
    """Equal values, and a is a GaussianRational exactly when its imaginary
    part is nonzero (b, the reference, may be of either kind)."""
    return a == b and isinstance(a, GR) == (isinstance(b, GR) and b.im != 0)


def _agrees(P, ref):
    """P's coefficients are ref's, key for key in ref's order; a map that
    cancels to nothing stores no coefficient."""
    got = P.coeffs
    return (list(got) == list(ref) and all(_same_exact(got[k], ref[k]) for k in ref)
            and P.is_zero() == (not ref)
            and all(_same_exact(P.coeff(*k), ref[k]) for k in ref))


def _random_exact(rng, size=6, deg=4, real=False):
    """A coefficient map mixing int, Fraction and GaussianRational (some at
    im = 0) coefficients, or ints and Fractions only when real, with
    repeated keys and zeros among them."""
    def scalar():
        kind = rng.randrange(2 if real else 5)
        frac = F(rng.randint(-9, 9), rng.randint(1, 12))
        if kind == 0:
            return rng.randint(-5, 5)
        if kind == 1:
            return frac
        if kind == 2:
            return GR(frac, 0)
        return GR(frac, F(rng.randint(-9, 9), rng.randint(1, 12)))

    return {(rng.randint(0, deg), rng.randint(0, deg)): scalar() for _ in range(size)}


EXACT_SCALARS = [0, 1, -3, F(2, 7), GR(F(1, 2)), GR(F(-3, 4), F(5, 6)), GR(0, 1)]


@pytest.mark.parametrize("q", [F(2, 5), F(9, 25), F(7, 9)])
def test_integer_kernel_equals_fraction_loops(q):
    ctx = QContext(q)
    rng = random.Random(str(q))
    for n in range(40):
        a, b = _random_exact(rng, real=n % 2), _random_exact(rng, real=n % 4 == 1)
        P, Q = BivarPoly(ctx, a), BivarPoly(ctx, b)
        a, b = P.coeffs, Q.coeffs  # zeros dropped, real coefficients as Fractions
        assert _agrees(P, _kept(a))
        assert _agrees(P + Q, _loop_sum(a, b, 1)) and _agrees(P - Q, _loop_sum(a, b, -1))
        assert _agrees(-P, {k: -c for k, c in a.items()}) and _agrees(P * Q, _loop_mul(a, b))
        # cancellation leaves no coefficient: the residual "0" of an exact check
        assert not (P - P).coeffs and (P + (-P)).is_zero() and not (P * 0).coeffs
        assert _agrees(P - (P - Q), _loop_sum(a, _loop_sum(a, b, -1), -1))
        for s in EXACT_SCALARS:
            assert _agrees(P * s, _kept({k: c * s for k, c in a.items()}))
            assert _agrees(s * P, _kept({k: s * c for k, c in a.items()}))
            assert _agrees(P + s, _loop_sum(a, s, 1)) and _agrees(P - s, _loop_sum(a, s, -1))
            assert _agrees(s - P, _loop_sum({k: -c for k, c in a.items()}, s, 1))
        for c1, c2 in zip(EXACT_SCALARS, EXACT_SCALARS[1:] + EXACT_SCALARS[:1]):
            assert _agrees(P.dilate(c1, c2), _loop_dilate(a, c1, c2))
            assert _same_exact(eval_poly(P, c1, c2), _loop_eval(a, c1, c2))
        for e1, e2 in Q_SHIFTS:
            assert _agrees(P.dilate_q(e1, e2), _kept({
                (i, j): c * ctx.qpow(e1 * i) * ctx.qpow(e2 * j) for (i, j), c in a.items()}))
        for var, e in ((1, 1), (2, -1), (1, 2)):
            for alpha, beta in ((0, 0), (0, -1), (F(-1, 3), 1), (GR(F(1, 2), F(1, 3)), 0)):
                assert _agrees(P.qdiff(var, e, alpha=alpha, beta=beta),
                               _loop_qdiff(ctx, a, var, e, alpha, beta))
        assert _agrees(P.conj_coeffs(), {k: c.conjugate() if isinstance(c, GR) else c
                                         for k, c in a.items()})


def test_truncated_product_equals_fraction_loop():
    from q2dpoly.series import TruncatedBiSeries as TBS

    ctx = QContext(F(9, 25), sqrt_q=F(3, 5))
    rng = random.Random(7)
    for n in range(40):
        S = TBS(ctx, 4, _random_exact(rng, size=10, deg=4, real=n % 2))
        T = TBS(ctx, 6, _random_exact(rng, size=12, deg=6, real=n % 4 == 1))
        s, t = S.coeffs, T.coeffs
        for r, ref in ((S * T, _loop_mul(s, t, 4)), (T * S, _loop_mul(t, s, 4)),
                       (S + T, _kept({k: c for k, c in _loop_sum(s, t, 1).items()
                                      if sum(k) <= 4})),
                       (T * GR(1, 2), _kept({k: c * GR(1, 2) for k, c in t.items()}))):
            assert type(r) is TBS and _agrees(r, ref)
        assert (S * T).order == (T * S).order == (S - T).order == 4 and (T * 3).order == 6
        assert not (S * T - T * S).coeffs


MEMO_CASES = [("Hq", {}), ("hq", {}), ("H_classical", {}),
              ("pq", {"b": 1}), ("pq", {"b": F(1, 3)}), ("pq", {"b": GR(F(1, 3), F(1, 2))}),
              ("C_disk", {"nu": F(3, 2)})]


def _types(d):
    return [(k, type(v)) for k, v in d.items()]


@pytest.mark.parametrize("family, kw", MEMO_CASES)
def test_coeffs_memo_hit_equals_fresh_build(family, kw):
    ctx = QContext(F(2, 5))
    first = coeffs(ctx, family, 4, 3, **kw)
    hit = coeffs(ctx, family, 4, 3, **kw)
    fresh = coeffs(QContext(F(2, 5)), family, 4, 3, **kw)
    assert hit is first
    assert hit.coeffs == fresh.coeffs and _types(hit.coeffs) == _types(fresh.coeffs)
    assert hit.meta == fresh.meta and _types(hit.meta) == _types(fresh.meta)


def test_coeffs_memo_keys_on_parameter_type():
    # 1, F(1) and GR(1) hash alike; each must get its own member
    ctx = QContext(F(2, 5))
    for b in (1, F(1), GR(1), 1, F(1), GR(1)):
        P = coeffs(ctx, "pq", 2, 2, b=b)
        assert type(P.meta["b"]) is type(b)
        # a real b reads real coefficients, whatever its type
        assert all(type(c) is F for c in P.coeffs.values())
    assert len(ctx.coeffs_memo) == 3


def test_coeffs_memo_is_per_context():
    c1, c2 = QContext(F(2, 5)), QContext(F(1, 3))
    P1, P2 = coeffs(c1, "Hq", 3, 3), coeffs(c2, "Hq", 3, 3)
    assert P1.coeffs != P2.coeffs
    assert all(P.ctx is c1 for P in c1.coeffs_memo.values())
    assert all(P.ctx is c2 for P in c2.coeffs_memo.values())


def test_float_coeffs_memoized_per_precision():
    # float members depend on mp.prec: one member per working precision,
    # each equal to a fresh context's at that precision
    def fresh():
        return coeffs(QContext(F(2, 5), backend="float", precision_bits=160), "pq", 3, 2, b=B)

    fctx = QContext(F(2, 5), backend="float", precision_bits=160)
    with mp.workprec(176):
        P = coeffs(fctx, "pq", 3, 2, b=B)
        assert coeffs(fctx, "pq", 3, 2, b=B) is P
        assert P.coeffs == fresh().coeffs
    with mp.workprec(80):
        P80 = coeffs(fctx, "pq", 3, 2, b=B)
        assert P80 is not P and P80.coeffs != P.coeffs
        assert P80.coeffs == fresh().coeffs
    assert len(fctx.coeffs_memo) == 2


# ---------------------------------------------------------------------------
# the lazily filled recurrence table against the eager reference
# ---------------------------------------------------------------------------

def _eager_table(ctx, family, cap, z1, z2, b=None):
    """The whole (cap+2) x (cap+2) recurrence table, built row by row up front
    (the reference for FamilyTable)."""
    K = cap + 2
    tab = {}
    bb = None if b is None else ctx.scalar(b)
    for n_ in range(K):
        tab[(0, n_)] = z2**n_ if family != "pq" else qpoch(ctx, bb * ctx.q, n_) * z2**n_
    for m_ in range(1, K):
        for n_ in range(K):
            low = tab[(m_ - 1, n_ - 1)] if n_ else ctx.zero()
            if family == "Hq":
                tab[(m_, n_)] = z1 * tab[(m_ - 1, n_)] - ctx.qpow(m_ - 1) * (1 - ctx.qpow(n_)) * low
            elif family == "hq":
                tab[(m_, n_)] = ctx.qpow(n_) * z1 * tab[(m_ - 1, n_)] - (1 - ctx.qpow(n_)) * low
            else:
                tab[(m_, n_)] = (z1 * (1 - bb * ctx.qpow(m_ + n_)) * tab[(m_ - 1, n_)]
                                 - ctx.qpow(m_ - 1) * (1 - ctx.qpow(n_)) * (1 - bb * ctx.qpow(n_)) * low)
    return tab


def _table_contexts():
    exact = QContext(F(2, 5))
    flt = QContext(F(2, 5), backend="float", precision_bits=160)
    return [(exact, Z1, Z2), (flt, flt.scalar(complex(1.5, 0.5)), flt.scalar(complex(1.5, -0.5)))]


@pytest.mark.parametrize("family", ["Hq", "hq", "pq"])
def test_family_table_equals_eager_table(family):
    # every entry bitwise equal to the eager table's, whatever the read order:
    # a shuffled quadrant, and the same after (24, 24), which fills the band
    # of rows starting at column r, then (24, 0) and (0, 24), which need
    # columns left of those starts
    for c, z1, z2 in _table_contexts():
        with c.workprec():
            ref = _eager_table(c, family, 30, z1, z2, b=B)
            keys = sorted(ref)
            random.Random(7).shuffle(keys)
            for first in ([], [(24, 24), (24, 0), (0, 24)]):
                tab = FamilyTable(c, family, z1, z2, b=B)
                for key in first + keys:
                    assert tab[key] == ref[key], (c.backend, family, key)


@pytest.mark.parametrize("family", ["Hq", "hq", "pq"])
def test_family_table_single_deep_read(family):
    # one read at (64, 64) fills 65 rows without recursing
    for c, z1, z2 in _table_contexts():
        if c.is_exact:
            z1, z2 = F(3, 2), F(1, 3)
        with c.workprec():
            ref = _eager_table(c, family, 63, z1, z2, b=B)
            assert FamilyTable(c, family, z1, z2, b=B)[64, 64] == ref[(64, 64)]


@pytest.mark.parametrize("family", ["Hq", "hq", "pq"])
def test_weighted_table_equals_scaled_plain_table(family):
    # weights (u, v) give P_{m,n} u^m v^n / ((q;q)_m (q;q)_n), read in shell
    # order (as sum2d reads) and diagonal-first (which extends rows to the
    # left): exactly on the exact backend, within 2^-150 relative at 160 bits
    N = 24
    shells = [(m, s - m) for s in range(N + 1) for m in range(s + 1)]
    rest = list(shells)
    random.Random(3).shuffle(rest)
    for c, z1, z2 in _table_contexts():
        u, v = c.scalar(GR(F(1, 3), F(1, 4))), c.scalar(F(-3, 5))
        with c.workprec():
            plain = FamilyTable(c, family, z1, z2, b=B)
            for order in (shells, [(N, N)] + rest):
                tab = FamilyTable(c, family, z1, z2, b=B, weights=(u, v))
                for m, n in order:
                    want = plain[m, n] * u**m * v**n / (c.qq(m) * c.qq(n))
                    if c.is_exact:
                        assert tab[m, n] == want, (family, m, n)
                    else:
                        assert c.mag(tab[m, n] - want) <= 2.0**-150 * c.mag(want), (family, m, n)


@pytest.mark.parametrize("target, pt", [
    ("Hmn_inf", {"z1": 2, "z2": 2}), ("p_inf", {"z1": 2, "z2": 2, "b": F(1, 4)})])
def test_asymptotic_report_fills_one_band(monkeypatch, target, pt):
    # sizes 8, 16, 32 read one table: at most the band n >= m of its 33 rows,
    # 33 * 34 / 2 entries, plus one row (one table per size and the whole
    # square each time filled 1 459)
    made, entry = [], FamilyTable._entry

    def counted(self, r, j, omq):
        made.append((r, j))
        return entry(self, r, j, omq)

    monkeypatch.setattr(FamilyTable, "_entry", counted)
    c = QContext(F(1, 2), sqrt_q="auto", backend="float", precision_bits=200)
    asymptotic_report(c, target, [8, 16, 32], pt)
    assert len(made) <= 33 * 34 // 2 + 33


def _per_size_errors(c, target, sizes, pt):
    """The reported errors with one eager table and one set of limits per size."""
    z1, z2 = c.scalar(pt.get("z1", 2)), c.scalar(pt.get("z2", 2))
    errors = []
    for M in sizes:
        if target == "Hmn_inf":
            val = _eager_table(c, "Hq", M, z1, z2)[(M, M)]
            ratio = val / (z1**M * z2**M) / qpoch_inf(c, 1 / (z1 * z2))[0]
        elif target == "Hm_inf":
            n = pt["n"]
            val = _eager_table(c, "Hq", M, z1, z2)[(M, n)]
            ratio = val / z1**M / (z2**n * qpoch(c, 1 / (z1 * z2), n))
        elif target == "Hn_inf":
            m = pt["m"]
            val = _eager_table(c, "Hq", M, z1, z2)[(m, M)]
            ratio = val / z2**M / (z1**m * qpoch(c, 1 / (z1 * z2), m))
        elif target == "p_inf":
            b = pt["b"]
            val = _eager_table(c, "pq", M, z1, z2, b=b)[(M, M)]
            lim = qpoch_inf(c, c.scalar(b) * c.q)[0] * qpoch_inf(c, 1 / (z1 * z2))[0]
            ratio = val / (z1**M * z2**M) / lim
        elif target == "PR_h":
            sc = c.qpow(-M)
            val = _eager_table(c, "hq", M, sc, sc)[(M, M)]
            ratio = val / c.qpow(-M * M) / aq_function(c, c.one())[0]
        else:
            tau, s, scale = (M - 1) // 2, c.q_half_pow(1), c.qpow((M - 1) // 4)
            val = _eager_table(c, "Hq", M, z1 * scale, z2 * scale)[(M, M)]
            E = (M * M - M) // 2 - (tau * tau + tau) // 2
            ratio = (qpoch_inf(c, c.q)[0] * val * (-z1 * z2) ** tau
                     / (z1**M * z2**M * c.qpow(E)) / theta4(c, z1 * z2 * s, s)[0])
        errors.append(float(abs(ratio - 1)))
    return errors


@pytest.mark.parametrize("target, sizes, pt", [
    ("Hmn_inf", [8, 16, 32], {"z1": 2, "z2": 2}),
    ("Hm_inf", [4, 8, 16], {"n": 3, "z1": 3, "z2": 2}),
    ("Hn_inf", [4, 8, 16], {"m": 2, "z1": 2, "z2": 3}),
    ("p_inf", [8, 16, 32], {"z1": 2, "z2": 2, "b": F(1, 4)}),
    ("PR_h", [8, 16, 32], {}),
    ("theta4_scaled", [5, 9, 17], {"z1": F(11, 10), "z2": F(9, 10)}),
])
def test_asymptotic_errors_equal_per_size_rebuild(target, sizes, pt):
    # one table and one set of limits per report give bitwise the errors of
    # a fresh eager table and fresh limits per size
    c = QContext(F(1, 2), sqrt_q="auto", backend="float", precision_bits=200)
    assert asymptotic_report(c, target, sizes, pt).errors == _per_size_errors(c, target, sizes, pt)


def test_family_table_rejects_other_families_and_negative_keys(ctx):
    with pytest.raises(ValueError):
        FamilyTable(ctx, "C_disk", Z1, Z2)
    with pytest.raises(KeyError):
        FamilyTable(ctx, "Hq", Z1, Z2)[-1, 0]


def test_hq_table_matches_explicit_sum():
    # the RAM-GEN-C point q^0.7, q^0.9 at q = 1/5: recurrence vs explicit sum
    c = QContext(F(1, 5), backend="float", precision_bits=160)
    with c.workprec():
        qa, qb = c.q ** 0.7, c.q ** 0.9
        tab = FamilyTable(c, "hq", qa, qb)
        worst = 0.0
        for m in range(97):
            for n in range(97 - m):
                ev = eval_poly(coeffs(c, "hq", m, n), qa, qb)
                worst = max(worst, c.mag(tab[m, n] - ev) / c.mag(ev))
    assert worst <= 1e-45


def _per_coefficient_lists(c, n, alpha, a, b):
    """The radial coefficient lists with one qpoch per coefficient."""
    a, b = c.scalar(a), c.scalar(b)
    wall = [qpoch(c, c.qpow(-n), r) * c.qpow(r) / (c.qq(r) * qpoch(c, a * c.q, r))
            for r in range(n + 1)]
    pref = qpoch(c, c.qpow(alpha + 1), n) / c.qq(n)
    lag = []
    for r in range(n + 1):
        num = qpoch(c, c.qpow(-n), r) * (-1) ** r * c.qpow(r * (r - 1) // 2)
        num = num * (-c.qpow(n + alpha + 1)) ** r
        lag.append(pref * num / (c.qq(r) * qpoch(c, c.qpow(alpha + 1), r)))
    jac = [qpoch(c, c.qpow(-n), r) * qpoch(c, a * b * c.qpow(n + 1), r) * c.qpow(r)
           / (c.qq(r) * qpoch(c, a * c.q, r)) for r in range(n + 1)]
    return wall, lag, jac


def test_radial_lists_equal_per_coefficient_formula():
    for c in (QContext(F(2, 5)), QContext(F(2, 5), backend="float", precision_bits=160)):
        with c.workprec():
            for n in (0, 1, 5, 12):
                for alpha in (0, 3):
                    a = c.qpow(alpha)
                    wall, lag, jac = _per_coefficient_lists(c, n, alpha, a, B)
                    assert little_q_jacobi_coeff_list(c, a, 0, n) == wall
                    assert q_laguerre_coeff_list(c, alpha, n) == lag
                    assert little_q_jacobi_coeff_list(c, a, B, n) == jac


# ---------------------------------------------------------------------------
# power tables against per-term powers, and the exact products they take
# ---------------------------------------------------------------------------

POWER_POINTS = [1, F(1, 2), GR(0, 1), GR(F(3, 2), F(1, 2))]
POWER_CASES = [("Hq", {}), ("hq", {}), ("pq", {"b": B}), ("pq", {"b": GR(F(1, 4), F(1, 3))}),
               ("H_classical", {}), ("C_disk", {"nu": F(3, 2)})]
Q_SHIFTS = [(0, 0), (1, 0), (0, 1), (-1, -1), (2, -3)]


def _per_term_eval(P, z1, z2):
    """eval_poly with one power per term (the reference for its power tables)."""
    ctx = P.ctx
    z1, z2 = ctx.scalar(z1), ctx.scalar(z2)
    terms = [c * z1**i * z2**j for (i, j), c in sorted(P.coeffs.items())]
    if not terms:
        return ctx.zero()
    if not ctx.is_exact:
        terms.sort(key=ctx.mag, reverse=True)
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def _same(a, b):
    # on the float backend == compares the exact binary values, so the bits;
    # an exact value is a GaussianRational exactly when its imaginary part is
    # nonzero, whatever the kind of the reference b
    if isinstance(b, GR) and b.im == 0:
        b = b.re
    return type(a) is type(b) and a == b


def _same_coeffs(P, ref):
    ref = BivarPoly(P.ctx, ref).coeffs
    return P.coeffs.keys() == ref.keys() and all(_same(P.coeffs[k], ref[k]) for k in ref)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_power_tables_equal_per_term_powers(backend):
    c = QContext(F(2, 5), backend=backend, precision_bits=160)
    pts = [c.scalar(z) for z in POWER_POINTS]
    with c.workprec():
        polys = [BivarPoly(c)] + [coeffs(c, fam, m, n, **kw) for fam, kw in POWER_CASES
                                  for m in range(7) for n in range(7)]
        # each point beside itself and beside the next one, so every pair of
        # scalar types meets
        pairs = list(zip(pts, pts)) + list(zip(pts, pts[1:] + pts[:1]))
        for P in polys:
            for z1, z2 in pairs:
                assert _same(eval_poly(P, z1, z2), _per_term_eval(P, z1, z2))
            if backend == "float":
                continue  # a float member has no dilations
            for z1, z2 in pairs:
                assert _same_coeffs(P.dilate(z1, z2), {
                    (i, j): a * z1**i * z2**j for (i, j), a in P.coeffs.items()})
            for e1, e2 in Q_SHIFTS:
                # q^(e1 i) itself, as ctx.qpow gives it; on the exact backend
                # the same value and type as qpow(e1)**i
                assert _same_coeffs(P.dilate_q(e1, e2), {
                    (i, j): a * c.q ** (e1 * i) * c.q ** (e2 * j)
                    for (i, j), a in P.coeffs.items()})


def test_float_member_has_no_ring_operations():
    c = QContext(F(2, 5), backend="float")
    P = coeffs(c, "pq", 2, 1, b=B)
    exact = coeffs(QContext(F(2, 5)), "Hq", 1, 1)
    ops = [lambda: P + P, lambda: P + 1, lambda: exact + P, lambda: P * P, lambda: 2 * P,
           lambda: exact * P, lambda: P - P, lambda: 1 - P, lambda: -P,
           lambda: P.dilate(2, 3), lambda: P.dilate_q(1, 0), lambda: P.qdiff(1),
           lambda: P.qdiff(2, -1, 1, 1)]
    for op in ops:
        with pytest.raises(TypeError, match="need the exact backend"):
            op()
    # the reads still work
    assert P.coeff(2, 1) == P.coeffs[(2, 1)] and P.conj_coeffs().coeffs == P.coeffs
    assert json.loads(poly_to_json(P))["family"] == "pq"


def test_exact_paths_take_no_gaussian_powers(monkeypatch):
    real_pow = GR.__pow__

    def zeroth_only(self, n):
        if n != 0:
            raise AssertionError("a per-term power of a GaussianRational")
        return real_pow(self, n)

    ctx = QContext(F(2, 5))
    q = ctx.q
    bc = GR(F(1, 4), F(1, 3))
    monkeypatch.setattr(GR, "__pow__", zeroth_only)
    # the exact seed row takes z2^n by successive products
    value = FamilyTable(ctx, "pq", Z1, Z2, b=bc)[4, 3]
    P = coeffs(ctx, "pq", 4, 3, b=bc)
    assert eval_poly(P, Z1, Z2) == value
    assert eval_poly(P.dilate(Z1, Z2), 1, 1) == value
    assert eval_poly(P.dilate_q(1, -2), Z1, Z2) == eval_poly(P, q * Z1, Z2 / q**2)
    rep = check_identity(QContext(F(9, 25), sqrt_q=F(3, 5)), "GF-SHIFT-H",
                         {"order": 6, "j": 2, "k": 1})
    assert rep.passed and rep.residual == "0"


A = GR(F(3, 2), F(1, 2))


@pytest.mark.parametrize("x, y", [
    (A, 3), (A, 0), (A, F(-2, 7)), (A, GR(F(5, 3))), (GR(F(5, 3)), A),
    (GR(F(5, 3)), GR(F(-1, 4))), (GR(0), GR(0, 1)), (A, GR(F(-2, 3), F(7, 5))),
    (GR(0, 1), GR(0, 1)),
])
def test_gaussian_products_equal_four_product_formula(x, y):
    u, v = (w if isinstance(w, GR) else GR(w) for w in (x, y))
    ref = GR(u.re * v.re - u.im * v.im, u.re * v.im + u.im * v.re)
    for got in (x * y, y * x):
        assert type(got) is GR and got == ref
        assert type(got.re) is F and type(got.im) is F


def test_gaussian_product_with_a_float_is_not_implemented():
    assert GR(1, 1).__mul__(mpf(2)) is NotImplemented


@pytest.mark.parametrize("y", [3, -1, F(-2, 7), GR(F(5, 3)), GR(F(-2, 3), F(7, 5)), GR(0, 1)])
@pytest.mark.parametrize("x", [A, GR(F(5, 3)), GR(0, 1), GR(0)])
def test_gaussian_quotients_equal_four_product_formula(x, y):
    # x / y = x conj(y) / |y|^2, whatever the divisor's kind; and a real over
    # x (through __rtruediv__) the same way
    def quotient(u, v):
        u, v = (w if isinstance(w, GR) else GR(w) for w in (u, v))
        d = v.re * v.re + v.im * v.im
        return GR((u.re * v.re + u.im * v.im) / d, (u.im * v.re - u.re * v.im) / d)

    cases = [(x / y, quotient(x, y))]
    if not isinstance(y, GR) and x:
        cases.append((y / x, quotient(y, x)))
    for got, ref in cases:
        assert type(got) is GR and got == ref
        assert type(got.re) is F and type(got.im) is F


@pytest.mark.parametrize("zero", [0, F(0), GR(0), GR(0, 0)])
def test_gaussian_quotient_by_exact_zero_raises(zero):
    with pytest.raises(ZeroDivisionError):
        A / zero
    if not isinstance(zero, GR):
        with pytest.raises(ZeroDivisionError):
            F(3) / GR(zero)
