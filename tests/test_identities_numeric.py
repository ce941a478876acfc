from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mp
from mpmath.ctx_mp_python import _mpc, _mpf

import q2dpoly.identities_numeric as nm
from q2dpoly.context import QContext, TruncationPolicy
from q2dpoly.identities import check_identity


def _fctx(q):
    tail_tol, terms = (1e-34, 400) if q == F(1, 2) else (1e-36, 500)
    return QContext(q, sqrt_q="auto", backend="float", precision_bits=160,
                    default_trunc=TruncationPolicy(max_terms=terms, tail_tol=tail_tol))


@pytest.mark.parametrize("checker, q", [
    pytest.param(lambda c: nm.num_circle(c, {"J": 8}), F(1, 5), id="CIRCLE"),
    pytest.param(lambda c: nm.num_askey_roy_exp(c, {"J": 8}), F(1, 5), id="AR-EXP"),
    pytest.param(lambda c: nm.num_askey_roy_exp(c, {"J": 4}, radial=True), F(1, 5),
                 id="AR-EXP2"),
    pytest.param(lambda c: nm.num_qks1(c, {}), F(1, 2), id="QKS1"),
    pytest.param(lambda c: nm.num_bes_wall(c, {}), F(1, 2), id="BES-WALL"),
])
def test_laurent_filter_matches_direct_double_loop(monkeypatch, checker, q):
    # the checker's own block terms, summed directly at every root as the
    # (J+1)^2-term loops did, against the Laurent-coefficient/Horner filter;
    # a block not built by laurent_block (BES-WALL's {-n: 1}) is read from
    # the filter call itself
    built, calls = [], []
    laurent_block, unity_filter_sum = nm.laurent_block, nm.unity_filter_sum

    def keep_terms(terms):
        terms = list(terms)
        blk = laurent_block(terms)
        built.append((blk, terms))
        return blk

    def keep_call(blks, weight=None, caps_range=0):
        val, tail = unity_filter_sum(blks, weight=weight, caps_range=caps_range)
        calls.append((blks, weight, caps_range, val))
        return val, tail

    monkeypatch.setattr(nm, "laurent_block", keep_terms)
    monkeypatch.setattr(nm, "unity_filter_sum", keep_call)
    c = _fctx(q)
    with c.workprec():
        checker(c)
        [(blks, weight, caps_range, val)] = calls
        blocks = [next((terms for b, terms in built if b is blk), list(blk.items()))
                  for blk in blks]
        M = 2 * caps_range + 1
        total = mp.mpc(0)
        for r in range(M):
            zr = mpmath.exp(2j * mpmath.pi * r / M)
            prod = mp.mpc(1) if weight is None else weight(zr)[0]
            for terms in blocks:
                S = mp.mpc(0)
                for d, coef in terms:
                    S += coef * zr**d
                prod = prod * S
            total += prod
        direct = total / M
        assert c.mag(val - direct) <= 1e-40 * c.mag(direct)


@pytest.mark.parametrize("checker, q", [
    pytest.param(lambda c: nm.num_circle(c, {"J": 8}), F(1, 5), id="CIRCLE"),
    pytest.param(lambda c: nm.num_bes_wall(c, {}), F(1, 2), id="BES-WALL"),
])
def test_filter_weights_respect_conjugation(monkeypatch, checker, q):
    # unity_filter_sum folds node M - r onto node r, which needs
    # w(conj z) = conj(w(z)) with the same tail
    weights = []
    unity_filter_sum = nm.unity_filter_sum

    def keep_weight(blks, weight=None, caps_range=0):
        weights.append(weight)
        return unity_filter_sum(blks, weight=weight, caps_range=caps_range)

    monkeypatch.setattr(nm, "unity_filter_sum", keep_weight)
    c = _fctx(q)
    with c.workprec():
        checker(c)
        [weight] = weights
        for r in (1, 5, 17, 40):
            z = mpmath.exp(2j * mpmath.pi * r / 97)
            (w, t), (wc, tc) = weight(z), weight(mpmath.conj(z))
            assert c.mag(wc - mpmath.conj(w)) <= 2.0**-150 * c.mag(w)
            assert tc == t


@pytest.mark.parametrize("block, nodes", [
    ({-2: mp.mpf(1) / 3, 0: 1, 1: mp.mpf(-2) / 7}, 6),
    ({-2: mp.mpf(1) / 3, 0: 1, 1: mp.mpc(0, 2) / 7}, 11),
])
def test_unity_filter_folds_conjugate_nodes_of_real_blocks(block, nodes):
    # real blocks are evaluated at nodes 0..(M-1)/2 only, complex blocks at
    # all M nodes; both give the M-node filter sum
    seen = []

    def weight(z):  # w(conj z) = conj(w(z))
        seen.append(z)
        return 1 / (1 - z / 2), 0.0

    M = 11
    with mp.workprec(160):
        val, tail = nm.unity_filter_sum([block, {0: 1, 3: 1}], weight=weight, caps_range=5)
        assert len(seen) == nodes and tail == 0.0
        direct = mp.mpc(0)
        for r in range(M):
            z = mpmath.exp(2j * mpmath.pi * r / M)
            direct += weight(z)[0] * sum(c * z**d for d, c in block.items()) * (1 + z**3)
        assert abs(val - direct / M) <= 1e-45


def test_weighted_radial_route_matches_recurrence():
    # _family_values hands the weights to both routes: the radial route
    # scales each value, the recurrence fills the weighted table
    c = _fctx(F(1, 2))
    with c.workprec():
        s = c.q_half_pow(1)
        x = mpmath.exp(2j * mp.mpf(1) / 3)
        weights = (s * x, s / x)
        for family in ("Hq", "hq"):
            rec = nm._family_values(c, family, c.scalar(F(1, 4)), c.scalar(F(1, 5)),
                                    weights=weights)
            rad = nm._family_values(c, family, c.scalar(F(1, 4)), c.scalar(F(1, 5)),
                                    radial=True, weights=weights)
            for m in range(14):
                for n in range(14):
                    assert c.mag(rec[m, n] - rad[m, n]) <= 1e-40 * c.mag(rec[m, n]), (family, m, n)


@pytest.mark.parametrize("id_", ["RAMBETA-Q1", "RAMBETA-Q3"])
def test_rambeta_tail_bounds_residual(id_):
    rep = check_identity(_fctx(F(1, 2)), id_, {}, tol=1e-9)
    assert rep.passed
    assert float(rep.residual) <= rep.tail_bound


@pytest.mark.parametrize("tail_tol", [1e-34, 1e-32])
@pytest.mark.parametrize("id_", ["COR19-AQ", "COR19-AQ2", "COR20-I2", "p-GF", "H-GF-AB",
                                 "GF-SHIFT-p"])
def test_closed_form_tail_bounds_residual(id_, tail_tol):
    # the closed forms' (a;q)_inf products are cut at tail_tol, and their
    # tails enter the reported bound: the residual stays below it at the
    # numeric sweep's policy and at the CLI's default
    c = QContext(F(1, 2), sqrt_q="auto", backend="float", precision_bits=160,
                 default_trunc=TruncationPolicy(max_terms=400, tail_tol=tail_tol))
    rep = check_identity(c, id_, {}, tol=1e-9)
    assert float(rep.residual) <= rep.tail_bound, (rep.residual, rep.tail_bound)


def test_ram_gen_h_takes_its_powers_from_tables(monkeypatch):
    # the h-series has cap + 1 = 171 distinct exponents per factor; taking
    # (s x)^s and (s/x)^t afresh in every sum2d term cost about 30 000 powers
    calls = []
    for cls in (_mpf, _mpc):
        def counted(self, other, pw=cls.__pow__):
            calls.append(other)
            return pw(self, other)

        monkeypatch.setattr(cls, "__pow__", counted)
    check_identity(_fctx(F(1, 2)), "RAM-GEN-h", {}, tol=1e-9)
    assert 0 < len(calls) <= 6 * (170 + 1), len(calls)


def test_p_gf_is_shifted_gf_at_origin():
    # eq:jp's generating function is eq:eqGFpplus at (j, k) = (0, 0): the
    # same residual and tail, bit for bit
    c = _fctx(F(1, 2))
    a = check_identity(c, "p-GF", {}, tol=1e-9)
    b = check_identity(c, "GF-SHIFT-p", {"j": 0, "k": 0}, tol=1e-9)
    assert a.passed and (a.residual, a.tail_bound) == (b.residual, b.tail_bound)


@pytest.mark.parametrize("q", [F(1, 2), F(1, 5)])
@pytest.mark.parametrize("tail_tol", [1e-34, 1e-32])
@pytest.mark.parametrize("pt", [{}, {"m": 5, "n": 5, "b": F(3, 4)}])
def test_p_conn_h_inv_tail_bounds_residual(q, tail_tol, pt):
    # the k-loop stops on the policy and reports a bound on the terms it
    # cuts, so the tail tracks tail_tol instead of a constant 1e-30 floor
    c = QContext(q, sqrt_q="auto", backend="float", precision_bits=160,
                 default_trunc=TruncationPolicy(max_terms=400, tail_tol=tail_tol))
    rep = check_identity(c, "p-CONN-H-INV", pt, tol=1e-9)
    assert rep.passed
    assert float(rep.residual) <= rep.tail_bound <= 100 * tail_tol, (rep.residual, rep.tail_bound)


@pytest.mark.parametrize("tail_tol", [1e-34, 1e-32])
def test_gis_pgf_tail_bounds_residual(tail_tol):
    # the base-q^5 products carry their own tails, so the bound tracks the
    # policy instead of sitting on a constant 1e-28 floor
    c = QContext(F(1, 2), sqrt_q="auto", backend="float", precision_bits=160,
                 default_trunc=TruncationPolicy(max_terms=400, tail_tol=tail_tol))
    for s in range(5):
        rep = check_identity(c, "GIS-PGF", {"s": s}, tol=1e-9)
        assert rep.passed
        assert float(rep.residual) <= rep.tail_bound < 1e-28, (s, rep.residual, rep.tail_bound)


# --- the weighted tables against the per-term Euler weight they replace ------

def _old_box_block(c, J, coef):
    # each term divided by (q;q)_m (q;q)_n, as the blocks were built before
    # they read Euler-weighted tables
    return nm.laurent_block((m - n, coef(m, n) / (c.qq(m) * c.qq(n)))
                            for m in range(J + 1) for n in range(J + 1))


def _assert_close(c, new, old):
    assert c.mag(new - old) <= 2.0**-150 * c.mag(old), (new, old)


def _blocks_of(monkeypatch, checker):
    # the blocks a filter checker hands to unity_filter_sum (the filter
    # itself is skipped)
    seen = []

    def keep(blks, weight=None, caps_range=0):
        seen.append(blks)
        return mp.mpf(0), 0.0

    monkeypatch.setattr(nm, "unity_filter_sum", keep)
    checker()
    [blks] = seen
    return blks


def _old_circle_blocks(c, J, radial):
    t = [c.scalar(v) for v in (F(1, 8), F(1, 9), F(1, 10), F(1, 11))]
    x = [c.scalar(v) for v in (F(1, 8), F(1, 8), F(1, 9), F(1, 9))]
    s = c.q_half_pow(1)
    ht = nm._family_values(c, "hq", t[0] * t[2], t[1] * t[3], radial)
    H1 = nm._family_values(c, "Hq", t[0], t[1], radial)
    H2 = nm._family_values(c, "Hq", t[2], t[3], radial)
    x02, x13 = x[0] * x[2], x[1] * x[3]
    return [_old_box_block(c, J, lambda m, n: ht[m, n] * s ** ((m - n) ** 2)
                           * (-1) ** (m + n) * x02**m * x13**n),
            _old_box_block(c, J, lambda m, n: H1[m, n] * x[0] ** m * x[1] ** n),
            _old_box_block(c, J, lambda m, n: H2[m, n] * x[2] ** m * x[3] ** n)]


def _old_askey_roy_blocks(c, J, radial):
    lam, a, b = c.scalar(F(1, 2)), c.scalar(F(1, 8)), c.scalar(F(1, 9))
    al, be, cp = c.scalar(F(1, 10)), c.scalar(F(1, 11)), c.scalar(F(1, 8))
    q, s = c.q, c.q_half_pow(1)
    h1 = nm._family_values(c, "hq", -cp / (be * s * lam), -cp * al / (s * lam), radial)
    h2 = nm._family_values(c, "hq", -q / (cp * al * s * lam), -q * be / (cp * s * lam), radial)
    H11 = nm._family_values(c, "Hq", c.one(), c.one(), radial)

    def hblock(tab):
        return _old_box_block(c, J, lambda m, n: tab[m, n] * s ** ((m - n) ** 2) * lam ** (m + n))

    def Hblock(p1, p2):
        return _old_box_block(c, J, lambda m, n: H11[m, n] * p1**m * p2**n)

    return [hblock(h1), hblock(h2), Hblock(a, al), Hblock(b, be)]


@pytest.mark.parametrize("radial", [False, True], ids=["recurrence", "radial"])
@pytest.mark.parametrize("checker, old_blocks", [
    pytest.param(nm.num_circle, _old_circle_blocks, id="CIRCLE"),
    pytest.param(nm.num_askey_roy_exp, _old_askey_roy_blocks, id="AR-EXP"),
])
def test_filter_blocks_match_per_term_euler_weight(monkeypatch, checker, old_blocks, radial):
    # the blocks of CIRCLE/CIRCLE2 and AR-EXP/AR-EXP2 read Euler-weighted
    # values; each Laurent coefficient equals the per-term weighted one
    J = 8
    c = _fctx(F(1, 5))
    with c.workprec():
        new = _blocks_of(monkeypatch, lambda: checker(c, {"J": J}, radial=radial))
        old = old_blocks(c, J, radial)
        assert len(new) == len(old)
        for blk, ref in zip(new, old):
            assert sorted(blk) == sorted(ref)
            for d in ref:
                _assert_close(c, blk[d], ref[d])


def test_h_weighted_sum_matches_per_term_euler_weight():
    # COR19-2PHI1's arguments
    c = _fctx(F(1, 2))
    with c.workprec():
        s = c.q_half_pow(1)
        a, b, cc, d = (c.scalar(v) for v in (F(1, 3), F(1, 4), F(1, 8), F(1, 9)))
        z1, z2 = c.scalar(2), c.scalar(3)
        cm, cn = -cc / (s * a * z1), -d / (s * b * z2)
        pa, pb = nm.QPochPrefix(c, a), nm.QPochPrefix(c, b)
        denm, denn = nm.QPochPrefix(c, cc), nm.QPochPrefix(c, d)

        def extra(m, n):
            return pa(m) * pb(n) * s ** ((m - n) ** 2)

        new, new_tail = nm._h_weighted_sum(c, z1, z2, cm, cn, denm, denn, extra, cap=44)
        ht = nm.FamilyTable(c, "hq", z1, z2)
        old, old_tail = nm.sum2d(c, lambda m, n: (extra(m, n) * ht[m, n] * cm**m * cn**n
                                                  / (c.qq(m) * denm(m) * c.qq(n) * denn(n))),
                                 cap=44)
        _assert_close(c, new, old)
        assert abs(new_tail - old_tail) <= 1e-6 * old_tail


def test_h_gf_ab_left_side_matches_per_term_euler_weight(monkeypatch):
    # H-GF-AB's double sum with u^m (a/u;q)_m read off QPochPrefix and the
    # weighted table, against the running products prod_{i<k} (x - c q^i)
    sums = []
    sum2d = nm.sum2d

    def keep(ctx, term, cap):
        sums.append(sum2d(ctx, term, cap))
        return sums[-1]

    monkeypatch.setattr(nm, "sum2d", keep)
    c = _fctx(F(1, 2))
    with c.workprec():
        nm.num_gf_H_ab(c, {})
        new = sums[0][0]
        z1, z2 = c.scalar(nm.DEFAULT_Z1), c.scalar(nm.DEFAULT_Z2)
        a, b, u, v = (c.scalar(x) for x in (F(1, 5), F(1, 6), F(1, 7), F(1, 8)))
        Ht = nm.FamilyTable(c, "Hq", z1, z2)
        pu, pv = [c.one()], [c.one()]
        for i in range(40):
            pu.append(pu[-1] * (u - a * c.qpow(i)))
            pv.append(pv[-1] * (v - b * c.qpow(i)))
        old, _ = sum2d(c, lambda m, n: Ht[m, n] * pu[m] * pv[n] / (c.qq(m) * c.qq(n)), cap=40)
        _assert_close(c, new, old)
