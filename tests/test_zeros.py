import math
from fractions import Fraction as F

import mpmath
import pytest

from q2dpoly import zeros
from q2dpoly.context import GaussianRational as GR
from q2dpoly.context import QContext, TruncationPolicy
from q2dpoly.polyfamilies import radial_reduce
from q2dpoly.qkernel import aq_function
from q2dpoly.zeros import (_bisect, _dyadic, _integer_poly, _poly_prec_bits, _root_log2,
                           _scan, aq_zeros, asymptotic_report, radial_zeros,
                           zero_limit_report)

TR = TruncationPolicy(max_terms=500, tail_tol=1e-36)


@pytest.fixture(scope="module")
def ctx():
    return QContext(F(1, 4), sqrt_q="auto", backend="float", precision_bits=180,
                    default_trunc=TR)


@pytest.fixture(scope="module")
def ctx2():
    return QContext(F(1, 2), sqrt_q="auto", backend="float", precision_bits=180,
                    default_trunc=TR)


def test_first_radius_closed_forms(ctx):
    q = 0.25
    zs = radial_zeros(ctx, "Hq", 1, 1)
    assert abs(float(zs.radii[0]) - math.sqrt(1 - q)) < 1e-14
    zs = radial_zeros(ctx, "hq", 1, 1)
    assert abs(float(zs.radii[0]) - math.sqrt((1 - q) / q)) < 1e-12
    zs = radial_zeros(ctx, "pq", 1, 1, b=F(1, 4))
    assert abs(float(zs.radii[0]) - math.sqrt((1 - q) / (1 - q * q / 4))) < 1e-12


def test_complex_radial_factor_refused(ctx):
    # a complex b gives the pq radial factor complex coefficients, whose real
    # parts alone have no claim to the member's zeros
    with pytest.raises(ValueError):
        radial_zeros(ctx, "pq", 3, 2, b=GR(F(1, 4), F(1, 3)))


def test_scan_and_bisect_return_exact_roots():
    # P(x) = 2x - 1 on the grid 2^-3 .. 2^1: x = 1/2 is a scan point, P = 0
    assert _scan([2, -1], -3, 1, 4) == [((1, 1), (1, 1), 0)]
    assert _bisect([2, -1], (1, 1), (1, 1), 0, 20) == (1, 1, 1)
    # P(x) = 4x - 3 bracketed by 1/2 and 1: the first midpoint 3/4 is the root
    assert _scan([4, -3], -1, 0, 1) == [((1, 1), (1, 0), -1)]
    assert _bisect([4, -3], (1, 1), (1, 0), -1, 20) == (3, 3, 2)


def _first_scan_grid(ctx, family):
    # the scan points radial_zeros tries first, as in zeros._find_roots
    coeffs = [F(c) for c in radial_reduce(QContext(ctx.q_fraction), family, 1, 1).radial_coeffs]
    desc, _ = _integer_poly(coeffs)
    hi, lo = _root_log2(desc), -_root_log2(desc[::-1])
    npts = int(8 * (hi - lo) / abs(math.log2(ctx.q_fraction))) + 2
    return {_dyadic(lo + (hi - lo) * i / npts) for i in range(npts + 1)}


def test_dyadic_roots_come_back_exactly():
    # x = 1 - q = 1/2 for Hq(1,1) and x = (1 - q)/q = 1 for hq(1,1) at q = 1/2
    # are scan points, where the exact sign is 0: the root is exact
    c = QContext(F(1, 2), backend="float")
    for fam, x, dyadic in (("Hq", F(1, 2), (1, 1)), ("hq", F(1), (1, 0))):
        assert dyadic in _first_scan_grid(c, fam), f"{fam}(1,1): x = {x} is not a scan point"
        zs = radial_zeros(c, fam, 1, 1)
        assert zs.certified_width == 0.0
        with mpmath.workprec(_poly_prec_bits(20)):
            assert zs.radii[0] == mpmath.sqrt(mpmath.mpf(x.numerator) / x.denominator)


def _mpf_fraction(x):
    man, exp = x.man_exp
    return F(man) * F(2) ** exp


def _exact_value(coeffs_low_to_high, x):
    acc = F(0)
    for c in reversed(coeffs_low_to_high):
        acc = acc * x + c
    return acc


@pytest.mark.parametrize("q", [F(1, 4), F(1, 2)])
def test_radial_brackets_hold_exact_sign_changes(q):
    # the exact rational radial factor changes sign across x (1 -+ 2w) at
    # every returned root x = r^2, w = certified_width
    c = QContext(q, backend="float")
    for fam, b in (("Hq", None), ("hq", None), ("pq", F(1, 4)), ("pq", 0)):
        for m, n in ((8, 5), (25, 25)):
            zs = radial_zeros(c, fam, m, n, b=b)
            w = F(zs.certified_width)
            assert 0 < w <= F(1, 10**20)
            rc = radial_reduce(QContext(q), fam, m, n, b=b).radial_coeffs
            coeffs = [F(getattr(cf, "re", cf)) for cf in rc]
            for r in zs.radii:
                with mpmath.workprec(400):
                    x = _mpf_fraction(r * r)
                assert (_exact_value(coeffs, x * (1 - 2 * w))
                        * _exact_value(coeffs, x * (1 + 2 * w)) < 0), (fam, m, n, float(x))


@pytest.mark.parametrize("q", [F(1, 2), F(20, 31)])
def test_aq_zeros_bracket_exact_truncation(q):
    # A_N(x) = sum_{n <= N} q^{n^2}/(q;q)_n (-x)^n changes sign across
    # x (1 -+ 2e-22) at every returned zero, and |A_N| there clears the
    # tail 2 q^{(N+1)^2} x^{N+1} / (q;q)_N, so A_q changes sign too
    N = 40
    cs, qq = [], F(1)
    for n in range(N + 1):
        if n:
            qq *= 1 - q**n
        cs.append((-1) ** n * q ** (n * n) / qq)
    zs = aq_zeros(QContext(q, backend="float"), 3, precision=22)
    eps = F(2, 10**22)
    for z in zs:
        x = _mpf_fraction(z)
        lo, hi = (_exact_value(cs, x * (1 - eps)), _exact_value(cs, x * (1 + eps)))
        assert lo * hi < 0
        for v, xe in ((lo, x * (1 - eps)), (hi, x * (1 + eps))):
            assert abs(v) > 2 * q ** ((N + 1) ** 2) * xe ** (N + 1) / qq


def test_aq_zeros_final_bracket_must_clear_tail(monkeypatch):
    # final brackets refined 100 digits past what N was chosen for put their
    # ends where the truncation tail could flip the sign, and the scan
    # bracket ends alone would not catch it
    bisect = zeros._bisect
    monkeypatch.setattr(zeros, "_bisect",
                        lambda desc, a, b, sa, digits: bisect(desc, a, b, sa, digits + 100))
    with pytest.raises(ArithmeticError, match="tail"):
        aq_zeros(QContext(F(5, 7)), 3, precision=20)


@pytest.mark.parametrize("q, count", [(F(1, 4), 20), (F(3, 4), 20), (F(1, 10), 30)])
def test_aq_zeros_many(q, count):
    # N and the scan end are chosen in logarithms, since x_hi^N overflows a
    # double from ten zeros on at q = 1/4 (q = 2^-40, where x_hi = q^-28 =
    # 2^1120 itself overflows, runs in test_aqzeros_scan_end_past_the_double_range)
    zs = aq_zeros(QContext(q), count)
    assert len(zs) == count and all(a < b for a, b in zip(zs, zs[1:]))


def test_aq_zeros_truncation_follows_precision():
    # N is chosen for a tail 40 digits below the requested precision, so
    # q = 5/7 certifies 80 digits (a tail fixed near 1e-60 could not)
    zs = aq_zeros(QContext(F(5, 7)), 3, precision=80)
    assert len(zs) == 3 and zs[0] < zs[1] < zs[2]
    for z80, z20 in zip(zs, aq_zeros(QContext(F(5, 7)), 3, precision=20)):
        assert abs(z80 - z20) <= 1e-19 * z20


def test_zero_counts_and_ordering(ctx, ctx2):
    for cc in (ctx, ctx2):
        for fam, b in (("Hq", None), ("hq", None), ("pq", F(1, 4)), ("pq", 0)):
            for (m, n) in ((1, 1), (2, 5), (6, 6), (12, 7), (18, 18)):
                zs = radial_zeros(cc, fam, m, n, b=b)
                assert len(zs.radii) == min(m, n), (fam, m, n)
                assert all(zs.radii[i] > zs.radii[i + 1]
                           for i in range(len(zs.radii) - 1))
                assert all(r > 0 for r in zs.radii)


def test_first_family_radii_inside_unit_disk(ctx):
    # consistent with accumulation on the radii ladder q^{k/2} <= 1; the
    # largest root sits within q^{O(M^2)} of 1, so the certified bracket
    # width is the honest slack on the strict inequality
    for (m, n) in ((10, 10), (18, 12), (25, 25)):
        zs = radial_zeros(ctx, "Hq", m, n, precision=12)
        slack = 2 * zs.certified_width
        assert all(float(r) < 1 + slack for r in zs.radii)
        assert all(float(r) < 1 for r in zs.radii[1:])


def test_no_roots_at_boundary_degree(ctx):
    zs = radial_zeros(ctx, "Hq", 5, 0)
    assert zs.radii == []


def test_aq_zeros_certified(ctx):
    zs = aq_zeros(ctx, 3, precision=22)
    assert all(zs[i] < zs[i + 1] for i in range(2)) and zs[0] > 0
    # |A_q| at each certified zero is below the certified bracket scale
    for z in zs:
        val, tail = aq_function(ctx, z)
        assert ctx.mag(val) < 1e-15 * float(z) + 10 * tail


@pytest.mark.parametrize("q, expected", [
    (F(5, 38), "6.7041641294472423, 432.16887145600552, 25303.519727344509"),
    (F(1, 2), "1.2482191639119089, 6.5120409474191493, 29.029830377830667"),
    # i_1 < 1 here: 0.8261234461535359229 from a 400-bit term-by-term sum of
    # A_q, bisected on its signs from A_q(0.82) > 0 > A_q(0.84)
    (F(20, 31), "0.82612344615353592, 2.6223942154094901, 7.2484653334332023"),
])
def test_aq_zeros_pinned(q, expected):
    # strings of the term-by-term evaluation of A_q; the Horner form must
    # bracket and bisect to the same digits
    zs = aq_zeros(QContext(q, backend="float"), 3)
    assert ", ".join(mpmath.nstr(z, 17) for z in zs) == expected


def test_aq_first_zero_below_one():
    # above q* ~ 0.576 the first zero lies below x = 1; the scan starts at
    # (1-q)/q, where A_q is still positive
    c = QContext(F(3, 4), backend="float", precision_bits=200, default_trunc=TR)
    with c.workprec():
        assert aq_function(c, mpmath.mpf("0.62"))[0] > 0 > aq_function(c, mpmath.mpf("0.63"))[0]
    zs = aq_zeros(c, 2)
    assert 0.62 < zs[0] < 0.63 < 1 < zs[1]


def test_aq_sign_alternation(ctx):
    zs = aq_zeros(ctx, 3, precision=12)
    probes = [float(zs[0]) / 2,
              (float(zs[0]) + float(zs[1])) / 2,
              (float(zs[1]) + float(zs[2])) / 2,
              float(zs[2]) * 2]
    with ctx.workprec():
        signs = [mpmath.sign(aq_function(ctx, x)[0]) for x in probes]
    assert signs == [1, -1, 1, -1]


def test_zero_limit_reports_small(ctx):
    rep = zero_limit_report(ctx, "limH", 1, [6, 10, 14], precision=12)
    assert rep.monotone and rep.final_error < 5e-2
    rep = zero_limit_report(ctx, "limp", 1, [6, 10, 14], b=F(1, 4), precision=12)
    assert rep.monotone
    rep = zero_limit_report(ctx, "limh", 1, [4, 8, 16], precision=12)
    assert rep.monotone and rep.final_error < 1e-6


def test_limh_errors_match_200_bit_reference():
    # |q^M r_1(M, M) - 1/sqrt(i_1)| with i_1 refined at 200 bits on the
    # A_q series and q^M from the exact q, against the report's errors
    q = F(1, 3)
    c = QContext(q, sqrt_q="auto", backend="float", precision_bits=160, default_trunc=TR)
    sizes = [5, 10, 20]
    rep = zero_limit_report(c, "limh", 1, sizes, precision=14)
    with mpmath.workprec(200):
        qm = mpmath.mpf(q.numerator) / q.denominator

        def aq(x):
            total, qq = mpmath.mpf(0), mpmath.mpf(1)
            for n in range(80):
                if n:
                    qq *= 1 - qm**n
                total += qm ** (n * n) * (-x) ** n / qq
            return total

        i1 = mpmath.findroot(aq, mpmath.mpf(float(aq_zeros(c, 1)[0])))
        tgt = 1 / mpmath.sqrt(i1)
        for M, err in zip(sizes, rep.errors):
            r = radial_zeros(c, "hq", M, M, precision=14).radii[0]
            ref = abs(qm**M * r - tgt)
            assert abs(err - ref) <= 1e-8 * ref, (M, err, ref)
    assert rep.monotone


def test_limit_report_derives_monotone_and_final_error():
    rep = zeros.LimitReport("Hmn_inf", [8, 16, 32], [0.5, 0.25, 0.125])
    assert rep.monotone and rep.final_error == 0.125
    rep = zeros.LimitReport("PR_h", [8, 16, 32], [0.5, 0.5, 0.1])
    assert not rep.monotone and rep.final_error == 0.1
    assert repr(rep) == ("LimitReport(target='PR_h', sizes=[8, 16, 32], errors=[0.5, 0.5, 0.1], "
                         "monotone=False, final_error=0.1)")


def test_limit_report_csv(ctx):
    rep = zero_limit_report(ctx, "limH", 1, [6, 10], precision=10)
    csv = rep.to_csv()
    assert csv.startswith("size,error") and "6," in csv


def test_asymptotics_monotone(ctx2):
    rep = asymptotic_report(ctx2, "Hmn_inf", [6, 12, 24], {"z1": 2, "z2": 2})
    assert rep.monotone and rep.final_error < 1e-6
    rep = asymptotic_report(ctx2, "p_inf", [6, 12, 24], {"z1": 2, "z2": 2, "b": F(1, 4)})
    assert rep.monotone
    rep = asymptotic_report(ctx2, "PR_h", [6, 12, 24], {"w1": 1, "w2": 1})
    assert rep.monotone
    rep = asymptotic_report(ctx2, "theta4_scaled", [5, 9, 17], {"z1": 1.1, "z2": 0.9})
    assert rep.monotone


def test_asymptotics_boundary_exact(ctx2):
    # z1^{-m} H_{m,0} == 1 exactly for every m
    rep = asymptotic_report(ctx2, "Hm_inf", [4, 8, 16], {"n": 0, "z1": 2, "z2": 2})
    assert all(e == 0.0 for e in rep.errors)


@pytest.mark.parametrize("target, point", [
    ("Hm_inf", {"z1": 2, "z2": 0}), ("Hmn_inf", {"z1": 0, "z2": 2}),
    ("p_inf", {"z1": 0, "z2": 0}), ("theta4_scaled", {"z1": 0, "z2": 1}),
    ("PR_h", {"w1": 0}), ("PR_h", {"w1": 1, "w2": 0}),
])
def test_asymptotics_refuse_a_zero_point(ctx2, target, point):
    # every limit divides by z1 z2 (PR_h by w1 w2): there is none at 0
    with pytest.raises(ValueError, match="no limit"):
        asymptotic_report(ctx2, target, [5, 9], point)


def test_asymptotics_pr_h_ignores_z(ctx2):
    # PR_h reads w1 w2, so z1 = 0 does not concern it
    assert (asymptotic_report(ctx2, "PR_h", [6, 12], {"z1": 0})
            == asymptotic_report(ctx2, "PR_h", [6, 12]))


def test_theta4_scaled_rejects_bad_sizes(ctx2):
    with pytest.raises(ValueError):
        asymptotic_report(ctx2, "theta4_scaled", [6], {})


@pytest.mark.parametrize("target", ["limH", "limh"])
def test_zero_limit_report_refuses_j_below_one(ctx, target):
    # j = 0 read the smallest radius (limH) or indexed past the zeros of A_q (limh)
    with pytest.raises(ValueError, match="j must be >= 1"):
        zero_limit_report(ctx, target, 0, [4, 8])


def test_root_precision_below_one_refused(ctx):
    # at precision 0 no bisection ran, yet the scan point printed to 17 digits
    with pytest.raises(ValueError, match="precision must be >= 1"):
        aq_zeros(ctx, 2, precision=0)
    for m, n in ((3, 2), (0, 0)):
        with pytest.raises(ValueError, match="precision must be >= 1"):
            radial_zeros(ctx, "hq", m, n, precision=0)


def _gcd_loop_poly(coeffs):
    """The integer polynomial as the zero finder cleared denominators on its
    own: one running lcm of the denominators, then the numerators over it."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in reversed(coeffs)], den


def test_integer_poly_equals_gcd_loop():
    # the radial factors of the audit's zero checks, the A_q truncations
    # aq_zeros reads, and polynomials with zero coefficients
    grid = (1, 2, 3, 5, 8)
    polys = [[F(0)], [F(0), F(3, 4), F(0)], [F(-2, 3), F(0), F(5, 6), F(0)]]
    for q in (F(1, 4), F(1, 2)):
        c = QContext(q)
        for fam, b in (("Hq", None), ("hq", None), ("pq", F(1, 4)), ("pq", 0)):
            polys += [[F(x) for x in radial_reduce(c, fam, m, n, b=b).radial_coeffs]
                      for m in grid for n in grid]
        polys += [[(-1) ** n * c.qpow(n * n) / c.qq(n) for n in range(N + 1)]
                  for N in (0, 14, 18, 30)]
    for cs in polys:
        assert _integer_poly(cs) == _gcd_loop_poly(cs)
