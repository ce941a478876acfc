from fractions import Fraction as F

import pytest

from q2dpoly.context import GaussianRational as GR
from q2dpoly.context import QContext
from q2dpoly.identities import check_identity
from q2dpoly.polyfamilies import BivarPoly, coeffs, eval_poly
from q2dpoly.series import TruncatedBiSeries as TBS


@pytest.fixture(scope="module")
def ctx():
    return QContext(F(2, 5))


def test_truncation_drops_high_order(ctx):
    s = TBS(ctx, 3, {(2, 2): F(1)})
    assert not s.coeffs


def test_mul_and_reciprocal_roundtrip(ctx):
    # (x;q)_inf times 1/(x;q)_inf, each from its Euler sum, is one
    for i, j in ((1, 0), (0, 1), (1, 1), (2, 1)):
        s = TBS.poch_factor(ctx, 8, F(2, 3), i, j)
        assert s * TBS.poch_factor(ctx, 8, F(2, 3), i, j, inverse=True) == TBS.one(ctx, 8)


def test_ring_results_keep_the_series_kind_and_lower_order(ctx):
    # the polynomial ring operations build series that keep the lower order
    a = TBS(ctx, 3, {(0, 0): F(1), (1, 2): F(2), (2, 1): F(5)})
    b = TBS(ctx, 5, {(0, 0): F(1), (3, 2): F(7), (1, 1): F(1, 3)})
    for r in (a + b, b + a, a - b, b - a, 2 - b, b + 1, -b, a * b, b * F(1, 2), 3 * b):
        assert type(r) is TBS
    assert (a + b).order == (b - a).order == (a * b).order == 3
    assert (a + b).coeffs == {(0, 0): F(2), (1, 2): F(2), (2, 1): F(5), (1, 1): F(1, 3)}
    assert (b - b).coeffs == {} and (b * F(1, 2)).order == 5
    # a polynomial meets a series as a series of the series' order
    P = BivarPoly(ctx, {(0, 0): F(1), (4, 0): F(1)})
    for r in (P + a, a + P, a - P, P * a, a * P):
        assert type(r) is TBS and r.order == 3 and (4, 0) not in r.coeffs
    assert (P * a).coeffs == (a * P).coeffs == a.coeffs


@pytest.mark.parametrize("nu", [F(3, 2), F(1, 2), F(5, 3)])
def test_disk_gf_binomial_series(ctx, nu):
    # (1 - w)^-nu = sum_k (nu)_k w^k / k! against the C_disk coefficients
    for order in (8, 10):
        rep = check_identity(ctx, "DISK-GF", {"nu": nu, "order": order})
        assert rep.passed and rep.residual == "0"


def test_poch_factor_inverse_pair(ctx):
    a = TBS.poch_factor(ctx, 8, F(1, 3), 1, 1)
    b = TBS.poch_factor(ctx, 8, F(1, 3), 1, 1, inverse=True)
    assert a * b == TBS.one(ctx, 8)


def test_gf_order_zero_is_one(ctx):
    rhs = (TBS.poch_factor(ctx, 0, 1, 1, 1)
           * TBS.poch_factor(ctx, 0, F(1, 2), 1, 0, inverse=True))
    assert rhs.coeff(0, 0) == 1


def test_gf_uv_coefficient_matches_hand_expansion(ctx):
    # [u v] of (uv;q)inf / ((u z1;q)inf (v z2;q)inf) expanded by hand:
    # z1 z2/(1-q)^2 - 1/(1-q), which equals H_{1,1}(z1,z2)/(q;q)_1^2
    q = ctx.q
    z1 = GR(F(3, 2), F(1, 2))
    z2 = GR(F(3, 2), F(-1, 2))
    rhs = (TBS.poch_factor(ctx, 2, 1, 1, 1)
           * TBS.poch_factor(ctx, 2, z1, 1, 0, inverse=True)
           * TBS.poch_factor(ctx, 2, z2, 0, 1, inverse=True))
    hand = z1 * z2 / (1 - q) ** 2 - 1 / (1 - q)
    assert rhs.coeff(1, 1) == hand
    H11 = eval_poly(coeffs(ctx, "Hq", 1, 1), z1, z2)
    assert rhs.coeff(1, 1) == H11 / (ctx.qq(1) * ctx.qq(1))


def test_h_gf_uv_coefficient_with_sqrt():
    # [u v] of the second family's GF: q^0 h_{1,1} / (q;q)_1^2
    ctx = QContext(F(9, 25), sqrt_q=F(3, 5))
    s = ctx.s
    z1, z2 = F(1, 2), F(1, 3)
    rhs = (TBS.poch_factor(ctx, 2, -s * z1, 1, 0)
           * TBS.poch_factor(ctx, 2, -s * z2, 0, 1)
           * TBS.poch_factor(ctx, 2, -1, 1, 1, inverse=True))
    h11 = eval_poly(coeffs(ctx, "hq", 1, 1), z1, z2)
    assert rhs.coeff(1, 1) == h11 / (ctx.qq(1) * ctx.qq(1))


@pytest.mark.parametrize("order", [6, 10])
@pytest.mark.parametrize("z", [{}, {"z1": GR(F(1, 2), F(2, 3)), "z2": F(-3, 4)}])
@pytest.mark.parametrize("plain, shifted", [("H-GF", "GF-SHIFT-H"), ("h-GF", "GF-SHIFT-h")])
def test_plain_gf_reports_equal_shifted_gf_at_origin(order, z, plain, shifted):
    # eqGFHq and eq:hp3 are eqGFHplus and eqGFhplus at (j, k) = (0, 0)
    ctx = QContext(F(9, 25), sqrt_q=F(3, 5))
    pt = dict(z, order=order)
    a = check_identity(ctx, plain, pt)
    b = check_identity(ctx, shifted, dict(pt, j=0, k=0))
    assert a.passed and a.residual == "0"
    assert (a.mode, a.residual, a.tail_bound, a.passed) == (b.mode, b.residual, b.tail_bound,
                                                            b.passed)
