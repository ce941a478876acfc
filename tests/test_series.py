from fractions import Fraction as F

import pytest

from q2dpoly.context import GaussianRational as GR
from q2dpoly.context import QContext
from q2dpoly.polyfamilies import coeffs, eval_poly
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


def test_exp_log_roundtrip(ctx):
    s = TBS(ctx, 7, {(0, 0): F(1), (1, 0): F(1, 3), (0, 2): F(2, 7)})
    assert s.log1p_part().exp_part() == s


def test_pow_fraction_squares(ctx):
    s = TBS(ctx, 6, {(0, 0): F(1), (1, 0): F(1, 4), (0, 1): F(1, 5)})
    assert s.pow_fraction(F(2)) == s * s
    assert s.pow_fraction(F(1, 2)) * s.pow_fraction(F(1, 2)) == s


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
