"""Exact-polynomial identity checkers.

Every function here builds LHS - RHS of one catalogued identity as a
:class:`~q2dpoly.polyfamilies.BivarPoly` at symbolic coefficient level (the
variables z1, z2 stay formal; family parameters come from the grid point) and
the check passes iff the residual is the zero polynomial.

Identities stated through the weights (q z1 z2; q)_inf, 1/(-z1 z2; q)_inf or
(q z1 z2;q)_inf/(b q z1 z2;q)_inf are verified after dividing out the common
infinite factor with the telescoping (x z;q)_inf = (1-x z)(x q z;q)_inf, which
turns them into polynomial identities: the q-derivative of a weighted
polynomial is :meth:`~q2dpoly.polyfamilies.BivarPoly.qdiff` with the weight's
factors (1 + alpha z1 z2) and (1 + beta z1 z2) given as alpha and beta.

A relation stated once in z1 and once in z2 has one checker whose ``var``
argument (1 or 2) picks the variable; the registry binds each form as
``lambda c, p: checker(c, p, var)``.

Several printed sources carry typos; the corrected forms used here were
re-derived from the generating functions and are flagged with ``note`` fields
in the registry.
"""

from __future__ import annotations

from fractions import Fraction

from .polyfamilies import BivarPoly, _rising_prefix, coeffs, radial_reduce
from .qkernel import QPochPrefix, qbinom, qbinom_inv, qpoch

F = Fraction


def _mono(ctx, i, j, c=1) -> BivarPoly:
    return BivarPoly(ctx, {(i, j): ctx.scalar(c)})


def _member(ctx, family, m, n, b=None) -> BivarPoly:
    """Family member with the usual convention P_{m,n} = 0 for m < 0 or n < 0."""
    if m < 0 or n < 0:
        return BivarPoly(ctx, {})
    return coeffs(ctx, family, m, n, b=b)


_UNIT = {1: (1, 0), 2: (0, 1)}  # unit step of z1 and of z2


def _unit(pt, var: int):
    """(m, n, own, other, i, j) for a relation stated in z_var: the grid
    point's indices, the index that belongs to z_var and the other one, and
    the unit step (i, j) of z_var, which supplies the index shift, the
    dilation exponents and the monomial."""
    m, n = pt["m"], pt["n"]
    own, other = (m, n) if var == 1 else (n, m)
    return (m, n, own, other) + _UNIT[var]


def _rodrigues(ctx, e: int, beta, m: int, n: int) -> BivarPoly:
    """The Rodrigues step ``qdiff(var, e, beta=beta)`` applied to 1 n times
    in z1, then m times in z2."""
    P = _mono(ctx, 0, 0)
    for _ in range(n):
        P = P.qdiff(1, e, beta=beta)
    for _ in range(m):
        P = P.qdiff(2, e, beta=beta)
    return P


# ---------------------------------------------------------------------------
# first family H
# ---------------------------------------------------------------------------

def h_shift(ctx, pt, var):
    m, n, own, _, i, j = _unit(pt, var)
    lhs = _member(ctx, "Hq", m, n).dilate_q(i, j)
    rhs = (_member(ctx, "Hq", m, n)
           - _mono(ctx, i, j) * (1 - ctx.qpow(own)) * _member(ctx, "Hq", m - i, n - j))
    return lhs - rhs


def h_shift_diag(ctx, pt, var):
    m, n, own, _, i, j = _unit(pt, var)
    lhs = _member(ctx, "Hq", m, n).dilate_q(i, j) * ctx.qpow(-own)
    rhs = (_member(ctx, "Hq", m, n) - ctx.qpow(-1) * (1 - ctx.qpow(m)) * (1 - ctx.qpow(n))
           * _member(ctx, "Hq", m - 1, n - 1))
    return lhs - rhs


def h_sym_q(ctx, pt):
    m, n = pt["m"], pt["n"]
    H = coeffs(ctx, "Hq", m, n)
    return H.dilate_q(1, 0) * ctx.qpow(-m) - H.dilate_q(0, 1) * ctx.qpow(-n)


def h_ttr(ctx, pt, var):
    m, n, own, other, i, j = _unit(pt, var)
    lhs = _mono(ctx, i, j) * _member(ctx, "Hq", m, n)
    rhs = (ctx.qpow(own) * (1 - ctx.qpow(other)) * _member(ctx, "Hq", m - j, n - i)
           + _member(ctx, "Hq", m + i, n + j))
    return lhs - rhs


def h_lower(ctx, pt, var):
    m, n, own, _, i, j = _unit(pt, var)
    return (_member(ctx, "Hq", m, n).qdiff(var)
            - (1 - ctx.qpow(own)) / (1 - ctx.q) * _member(ctx, "Hq", m - i, n - j))


def h_rod(ctx, pt):
    m, n = pt["m"], pt["n"]
    # each step is D_{1/q,z} of (q z1 z2;q)_inf P with the weight divided out
    P = _rodrigues(ctx, -1, -1, m, n)
    rhs = ctx.qpow(m * n) * (1 - 1 / ctx.q) ** (m + n) * P
    return coeffs(ctx, "Hq", m, n) - rhs


def h_raise(ctx, pt, var):
    # the z_var index is raised by the 1/q-derivative in the other variable
    m, n, _, other, i, j = _unit(pt, var)
    H = coeffs(ctx, "Hq", m, n)
    rhs = ctx.qpow(other) * (1 - 1 / ctx.q) * H.qdiff(3 - var, -1, beta=-1)
    return coeffs(ctx, "Hq", m + i, n + j) - rhs


def h_mult(ctx, pt):
    # multiplication formula; the printed trailing (q;q)_j is (ab)^j (re-derived
    # from the generating function, checked exactly here)
    m, n = pt["m"], pt["n"]
    a = ctx.scalar(pt.get("mult_a", F(2, 3)))
    b = ctx.scalar(pt.get("mult_b", F(3, 7)))
    H = lambda x, y: coeffs(ctx, "Hq", x, y)
    lhs = H(m, n).dilate(a, b)
    rhs = BivarPoly(ctx, {})
    for j in range(min(m, n) + 1):
        c = (qbinom(ctx, m, j) * qbinom(ctx, n, j) * ctx.qq(j)
             * qpoch(ctx, 1 / (a * b), j) * (a * b) ** j * a ** (m - j) * b ** (n - j))
        rhs = rhs + c * H(m - j, n - j)
    return lhs - rhs


def h_oprep(ctx, pt):
    m, n = pt["m"], pt["n"]
    term = _mono(ctx, m, n)
    total = BivarPoly(ctx, {})
    for k in range(min(m, n) + 1):
        c = (-(1 - ctx.q) ** 2) ** k * ctx.qpow(k * (k - 1) // 2) / ctx.qq(k)
        total = total + c * term
        term = term.qdiff(1).qdiff(2)
    return coeffs(ctx, "Hq", m, n) - total


def radial_expansion(ctx, pt, family):
    """eq:H2w (Hq, Wall) and eq:h2l (hq, q-Laguerre): the member equals its
    radial reduction, expanded back into monomials."""
    m, n = pt["m"], pt["n"]
    return coeffs(ctx, family, m, n) - radial_reduce(ctx, family, m, n).expand()


# ---------------------------------------------------------------------------
# second family h
# ---------------------------------------------------------------------------

def hh_shift(ctx, pt, var):
    m, n, own, other, i, j = _unit(pt, var)
    lhs = _member(ctx, "hq", m, n).dilate_q(-i, -j)
    # printed factor q^{-m} corrected to q^{n-m} in z1, mirrored in z2 (from
    # the generating function)
    rhs = (_member(ctx, "hq", m, n) + _mono(ctx, i, j) * (1 - ctx.qpow(own))
           * ctx.qpow(other - own) * _member(ctx, "hq", m - i, n - j))
    return lhs - rhs


def hh_shift_diag(ctx, pt, var):
    m, n, own, _, i, j = _unit(pt, var)
    lhs = ctx.qpow(own) * _member(ctx, "hq", m, n).dilate_q(-i, -j)
    # printed factor q^{1-m-n} is absent in the GF-derived relation
    rhs = (_member(ctx, "hq", m, n)
           + (1 - ctx.qpow(m)) * (1 - ctx.qpow(n)) * _member(ctx, "hq", m - 1, n - 1))
    return lhs - rhs


def hh_ttr(ctx, pt, var):
    m, n, _, other, i, j = _unit(pt, var)
    lhs = ctx.qpow(other) * _mono(ctx, i, j) * _member(ctx, "hq", m, n)
    rhs = (_member(ctx, "hq", m + i, n + j)
           + (1 - ctx.qpow(other)) * _member(ctx, "hq", m - j, n - i))
    return lhs - rhs


def hh_rod(ctx, pt):
    m, n = pt["m"], pt["n"]
    # each step is D_{q,z} of P / (-z1 z2;q)_inf with the weight divided out
    P = _rodrigues(ctx, 1, 1, m, n)
    rhs = (ctx.q - 1) ** (m + n) * P
    return coeffs(ctx, "hq", m, n) - rhs


def hh_oprep(ctx, pt):
    m, n = pt["m"], pt["n"]
    term = _mono(ctx, m, n)
    total = BivarPoly(ctx, {})
    factor = -(1 / ctx.q) * (1 - ctx.q) ** 2
    for k in range(min(m, n) + 1):
        total = total + factor**k / ctx.qq(k) * term
        term = term.qdiff(1, -1).qdiff(2, -1)
    return coeffs(ctx, "hq", m, n) - ctx.qpow(m * n) * total


def hh_lower(ctx, pt, var):
    m, n, own, other, i, j = _unit(pt, var)
    # printed eigencoefficient corrected: lowering in z1 carries q^{n-m+1},
    # lowering in z2 q^{m-n+1}
    fac = (1 - ctx.qpow(own)) / (1 - ctx.q) * ctx.qpow(other - own + 1)
    return _member(ctx, "hq", m, n).qdiff(var, -1) - fac * _member(ctx, "hq", m - i, n - j)


def hh_raise(ctx, pt, var):
    # h_{m+1,n} = (q-1)(-z1z2;q)inf D_{q,z2}( h_{m,n} / (-z1z2;q)inf ); the
    # printed statement pairs D_{q,z1} with m+1, but the z2-derivative is the
    # one that raises m (consistent with the Rodrigues formula), and the
    # z1-derivative raises n.
    m, n, _, _, i, j = _unit(pt, var)
    h = coeffs(ctx, "hq", m, n)
    rhs = (ctx.q - 1) * h.qdiff(3 - var, 1, beta=1)
    return coeffs(ctx, "hq", m + i, n + j) - rhs


def hh_mult(ctx, pt):
    # printed form misses the (-1)^j; re-derived from the generating function
    m, n = pt["m"], pt["n"]
    a = ctx.scalar(pt.get("mult_a", F(2, 3)))
    b = ctx.scalar(pt.get("mult_b", F(3, 7)))
    h = lambda x, y: coeffs(ctx, "hq", x, y)
    lhs = h(m, n).dilate(a, b)
    rhs = BivarPoly(ctx, {})
    for j in range(min(m, n) + 1):
        c = (qbinom(ctx, m, j) * qbinom(ctx, n, j) * ctx.qq(j) * qpoch(ctx, a * b, j)
             * (-1) ** j * a ** (m - j) * b ** (n - j))
        rhs = rhs + c * h(m - j, n - j)
    return lhs - rhs


def hh_sl(ctx, pt, var):
    """q-Sturm-Liouville eigen-equation, mixed-variable form (z1 form; the
    z2 form swaps (m, z1) and (n, z2)):

    -(1/w) D_{q,z2}( w D_{1/q,z1} h_{m,n} ) = (1-q^m)/(1-q)^2 q^{n-m+1} h_{m,n},
    w(x) = 1/(-x;q)_inf.  The printed same-variable form with eigenvalue
    q^{1-m}(1-q^m)/(1-q)^2 maps h_{m,n} to h_{m-1,n+1} instead (ledger)."""
    m, n, own, other, _, _ = _unit(pt, var)
    h = coeffs(ctx, "hq", m, n)
    lhs = -1 * h.qdiff(var, -1).qdiff(3 - var, 1, beta=1)
    rhs = (1 - ctx.qpow(own)) / (1 - ctx.q) ** 2 * ctx.qpow(other - own + 1) * h
    return lhs - rhs


def _hq_inverted_base(ctx, m: int, n: int) -> BivarPoly:
    """h_{m,n}(z1, z2 | 1/q) from its defining sum in the base 1/q, whose
    (1/q;1/q)_j is read in base q as (q^-j;q)_j."""
    out = {}
    for j in range(min(m, n) + 1):
        c = (qbinom_inv(ctx, m, j) * qbinom_inv(ctx, n, j) * ctx.qpow(-(m - j) * (n - j))
             * (-1) ** j * qpoch(ctx, ctx.qpow(-j), j))
        out[(m - j, n - j)] = c
    return BivarPoly(ctx, out)


def hh_qinv(ctx, pt):
    m, n = pt["m"], pt["n"]
    lhs = _hq_inverted_base(ctx, m, n)
    i = ctx.i_unit()
    rhs = ctx.qpow(-m * n) * i ** (-(m + n)) * coeffs(ctx, "Hq", m, n).dilate(i, i)
    return lhs - rhs


# ---------------------------------------------------------------------------
# monomial expansions and H <-> h connections
# ---------------------------------------------------------------------------

def mono_H(ctx, pt):
    m, n = pt["m"], pt["n"]
    rhs = BivarPoly(ctx, {})
    for k in range(min(m, n) + 1):
        rhs = rhs + (qbinom(ctx, m, k) * qbinom(ctx, n, k) * ctx.qq(k)) * coeffs(ctx, "Hq", m - k, n - k)
    return _mono(ctx, m, n) - rhs


def mono_h(ctx, pt):
    m, n = pt["m"], pt["n"]
    rhs = BivarPoly(ctx, {})
    for k in range(min(m, n) + 1):
        c = qbinom(ctx, m, k) * qbinom(ctx, n, k) * ctx.qq(k) * ctx.qpow(k * (k - 1) // 2)
        rhs = rhs + c * coeffs(ctx, "hq", m - k, n - k)
    return _mono(ctx, m, n) - ctx.qpow(-m * n) * rhs


def conn_Hh(ctx, pt):
    m, n = pt["m"], pt["n"]
    rhs = BivarPoly(ctx, {})
    for s in range(min(m, n) + 1):
        inner = ctx.zero()
        for k in range(s + 1):
            # printed exponent k(m+n-k) corrected to k(m+n-s)
            inner = inner + qbinom(ctx, s, k) * (-1) ** k * ctx.qpow(k * (m + n - s))
        c = qbinom(ctx, m, s) * qbinom(ctx, n, s) * ctx.qq(s) * ctx.qpow(s * (s - 1) // 2) * inner
        rhs = rhs + c * coeffs(ctx, "hq", m - s, n - s)
    return coeffs(ctx, "Hq", m, n) - ctx.qpow(-m * n) * rhs


def conn_hH(ctx, pt):
    m, n = pt["m"], pt["n"]
    rhs = BivarPoly(ctx, {})
    for s in range(min(m, n) + 1):
        inner = ctx.zero()
        for k in range(s + 1):
            inner = inner + qbinom(ctx, s, k) * (-1) ** k * ctx.qpow((m - k) * (n - k))
        c = qbinom(ctx, m, s) * qbinom(ctx, n, s) * ctx.qq(s) * inner
        rhs = rhs + c * coeffs(ctx, "Hq", m - s, n - s)
    return coeffs(ctx, "hq", m, n) - rhs


# ---------------------------------------------------------------------------
# q-disk family p
# ---------------------------------------------------------------------------

def _p(ctx, pt, m, n, b=None):
    return _member(ctx, "pq", m, n, pt.get("b", F(1, 3)) if b is None else b)


def p_conn_bc(ctx, pt):
    """b -> c connection, verified per coefficient after exact Euler resummation:
    coeff_k(p(.;b)) (cq;q)_{m+n-k} == coeff_k(p(.;c)) (bq;q)_{m+n-k}."""
    m, n = pt["m"], pt["n"]
    b = ctx.scalar(pt.get("b", F(1, 3)))
    c = ctx.scalar(pt.get("c", F(1, 5)))
    Pb = coeffs(ctx, "pq", m, n, b=b)
    Pc = coeffs(ctx, "pq", m, n, b=c)
    bq, cq = QPochPrefix(ctx, b * ctx.q), QPochPrefix(ctx, c * ctx.q)
    out = BivarPoly(ctx, {})
    for k in range(min(m, n) + 1):
        N = m + n - k
        d = Pb.coeff(m - k, n - k) * cq(N) - Pc.coeff(m - k, n - k) * bq(N)
        out = out + _mono(ctx, m - k, n - k, d)
    return out


def p_conn_H(ctx, pt):
    """p -> H connection: coeff_k(p(.;b)) == coeff_k(H) (bq;q)_{m+n-k}."""
    m, n = pt["m"], pt["n"]
    b = ctx.scalar(pt.get("b", F(1, 3)))
    Pb = coeffs(ctx, "pq", m, n, b=b)
    H = coeffs(ctx, "Hq", m, n)
    bq = QPochPrefix(ctx, b * ctx.q)
    out = BivarPoly(ctx, {})
    for k in range(min(m, n) + 1):
        d = Pb.coeff(m - k, n - k) - H.coeff(m - k, n - k) * bq(m + n - k)
        out = out + _mono(ctx, m - k, n - k, d)
    return out


def p_fwd(ctx, pt, var):
    m, n, own, _, i, j = _unit(pt, var)
    b = pt.get("b", F(1, 3))
    lhs = _p(ctx, pt, m, n).qdiff(var)
    rhs = ((1 - ctx.scalar(b) * ctx.q) / (1 - ctx.q) * (1 - ctx.qpow(own))
           * _p(ctx, pt, m - i, n - j, b=Fraction(b) * ctx.q_fraction))
    return lhs - rhs


def p_bwd(ctx, pt, var: int):
    """Backward shift, cleared of the weight ratio (q z1 z2;q)inf/(b q z1 z2;q)inf:

    [(1 - b z1 z2) p_{m,n}(.;b) - (1 - z1 z2) p_{m,n}(z/q ;b)] / (z (1 - 1/q))
        == (1 - b q^m)/(1 - b) * p_{m,n+1}(.;b/q) / (q^{m-1}(q-1))   (var = 1)

    and with (m, z1) <-> (n, z2) for var = 2.  The (1-b q^m)/(1-b) prefactor is
    absent in the printed statement; it was identified by exact coefficient
    comparison and verified for all m, n <= 8 (ledger).
    """
    m, n, own, _, i, j = _unit(pt, var)
    b = Fraction(pt.get("b", F(1, 3)))
    bs = ctx.scalar(b)
    lhs = _p(ctx, pt, m, n).qdiff(var, -1, alpha=-bs, beta=-1)
    fac = (1 - bs * ctx.qpow(own)) / ((1 - bs) * ctx.qpow(own - 1) * (ctx.q - 1))
    rhs = _p(ctx, pt, m + j, n + i, b=b / ctx.q_fraction) * fac
    return lhs - rhs


def p_prop_17(ctx, pt, var, same):
    """p_{m,n}(q z_var) against p_{m-1,n-1} dilated in z_var (same) or in
    the other variable; the factor b q^e carries e = m+n-1 for the same
    variable and e = 2 own - 1 otherwise."""
    # printed RHS of 17b misses the q^m on p_{m,n}, corrected from the
    # phi-contiguous relation; printed factor b q^{m+n} of 17d corrected to
    # b q^{m+n-1} (mirror of 17a)
    m, n, own, _, i, j = _unit(pt, var)
    b = ctx.scalar(pt.get("b", F(1, 3)))
    fac = (1 - ctx.qpow(m)) * (1 - ctx.qpow(n))
    e, low = (m + n - 1, (i, j)) if same else (2 * own - 1, (j, i))
    lhs = (_p(ctx, pt, m, n).dilate_q(i, j)
           - b * ctx.qpow(e) * fac * _p(ctx, pt, m - 1, n - 1).dilate_q(*low))
    rhs = ctx.qpow(own) * _p(ctx, pt, m, n) - ctx.qpow(own - 1) * fac * _p(ctx, pt, m - 1, n - 1)
    return lhs - rhs


def p_prop_18(ctx, pt, var):
    """p_{m,n}(q z1) against p_{m-1,n} dilated in z_var."""
    m, n = pt["m"], pt["n"]
    b = ctx.scalar(pt.get("b", F(1, 3)))
    z1 = _mono(ctx, 1, 0)
    fac = 1 - ctx.qpow(m)
    e = n + 1 if var == 1 else m
    lhs = (_p(ctx, pt, m, n).dilate_q(1, 0)
           - b * ctx.qpow(e) * z1 * fac * _p(ctx, pt, m - 1, n).dilate_q(*_UNIT[var]))
    rhs = _p(ctx, pt, m, n) - z1 * fac * _p(ctx, pt, m - 1, n)
    return lhs - rhs


def p_prop_19(ctx, pt):
    # corrected: p_{m,n} = z1 (1 - b q^{m+n}) p_{m-1,n} - q^{m-1}(1-q^n)(1-b q^n) p_{m-1,n-1}
    m, n = pt["m"], pt["n"]
    if m == 0:
        return BivarPoly(ctx, {})
    b = ctx.scalar(pt.get("b", F(1, 3)))
    p = lambda a, c: _p(ctx, pt, a, c)
    z1 = _mono(ctx, 1, 0)
    rhs = (z1 * (1 - b * ctx.qpow(m + n)) * p(m - 1, n)
           - ctx.qpow(m - 1) * (1 - ctx.qpow(n)) * (1 - b * ctx.qpow(n)) * p(m - 1, n - 1))
    return p(m, n) - rhs


def p_prop_20a(ctx, pt):
    m, n = pt["m"], pt["n"]
    b = ctx.scalar(pt.get("b", F(1, 3)))
    p = lambda a, c: _p(ctx, pt, a, c)
    z1, z2 = _mono(ctx, 1, 0), _mono(ctx, 0, 1)
    lhs = (1 - ctx.qpow(m - n)) * p(m + 1, n + 1)
    rhs = (z1 * (1 - b * ctx.qpow(m + 1)) * (1 - ctx.qpow(m + 1)) * p(m, n + 1)
           - z2 * ctx.qpow(m - n) * (1 - b * ctx.qpow(n + 1)) * (1 - ctx.qpow(n + 1)) * p(m + 1, n))
    return lhs - rhs


def p_prop_20b(ctx, pt):
    """Mixed-shift relation re-derived from the generating function:

    p_{m,n}(qz1,z2) - z2(1-q^n) p_{m,n-1}(qz1,z2)
      - p_{m,n}(z1,qz2) + z1(1-q^m) p_{m-1,n}(z1,qz2)
      = b q^m [ z1(1-q^m) p_{m-1,n}(z1,qz2) - q z2 (1-q^n) p_{m,n-1}(z1,qz2) ].
    """
    m, n = pt["m"], pt["n"]
    b = ctx.scalar(pt.get("b", F(1, 3)))
    p = lambda a, c: _p(ctx, pt, a, c)
    z1, z2 = _mono(ctx, 1, 0), _mono(ctx, 0, 1)
    lhs = (p(m, n).dilate_q(1, 0) - z2 * (1 - ctx.qpow(n)) * p(m, n - 1).dilate_q(1, 0)
           - p(m, n).dilate_q(0, 1) + z1 * (1 - ctx.qpow(m)) * p(m - 1, n).dilate_q(0, 1))
    rhs = b * ctx.qpow(m) * (
        z1 * (1 - ctx.qpow(m)) * p(m - 1, n).dilate_q(0, 1)
        - ctx.q * z2 * (1 - ctx.qpow(n)) * p(m, n - 1).dilate_q(0, 1)
    )
    return lhs - rhs


def p_prop_21(ctx, pt):
    m, n = pt["m"], pt["n"]
    p = lambda a, c: _p(ctx, pt, a, c)
    z1, z2 = _mono(ctx, 1, 0), _mono(ctx, 0, 1)
    fm, fn = 1 - ctx.qpow(m), 1 - ctx.qpow(n)
    lhs = z2 * fn * p(m, n - 1).dilate_q(1, 0) - z1 * fm * p(m - 1, n).dilate_q(0, 1)
    rhs = z2 * fn * p(m, n - 1) - z1 * fm * p(m - 1, n)
    return lhs - rhs


def p_prop_22(ctx, pt):
    """Mixed double-dilation identity replacing the garbled printed relation
    (both the printed polynomial identity and its phi-contiguous source fail
    at (m,n) = (0,1); ledger).  Derived from the j-sum representation of the
    generating function:

      p_{m,n}(qz1,qz2;b) + p_{m,n}(z1,z2;b) - p_{m,n}(qz1,z2;b) - p_{m,n}(z1,qz2;b)
        = z1 z2 (1-q^m)(1-q^n)(1-bq)(1-bq^2) p_{m-1,n-1}(z1,z2; bq^2).
    """
    m, n = pt["m"], pt["n"]
    b = Fraction(pt.get("b", F(1, 3)))
    bs = ctx.scalar(b)
    P = _p(ctx, pt, m, n)
    lhs = P.dilate_q(1, 1) + P - P.dilate_q(1, 0) - P.dilate_q(0, 1)
    fac = ((1 - ctx.qpow(m)) * (1 - ctx.qpow(n))
           * (1 - bs * ctx.q) * (1 - bs * ctx.qpow(2)))
    rhs = _mono(ctx, 1, 1) * fac * _p(ctx, pt, m - 1, n - 1, b=b * ctx.q_fraction**2)
    return lhs - rhs


def p_qinv(ctx, pt):
    """Base-inversion symmetry at integer alpha in {0, 1}; the base-1/q
    shifted factorials (1/q;1/q)_k and (b/q;1/q)_N are read in base q as
    (q^-k;q)_k and (b q^-N;q)_N."""
    m, n = pt["m"], pt["n"]
    alpha = pt.get("alpha", 0)
    b = Fraction(pt.get("b", F(1, 3)))
    # p_{m,n}(z1,z2;b|1/q) from the defining sum in base 1/q
    out = {}
    for k in range(min(m, n) + 1):
        N = m + n - k
        c = (qbinom_inv(ctx, m, k) * qbinom_inv(ctx, n, k) * (-1) ** k
             * ctx.qpow(-(k * (k - 1) // 2)) * qpoch(ctx, ctx.qpow(-k), k)
             * qpoch(ctx, ctx.scalar(b) * ctx.qpow(-N), N))
        out[(m - k, n - k)] = c
    lhs = BivarPoly(ctx, out)
    bq = ctx.scalar(b) / ctx.q
    pref = bq ** ((1 - alpha) * m + alpha * n) / ((-1) ** (m + n) * ctx.qpow((m + n) * (m + n - 1) // 2))
    scale1 = bq**alpha
    scale2 = bq ** (1 - alpha)
    rhs = pref * coeffs(ctx, "pq", m, n, b=1 / b).dilate(scale1, scale2)
    return lhs - rhs


# ---------------------------------------------------------------------------
# classical disk polynomials
# ---------------------------------------------------------------------------

def disk_conn(ctx, pt):
    """Disk -> classical 2D Hermite connection; the 1F1(-p; 1-nu-m-n; -1)
    factor is expanded as sum_k C(p,k) (-1)^k (nu)_{m+n-k}."""
    import math

    m, n = pt["m"], pt["n"]
    nu = Fraction(pt.get("nu", F(3, 2)))
    lhs = coeffs(ctx, "C_disk", m, n, nu=nu)
    ris = _rising_prefix(ctx, ctx.scalar(nu), m + n)
    rhs = BivarPoly(ctx, {})
    for p in range(min(m, n) + 1):
        inner = ctx.zero()
        for k in range(p + 1):
            inner = inner + math.comb(p, k) * (-1) ** k * ris[m + n - k]
        c = Fraction(math.factorial(m) * math.factorial(n),
                     math.factorial(p) * math.factorial(m - p) * math.factorial(n - p))
        rhs = rhs + ctx.scalar(c) * inner * coeffs(ctx, "H_classical", m - p, n - p)
    return lhs - rhs


def disk_conv(ctx, pt):
    """Convolution through the generating function; the printed form drops the
    binomial normalization C(m,j) C(n,k) (re-derived from the GF product)."""
    import math

    m, n = pt["m"], pt["n"]
    mu = Fraction(pt.get("mu", F(1, 2)))
    nu = Fraction(pt.get("nu", F(3, 2)))
    lhs = coeffs(ctx, "C_disk", m, n, nu=mu + nu)
    rhs = BivarPoly(ctx, {})
    for j in range(m + 1):
        for k in range(n + 1):
            c = math.comb(m, j) * math.comb(n, k)
            rhs = rhs + ctx.scalar(c) * coeffs(ctx, "C_disk", j, k, nu=mu) * coeffs(
                ctx, "C_disk", m - j, n - k, nu=nu)
    return lhs - rhs


# ---------------------------------------------------------------------------
# basis expansions from the positivity section, and the product binomial form
# ---------------------------------------------------------------------------

def do_exp_1(ctx, pt):
    """zeta^m expansion in the H-moment basis, in the sqrt-free variables:

    q^C(m+1,2) zeta^m == sum_j [m j] q^C(m-j,2) (-w)^{m-j} prod_{i<j}(w + zeta q^{i+1})

    (the printed form omits q^{m^2/2}; substituting zeta -> zeta q^{1/2}
    removes every half-integer power, see the ledger)."""
    m = pt["m"]
    lhs = _mono(ctx, m, 0, ctx.qpow(m * (m + 1) // 2))  # vars: (zeta, w)
    rhs = BivarPoly(ctx, {})
    for j in range(m + 1):
        prod = _mono(ctx, 0, 0)
        for i in range(j):
            prod = prod * (_mono(ctx, 0, 1) + _mono(ctx, 1, 0, ctx.qpow(i + 1)))
        c = qbinom(ctx, m, j) * ctx.qpow((m - j) * (m - j - 1) // 2) * (-1) ** (m - j)
        rhs = rhs + c * _mono(ctx, 0, m - j) * prod
    return lhs - rhs


def do_exp_2(ctx, pt):
    """zeta^m expansion in the h-moment basis, sqrt-free (z -> w q^{1/2} folded):

    zeta^m == sum_j [m j] (q w)^{m-j} prod_{i<j}(zeta - w q^{i+1})."""
    m = pt["m"]
    lhs = _mono(ctx, m, 0)
    rhs = BivarPoly(ctx, {})
    for j in range(m + 1):
        prod = _mono(ctx, 0, 0)
        for i in range(j):
            prod = prod * (_mono(ctx, 1, 0) - _mono(ctx, 0, 1, ctx.qpow(i + 1)))
        c = qbinom(ctx, m, j) * ctx.qpow(m - j)
        rhs = rhs + c * _mono(ctx, 0, m - j) * prod
    return lhs - rhs


def fqbinom(ctx, pt):
    """prod_{j<n} (a + b q^j) == sum_j [n j] q^C(j,2) a^{n-j} b^j, in vars (a, b)."""
    n = pt["n"]
    lhs = _mono(ctx, 0, 0)
    for j in range(n):
        lhs = lhs * (_mono(ctx, 1, 0) + _mono(ctx, 0, 1, ctx.qpow(j)))
    rhs = BivarPoly(ctx, {})
    for j in range(n + 1):
        rhs = rhs + qbinom(ctx, n, j) * ctx.qpow(j * (j - 1) // 2) * _mono(ctx, n - j, j)
    return lhs - rhs
