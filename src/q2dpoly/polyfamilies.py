"""The bivariate polynomial families and their radial reductions.

Five families share one container (:class:`BivarPoly`):

* ``Hq``  -- first 2D q-Hermite analogue,
      H_{m,n}(z1,z2|q) = sum_k [m k][n k] (-1)^k q^C(k,2) (q;q)_k z1^{m-k} z2^{n-k}
* ``hq``  -- second analogue,
      h_{m,n}(z1,z2|q) = sum_j [m j][n j] q^{(m-j)(n-j)} (-1)^j (q;q)_j z1^{m-j} z2^{n-j}
* ``pq``  -- 2D q-ultraspherical (q-disk / q-Zernike) family with parameter b,
      p_{m,n}(z1,z2;b|q) = sum_k [m k][n k] (-1)^k q^C(k,2) (q;q)_k (bq;q)_{m+n-k}
                            z1^{m-k} z2^{n-k}
* ``H_classical`` -- the Ito 2D Hermite polynomials (q = 1 comparator)
* ``C_disk``      -- classical disk (Zernike) polynomials with parameter nu.

Coefficients are built from the explicit finite sums and, on the exact
backend, held as integer numerators over one common denominator per
polynomial, normalized to Fractions and GaussianRationals only where read
(see :class:`BivarPoly`).  Values at a fixed point are also available from
the three-term recurrences (:class:`FamilyTable`, filled on read), which is
what the numeric checkers, the asymptotic reports and
:func:`q2dpoly.measures.gram_matrix` read.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import mpmath

from .context import GaussianRational, QContext, conj, is_zero
from .qkernel import QPochPrefix, qbinom, qpoch

__all__ = [
    "BivarPoly",
    "coeffs",
    "eval_poly",
    "FamilyTable",
    "radial_reduce",
    "RadialForm",
    "q_laguerre_coeff_list",
    "little_q_jacobi_coeff_list",
    "poly_to_json",
]

Key = Tuple[int, int]


# ---------------------------------------------------------------------------
# the exact integer form: coefficients (a + b i)/D over one denominator D
# ---------------------------------------------------------------------------

def _exact_parts(c):
    """(a, b, d) with c = (a + b i)/d and d > 0 for an exact scalar c; b is 0
    when c is real."""
    if isinstance(c, GaussianRational):
        re, im = c.re, c.im
        dr, di = re.denominator, im.denominator
        d = dr // math.gcd(dr, di) * di
        return re.numerator * (d // dr), im.numerator * (d // di), d
    if isinstance(c, (int, Fraction)):
        return c.numerator, 0, c.denominator
    raise TypeError(f"not an exact scalar: {type(c)}")


def _exact_scalar(a, b, d):
    """The Fraction a/d when b is 0, else the GaussianRational (a + b i)/d."""
    if not b:
        return Fraction(a, d)
    return GaussianRational(Fraction(a, d), Fraction(b, d))


def _integer_form(coeffs: Dict[Key, object]):
    """(re, im, D) of an exact coefficient map over the least common
    denominator D of its coefficients: re holds every nonzero coefficient,
    im the nonzero imaginary numerators."""
    split = []
    for k, c in coeffs.items():
        a, b, d = _exact_parts(c)
        if a or b:
            split.append((k, a, b, d))
    den = math.lcm(*(d for _, _, _, d in split))
    return ({k: a * (den // d) for k, a, _, d in split},
            {k: b * (den // d) for k, _, b, d in split if b}, den)


def _scaled_powers(z, top: int):
    """(re, im, E) with z^t = (re[t] + im[t] i)/E for t <= top, over the one
    denominator E = d^top of z = (x + y i)/d: re[t] + im[t] i is
    (x + y i)^t d^(top - t), and im is all 0 when z is real."""
    x, y, d = _exact_parts(z)
    re, im = [1], [0]
    for _ in range(top):
        r, s = re[-1], im[-1]
        re.append(r * x - s * y if y else r * x)
        im.append(r * y + s * x if y else 0)
    scale = 1
    for t in range(top, -1, -1):
        re[t], im[t] = re[t] * scale, im[t] * scale
        scale = scale * d
    return re, im, scale // d


def _dilated(re, im, c1, c2):
    """(re', im', E) for the substitution z1 -> c1 z1, z2 -> c2 z2 of the
    integer form (re, im): c1^i c2^j times the numerators at (i, j), over E
    times its denominator.  im' is empty when im is and c1 and c2 are real,
    and may hold zeros otherwise."""
    r1, s1, e1 = _scaled_powers(c1, max((i for i, _ in re), default=0))
    r2, s2, e2 = _scaled_powers(c2, max((j for _, j in re), default=0))
    if not (im or any(s1) or any(s2)):
        return {(i, j): a * r1[i] * r2[j] for (i, j), a in re.items()}, {}, e1 * e2
    ore, oim = {}, {}
    for (i, j), a in re.items():
        b = im.get((i, j), 0)
        wr = r1[i] * r2[j] - s1[i] * s2[j]
        wi = r1[i] * s2[j] + s1[i] * r2[j]
        ore[(i, j)] = a * wr - b * wi
        oim[(i, j)] = a * wi + b * wr
    return ore, oim, e1 * e2


def _combine(p1: Dict[Key, int], f1: int, p2: Dict[Key, int], f2: int) -> Dict[Key, int]:
    """{k: p1[k] f1 + p2[k] f2}, keys in p1's order, then p2's new ones."""
    out = {k: a * f1 for k, a in p1.items()}
    get = out.get
    for k, a in p2.items():
        out[k] = get(k, 0) + a * f2
    return out


def _convolve(re1, im1, re2, im2, top: Optional[int]):
    """The numerators (re, im) of the product of two integer forms, without
    the terms of total degree above top (None: all terms).  Keys come in the
    order of their first pair, the left factor's keys outer; im is empty when
    both factors are real, and may hold zeros otherwise."""
    if top is None:
        top = (max((i + j for i, j in re1), default=0)
               + max((i + j for i, j in re2), default=0))
    re, im = {}, {}
    get, iget = re.get, im.get
    if not im1 and not im2:
        right = [(i, j, i + j, a) for (i, j), a in re2.items()]
        for (i1, j1), a1 in re1.items():
            room = top - i1 - j1
            for i2, j2, s2, a2 in right:
                if s2 <= room:
                    k = (i1 + i2, j1 + j2)
                    re[k] = get(k, 0) + a1 * a2
        return re, im
    right = [(i, j, i + j, a, im2.get((i, j), 0)) for (i, j), a in re2.items()]
    for (i1, j1), a1 in re1.items():
        room = top - i1 - j1
        b1 = im1.get((i1, j1), 0)
        for i2, j2, s2, a2, b2 in right:
            if s2 <= room:
                k = (i1 + i2, j1 + j2)
                re[k] = get(k, 0) + a1 * a2 - b1 * b2
                im[k] = iget(k, 0) + a1 * b2 + b1 * a2
    return re, im


class BivarPoly:
    """Sparse bivariate polynomial sum c[i,j] z1^i z2^j with backend scalars.

    On the exact backend the coefficients are integers over one common
    denominator D > 0: c[k] = (re[k] + im[k] i)/D, where ``re`` holds every
    nonzero coefficient (its real numerator may be 0) and ``im`` exactly the
    keys whose imaginary numerator is nonzero.  The ring operations,
    :meth:`dilate`, :meth:`dilate_q`, :meth:`qdiff` and :func:`eval_poly`
    run on these integers, and each result is reduced by one gcd of D with
    all its numerators, so D is the least common denominator.  Exact scalars
    are normalized where they are read: :meth:`coeff` gives one, and
    ``coeffs`` is built on first read and cached; either reads a coefficient
    as a GaussianRational when its imaginary part is nonzero and as a
    Fraction otherwise.  On the float backend ``coeffs`` is the map of
    mpf/mpc coefficients itself, and the member is read-only: it is built by
    :func:`coeffs` and read through ``coeffs``, :meth:`coeff`,
    :meth:`conj_coeffs`, :func:`eval_poly` and :func:`poly_to_json`, while a
    ring operation, dilation or :meth:`qdiff` raises TypeError.  Either way
    keys keep the order in which an operation first produced them.
    """

    __slots__ = ("ctx", "meta", "_re", "_im", "_den", "_coeffs")

    def __init__(self, ctx: QContext, coeffs: Optional[Dict[Key, object]] = None,
                 meta: Optional[dict] = None):
        self.ctx = ctx
        self.meta = meta or {}
        coeffs = self._trim(coeffs) if coeffs else {}
        if ctx.is_exact:
            self._re, self._im, self._den = _integer_form(coeffs) if coeffs else ({}, {}, 1)
            self._coeffs = None
        else:
            self._den = None
            self._coeffs = {k: c for k, c in coeffs.items() if not is_zero(c)}

    @property
    def coeffs(self) -> Dict[Key, object]:
        """The coefficient map {(i, j): c}; shared, to be treated as immutable."""
        if self._coeffs is None:
            im, den = self._im, self._den
            self._coeffs = {k: _exact_scalar(a, im.get(k, 0), den) for k, a in self._re.items()}
        return self._coeffs

    def _trim(self, coeffs: dict) -> dict:
        """The part of a coefficient (or numerator) map this kind keeps: all of it."""
        return coeffs

    def _blank(self, other) -> "BivarPoly":
        """An empty result of a ring operation of self with other (a scalar,
        or self for a negation).  A subclass keeps its kind and fields (a
        truncated series keeps the lower order); a polynomial with a series
        gives a series."""
        if isinstance(other, BivarPoly) and not isinstance(self, type(other)):
            return other._blank(self)
        return BivarPoly(self.ctx)

    def _set(self, re: Dict[Key, int], im: Dict[Key, int], den: int) -> "BivarPoly":
        """Store the exact coefficients (re + im i)/den, after :meth:`_trim`,
        with zero numerators and zero coefficients dropped and one gcd taken
        out; im's keys are among re's.  Returns self."""
        re, im = self._trim(re), self._trim(im)
        if 0 in im.values():
            im = {k: b for k, b in im.items() if b}
        if 0 in re.values():
            re = {k: a for k, a in re.items() if a or k in im}
        g = math.gcd(den, *re.values(), *im.values())
        if g != 1:
            re = {k: a // g for k, a in re.items()}
            im = {k: b // g for k, b in im.items()}
            den //= g
        self._re, self._im, self._den = re, im, den
        return self

    def _exact(self, other=None) -> None:
        """Raise TypeError unless self, and other when it is a polynomial,
        are exact: a float member only holds and reads its coefficients."""
        if self._den is None or (isinstance(other, BivarPoly) and other._den is None):
            raise TypeError("BivarPoly ring operations, dilations and qdiff "
                            "need the exact backend")

    # -- ring operations ----------------------------------------------------
    def _sum(self, other, sign: int):
        """self + sign * other for a polynomial or scalar other."""
        self._exact(other)
        out = self._blank(other)
        if isinstance(other, BivarPoly):
            re2, im2, d2 = other._re, other._im, other._den
        else:
            a, b, d2 = _exact_parts(other)
            re2, im2 = {(0, 0): a}, {(0, 0): b}
        d1 = self._den
        g = math.gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g * sign
        return out._set(_combine(self._re, f1, re2, f2), _combine(self._im, f1, im2, f2),
                        d1 * f1)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        self._exact()
        return self._blank(self)._set({k: -a for k, a in self._re.items()},
                                      {k: -b for k, b in self._im.items()}, self._den)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _product(self, other, top: Optional[int]):
        """self * other for a polynomial or scalar other, without the terms
        of total degree above top (None: all terms).  The one product of
        BivarPoly.__mul__ and TruncatedBiSeries.__mul__."""
        self._exact(other)
        out = self._blank(other)
        re1, im1 = self._re, self._im
        if not isinstance(other, BivarPoly):
            sa, sb, sd = _exact_parts(other)
            if not sb:
                return out._set({k: a * sa for k, a in re1.items()},
                                {k: b * sa for k, b in im1.items()}, self._den * sd)
            return out._set({k: a * sa - im1.get(k, 0) * sb for k, a in re1.items()},
                            {k: a * sb + im1.get(k, 0) * sa for k, a in re1.items()},
                            self._den * sd)
        re, im = _convolve(re1, im1, other._re, other._im, top)
        return out._set(re, im, self._den * other._den)

    def __mul__(self, other):
        return self._product(other, None)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not (self._coeffs if self._den is None else self._re)

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return (self - other).is_zero()

    def coeff(self, i: int, j: int):
        if self._den is None:
            return self._coeffs.get((i, j), self.ctx.zero())
        a = self._re.get((i, j))
        if a is None:
            return self.ctx.zero()
        return _exact_scalar(a, self._im.get((i, j), 0), self._den)

    # -- substitutions ------------------------------------------------------
    def dilate(self, c1=1, c2=1) -> "BivarPoly":
        """Substitute z1 -> c1 z1, z2 -> c2 z2 on an exact member: c1^i and
        c2^j are integer tables over one denominator each (see
        :func:`_dilated`).  A float member raises TypeError; its values at
        scaled points come from :func:`eval_poly`.
        """
        self._exact()
        ore, oim, e = _dilated(self._re, self._im, c1, c2)
        return BivarPoly(self.ctx)._set(ore, oim, self._den * e)

    def dilate_q(self, e1: int = 0, e2: int = 0) -> "BivarPoly":
        """Substitute z1 -> q^e1 z1, z2 -> q^e2 z2 (integer exponents): the
        :meth:`dilate` by the rationals q^e1 and q^e2, so exact only."""
        return self.dilate(self.ctx.qpow(e1), self.ctx.qpow(e2))

    def qdiff(self, var: int, e: int = 1, alpha=0, beta=0) -> "BivarPoly":
        """The weighted q-difference in z_var (var 1 or 2), exact on coefficients:

            ((1 + alpha z1 z2) P - (1 + beta z1 z2) P(q^e z_var)) / ((1 - q^e) z_var).

        With alpha = beta = 0 it is the q-derivative D_{q^e}.  The weights
        divide (x z1 z2;q)_inf = (1 - x z1 z2)(x q z1 z2;q)_inf out of a
        q-derivative of a weighted polynomial (the Rodrigues steps, the
        raising operators, the q-disk backward shift).  One pass: for var 1
        a coefficient c at (i, j) adds c (1 - q^(e i))/(1 - q^e) at (i-1, j)
        and c (alpha - beta q^(e i))/(1 - q^e) at (i, j+1); var 2 mirrors it.
        With q^e = n/d both factors are integers over d^(t-1) (d - n) (times
        the denominator of alpha and beta), t the top degree in z_var, so the
        pass is integer arithmetic; a float member raises TypeError.
        """
        self._exact()
        weighted = bool(alpha or beta)
        r = self.ctx.qpow(e)
        n, d = r.numerator, r.denominator
        if n == d:
            raise ZeroDivisionError("qdiff needs q^e != 1")
        re, im = self._re, self._im
        top = max((k[var - 1] for k in re), default=0) or 1
        aa, ab, ad = _exact_parts(alpha)
        ba, bb, bd = _exact_parts(beta)
        den = ad // math.gcd(ad, bd) * bd
        fa, fb = den // ad, den // bd
        aa, ab, ba, bb = aa * fa, ab * fa, ba * fb, bb * fb
        # (1 - r^t)/(1 - r) = m1[t]/M, (alpha - beta r^t)/(1 - r) = (w1[t] + w2[t] i)/M
        sign = 1 if d > n else -1
        m1, w1, w2 = [], [], []
        for t in range(top + 1):
            dt, nt, rest = d**t, n**t, sign * d ** (top - t)
            m1.append((dt - nt) * rest * den)
            w1.append((aa * dt - ba * nt) * rest)
            w2.append((ab * dt - bb * nt) * rest)
        M = d ** (top - 1) * (d - n) * sign * den
        ore, oim = {}, {}
        get, iget = ore.get, oim.get
        for (i, j), a in re.items():
            b = im.get((i, j), 0)
            t = i if var == 1 else j
            if t:
                k = (i - 1, j) if var == 1 else (i, j - 1)
                ore[k] = get(k, 0) + a * m1[t]
                if b:
                    oim[k] = iget(k, 0) + b * m1[t]
            if weighted:
                k = (i, j + 1) if var == 1 else (i + 1, j)
                ore[k] = get(k, 0) + a * w1[t] - b * w2[t]
                if b or w2[t]:
                    oim[k] = iget(k, 0) + a * w2[t] + b * w1[t]
        return BivarPoly(self.ctx)._set(ore, oim, self._den * M)

    def conj_coeffs(self) -> "BivarPoly":
        if self._den is None:
            return BivarPoly(self.ctx, {k: conj(c) for k, c in self._coeffs.items()})
        return BivarPoly(self.ctx)._set(dict(self._re), {k: -b for k, b in self._im.items()},
                                        self._den)

    def __repr__(self):
        items = sorted(self.coeffs)[:8]
        inner = ", ".join(f"z1^{i} z2^{j}: {self.coeffs[(i,j)]}" for i, j in items)
        more = ", ..." if len(self.coeffs) > 8 else ""
        return f"{type(self).__name__}({{{inner}{more}}})"


# ---------------------------------------------------------------------------
# family construction from the explicit sums
# ---------------------------------------------------------------------------

def coeffs(ctx: QContext, family: str, m: int, n: int, b=None, nu=None) -> BivarPoly:
    """Exact coefficient map of the (m, n) member of a family.

    Each member is built once per context, on the float backend once per
    ``mp.prec`` (as ``QContext.qpow``'s table), and the same BivarPoly is
    returned to every later caller, so the result is shared and must be
    treated as immutable.  An exact coefficient reads as a GaussianRational
    when its imaginary part is nonzero and as a Fraction otherwise, whatever
    the type of b (a GaussianRational b at im = 0 gives Fractions).
    """
    if m < 0 or n < 0:
        raise ValueError("degrees must be nonnegative")
    if family == "pq" and b is None:
        raise ValueError("pq needs the disk parameter b")
    if family == "C_disk" and nu is None:
        raise ValueError("C_disk needs the parameter nu")
    # the types are part of the key: Fraction(1, 4), GaussianRational(1/4)
    # and 0.25 hash alike but give different scalar types and meta
    key = (family, m, n, type(b), b, type(nu), nu, None if ctx.is_exact else mpmath.mp.prec)
    P = ctx.coeffs_memo.get(key)
    if P is None:
        P = ctx.coeffs_memo[key] = _build(ctx, family, m, n, b, nu)
    return P


def _build(ctx: QContext, family: str, m: int, n: int, b, nu) -> BivarPoly:
    out: Dict[Key, object] = {}
    if family == "Hq":
        for k in range(min(m, n) + 1):
            c = (qbinom(ctx, m, k) * qbinom(ctx, n, k) * (-1) ** k
                 * ctx.qpow(k * (k - 1) // 2) * ctx.qq(k))
            out[(m - k, n - k)] = c
    elif family == "hq":
        for j in range(min(m, n) + 1):
            c = (qbinom(ctx, m, j) * qbinom(ctx, n, j) * ctx.qpow((m - j) * (n - j))
                 * (-1) ** j * ctx.qq(j))
            out[(m - j, n - j)] = c
    elif family == "pq":
        bq = QPochPrefix(ctx, ctx.scalar(b) * ctx.q)
        for k in range(min(m, n) + 1):
            c = (qbinom(ctx, m, k) * qbinom(ctx, n, k) * (-1) ** k
                 * ctx.qpow(k * (k - 1) // 2) * ctx.qq(k) * bq(m + n - k))
            out[(m - k, n - k)] = c
    elif family == "H_classical":
        for k in range(min(m, n) + 1):
            c = ((-1) ** k * math.factorial(k) * math.comb(m, k) * math.comb(n, k))
            out[(m - k, n - k)] = ctx.scalar(c)
    elif family == "C_disk":
        ris = _rising_prefix(ctx, Fraction(nu) if ctx.is_exact else ctx.scalar(nu), m + n)
        for k in range(min(m, n) + 1):
            c = ((-1) ** k * math.factorial(k) * math.comb(m, k) * math.comb(n, k))
            out[(m - k, n - k)] = ctx.scalar(c) * ris[m + n - k]
    else:
        raise ValueError(f"unknown family {family!r}")
    meta = {"family": family, "m": m, "n": n}
    if b is not None:
        meta["b"] = b
    if nu is not None:
        meta["nu"] = nu
    return BivarPoly(ctx, out, meta)


def _rising_prefix(ctx: QContext, a, top: int) -> List[object]:
    """The rising factorials (a)_0, ..., (a)_top, each one factor (a + k)
    past the last."""
    out = [ctx.one()]
    for k in range(top):
        out.append(out[-1] * (a + k))
    return out


def _power_table(z, exps):
    """The float powers z**e for each distinct exponent e in exps, indexed by
    e, so every entry has the bits of the per-term power."""
    return {e: z**e for e in set(exps)}


def eval_poly(P: BivarPoly, z1, z2):
    """Evaluate at scalars.

    Exact backend: the numerators of the dilation by z1 and z2 (see
    :func:`_dilated`), summed as integers over D d1^I d2^J and normalized
    once at the end; the value is a GaussianRational when its imaginary part
    is nonzero, a Fraction otherwise.  Float backend: each
    term is ``c * z1**i * z2**j`` with the powers read from one table per
    variable (see :func:`_power_table`), so it has the bits of the per-term
    powers, and the terms are summed largest magnitude first.
    """
    ctx = P.ctx
    z1 = ctx.scalar(z1)
    z2 = ctx.scalar(z2)
    if P._den is not None:
        ore, oim, e = _dilated(P._re, P._im, z1, z2)
        return _exact_scalar(sum(ore.values()), sum(oim.values()), P._den * e)
    items = sorted(P.coeffs.items())
    p1 = _power_table(z1, (i for (i, _), _ in items))
    p2 = _power_table(z2, (j for (_, j), _ in items))
    terms = [c * p1[i] * p2[j] for (i, j), c in items]
    if not terms:
        return ctx.zero()
    terms.sort(key=ctx.mag, reverse=True)
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


class FamilyTable:
    """Values of the (m, n) members of Hq, hq or pq at a fixed point (z1, z2),
    filled on read through the three-term recurrences (O(1) per entry):

      H_{m,n} = z1 H_{m-1,n} - q^{m-1} (1-q^n) H_{m-1,n-1},
      h_{m,n} = q^n z1 h_{m-1,n} - (1-q^n) h_{m-1,n-1},
      p_{m,n} = z1 (1-b q^{m+n}) p_{m-1,n}
                - q^{m-1} (1-q^n) (1-b q^n) p_{m-1,n-1},

    that is P_{m,n} = alpha P_{m-1,n} - beta (1-q^n) P_{m-1,n-1}, seeded by
    the row m = 0 (z2^n, times (bq;q)_n for pq; on the exact backend z2^n by
    successive products).  With ``weights=(u, v)`` the table holds
    G_{m,n} = P_{m,n} u^m v^n / ((q;q)_m (q;q)_n) instead, the terms of a
    generating-function sum, filled by the same recurrence scaled,

      G_{m,n} = u/(1-q^m) [alpha G_{m-1,n} - beta v G_{m-1,n-1}],

    from the row (z2 v)^n/(q;q)_n (times (bq;q)_n for pq).

    Entry (m, n) needs row r only from column max(0, n - m + r) up to n,
    and a read fills just that band of rows 0..m, row by row, so a deep
    read never recurses.  Each row is one run of columns from its recorded
    first column.  Later reads extend it to the right, or, once, to the
    left down to column 0, so a read fills no entry outside the rectangle
    of rows 0..m and columns 0..n: a diagonal read (M, M) fills the n >= m
    half of the square, and reads in order from (0, 0) start every row at
    column 0.  An entry is the same products in the same order whatever
    the read order.  Entries are computed at the ``mp.prec`` of the read
    that fills them, with 1 - q^n (or, weighted, u/(1 - q^m)) from one list
    per table and ``mp.prec`` (exact values do not depend on it).  Read by
    the numeric checkers of :mod:`q2dpoly.identities_numeric` (weighted by
    the Ramanujan-type sums), by the asymptotic reports of
    :mod:`q2dpoly.zeros` and, at (iz, i zbar) on the exact backend, by
    :func:`q2dpoly.measures.gram_matrix`.
    """

    def __init__(self, ctx: QContext, family: str, z1, z2, b=None, weights=None):
        if family not in ("Hq", "hq", "pq"):
            raise ValueError(f"no recurrence table for family {family!r}")
        if family == "pq" and b is None:
            raise ValueError("pq needs the disk parameter b")
        self.ctx = ctx
        self.family = family
        self.z1 = ctx.scalar(z1)
        self.z2 = ctx.scalar(z2)
        if family == "pq":
            self.b = ctx.scalar(b)
            self.bq = QPochPrefix(ctx, self.b * ctx.q)  # (bq;q)_n of the seed row
        self.weights = None if weights is None else tuple(map(ctx.scalar, weights))
        # rows[m][n - starts[m]]; whenever row m holds columns a..c, row m - 1
        # holds at least max(0, a - 1)..c
        self.rows: List[List[object]] = []
        self.starts: List[int] = []
        seed = self.z2 if weights is None else self.z2 * self.weights[1]
        self.seed_pow = [seed**0, seed]  # exact backend: (z2 v)^n by successive products
        # mp.prec -> [1 - q^n] by column n, or, weighted, [u/(1 - q^m)] by row m
        self.factors: Dict[int, List[object]] = {}

    def __getitem__(self, key: Key):
        m, n = key
        if m < 0 or n < 0:
            raise KeyError(key)
        rows, starts = self.rows, self.starts
        try:
            if n >= starts[m]:
                return rows[m][n - starts[m]]
        except IndexError:
            pass
        while len(rows) <= m:
            rows.append([])
            starts.append(0)
        # walk up from row m while a row lacks a column of what its successor
        # needs (row r of the band: max(0, n - m + r)..n); a row that must
        # grow to the left goes to column 0, and so must every row above it,
        # so each row is extended to the left at most once
        top, zero_to, lo = m, -1, n
        while True:
            row, start = rows[top], starts[top]
            if row:
                if lo < start:
                    zero_to, lo = max(zero_to, top), 0
                elif start + len(row) > n:
                    top += 1
                    break
            if top == 0:
                break
            top, lo = top - 1, max(0, lo - 1)
        fac = self.factors.get(mpmath.mp.prec)
        if fac is None:
            fac = self.factors[mpmath.mp.prec] = []
        if self.weights is None:
            if len(fac) <= n:
                fac.extend(1 - self.ctx.qpow(j) for j in range(len(fac), n + 1))
        elif len(fac) <= m:  # row 0 is the seed and needs no factor
            u = self.weights[0]
            fac.extend(u / (1 - self.ctx.qpow(r)) if r else None for r in range(len(fac), m + 1))
        for r in range(top, m + 1):
            row, start = rows[r], starts[r]
            lo = 0 if r <= zero_to else max(0, n - m + r)
            if not row:
                starts[r] = start = lo
            elif lo < start:
                rows[r] = row = [self._entry(r, j, fac) for j in range(lo, start)] + row
                starts[r] = start = lo
            for j in range(start + len(row), n + 1):
                row.append(self._entry(r, j, fac))
        return rows[m][n - starts[m]]

    def _entry(self, r: int, j: int, fac):
        ctx, z1, w = self.ctx, self.z1, self.weights
        if r == 0:
            if ctx.is_exact:
                pw = self.seed_pow
                while len(pw) <= j:
                    pw.append(pw[-1] * pw[1])
                zj = pw[j]
            else:
                zj = self.seed_pow[1] ** j
            if self.family == "pq":
                zj = self.bq(j) * zj
            return zj if w is None else zj / ctx.qq(j)
        up, s = self.rows[r - 1], self.starts[r - 1]
        low = up[j - 1 - s] if j else ctx.zero()
        # the low term's factor beyond beta: 1 - q^j, or v once weighted
        lowc = fac[j] if w is None else w[1]
        if self.family == "Hq":
            val = z1 * up[j - s] - ctx.qpow(r - 1) * lowc * low
        elif self.family == "hq":
            val = ctx.qpow(j) * z1 * up[j - s] - lowc * low
        else:
            bb = self.b
            val = (z1 * (1 - bb * ctx.qpow(r + j)) * up[j - s]
                   - ctx.qpow(r - 1) * lowc * (1 - bb * ctx.qpow(j)) * low)
        return val if w is None else fac[r] * val


# ---------------------------------------------------------------------------
# terminating univariate families (radial factors)
# ---------------------------------------------------------------------------

def q_laguerre_coeff_list(ctx: QContext, alpha: int, n: int) -> List[object]:
    top = QPochPrefix(ctx, ctx.qpow(-n))
    bot = QPochPrefix(ctx, ctx.qpow(alpha + 1))
    pref = bot(n) / ctx.qq(n)
    out = []
    for r in range(n + 1):
        num = top(r) * (-1) ** r * ctx.qpow(r * (r - 1) // 2)
        num = num * (-ctx.qpow(n + alpha + 1)) ** r
        out.append(pref * num / (ctx.qq(r) * bot(r)))
    return out


def little_q_jacobi_coeff_list(ctx: QContext, a, b, n: int) -> List[object]:
    a = ctx.scalar(a)
    b = ctx.scalar(b)
    top1 = QPochPrefix(ctx, ctx.qpow(-n))
    top2 = QPochPrefix(ctx, a * b * ctx.qpow(n + 1))
    den = QPochPrefix(ctx, a * ctx.q)
    return [top1(r) * top2(r) * ctx.qpow(r) / (ctx.qq(r) * den(r)) for r in range(n + 1)]


# ---------------------------------------------------------------------------
# radial reduction
# ---------------------------------------------------------------------------

class RadialForm:
    """prefactor * z^{|m-n|} (or conjugate power) * radial(z1 z2).

    ``angular_index`` = m - n; when negative the reduction was taken through
    the index symmetry and the monomial sits on z2 (``swapped`` is set).
    """

    def __init__(self, ctx, angular_index: int, prefactor, radial_coeffs):
        self.ctx = ctx
        self.prefactor = prefactor
        self.radial_coeffs = radial_coeffs  # coefficients in x = z1 z2
        self.angular_index = angular_index
        self.swapped = angular_index < 0

    def radial_value(self, x):
        x = self.ctx.scalar(x)
        total = self.ctx.zero()
        for r, c in enumerate(self.radial_coeffs):
            total = total + c * x**r
        return total

    def expand(self) -> BivarPoly:
        out: Dict[Key, object] = {}
        a = abs(self.angular_index)
        for r, c in enumerate(self.radial_coeffs):
            key = (r + a, r) if not self.swapped else (r, r + a)
            out[key] = self.prefactor * c
        return BivarPoly(self.ctx, out)


def radial_reduce(ctx: QContext, family: str, m: int, n: int, b=None) -> RadialForm:
    """Split the (m, n) member into angular monomial times a radial polynomial.

    Hq -> Wall p_nu(x; q^{m-n} | q), hq -> q-Laguerre L_nu^{(m-n)}(x; q),
    pq -> little q-Jacobi p_nu(x; q^{m-n}, b | q), where nu = min(m, n); the
    Wall polynomial is little q-Jacobi at b = 0.
    Inputs with m < n are routed through the index symmetry.
    """
    mm, nn = (n, m) if m < n else (m, n)
    alpha = mm - nn
    if family == "Hq":
        pref = ((-1) ** nn * ctx.qq(mm) * ctx.qpow(nn * (nn - 1) // 2) / ctx.qq(mm - nn))
        rc = little_q_jacobi_coeff_list(ctx, ctx.qpow(alpha), 0, nn)
    elif family == "hq":
        pref = (-1) ** nn * ctx.qq(nn)
        rc = q_laguerre_coeff_list(ctx, alpha, nn)
    elif family == "pq":
        if b is None:
            raise ValueError("pq needs b")
        bb = ctx.scalar(b)
        pref = ((-1) ** nn * ctx.qpow(nn * (nn - 1) // 2) * qpoch(ctx, bb * ctx.q, mm)
                * qpoch(ctx, ctx.qpow(alpha + 1), nn))
        rc = little_q_jacobi_coeff_list(ctx, ctx.qpow(alpha), bb, nn)
    else:
        raise ValueError(f"no radial reduction for family {family!r}")
    return RadialForm(ctx, m - n, pref, rc)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _scalar_strings(c) -> Tuple[str, str]:
    if isinstance(c, GaussianRational):
        return (str(c.re), str(c.im))
    if isinstance(c, (int, Fraction)):
        return (str(Fraction(c)), "0")
    # float backend: decimal strings
    if isinstance(c, mpmath.mpc):
        return (mpmath.nstr(c.real, 17), mpmath.nstr(c.imag, 17))
    return (mpmath.nstr(c, 17), "0")


def poly_to_json(P: BivarPoly) -> str:
    meta = P.meta
    entries = []
    for (i, j) in sorted(P.coeffs):
        re, im = _scalar_strings(P.coeffs[(i, j)])
        entries.append([i, j, re, im])
    doc = {
        "family": meta.get("family"),
        "m": meta.get("m"),
        "n": meta.get("n"),
        "params": {k: str(v) for k, v in meta.items() if k not in ("family", "m", "n")},
        "coeffs": entries,
    }
    return json.dumps(doc, sort_keys=True)
