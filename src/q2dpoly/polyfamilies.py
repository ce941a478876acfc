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

Coefficients are built from the explicit finite sums; values at a fixed
point are also available from the three-term recurrences
(:class:`FamilyTable`, filled on read), which is what the numeric checkers,
the asymptotic reports and :func:`q2dpoly.measures.gram_matrix` read.
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


class BivarPoly:
    """Sparse bivariate polynomial sum c[i,j] z1^i z2^j with backend scalars."""

    __slots__ = ("ctx", "coeffs", "meta")

    def __init__(self, ctx: QContext, coeffs: Optional[Dict[Key, object]] = None,
                 meta: Optional[dict] = None):
        self.ctx = ctx
        self.coeffs: Dict[Key, object] = {}
        if coeffs:
            for k, c in coeffs.items():
                if not is_zero(c):
                    self.coeffs[k] = c
        self.meta = meta or {}

    # -- ring operations ----------------------------------------------------
    def _like(self, coeffs: Dict[Key, object], other) -> "BivarPoly":
        """The result of a ring operation of self with other (a scalar, or
        self for a negation), built from its coefficients.  The ring
        operations build through this hook, so a subclass keeps its kind and
        fields (a truncated series keeps the lower order); a polynomial with
        a series gives a series."""
        if isinstance(other, BivarPoly) and not isinstance(self, type(other)):
            return other._like(coeffs, self)
        return BivarPoly(self.ctx, coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        if isinstance(other, BivarPoly):
            for k, c in other.coeffs.items():
                out[k] = out.get(k, self.ctx.zero()) + c
        else:
            out[(0, 0)] = out.get((0, 0), self.ctx.zero()) + other
        return self._like(out, other)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.coeffs.items()}, self)

    def __sub__(self, other):
        if isinstance(other, BivarPoly):
            return self + (-other)
        return self + (-1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, BivarPoly):
            return self._like({k: c * other for k, c in self.coeffs.items()}, other)
        out: Dict[Key, object] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, self.ctx.zero()) + c1 * c2
        return self._like(out, other)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return (self - other).is_zero()

    def coeff(self, i: int, j: int):
        return self.coeffs.get((i, j), self.ctx.zero())

    # -- substitutions ------------------------------------------------------
    def dilate(self, c1=1, c2=1) -> "BivarPoly":
        """Substitute z1 -> c1 z1, z2 -> c2 z2.

        The powers of c1 and c2 come from one table per variable (see
        :func:`_power_table`), so each coefficient is the per-term
        ``c * c1**i * c2**j`` in value and type, bit for bit on the float
        backend.
        """
        p1 = _power_table(self.ctx, c1, (i for i, _ in self.coeffs))
        p2 = _power_table(self.ctx, c2, (j for _, j in self.coeffs))
        return BivarPoly(
            self.ctx, {(i, j): c * p1[i] * p2[j] for (i, j), c in self.coeffs.items()}
        )

    def dilate_q(self, e1: int = 0, e2: int = 0) -> "BivarPoly":
        """Substitute z1 -> q^e1 z1, z2 -> q^e2 z2 (integer exponents); the
        factors q^(e1 i) and q^(e2 j) are read from the context's q-power
        table."""
        qpow = self.ctx.qpow
        return BivarPoly(
            self.ctx,
            {(i, j): c * qpow(e1 * i) * qpow(e2 * j) for (i, j), c in self.coeffs.items()},
        )

    def qdiff(self, var: int, e: int = 1, alpha=0, beta=0) -> "BivarPoly":
        """The weighted q-difference in z_var (var 1 or 2), exact on coefficients:

            ((1 + alpha z1 z2) P - (1 + beta z1 z2) P(q^e z_var)) / ((1 - q^e) z_var).

        With alpha = beta = 0 it is the q-derivative D_{q^e}.  The weights
        divide (x z1 z2;q)_inf = (1 - x z1 z2)(x q z1 z2;q)_inf out of a
        q-derivative of a weighted polynomial (the Rodrigues steps, the
        raising operators, the q-disk backward shift).  One pass: for var 1
        a coefficient c at (i, j) adds c (1 - q^(e i))/(1 - q^e) at (i-1, j)
        and c (alpha - beta q^(e i))/(1 - q^e) at (i, j+1); var 2 mirrors it.
        """
        qpow, zero = self.ctx.qpow, self.ctx.zero()
        inv = 1 / (1 - qpow(e))
        weighted = bool(alpha or beta)
        out: Dict[Key, object] = {}
        for (i, j), c in self.coeffs.items():
            d = i if var == 1 else j
            qd = qpow(e * d)
            if d:
                k = (i - 1, j) if var == 1 else (i, j - 1)
                out[k] = out.get(k, zero) + c * (1 - qd) * inv
            if weighted:
                k = (i, j + 1) if var == 1 else (i + 1, j)
                out[k] = out.get(k, zero) + c * (alpha - beta * qd) * inv
        return BivarPoly(self.ctx, out)

    def conj_coeffs(self) -> "BivarPoly":
        return BivarPoly(self.ctx, {k: conj(c) for k, c in self.coeffs.items()})

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
    treated as immutable.
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
        nuv = Fraction(nu) if ctx.is_exact else ctx.scalar(nu)
        for k in range(min(m, n) + 1):
            ris = _rising(nuv, m + n - k, ctx)
            c = ((-1) ** k * math.factorial(k) * math.comb(m, k) * math.comb(n, k))
            out[(m - k, n - k)] = ctx.scalar(c) * ris
    else:
        raise ValueError(f"unknown family {family!r}")
    meta = {"family": family, "m": m, "n": n}
    if b is not None:
        meta["b"] = b
    if nu is not None:
        meta["nu"] = nu
    return BivarPoly(ctx, out, meta)


def _rising(a, n: int, ctx: QContext):
    out = ctx.one() if not isinstance(a, Fraction) else Fraction(1)
    for k in range(n):
        out = out * (a + k)
    return out


def _power_table(ctx: QContext, z, exps):
    """The powers z**e for the exponents e >= 0 in exps, indexed by e.

    Exact backend: the list z**0, z**0 * z, ... up to the largest exponent,
    by successive products.  Starting from z**0 keeps z's type (a
    GaussianRational stays one even at a real value), and exact products
    give the values of the powers.  Float backend: z**e for each distinct
    exponent only, so every entry has the bits of the per-term power.
    """
    if not ctx.is_exact:
        return {e: z**e for e in set(exps)}
    table = [z**0]
    for _ in range(max(exps, default=0)):
        table.append(table[-1] * z)
    return table


def eval_poly(P: BivarPoly, z1, z2):
    """Evaluate at scalars; float backend sums terms largest magnitude first.

    Each term is ``c * z1**i * z2**j`` with the powers read from one table
    per variable (see :func:`_power_table`): on the exact backend every term
    has the value and type of the per-term powers, and on the float backend
    the same bits, summed in the same order.
    """
    ctx = P.ctx
    z1 = ctx.scalar(z1)
    z2 = ctx.scalar(z2)
    items = sorted(P.coeffs.items())
    p1 = _power_table(ctx, z1, (i for (i, _), _ in items))
    p2 = _power_table(ctx, z2, (j for (_, j), _ in items))
    terms = [c * p1[i] * p2[j] for (i, j), c in items]
    if not terms:
        return ctx.zero()
    if not ctx.is_exact:
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

    seeded by the row m = 0 (z2^n, times (bq;q)_n for pq; on the exact
    backend z2^n by successive products).  Entry (m, n) needs row r only
    from column max(0, n - m + r) up to n, and a read fills just that band
    of rows 0..m, row by row, so a deep read never recurses.  Each row is
    one run of columns from its recorded first column.  Later reads extend
    it to the right, or, once, to the left down to column 0, so a read
    fills no entry outside the rectangle of rows 0..m and columns 0..n: a
    diagonal read (M, M) fills the n >= m half of the square, and reads in
    order from (0, 0) start every row at column 0.  An entry is the same
    products in the same order whatever the read order.  Entries are
    computed at the ``mp.prec`` of the read that fills them, with 1 - q^n
    from one list per table and ``mp.prec`` (exact values do not depend on
    it).  Read by the numeric checkers of
    :mod:`q2dpoly.identities_numeric`, by the asymptotic reports of
    :mod:`q2dpoly.zeros` and, at (iz, i zbar) on the exact backend, by
    :func:`q2dpoly.measures.gram_matrix`.
    """

    def __init__(self, ctx: QContext, family: str, z1, z2, b=None):
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
        # rows[m][n - starts[m]]; whenever row m holds columns a..c, row m - 1
        # holds at least max(0, a - 1)..c
        self.rows: List[List[object]] = []
        self.starts: List[int] = []
        self.z2pow = [self.z2**0]  # exact backend: z2^n by successive products
        self.one_minus_qpow: Dict[int, List[object]] = {}  # mp.prec -> [1 - q^n]

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
        omq = self.one_minus_qpow.get(mpmath.mp.prec)
        if omq is None:
            omq = self.one_minus_qpow[mpmath.mp.prec] = []
        if len(omq) <= n:
            omq.extend(1 - self.ctx.qpow(j) for j in range(len(omq), n + 1))
        for r in range(top, m + 1):
            row, start = rows[r], starts[r]
            lo = 0 if r <= zero_to else max(0, n - m + r)
            if not row:
                starts[r] = start = lo
            elif lo < start:
                rows[r] = row = [self._entry(r, j, omq) for j in range(lo, start)] + row
                starts[r] = start = lo
            for j in range(start + len(row), n + 1):
                row.append(self._entry(r, j, omq))
        return rows[m][n - starts[m]]

    def _entry(self, r: int, j: int, omq):
        ctx, z1 = self.ctx, self.z1
        if r == 0:
            if ctx.is_exact:
                pw = self.z2pow
                while len(pw) <= j:
                    pw.append(pw[-1] * self.z2)
                zj = pw[j]
            else:
                zj = self.z2**j
            return zj if self.family != "pq" else self.bq(j) * zj
        up, s = self.rows[r - 1], self.starts[r - 1]
        low = up[j - 1 - s] if j else ctx.zero()
        if self.family == "Hq":
            return z1 * up[j - s] - ctx.qpow(r - 1) * omq[j] * low
        if self.family == "hq":
            return ctx.qpow(j) * z1 * up[j - s] - omq[j] * low
        bb = self.b
        return (z1 * (1 - bb * ctx.qpow(r + j)) * up[j - s]
                - ctx.qpow(r - 1) * omq[j] * (1 - bb * ctx.qpow(j)) * low)


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
