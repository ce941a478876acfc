"""Computation contexts and scalar backends.

Two backends are supported:

* ``exact``  -- rational arithmetic over the Gaussian rationals Q(i).  The
  base ``q`` (and the optional square root ``s`` with ``s**2 == q``) must be
  rational, and every operation is exact, so polynomial identity checks are
  decidable zero tests.
* ``float``  -- arbitrary precision binary floats via ``mpmath`` (``mpf`` /
  ``mpc``), with the working precision taken from the context.

Scalars flowing through the library are ``int`` / ``Fraction`` /
``GaussianRational`` on the exact backend and ``mpf`` / ``mpc`` on the float
backend.  Mixed arithmetic between these families is intentionally not
supported; a context converts incoming values once via :meth:`QContext.scalar`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import mpmath
from mpmath import mp

__all__ = [
    "GaussianRational",
    "TruncationPolicy",
    "QContext",
    "MissingSqrtError",
    "conj",
    "is_zero",
    "as_fraction",
]


GUARD_BITS = 16  # the bits a float context works with beyond precision_bits


class MissingSqrtError(ValueError):
    """An identity needs q**(1/2) but the context has no square root."""


def _exact_sqrt(x: Fraction) -> Optional[Fraction]:
    """Rational square root of x, or None if x is not a perfect square."""
    if x < 0:
        return None
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


class GaussianRational:
    """Exact complex number with rational real and imaginary parts.

    Interoperates with ``int`` and ``Fraction`` through the usual operator
    protocol, so generic polynomial code can mix them freely.  A product
    with a real operand (an ``int``, a ``Fraction``, or either factor with
    ``im == 0``) takes two ``Fraction`` products instead of four products
    and two sums, a quotient by a real divisor two ``Fraction`` divisions
    instead of the full Gaussian quotient, and a sum or difference with a
    real operand (an ``int``, a ``Fraction``, or an operand with
    ``im == 0``) one ``Fraction`` sum instead of two; the values are exact
    either way, and the result is always a ``GaussianRational``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _coerce(other) -> Optional["GaussianRational"]:
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other, 0)
        return None

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, GaussianRational):
            if other.im:
                return GaussianRational(self.re + other.re, self.im + other.im)
            other = other.re
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        return GaussianRational(self.re + other, self.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            if other.im:
                return GaussianRational(self.re - other.re, self.im - other.im)
            other = other.re
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        return GaussianRational(self.re - other, self.im)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return GaussianRational(other - self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            if other.im:
                if self.im:
                    return GaussianRational(
                        self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re,
                    )
                return GaussianRational(self.re * other.re, self.re * other.im)
            other = other.re
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        return GaussianRational(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            if other.im:
                d = other.re * other.re + other.im * other.im
                return GaussianRational((self.re * other.re + self.im * other.im) / d,
                                        (self.im * other.re - self.re * other.im) / d)
            other = other.re
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by exact zero")
        return GaussianRational(self.re / other, self.im / other)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (GaussianRational(1) / self) ** (-n)
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons -------------------------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"

    # -- conversions -------------------------------------------------------
    def to_mpc(self) -> mpmath.mpc:
        re = mp.mpf(self.re.numerator) / self.re.denominator
        im = mp.mpf(self.im.numerator) / self.im.denominator
        return mpmath.mpc(re, im)


def conj(x):
    """Complex conjugate across scalar backends."""
    if isinstance(x, GaussianRational):
        return x.conjugate()
    if isinstance(x, (int, Fraction)):
        return x
    return mpmath.conj(x)


def is_zero(x) -> bool:
    """Exact zero test; only meaningful on exact scalars."""
    if isinstance(x, GaussianRational):
        return x.re == 0 and x.im == 0
    return x == 0


def parse_rational(x) -> Fraction:
    """Fraction(x), with a zero denominator ("1/0") a ValueError, not a
    ZeroDivisionError."""
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def as_fraction(x) -> Fraction:
    """Extract the rational value of a real exact scalar."""
    if isinstance(x, GaussianRational):
        if x.im != 0:
            raise ValueError(f"not a real scalar: {x!r}")
        return x.re
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {type(x)}")


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls the truncated products and series of the kernel: max_terms
    bounds the retained terms, tail_tol the discarded tail.  A context's
    ``default_trunc`` is the one policy they read.  ``sum2d``,
    ``paired_diagonal_sum`` and BES-WALL's k-sums have fixed budgets (README).
    """

    max_terms: int = 200
    tail_tol: float = 1e-30

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if self.tail_tol < 0:
            raise ValueError("tail_tol must be >= 0")


Scalar = Union[int, Fraction, GaussianRational, mpmath.mpf, mpmath.mpc]


class QContext:
    """Base q, optional square root s (s*s == q), backend and precision.

    On the exact backend ``q`` must be a fraction in (0, 1); ``sqrt_q`` is
    either given (and validated) or, when None or "auto", derived when ``q``
    is a perfect square of rationals.  On the float backend ``sqrt_q="auto"``
    computes s = sqrt(q).
    """

    def __init__(
        self,
        q,
        sqrt_q=None,
        backend: str = "exact",
        precision_bits: int = 128,
        default_trunc: Optional[TruncationPolicy] = None,
    ):
        if backend not in ("exact", "float"):
            raise ValueError(f"unknown backend {backend!r}")
        if precision_bits < 53:
            raise ValueError("precision_bits must be >= 53")
        self.backend = backend
        self.precision_bits = int(precision_bits)
        self.default_trunc = default_trunc or TruncationPolicy()

        qfrac = parse_rational(q)
        if not 0 < qfrac < 1:
            raise ValueError(f"q must satisfy 0 < q < 1, got {qfrac}")
        self.q_fraction = qfrac

        if backend == "exact":
            self.q = qfrac
            if sqrt_q in (None, "auto"):
                self.s = _exact_sqrt(qfrac)  # may be None
            else:
                sfrac = parse_rational(sqrt_q)
                if sfrac * sfrac != qfrac:
                    raise ValueError(f"sqrt_q**2 = {sfrac * sfrac} != q = {qfrac}")
                self.s = sfrac
        else:
            with self.workprec():
                self.q = mp.mpf(qfrac.numerator) / qfrac.denominator
                if sqrt_q is None:
                    self.s = None
                elif sqrt_q == "auto":
                    self.s = mp.sqrt(self.q)
                else:
                    sfrac = parse_rational(sqrt_q)
                    self.s = mp.mpf(sfrac.numerator) / sfrac.denominator
        self._qq_cache = [self.one()]  # (q;q)_n prefix products
        self._qpow_cache = {}  # n (exact) or (n, mp.prec) (float) -> q**n
        # family members built by polyfamilies.coeffs (float: per mp.prec), shared
        self.coeffs_memo = {}

    # -- basic scalars -----------------------------------------------------
    @property
    def is_exact(self) -> bool:
        return self.backend == "exact"

    @contextmanager
    def workprec(self, extra: int = GUARD_BITS):
        with mp.workprec(self.precision_bits + extra):
            yield

    def one(self):
        return Fraction(1) if self.is_exact else mp.mpf(1)

    def zero(self):
        return Fraction(0) if self.is_exact else mp.mpf(0)

    def scalar(self, x) -> Scalar:
        """Convert x (int, Fraction, complex, GaussianRational, str) to a backend scalar."""
        if self.is_exact:
            if isinstance(x, (int, Fraction, GaussianRational)):
                return x
            if isinstance(x, str):
                return Fraction(x)
            if isinstance(x, complex):
                re = Fraction(x.real)
                im = Fraction(x.imag)
                return GaussianRational(re, im) if im else re
            raise TypeError(f"cannot convert {type(x)} to exact scalar")
        with self.workprec():
            if isinstance(x, GaussianRational):
                return x.to_mpc() if x.im else mp.mpf(x.re)
            if isinstance(x, Fraction):
                return mp.mpf(x.numerator) / x.denominator
            if isinstance(x, complex):
                return mp.mpc(x)
            return mpmath.mpmathify(x)

    def i_unit(self):
        """The imaginary unit in the active backend."""
        return GaussianRational(0, 1) if self.is_exact else mp.mpc(0, 1)

    def qpow(self, n: int):
        """q**n for integer n (negative allowed), from a per-context table.

        On the float backend the table is keyed by the working precision too,
        so each value is the q**n computed at the caller's ``mp.prec``.
        """
        key = n if self.is_exact else (n, mp.prec)
        try:
            return self._qpow_cache[key]
        except KeyError:
            val = self._qpow_cache[key] = self.q ** n
            return val

    def q_half_pow(self, j: int):
        """q**(j/2) for integer j; uses s for odd j and fails fast without it."""
        if j % 2 == 0:
            return self.q ** (j // 2)
        if self.s is None:
            raise MissingSqrtError(
                "q**(1/2) required: construct the context with sqrt_q set"
            )
        return self.s ** j

    def qq(self, n: int):
        """(q;q)_n via a cached prefix product; n >= 0.  The cache is
        append-only with immutable entries, so concurrent use is safe (a
        race at worst recomputes a prefix).  Float prefixes are extended at
        the context's own working precision, whatever the caller's."""
        if n < 0:
            raise ValueError("qq(n) needs n >= 0")
        cache = self._qq_cache
        if len(cache) <= n:
            with self.workprec():
                while len(cache) <= n:
                    k = len(cache)
                    cache.append(cache[-1] * (1 - self.q ** k))
        return cache[n]

    def abs2(self, x):
        """|x|^2, exact on the exact backend."""
        if isinstance(x, GaussianRational):
            return x.re * x.re + x.im * x.im
        if isinstance(x, (int, Fraction)):
            return x * x
        return mpmath.re(x * mpmath.conj(x))

    def mag(self, x) -> float:
        """Cheap float magnitude, for truncation control on either backend."""
        if isinstance(x, GaussianRational):
            return math.hypot(float(x.re), float(x.im))
        if isinstance(x, (int, Fraction)):
            return abs(float(x))
        return float(mpmath.fabs(x))

    def __repr__(self):
        s = "None" if self.s is None else str(self.s)
        return f"QContext(q={self.q_fraction}, s={s}, backend={self.backend}, bits={self.precision_bits})"
