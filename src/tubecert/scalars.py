"""Exact scalar arithmetic: rationals, Gaussian rationals, unit-circle phases.

Every certificate in this package bottoms out in a polynomial identity whose
coefficients live in Q(i).  This module supplies that coefficient field
(GaussianRational: a Gaussian-integer numerator over one positive integer
denominator, so each operation is integer arithmetic and at most one gcd),
exact rational points on the unit circle standing in for phase factors
e^{i*angle}, and the few floating helpers used when a value has no exact
representative (fourth roots, irrational scale factors).

Exact values and floats never mix silently: conversion to floats is explicit
and one-way (``complex(w)``), and :func:`to_tower` admits exact values only.
Floats are plain Python ``complex`` / ``float`` values, used where a value is
read at a point: Levi numerics, printed maps, the omega solver's float path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, mul

from .errors import DomainError


# The largest decimal exponent of a rational's text, five digits.  Fraction expands it
# in full: 1e10000 in about 0.3 ms, 1e999999999 into a 415 MB integer.
MAX_EXPONENT = 10_000


def as_rational(x) -> Fraction:
    """Coerce an int, Fraction, or rational string like '3/5' or '1e-3' to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        _, e, exponent = x.lower().rpartition("e")  # read before Fraction expands it
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if e and digits.isdecimal() and (len(digits) > 5 or int(digits) > MAX_EXPONENT):
            raise ValueError(f"decimal exponent beyond ±{MAX_EXPONENT}")
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Record:
    """The base of the package's value classes: a value is its ``_fields``.

    A subclass lists in ``_fields`` the constructor arguments that make up its
    value; its other slots hold what it computes once and keeps (derivatives,
    compiled floats, a built map), which equality, hashing and repr do not read
    and a :meth:`_replace` copy starts without.  Fields cannot be assigned: a
    constructor sets its slots with ``object.__setattr__``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other is self:  # nine in ten comparisons are of a variable space with itself
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{type(self).__name__}({shown})"

    def _replace(self, **changes):
        """A copy through the constructor with the given fields changed; an unknown
        name is a TypeError."""
        return type(self)(**{k: getattr(self, k) for k in self._fields} | changes)


class GaussianRational(Record):
    """A complex number (a + b*i) / d with integers a, b and d.

    The stored form is canonical: ``d > 0`` and ``gcd(a, b, d) == 1``, so two
    values are equal exactly when their triples are, and each operation ends
    in at most one integer gcd.  ``re`` and ``im`` read the parts as
    ``Fraction`` values.

    Values are immutable; all arithmetic is exact.  Mixing with floats is a
    TypeError: convert explicitly with ``complex(w)`` when entering the
    floating path.

    >>> w = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    >>> w * w.conjugate() == GaussianRational(1)
    True
    """

    __slots__ = ("_a", "_b", "_d")
    _fields = ("re", "im")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = as_rational(re), as_rational(im)
            p, q = re.denominator, im.denominator
            d = p * q // math.gcd(p, q)
            # With both parts in lowest terms, their least common denominator
            # leaves gcd(a, b, d) == 1.
            a, b = re.numerator * (d // p), im.numerator * (d // q)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, o):
        if not isinstance(o, GaussianRational):
            o = _coerce(o)
            if o is None:
                return NotImplemented
        return _add(self, o._a, o._b, o._d)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __sub__(self, o):
        if not isinstance(o, GaussianRational):
            o = _coerce(o)
            if o is None:
                return NotImplemented
        return _add(self, -o._a, -o._b, o._d)

    def __rsub__(self, o):
        o = _coerce(o)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, o):
        if not isinstance(o, GaussianRational):
            o = _coerce(o)
            if o is None:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        d = self._d * o._d
        if d == 1:
            return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, 1)
        return _reduce(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, GaussianRational):
            o = _coerce(o)
            if o is None:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (a1 + b1 i)/d1 / ((a2 + b2 i)/d2) = (a1 + b1 i)(a2 - b2 i) d2 / (d1 (a2^2 + b2^2))
        d2 = o._d
        return _reduce((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * n)

    def __rtruediv__(self, o):
        o = _coerce(o)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return GaussianRational(1)
        if n < 0:
            return GaussianRational(1) / _power(self, -n, mul)
        return _power(self, n, mul)

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """Exact squared modulus re**2 + im**2 (a nonnegative Rational)."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def is_real(self) -> bool:
        return self._b == 0

    def __eq__(self, o):
        if not isinstance(o, GaussianRational):
            o = _coerce(o)
            if o is None:
                return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # A real value equals the int or Fraction of the same value, so it hashes as one.
        return hash(self.re) if self._b == 0 else hash((self.re, self.im))

    def __complex__(self) -> complex:
        # Integer true division rounds correctly, as float(Fraction) does.
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i) / d from an already canonical triple."""
    w = object.__new__(GaussianRational)
    _set_a(w, a)
    _set_b(w, b)
    _set_d(w, d)
    return w


def _coerce(x) -> GaussianRational | None:
    """x as a GaussianRational when it is exact (GaussianRational, int, Fraction), else None."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        return _make(x, 0, 1)
    if isinstance(x, Fraction):
        return _make(x.numerator, 0, x.denominator)
    return None


def _add(x: GaussianRational, a: int, b: int, d: int) -> GaussianRational:
    """x + (a + b*i) / d."""
    if d == x._d:
        if d == 1:
            return _make(x._a + a, x._b + b, 1)
        return _reduce(x._a + a, x._b + b, d)
    return _reduce(x._a * d + a * x._d, x._b * d + b * x._d, x._d * d)


def _reduce(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i) / d for d > 0, brought to canonical form."""
    g = math.gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _make(a, b, d)


class _Unreduced:
    """A Q(i) value (a + b*i) / d, d > 0, kept out of lowest terms.

    Its ring operations take unreduced values or ints on either side and call
    no gcd, so a formula evaluated over it canonicalises once per result
    (:meth:`reduced`), not once per operation.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int, d: int):
        self.a, self.b, self.d = a, b, d

    @staticmethod
    def of(x: GaussianRational) -> "_Unreduced":
        return _Unreduced(x._a, x._b, x._d)

    def reduced(self) -> GaussianRational:
        return _reduce(self.a, self.b, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def conjugate(self) -> "_Unreduced":
        return _Unreduced(self.a, -self.b, self.d)

    def __neg__(self):
        return _Unreduced(-self.a, -self.b, self.d)

    def __add__(self, o):
        if type(o) is int:
            return _Unreduced(self.a + o * self.d, self.b, self.d)
        if self.d == o.d:
            return _Unreduced(self.a + o.a, self.b + o.b, self.d)
        return _Unreduced(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d, self.d * o.d)

    __radd__ = __add__

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if type(o) is int:
            return _Unreduced(self.a * o, self.b * o, self.d)
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        return _Unreduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * o.d)

    __rmul__ = __mul__


def _over_lcm(values) -> tuple[list, int]:
    """A collection of Q(i) values as Gaussian-integer pairs (a, b) over the lcm
    d > 0 of their denominators."""
    d = math.lcm(*[x._d for x in values])
    if d == 1:
        return [(x._a, x._b) for x in values], 1
    out = []
    for x in values:
        m = d // x._d
        out.append((x._a * m, x._b * m))
    return out, d


def _gaussian_mul(p: tuple, q: tuple) -> tuple:
    """The product of two Gaussian integers given as pairs (a, b)."""
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _power(base, k: int, times):
    """base**k for k >= 1 by repeated squaring, multiplying with times."""
    result = None
    while k:
        if k & 1:
            result = base if result is None else times(result, base)
        k >>= 1
        if k:
            base = times(base, base)
    return result


I = GaussianRational(0, 1)


def to_tower(x) -> GaussianRational:
    """x as a scalar of the exact tower: a GaussianRational.

    Takes an int, a Fraction, a rational string or a GaussianRational; a
    float or complex is a TypeError.
    """
    return x if isinstance(x, GaussianRational) else GaussianRational(x)


def format_gaussian(w: GaussianRational) -> str:
    """Render as plain text, e.g. ``3/5+4/5i``."""
    if w.im == 0:
        return str(w.re)
    if w.re == 0:
        return f"{w.im}i"
    sign = "+" if w.im > 0 else "-"
    return f"{w.re}{sign}{abs(w.im)}i"


def phase_from_parameter(t) -> GaussianRational:
    """Exact unit-circle point ((1-t^2) + 2t*i) / (1+t^2) for rational t.

    t=0 gives 1, t=1 gives i; as t runs over the rationals the values are
    dense in the circle, which is all the identity checking needs.
    """
    t = as_rational(t)
    n, m = t.numerator, t.denominator  # t = n/m gives ((m^2 - n^2) + 2nm i) / (m^2 + n^2)
    return _reduce(m * m - n * n, 2 * n * m, m * m + n * n)


def sqrt_exact(r) -> Fraction | None:
    """Exact nonnegative square root of a Rational, or None.

    Returns s with s*s == r when numerator and denominator are both perfect
    squares; returns None otherwise (caller falls back to the floating
    path).  Negative input is a DomainError, never a NaN.
    """
    r = as_rational(r)
    if r < 0:
        raise DomainError(f"square root of negative rational {r}")
    if r == 0:
        return Fraction(0)
    num, den = r.numerator, r.denominator
    sn, sd = math.isqrt(num), math.isqrt(den)
    if sn * sn != num or sd * sd != den:
        return None
    return Fraction(sn, sd)


def fourth_root_exact(r) -> Fraction | None:
    """Exact nonnegative fourth root of a Rational, or None."""
    s = sqrt_exact(r)
    if s is None:
        return None
    return sqrt_exact(s)


def nth_root_float(r: float, n: int) -> float:
    """Floating n-th root of r > 0, accurate to |result**n - r| <= 1e-12*max(1,|r|)."""
    if n <= 0:
        raise DomainError(f"root order must be positive, got {n}")
    r = float(r)
    if r <= 0:
        raise DomainError(f"n-th root of non-positive value {r}")
    x = r ** (1.0 / n)
    # One or two Newton steps pin the residual well under the contract.
    for _ in range(2):
        xn = x ** (n - 1)
        x -= (x * xn - r) / (n * xn)
    return x
