"""Exact scalar arithmetic: rationals, Gaussian rationals, unit-circle phases.

Every certificate in this package bottoms out in a polynomial identity whose
coefficients live in Q(i).  This module supplies that coefficient field
(GaussianRational over ``fractions.Fraction``), exact rational points on the
unit circle standing in for phase factors e^{i*angle}, and the few floating
helpers used when a value has no exact representative (fourth roots,
irrational scale factors).

The two scalar towers never mix silently: conversion from the exact tower to
floats is explicit and one-way (``complex(w)`` or :func:`to_tower`).  The
floating tower is just Python ``complex`` / ``float``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError


def as_rational(x) -> Fraction:
    """Coerce an int, Fraction, or rational string like '3/5' to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class GaussianRational:
    """A complex number re + im*i with exact rational parts.

    Values are immutable; all arithmetic is exact.  Mixing with floats is a
    TypeError: convert explicitly with ``complex(w)`` when entering the
    floating path.

    >>> w = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    >>> w * w.conjugate() == GaussianRational(1)
    True
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", as_rational(re))
        object.__setattr__(self, "im", as_rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return GaussianRational(1) / self ** (-n)
        result = GaussianRational(1)
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus re**2 + im**2 (a nonnegative Rational)."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


def embed_exact(v) -> GaussianRational:
    """Lossless embedding of a numeric value into the exact tower.

    Floats and complexes embed exactly (every double is a rational); this is
    the one sanctioned float-to-exact direction, used to run exact machinery
    on numerically produced inputs.
    """
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussianRational(v)
    if isinstance(v, float):
        return GaussianRational(Fraction(v))
    if isinstance(v, complex):
        return GaussianRational(Fraction(v.real), Fraction(v.imag))
    raise TypeError(f"cannot embed {type(v).__name__} exactly")


I = GaussianRational(0, 1)


def is_exact(values) -> bool:
    """True when every value is an int, a Fraction or a GaussianRational."""
    return all(isinstance(v, (int, Fraction, GaussianRational)) for v in values)


def to_tower(x, exact: bool):
    """x as a scalar of the exact tower (GaussianRational) or the float tower (complex).

    Both scalar types support ``+``, ``-``, ``*``, ``/`` and ``conjugate()``,
    so a formula written once over them serves both towers.  A unimodular
    phase enters as its value.
    """
    if not exact:
        return complex(x)
    if isinstance(x, UnimodularPhase):
        return x.value
    return x if isinstance(x, GaussianRational) else GaussianRational(x)


def format_gaussian(w: GaussianRational) -> str:
    """Render in the literal format used by config files, e.g. ``3/5+4/5i``."""
    if w.im == 0:
        return str(w.re)
    if w.re == 0:
        return f"{w.im}i"
    sign = "+" if w.im > 0 else "-"
    return f"{w.re}{sign}{abs(w.im)}i"


def parse_gaussian(text: str) -> GaussianRational:
    """Inverse of :func:`format_gaussian`; exact round-trip."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")
    if not s.endswith("i"):
        return GaussianRational(Fraction(s))
    body = s[:-1]
    # Split at the sign separating real and imaginary parts, skipping a
    # leading sign and signs inside exponents (none occur for rationals).
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/":
            re_part, im_part = body[:k], body[k:]
            if im_part in ("+", "-"):
                im_part += "1"
            return GaussianRational(Fraction(re_part), Fraction(im_part))
    if body in ("", "+", "-"):
        body += "1"
    return GaussianRational(0, Fraction(body))


class UnimodularPhase:
    """An exact point on the unit circle: |value|^2 = 1 as a rational identity.

    Stands in for e^{i*angle} wherever a group law or invariance identity is
    checked with zero remainder; genuinely transcendental angles only appear
    on the floating path.
    """

    __slots__ = ("value",)

    def __init__(self, value: GaussianRational):
        if value.abs2() != 1:
            raise DomainError(f"not unimodular: |{value}|^2 = {value.abs2()}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("UnimodularPhase is immutable")

    def __mul__(self, other):
        if isinstance(other, UnimodularPhase):
            return UnimodularPhase(self.value * other.value)
        return NotImplemented

    def conjugate(self) -> "UnimodularPhase":
        """The inverse phase."""
        return UnimodularPhase(self.value.conjugate())

    def __eq__(self, other):
        if isinstance(other, UnimodularPhase):
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash(("phase", self.value))

    def __complex__(self):
        return complex(self.value)

    def __repr__(self):
        return f"UnimodularPhase({self.value})"


def phase_from_parameter(t) -> UnimodularPhase:
    """Exact unit-circle point ((1-t^2) + 2t*i) / (1+t^2) for rational t.

    t=0 gives 1, t=1 gives i; as t runs over the rationals the values are
    dense in the circle, which is all the identity checking needs.
    """
    t = as_rational(t)
    den = 1 + t * t
    return UnimodularPhase(GaussianRational((1 - t * t) / den, 2 * t / den))


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
