"""Exact scalar arithmetic: field axioms, phases, roots."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubecert.errors import DomainError
from tubecert.scalars import (
    GaussianRational,
    _Unreduced,
    as_rational,
    format_gaussian,
    fourth_root_exact,
    nth_root_float,
    phase_from_parameter,
    sqrt_exact,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)


def rand_fraction(rng, span=40, den=12):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_gaussian(rng):
    return GaussianRational(rand_fraction(rng), rand_fraction(rng))


@pytest.mark.parametrize("text", ["1e10000", "-2.5E-10000", "1e+0_010_000", "7e00010000 "])
def test_a_decimal_exponent_up_to_the_limit_is_expanded(text):
    assert as_rational(text) == Fraction(text)


@pytest.mark.parametrize("text", ["1e10001", "1e-10001", "0e10001", "1E+1_0001"])
def test_a_decimal_exponent_beyond_the_limit_is_refused(text):
    with pytest.raises(ValueError, match="decimal exponent beyond ±10000"):
        as_rational(text)


@pytest.mark.parametrize("text", ["e5", "1/2e", "nan", "1e"])
def test_text_with_no_readable_exponent_is_left_to_fraction(text):
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        as_rational(text)


def test_field_axioms_on_random_triples():
    rng = random.Random(2024)
    for _ in range(1000):
        a, b, c = (rand_gaussian(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
    # same for plain rationals
    for _ in range(1000):
        a, b, c = (rand_fraction(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


def test_division_and_inverse():
    rng = random.Random(5)
    for _ in range(200):
        a = rand_gaussian(rng)
        if a.is_zero():
            continue
        assert a / a == GaussianRational(1)
        b = rand_gaussian(rng)
        assert (b / a) * a == b
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_conjugation_involution_and_modulus():
    rng = random.Random(6)
    for _ in range(300):
        a = rand_gaussian(rng)
        assert a.conjugate().conjugate() == a
        assert a.abs2() == (a * a.conjugate()).re
        assert a.abs2() >= 0


@given(rationals)
@settings(max_examples=200, deadline=None)
def test_phase_unit_modulus(t):
    p = phase_from_parameter(t)
    assert p.abs2() == 1


def test_phase_examples():
    assert phase_from_parameter(0) == GaussianRational(1)
    assert phase_from_parameter(1) == GaussianRational(0, 1)
    assert phase_from_parameter(Fraction(1, 2)) == GaussianRational(
        Fraction(3, 5), Fraction(4, 5)
    )


@given(rationals)
@settings(max_examples=200, deadline=None)
def test_phase_from_integers_keeps_the_fraction_formula_triple(t):
    den = 1 + t * t
    want = GaussianRational((1 - t * t) / den, 2 * t / den)
    got = phase_from_parameter(t)
    assert (got._a, got._b, got._d) == (want._a, want._b, want._d)


def test_phase_products_are_phases():
    rng = random.Random(7)
    for _ in range(1000):
        p = phase_from_parameter(rand_fraction(rng))
        q = phase_from_parameter(rand_fraction(rng))
        prod = p * q
        assert prod._a * prod._a + prod._b * prod._b == prod._d * prod._d
        assert prod.abs2() == 1
        assert p * p.conjugate() == GaussianRational(1)


def test_sqrt_exact():
    assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_exact(2) is None
    assert sqrt_exact(0) == 0
    assert fourth_root_exact(Fraction(81, 16)) == Fraction(3, 2)
    assert fourth_root_exact(Fraction(2)) is None
    with pytest.raises(DomainError):
        sqrt_exact(Fraction(-1))


def test_nth_root_float():
    assert nth_root_float(16.0, 4) == pytest.approx(2.0, abs=1e-13)
    assert nth_root_float(1.0, 4) == pytest.approx(1.0, abs=1e-15)
    # the tolerance contract
    rng = random.Random(8)
    for _ in range(200):
        r = rng.uniform(1e-6, 1e6)
        n = rng.randint(1, 6)
        x = nth_root_float(r, n)
        assert abs(x**n - r) <= 1e-12 * max(1.0, abs(r))
    with pytest.raises(DomainError):
        nth_root_float(-1.0, 4)
    with pytest.raises(DomainError):
        nth_root_float(0.0, 3)


def test_float_conversion_round_trip():
    rng = random.Random(9)
    for _ in range(500):
        mag = 10.0 ** rng.uniform(-6, 6)
        re = Fraction(rng.uniform(-mag, mag)).limit_denominator(10**12)
        im = Fraction(rng.uniform(-mag, mag)).limit_denominator(10**12)
        w = GaussianRational(re, im)
        z = complex(w)
        if re:
            assert abs(z.real - float(re)) <= 1e-15 * abs(float(re))
        if im:
            assert abs(z.imag - float(im)) <= 1e-15 * abs(float(im))


def test_literal_format_examples():
    assert format_gaussian(GaussianRational(Fraction(3, 5), Fraction(4, 5))) == "3/5+4/5i"
    assert format_gaussian(GaussianRational(Fraction(3, 5), Fraction(-4, 5))) == "3/5-4/5i"
    assert format_gaussian(GaussianRational(0, -1)) == "-1i"
    assert format_gaussian(GaussianRational(7)) == "7"
    assert str(GaussianRational(Fraction(-1, 2), 2)) == "-1/2+2i"


# -- differential test against the Fraction-pair reference -------------------


class FractionPair:
    """Reference Q(i) arithmetic on a pair of Fractions (re, im).

    This is the arithmetic GaussianRational carried before it stored one
    Gaussian-integer numerator over one denominator; every operator of the
    integer form is compared against it.
    """

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, x):
        if isinstance(x, GaussianRational):
            return cls(x.re, x.im)
        return cls(x)

    def __add__(self, o):
        return FractionPair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return FractionPair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return FractionPair(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError
        return FractionPair(
            (self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d
        )

    def __neg__(self):
        return FractionPair(-self.re, -self.im)

    def __pow__(self, n):
        if n < 0:
            return FractionPair(1) / self ** (-n)
        out = FractionPair(1)
        for _ in range(n):
            out = out * self
        return out

    def conjugate(self):
        return FractionPair(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im


def assert_same(w, ref):
    """w is a canonical GaussianRational with the reference's value."""
    assert isinstance(w, GaussianRational)
    assert (w.re, w.im) == (ref.re, ref.im)
    assert type(w.re) is Fraction and type(w.im) is Fraction
    a, b, d = w._a, w._b, w._d
    assert d > 0 and math.gcd(a, b, d) == 1
    assert Fraction(a, d) == w.re and Fraction(b, d) == w.im


def rand_scalar(rng):
    """A GaussianRational, int or Fraction; parts are often zero or integral."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randint(-9, 9)
    if kind == 1:
        return rand_fraction(rng, 300, 90)
    parts = [
        rng.choice([Fraction(0), Fraction(rng.randint(-20, 20)), rand_fraction(rng, 10**6, 10**4)])
        for _ in range(2)
    ]
    return GaussianRational(*parts)


def test_integer_form_matches_fraction_pairs():
    rng = random.Random(20240)
    for _ in range(1500):
        x, y = rand_scalar(rng), rand_scalar(rng)
        if not isinstance(x, GaussianRational):
            x, y = y, x
        if not isinstance(x, GaussianRational):
            x = GaussianRational(x)
        rx, ry = FractionPair.of(x), FractionPair.of(y)
        assert_same(x, rx)
        assert_same(x + y, rx + ry)
        assert_same(y + x, ry + rx)
        assert_same(x - y, rx - ry)
        assert_same(y - x, ry - rx)
        assert_same(x * y, rx * ry)
        assert_same(y * x, ry * rx)
        assert_same(-x, -rx)
        assert_same(x.conjugate(), rx.conjugate())
        assert x.abs2() == rx.abs2() and type(x.abs2()) is Fraction
        assert x.is_zero() == (rx.re == 0 and rx.im == 0)
        assert x.is_real() == (rx.im == 0)
        assert (x == y) == (rx.re == ry.re and rx.im == ry.im)
        if ry.abs2():
            assert_same(x / y, rx / ry)
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        if rx.abs2():
            assert_same(y / x, ry / rx)
            k = rng.randint(-4, 4)
            assert_same(x**k, rx**k)
        else:
            with pytest.raises(ZeroDivisionError):
                y / x
            with pytest.raises(ZeroDivisionError):
                x**-1


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_integer_form_matches_fraction_pairs_on_drawn_parts(p, q, r, s):
    x, y = GaussianRational(p, q), GaussianRational(r, s)
    rx, ry = FractionPair(p, q), FractionPair(r, s)
    for w, ref in (
        (x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (x.conjugate(), rx.conjugate()),
    ):
        assert_same(w, ref)
    if ry.abs2():
        assert_same(x / y, rx / ry)


def test_equal_values_built_differently_are_equal_and_hash_equal():
    rng = random.Random(20241)
    for _ in range(500):
        x = GaussianRational(rand_fraction(rng, 50, 30), rand_fraction(rng, 50, 30))
        k = GaussianRational(rand_fraction(rng, 50, 30) or 1, rand_fraction(rng, 50, 30))
        ways = [
            x,
            (x * k) / k,
            (x + k) - k,
            x.conjugate().conjugate(),
            -(-x),
            GaussianRational(x.re, x.im),
        ]
        for w in ways:
            assert w == x and hash(w) == hash(x)
            assert (w._a, w._b, w._d) == (x._a, x._b, x._d)
    assert GaussianRational(Fraction(3, 1)) == 3 and GaussianRational(Fraction(2, 4)) == Fraction(1, 2)
    assert GaussianRational(0, 0) == GaussianRational(Fraction(0, 7))
    assert hash(GaussianRational(Fraction(1, 2), 3)) == hash((Fraction(1, 2), Fraction(3)))


def test_real_values_hash_as_the_int_or_fraction_they_equal():
    rng = random.Random(20243)
    reals = [0, 1, -7, 10**30, Fraction(1, 2), Fraction(-22, 7), Fraction(10**20 + 1, 3**40)]
    reals += [rand_fraction(rng, 50, 30) for _ in range(200)]
    for v in reals:
        for w in (GaussianRational(v), GaussianRational(v, 3) - GaussianRational(0, 3)):
            assert w == v and hash(w) == hash(v)
            assert {v: "v"}.get(w) == "v" and {w: "w"}.get(v) == "w"
            assert len({v, w}) == 1
    assert {1: "one"}.get(GaussianRational(1)) == "one"
    assert {Fraction(1, 2): "half"}.get(GaussianRational(Fraction(2, 4))) == "half"
    mixed = [1, Fraction(1), GaussianRational(1), GaussianRational(Fraction(3, 3)),
             Fraction(1, 2), GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(1, 2), 3),
             GaussianRational(Fraction(2, 4), Fraction(6, 2))]
    assert len(set(mixed)) == 3
    z = GaussianRational(Fraction(1, 2), 3)
    assert len({z, (z * GaussianRational(2, 5)) / GaussianRational(2, 5), -(-z)}) == 1
    assert z != Fraction(1, 2) and Fraction(1, 2) not in {z}


def test_complex_conversion_is_bitwise_that_of_the_fraction_parts():
    rng = random.Random(20242)
    for _ in range(2000):
        num = rng.randint(-(10**30), 10**30)
        den = rng.randint(1, 10**25)
        w = GaussianRational(Fraction(num, den), Fraction(rng.randint(-(10**20), 10**20), den * 3))
        z, ref = complex(w), complex(float(w.re), float(w.im))
        assert (z.real.hex(), z.imag.hex()) == (ref.real.hex(), ref.imag.hex())


def test_floats_do_not_mix_and_values_stay_immutable():
    w = GaussianRational(1, 2)
    for bad in (1.5, 1j, "1"):
        with pytest.raises(TypeError):
            w + bad
        with pytest.raises(TypeError):
            bad * w
    assert (w == 1.0) is False
    with pytest.raises(AttributeError):
        w.re = Fraction(3)
    with pytest.raises(ZeroDivisionError):
        3 / GaussianRational(0)
    with pytest.raises(ZeroDivisionError):
        w / Fraction(0)


def _triple(w):
    return (w._a, w._b, w._d)


@given(rationals, rationals, rationals, rationals, st.integers(-20, 20))
@settings(max_examples=200, deadline=None)
def test_unreduced_operations_reduce_to_the_gaussian_rational_results(p, q, r, s, k):
    """Each operation of the unreduced value, int operands on either side
    included, reduces to the canonical triple of the same GaussianRational
    operation."""
    x, y = GaussianRational(p, q), GaussianRational(r, s)
    ux, uy = _Unreduced.of(x), _Unreduced.of(y)
    pairs = [
        (ux * uy, x * y), (ux + uy, x + y), (ux - uy, x - y), (-ux, -x),
        (ux.conjugate(), x.conjugate()), (ux * k, x * k), (k * ux, k * x),
        (ux + k, x + k), (k + ux, k + x), (ux - k, x - k), (k - ux, k - x),
    ]
    for got, want in pairs:
        assert type(got) is _Unreduced and got.d > 0
        assert _triple(got.reduced()) == _triple(want)
        assert got.is_zero() == want.is_zero()
