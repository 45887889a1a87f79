"""Polynomial engine: ring axioms, calculus, substitution, printing.

Derived expectations are computed by independent oracles living in this file:
a raw term-walking evaluator that treats all 2n variables as independent, and
hand-entered term maps.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubecert.errors import SpaceError
from tubecert.poly import (
    HermitianPolynomial,
    RealPolynomial,
    VariableSpace,
    format_poly,
)
from tubecert.scalars import GaussianRational

SP2 = VariableSpace(2)
SP4 = VariableSpace(4)


def var(space, i):
    return HermitianPolynomial.variable(space, i)


def const(space, c):
    return HermitianPolynomial.constant(space, c)


def rand_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def rand_poly(rng, space, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(2 * space.n))
        terms[exps] = GaussianRational(rand_fraction(rng), rand_fraction(rng))
    return HermitianPolynomial(space, terms)


def oracle_eval(p, values):
    """Independent evaluator: raw term walk with explicit values for all 2n slots."""
    total = GaussianRational(0)
    for exps, coeff in p.terms.items():
        term = coeff
        for v, k in zip(values, exps):
            for _ in range(k):
                term = term * v
        total = total + term
    return total


def test_ring_axioms_on_random_triples():
    rng = random.Random(42)
    for _ in range(500):
        p, q, r = (rand_poly(rng, SP2) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == HermitianPolynomial.zero(SP2)


def test_space_mismatch_raises():
    with pytest.raises(SpaceError):
        var(SP2, 0) + var(SP4, 0)


def test_add_examples():
    z1 = var(SP4, 0)
    assert (z1 + (-z1)).is_zero()
    pairing = var(SP4, 0) * var(SP4, 5) + var(SP4, 1) * var(SP4, 4)
    # hand-entered term map of the same thing
    lit = HermitianPolynomial(SP4, {(1, 0, 0, 0, 0, 1, 0, 0): 1, (0, 1, 0, 0, 1, 0, 0, 0): 1})
    assert pairing == lit


def test_quartic_assembly_matches_hand_literal():
    z1, z3 = var(SP4, 0), var(SP4, 2)
    zb1, zb2, zb3 = var(SP4, 4), var(SP4, 5), var(SP4, 6)
    z2 = var(SP4, 1)
    assembled = z1**2 * zb1**2 + z3 * zb3 + z1 * zb2 + z2 * zb1
    lit = HermitianPolynomial(SP4, {
        (2, 0, 0, 0, 2, 0, 0, 0): 1,
        (0, 0, 1, 0, 0, 0, 1, 0): 1,
        (1, 0, 0, 0, 0, 1, 0, 0): 1,
        (0, 1, 0, 0, 1, 0, 0, 0): 1,
    })
    assert assembled == lit


def test_mul_examples():
    p = var(SP4, 0) * var(SP4, 4)  # |z1|^2
    assert p * const(SP4, 1) == p
    square = p * p
    assert square.terms == {(2, 0, 0, 0, 2, 0, 0, 0): GaussianRational(1)}


def test_conjugate_examples_and_properties():
    rng = random.Random(44)
    z1 = var(SP4, 0)
    assert z1.conjugate() == var(SP4, 4)
    p = var(SP4, 0) * var(SP4, 5) * GaussianRational(0, 1)  # i*z1*zb2
    assert p.conjugate() == var(SP4, 1) * var(SP4, 4) * GaussianRational(0, -1)
    for _ in range(200):
        p, q = rand_poly(rng, SP2), rand_poly(rng, SP2)
        assert p.conjugate().conjugate() == p
        assert (p * q).conjugate() == p.conjugate() * q.conjugate()


def test_real_valuedness_of_defining_function():
    # Re z4 - pairing - |z1|^4 is fixed by conjugation.
    z = [var(SP4, i) for i in range(4)]
    zb = [var(SP4, 4 + i) for i in range(4)]
    rho = (z[3] + zb[3]) * Fraction(1, 2) - z[0] * zb[1] - z[1] * zb[0] - z[2] * zb[2] \
        - z[0] ** 2 * zb[0] ** 2
    assert rho.is_real_valued()
    assert rho.conjugate() == rho
    assert not (rho + var(SP4, 0)).is_real_valued()


def test_conjugate_evaluate_compatibility():
    rng = random.Random(45)
    for _ in range(100):
        p = rand_poly(rng, SP2)
        point = [
            GaussianRational(rand_fraction(rng), rand_fraction(rng)) for _ in range(2)
        ]
        assert p.conjugate().evaluate(point) == p.evaluate(point).conjugate()


def test_substitution_examples_and_associativity():
    rng = random.Random(46)
    z1 = var(SP2, 0)
    ident = [var(SP2, i) for i in range(4)]
    assert z1.substitute(ident) == z1
    images = list(ident)
    images[0] = z1 * Fraction(3, 2)
    assert (z1**2).substitute(images) == z1**2 * Fraction(9, 4)
    for _ in range(40):
        p = rand_poly(rng, SP2, max_terms=3, max_deg=2)
        f = [rand_poly(rng, SP2, max_terms=2, max_deg=1) for _ in range(4)]
        g = [rand_poly(rng, SP2, max_terms=2, max_deg=1) for _ in range(4)]
        fg = [comp.substitute(g) for comp in f]
        assert p.substitute(f).substitute(g) == p.substitute(fg)


def test_partial_examples_against_difference_oracle():
    z1 = var(SP2, 0)
    zb1 = var(SP2, 2)
    assert (z1**2).partial(0) == z1 * 2
    quartic = z1**2 * zb1**2
    assert quartic.partial(2) == z1**2 * zb1 * 2
    mixed = quartic.partial(0).partial(2)
    assert mixed == z1 * zb1 * 4
    # numeric oracle: independent central differences in the zb1 slot
    rng = random.Random(47)
    for _ in range(20):
        p = rand_poly(rng, SP2, max_terms=3, max_deg=2)
        values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
        h = 1e-6
        up = list(values)
        dn = list(values)
        up[2] += h
        dn[2] -= h
        numeric = (complex(oracle_eval_c(p, up)) - complex(oracle_eval_c(p, dn))) / (2 * h)
        symbolic = complex(oracle_eval_c(p.partial(2), values))
        assert abs(numeric - symbolic) < 1e-5


def oracle_eval_c(p, values):
    total = 0j
    for exps, coeff in p.terms.items():
        term = complex(coeff)
        for v, k in zip(values, exps):
            term *= v**k
        total += term
    return total


def test_partials_commute():
    rng = random.Random(48)
    for _ in range(100):
        p = rand_poly(rng, SP2)
        assert p.partial(0).partial(3) == p.partial(3).partial(0)


def test_evaluate_examples():
    p = var(SP2, 0) * var(SP2, 2)  # |z1|^2
    assert p.evaluate([GaussianRational(3, 4), GaussianRational(0)]) == GaussianRational(25)
    # defining function of the plus model at (0,0,0,1)
    z = [var(SP4, i) for i in range(4)]
    zb = [var(SP4, 4 + i) for i in range(4)]
    rho = (z[3] + zb[3]) * Fraction(1, 2) - z[0] * zb[1] - z[1] * zb[0] \
        - z[2] * zb[2] - z[0] ** 2 * zb[0] ** 2
    val = rho.evaluate([GaussianRational(0)] * 3 + [GaussianRational(1)])
    assert val == GaussianRational(1)
    rng = random.Random(50)
    for _ in range(50):
        q = rand_poly(rng, SP2)
        assert q.evaluate([GaussianRational(0)] * 2) == q.coefficient((0, 0, 0, 0))


def test_real_polynomial_evaluation_and_hessian():
    sp = VariableSpace(2)
    x1, x2 = var(sp, 0), var(sp, 1)
    f = RealPolynomial(x1 * x2 + x1**3)
    assert f.evaluate_real([Fraction(2), Fraction(3)]) == Fraction(14)
    H = f.hessian_at([0.5, -1.0])
    assert H[0][0] == pytest.approx(3.0)
    assert H[0][1] == pytest.approx(1.0)
    assert H[1][1] == pytest.approx(0.0)


def test_float_tower_separation():
    """A float or complex scalar is a TypeError in every ring operation; floats come
    out of a polynomial only as values at complex points."""
    p = var(SP2, 0)
    for scalar in (0.5, 2j, 0.0):
        for op in (lambda: p + scalar, lambda: p - scalar, lambda: scalar - p, lambda: p * scalar,
                   lambda: scalar * p):
            with pytest.raises(TypeError):
                op()
    assert (p * 2).evaluate_complex([1 + 1j, 0]) == 2 + 2j


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_power_matches_repeated_multiplication(a, b):
    p = var(SP2, 0) + const(SP2, 1)
    direct = const(SP2, 1)
    for _ in range(a):
        direct = direct * p
    assert p**a == direct
    assert p ** (a + b) == p**a * p**b


def test_literal_format_shape():
    p = var(SP2, 0) ** 2 * var(SP2, 2) * GaussianRational(Fraction(3, 5), Fraction(4, 5))
    assert format_poly(p) == "(3/5+4/5i)*z1^2*zb1^1"
    assert format_poly(HermitianPolynomial.zero(SP2)) == "(0)"


# -- the product kernel against the term-by-term loops it replaced --------------
#
# Products and substitutions run on numerator pairs {exps: (a, b)}: Gaussian
# integers over one denominator, an lcm.  The oracles below are the earlier
# engines: one coefficient product and sum per term pair, dropping a sum the
# moment it is zero, and a constant term added as its coefficient.  Both must
# give the same terms in the same insertion order (float evaluation sums in that
# order) with the same canonical (a, b, d) coefficients.


def oracle_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(exps)
            s = c1 * c2 if s is None else s + c1 * c2
            if s == 0:
                out.pop(exps, None)
            else:
                out[exps] = s
    return out


def oracle_power(p, k):
    result, base = None, p
    while k:
        if k & 1:
            result = base if result is None else oracle_mul(result, base)
        k >>= 1
        if k:
            base = oracle_mul(base, base)
    return result


def oracle_substitute(p, images):
    out, powers = {}, {}
    for e, c in p.terms.items():
        term = None
        for i, k in enumerate(e):
            if k:
                if (i, k) not in powers:
                    powers[i, k] = oracle_power(images[i].terms, k)
                term = powers[i, k] if term is None else oracle_mul(term, powers[i, k])
        if term is None:
            term = {(0,) * (2 * images[0].space.n): c}
        else:
            term = {exps: t * c for exps, t in term.items()}
        for exps, t in term.items():
            s = out.get(exps)
            s = t if s is None else s + t
            if s == 0:
                out.pop(exps, None)
            else:
                out[exps] = s
    return out


def triples(terms):
    """The terms in insertion order, each coefficient as its canonical (a, b, d)."""
    return [(e, c._a, c._b, c._d) for e, c in terms.items()]


# Denominators mix small values with the 10^6 height of the large-alpha draws;
# small numerators on a small exponent grid make term sums collide and cancel.
DENOMINATORS = st.one_of(st.integers(1, 6), st.sampled_from([999_983, 10**6]))
COEFFS = st.builds(GaussianRational, st.builds(Fraction, st.integers(-3, 3), DENOMINATORS),
                   st.builds(Fraction, st.integers(-3, 3), DENOMINATORS))
EXPONENTS = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), st.integers(0, 1))
POLYS = st.dictionaries(EXPONENTS, COEFFS, max_size=5).map(lambda t: HermitianPolynomial(SP2, t))
IMAGES = st.one_of(POLYS, COEFFS.map(lambda c: const(SP2, c)),
                   st.just(HermitianPolynomial.zero(SP2)))


@given(POLYS, POLYS)
@settings(max_examples=100, deadline=None)
def test_exact_product_matches_the_term_by_term_oracle(a, b):
    for p, q in ((a, b), (a + b, a - b)):  # the cross terms of (a + b)(a - b) cancel
        assert triples((p * q).terms) == triples(oracle_mul(p.terms, q.terms))


@given(POLYS, st.lists(IMAGES, min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_exact_substitution_matches_the_term_by_term_oracle(p, images):
    # maps.compose hands the same components in for z and zb; then p and p with
    # its z and zb exponents swapped have the same image, so their difference
    # cancels to zero term by term
    twice = images[:2] * 2
    swapped = HermitianPolynomial(SP2, {e[2:] + e[:2]: c for e, c in p.terms.items()})
    for q, imgs in ((p, images), (p, twice), (p - swapped, twice)):
        assert triples(q.substitute(imgs).terms) == triples(oracle_substitute(q, imgs))


def test_cancelled_terms_leave_the_product_and_return_at_the_end():
    x = var(SP2, 0)
    p, q = const(SP2, 1) + x + x**2, x**2 - x + const(SP2, 1)
    product = p * q  # x and x^3 cancel; x^2 cancels, then comes back as 1*x^2
    exps = [(k, 0, 0, 0) for k in (0, 4, 2)]
    assert triples(product.terms) == [(e, 1, 0, 1) for e in exps]
    y = var(SP2, 1) * Fraction(1, 10**6)
    difference = x - var(SP2, 1) + x * var(SP2, 1) * GaussianRational(2, -1)
    images = [y, y, const(SP2, 7), HermitianPolynomial.zero(SP2)]
    assert difference.substitute(images) == y * y * GaussianRational(2, -1)
    assert (x - var(SP2, 1)).substitute(images).is_zero()


def test_pullback_of_a_group_element_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from tubecert.catalog import make_p_element, model_surface, random_p_params
    from pullback_helpers import canonical_pullback

    gens = sympy.symbols("z1:5 zb1:5")

    def expr(p):
        return sum((sympy.Rational(c._a, c._d) + sympy.I * sympy.Rational(c._b, c._d))
                   * sympy.Mul(*(g**k for g, k in zip(gens, e))) for e, c in p.terms.items())

    element = make_p_element(random_p_params(random.Random(29), "-"))
    rho = model_surface("-").rho
    images = [expr(c) for c in element.components] + [expr(c.conjugate())
                                                      for c in element.components]
    expected = sympy.Poly(expr(rho).xreplace(dict(zip(gens, images))), *gens,
                          domain=sympy.QQ_I)
    ours = canonical_pullback(rho, element)  # q^4 * rho, since the element is a symmetry
    assert ours.terms
    assert {e: (sympy.Rational(c._a, c._d), sympy.Rational(c._b, c._d))
            for e, c in ours.terms.items()} == {
        e: (sympy.re(c), sympy.im(c)) for e, c in expected.as_dict().items()}


def slot_walk_values(p, vals):
    """The float evaluation as a walk over every exponent slot of every term, each
    coefficient converted at each call: the oracle for the compiled evaluate_values."""
    total = 0j
    for e, c in p.terms.items():
        term = complex(c._a / c._d, c._b / c._d)
        for v, k in zip(vals, e):
            if k:
                term *= v**k
        total += term
    return total


def bits(evaluate, *args) -> tuple:
    """The value's bits, or the error's type and message."""
    try:
        z = evaluate(*args)
    except OverflowError as exc:
        return type(exc), str(exc)
    return z.real.hex(), z.imag.hex()


WIDE_EXPONENTS = st.tuples(*[st.integers(0, 5)] * 4)
WIDE_POLYS = st.dictionaries(WIDE_EXPONENTS, COEFFS, max_size=8).map(
    lambda t: HermitianPolynomial(SP2, t))
FLOATS = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e-200, -3e150]))
VALUES = st.lists(st.builds(complex, FLOATS, FLOATS), min_size=4, max_size=4)


@given(WIDE_POLYS, VALUES, VALUES)
@settings(max_examples=150, deadline=None)
def test_compiled_float_evaluation_is_bitwise_the_slot_walk(p, vals, other):
    """First call (compiling), second call (compiled) and a fresh copy all give the
    same bits as the slot walk, signed zeros, underflow and overflow included."""
    fresh = HermitianPolynomial(SP2, p.terms)
    assert bits(fresh.evaluate_values, vals) == bits(slot_walk_values, p, vals)
    for v in (vals, other, vals):
        assert bits(p.evaluate_values, v) == bits(slot_walk_values, p, v)
    point = vals[:2]
    assert bits(p.evaluate_complex, point) == bits(
        slot_walk_values, p, point + [x.conjugate() for x in point])


POINTS = st.lists(COEFFS, min_size=2, max_size=2)


@given(st.one_of(WIDE_POLYS, COEFFS.map(lambda c: const(SP2, c)),
                 st.just(HermitianPolynomial.zero(SP2))), POINTS)
@settings(max_examples=150, deadline=None)
def test_exact_evaluation_matches_the_term_by_term_oracle(p, point):
    """The numerator sum over one denominator is the canonical value of the term by
    term GaussianRational sum, at points with mixed denominators and imaginary parts."""
    want = oracle_eval(p, point + [v.conjugate() for v in point])
    got = p.evaluate(point)
    assert (got._a, got._b, got._d) == (want._a, want._b, want._d)
    assert p.evaluate([v.re for v in point]) == oracle_eval(
        p, [GaussianRational(v.re) for v in point] * 2)


def test_exact_evaluation_of_zero_and_constant_polynomials():
    zero = HermitianPolynomial.zero(SP2).evaluate([GaussianRational(1, 1), 3])
    assert (zero._a, zero._b, zero._d) == (0, 0, 1)
    c = GaussianRational(Fraction(-2, 6), Fraction(5, 4))
    value = const(SP2, c).evaluate([Fraction(1, 999_983), GaussianRational(0, 7)])
    assert (value._a, value._b, value._d) == (c._a, c._b, c._d) == (-4, 15, 12)
    with pytest.raises(SpaceError):
        const(SP2, c).evaluate([1])
    with pytest.raises(TypeError):
        const(SP2, c).evaluate([0.5, 1])
