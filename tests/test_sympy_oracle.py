"""Pullbacks and compositions re-expanded by sympy, an engine independent of tubecert.

Each exact map's components and each defining function are rebuilt as sympy
polynomials over Q(i) in z_1..z_n, zb_1..zb_n.  The conjugate image of a
component is formed here (swap z_i and zb_i, conjugate each coefficient), and
the substitution is expanded by sympy.  The term maps must agree exactly.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from tubecert.catalog import (  # noqa: E402
    _generator_rows,
    make_gamma,
    make_generator,
    make_p_element,
    model_surface,
    quadric_surface,
    quadric_transitive_map,
    random_fraction,
    random_gaussian,
    random_p_params,
    universal_generator_certificate,
)
from tubecert.maps import compose, lift_affine  # noqa: E402

from pullback_helpers import canonical_pullback  # noqa: E402


def symbols(space):
    return sympy.symbols(" ".join(space.names))


def to_sympy(p, gens):
    """The polynomial p as a sympy Poly over QQ_I in the generators gens."""
    expr = sympy.Integer(0)
    for exps, c in p.terms.items():
        coeff = sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
            c.im.numerator, c.im.denominator
        )
        expr += coeff * sympy.Mul(*(g**k for g, k in zip(gens, exps)))
    return sympy.Poly(expr, *gens, domain=sympy.QQ_I)


def conjugate_image(poly, gens):
    """Swap z_i with zb_i and conjugate every coefficient."""
    n = len(gens) // 2
    swapped = {exps[n:] + exps[:n]: sympy.conjugate(c) for exps, c in poly.terms()}
    return sympy.Poly.from_dict(swapped, *gens, domain=sympy.QQ_I)


def substitute(poly, images, gens):
    """poly with generator i replaced by images[i], expanded by sympy."""
    total = sympy.Poly(0, *gens, domain=sympy.QQ_I)
    for exps, c in poly.terms():
        term = sympy.Poly(c, *gens, domain=sympy.QQ_I)
        for img, k in zip(images, exps):
            if k:
                term = term * img**k
        total = total + term
    return total


def sympy_pullback(rho, f):
    gens = symbols(f.space_in)
    comps = [to_sympy(c, gens) for c in f.components]
    images = comps + [conjugate_image(c, gens) for c in comps]
    return substitute(to_sympy(rho, gens), images, gens)


def term_map(poly):
    """{exponent tuple: (re, im)} with Fraction parts, from sympy or tubecert."""
    if isinstance(poly, sympy.Poly):
        out = {}
        for exps, c in poly.terms():
            re, im = sympy.re(c), sympy.im(c)
            out[tuple(exps)] = (Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
        return out
    return {exps: (c.re, c.im) for exps, c in poly.terms.items()}


def assert_pullback_matches(rho, f):
    ours = term_map(canonical_pullback(rho, f))
    assert ours, "an empty pullback proves nothing"
    assert ours == term_map(sympy_pullback(rho, f))


@pytest.mark.parametrize("alpha", [Fraction(1, 12), Fraction(123457, 4096)])
def test_gamma_generator_pullbacks(alpha):
    rng = random.Random(5)
    rho = make_gamma(alpha).rho
    for kind in ("phi", "psi", "mu", "nu"):
        param = random_fraction(rng, 1, 3, 4)
        assert_pullback_matches(rho, lift_affine(make_generator(kind, alpha, param)))


@pytest.mark.parametrize("sign", ["+", "-"])
def test_group_element_pullbacks(sign):
    element = make_p_element(random_p_params(random.Random(11), sign))
    assert_pullback_matches(model_surface(sign).rho, element)


def test_quadric_transitive_map_pullback():
    rng = random.Random(13)
    p, n = 1, 3
    f = quadric_transitive_map(
        p, n, Fraction(5, 3), [random_gaussian(rng) for _ in range(n)], random_fraction(rng)
    )
    assert_pullback_matches(quadric_surface(p, n).rho, f)


def test_composition_of_group_elements():
    rng = random.Random(17)
    f, g = (make_p_element(random_p_params(rng, "-")) for _ in range(2))
    fg = compose(f, g)
    gens = symbols(g.space_in)
    g_comps = [to_sympy(c, gens) for c in g.components]
    images = g_comps + [conjugate_image(c, gens) for c in g_comps]
    for ours, theirs in zip(fg.components, f.components):
        assert term_map(ours) == term_map(substitute(to_sympy(theirs, gens), images, gens))
    assert_pullback_matches(model_surface("-").rho, fg)


def test_psi_with_symbolic_alpha_and_r():
    """psi as _generator_rows writes it, with alpha and r as sympy symbols: its entries are
    the printed shear, it keeps x4 - f(x) as an identity in alpha and r, and the universal
    map's components are the same polynomials in z5 = alpha, z6 = r."""
    a, r = sympy.symbols("alpha r")
    x1, x2, x3, x4 = xs = sympy.symbols("x1:5")
    mat, tr, d = _generator_rows("psi", a, 1, r, 1)
    image = [sympy.expand((sum(m * x for m, x in zip(row, xs)) + t) / d)
             for row, t in zip(mat, tr)]
    c = 4 * a - 1
    printed = [
        x1 + r,
        x2 - 4 * a * c * r**2 * x1 + 2 * c * r * x3 - sympy.Rational(4, 3) * a * c * r**3,
        x3 - 4 * a * r * x1 - 2 * a * r**2,
        x4 - sympy.Rational(4, 3) * a * c * r**3 * x1 + r * x2 + c * r**2 * x3
        - a * c * r**4 / 3,
    ]
    assert [sympy.expand(p - q) for p, q in zip(image, printed)] == [0] * 4
    g = x4 - (x1 * x2 + x3**2 + x1**2 * x3 + a * x1**4)
    assert sympy.expand(g.subs(dict(zip(xs, image)), simultaneous=True) - g) == 0

    f = universal_generator_certificate("psi").map
    gens = symbols(f.space_in)
    at = dict(zip(gens[:6], (*xs, a, r)))
    ours = [to_sympy(comp, gens).as_expr().subs(at, simultaneous=True) for comp in f.components]
    assert [sympy.expand(p - q) for p, q in zip(ours, image + [a, r])] == [0] * 6


@pytest.mark.parametrize("kind", ["phi", "psi", "mu", "nu"])
def test_universal_generator_identities(kind):
    """g o F = c(q) g with alpha and the parameter q as sympy symbols, c = q^4 for phi and 1
    otherwise; and the universal certificate's map, substituted into g by sympy, gives the
    rho_source = c(z6) g it certified with factor 1."""
    a, q = sympy.symbols("alpha q")
    x1, x2, x3, x4 = xs = sympy.symbols("x1:5")
    mat, tr, d = _generator_rows(kind, a, 1, q, 1)
    image = [(sum(m * x for m, x in zip(row, xs)) + t) / d for row, t in zip(mat, tr)]
    g = x4 - (x1 * x2 + x3**2 + x1**2 * x3 + a * x1**4)
    c = q**4 if kind == "phi" else 1
    assert sympy.expand(g.subs(dict(zip(xs, image)), simultaneous=True) - c * g) == 0

    cert = universal_generator_certificate(kind)
    assert cert.exact and cert.factor == 1
    gens = symbols(cert.map.space_in)
    z1, z2, z3, z4, z5, z6 = gens[:6]
    g6 = z4 - (z1 * z2 + z3**2 + z1**2 * z3 + z5 * z1**4)
    comps = [to_sympy(comp, gens) for comp in cert.map.components]
    images = comps + [conjugate_image(comp, gens) for comp in comps]
    pulled = substitute(sympy.Poly(g6, *gens, domain=sympy.QQ_I), images, gens)
    source = to_sympy(cert.rho, gens)
    assert term_map(pulled) == term_map(source)
    c6 = z6**4 if kind == "phi" else 1
    assert source == sympy.Poly(c6 * g6, *gens, domain=sympy.QQ_I)
