"""Affine lifts, composition, pullbacks, and invariance certificates."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubecert.catalog import (
    composed_generator,
    make_gamma,
    make_generator,
    make_normalizer_rational,
    model_surface,
    quadric_surface,
    quadric_transitive_map,
    random_fraction,
    random_gaussian,
    random_p_params,
    make_p_element,
)
from tubecert import exactla, maps, poly
from tubecert.errors import DomainError, SpaceError
from tubecert.maps import (
    AffineMapR,
    HoloPolyMap,
    compose,
    equivalence_certificate,
    invariance_certificate,
    lift_affine,
    pullback_diagonal_quartic,
)
from tubecert.poly import HermitianPolynomial, VariableSpace
from tubecert.scalars import GaussianRational

from affine_helpers import affine_det, affine_parts, rational_affine
from pullback_helpers import canonical_pullback

SP4 = VariableSpace(4)
IDENTITY4 = AffineMapR(tuple(tuple(int(i == j) for j in range(4)) for i in range(4)), (0,) * 4, 1)


def rand_affine(rng, n=4):
    while True:
        m = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        t = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        f = rational_affine(m, t)
        if not affine_det(f).is_zero():
            return f


def test_affine_apply_compose_inverse():
    rng = random.Random(1)
    for _ in range(50):
        f, g = rand_affine(rng), rand_affine(rng)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        assert f.compose(g).apply(x) == f.apply(g.apply(x))
        m, t = affine_parts(f)
        inv = exactla.invert([list(row) for row in m])
        finv = rational_affine(inv, [-sum(a * c for a, c in zip(row, t)) for row in inv])
        assert finv.apply(f.apply(x)) == x
        assert affine_parts(finv.compose(f)) == affine_parts(IDENTITY4)
    assert affine_det(IDENTITY4) == 1


def _ref_det(m):
    """Leibniz expansion: the determinant without elimination."""
    total = Fraction(0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(m)), 2))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _ref_apply(m, t, x):
    return [sum((a * v for a, v in zip(row, x)), Fraction(0)) + c for row, c in zip(m, t)]


def _ref_compose(f, g):
    """(matrix, translation) of f after g, as plain Fraction arithmetic."""
    (a, s), (b, t) = f, g
    mat = [[sum((a[i][k] * b[k][j] for k in range(4)), Fraction(0)) for j in range(4)]
           for i in range(4)]
    return mat, _ref_apply(a, s, t)


def _draw_entry(rng, style):
    if style == "int":
        return Fraction(rng.randint(-3, 3))
    if style == "small":
        return Fraction(rng.randint(-5, 5), rng.randint(1, 7))
    return Fraction(rng.uniform(-3, 3))  # binary fractions, as on the float transitivity path


def test_integer_affine_map_matches_a_fraction_reference():
    rng = random.Random(11)
    for style in ("int", "small", "float"):
        for _ in range(15):
            refs = [
                ([[_draw_entry(rng, style) for _ in range(4)] for _ in range(4)],
                 [_draw_entry(rng, style) for _ in range(4)])
                for _ in range(2)
            ]
            f, g = (rational_affine(m, t) for m, t in refs)
            for (m, t), h in zip(refs, (f, g)):
                assert affine_parts(h) == (tuple(map(tuple, m)), tuple(t))
                assert affine_det(h) == _ref_det(m)
            x = [_draw_entry(rng, style) for _ in range(4)]
            assert f.apply(x) == _ref_apply(*refs[0], x)
            m, t = _ref_compose(*refs)
            fg = f.compose(g)
            assert affine_parts(fg) == (tuple(map(tuple, m)), tuple(t))
            assert affine_det(fg) == _ref_det(m) == affine_det(f) * affine_det(g)
            assert affine_parts(fg) == affine_parts(rational_affine(m, t))


def test_affine_map_is_immutable():
    half = rational_affine([[Fraction(1, 2) if i == j else 0 for j in range(4)] for i in range(4)],
                           [0, 0, 0, "3/2"])
    double = AffineMapR(tuple(tuple(2 * int(i == j) for j in range(4)) for i in range(4)),
                        (0, 0, 0, -3), 1)
    # entries over the denominators 2 and 4 (half after half) and over 1 (composites)
    scalings = [half.compose(half), IDENTITY4.compose(half).compose(half)]
    direct = rational_affine([[Fraction(int(i == j), 4) for j in range(4)] for i in range(4)],
                             [0, 0, 0, Fraction(9, 4)])
    assert all(affine_parts(f) == affine_parts(direct) for f in scalings)
    assert (affine_parts(half.compose(double)) == affine_parts(IDENTITY4)
            == affine_parts(double.compose(half)))
    for name in ("m", "t", "d", "extra"):
        with pytest.raises(AttributeError):
            setattr(half, name, None)


def test_affine_map_takes_integers_over_one_positive_denominator():
    f = AffineMapR(((2, 0), (4, 6)), (8, -2), 4)
    assert affine_parts(f) == affine_parts(rational_affine([["1/2", 0], [1, "3/2"]], [2, "-1/2"]))
    assert affine_parts(f) == affine_parts(AffineMapR(((1, 0), (2, 3)), (4, -1), 2))
    assert affine_det(f) == Fraction(3, 4)


def test_composed_generator_determinant_is_q_to_the_tenth():
    rng = random.Random(13)
    for _ in range(20):
        alpha = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        s, t, r = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        assert affine_det(composed_generator(alpha, q, r, s, t)) == q**10


def test_lift_identity_and_examples():
    assert lift_affine(IDENTITY4) == HoloPolyMap.identity(SP4)
    # weighted scaling at q=2 lifts to (2 z1, 8 z2, 4 z3, 16 z4)
    phi2 = lift_affine(make_generator("phi", 0, 2))
    z = [HermitianPolynomial.variable(SP4, i) for i in range(4)]
    assert list(phi2.components) == [z[0] * 2, z[1] * 8, z[2] * 4, z[3] * 16]
    # shift generator at s=1: z2 -> z2 + 1, z4 -> z1 + z4
    mu1 = lift_affine(make_generator("mu", 0, 1))
    assert mu1.components[1] == z[1] + HermitianPolynomial.constant(SP4, 1)
    assert mu1.components[3] == z[0] + z[3]


def test_lift_equals_the_polynomial_construction():
    """The lift is t + sum_j a_j z_j, built with the polynomial ring operations, term for term
    and in the same term order; zero entries and translations leave no term."""
    rng = random.Random(5)
    alpha = Fraction(-7, 5)
    maps = [rand_affine(rng, n) for n in (1, 2, 4, 5) for _ in range(5)]
    maps += [make_generator(kind, alpha, Fraction(3, 2)) for kind in ("phi", "psi", "mu", "nu")]
    for f in maps:
        space = VariableSpace(len(f.t))
        want = []
        for row, t in zip(*affine_parts(f)):
            p = HermitianPolynomial.constant(space, t)
            for j, a in enumerate(row):
                p = p + HermitianPolynomial.variable(space, j) * a
            want.append(p)
        got = lift_affine(f).components
        assert list(got) == want
        assert [list(p.terms.items()) for p in got] == [list(p.terms.items()) for p in want]


def test_lift_is_a_homomorphism():
    rng = random.Random(2)
    for _ in range(30):
        f, g = rand_affine(rng), rand_affine(rng)
        assert lift_affine(f.compose(g)) == compose(lift_affine(f), lift_affine(g))


def test_lift_commutes_with_real_parts():
    rng = random.Random(3)
    for _ in range(30):
        f = rand_affine(rng)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        lifted = lift_affine(f)
        image = lifted.apply([GaussianRational(v) for v in x])
        assert [w.re for w in image] == f.apply(x)
        assert all(w.im == 0 for w in image)


def test_compose_identity_and_spaces():
    rng = random.Random(4)
    f = lift_affine(rand_affine(rng))
    assert compose(f, HoloPolyMap.identity(SP4)) == f
    assert compose(HoloPolyMap.identity(SP4), f) == f
    sp3 = VariableSpace(3)
    with pytest.raises(SpaceError):
        compose(f, HoloPolyMap.identity(sp3))


def test_compose_equals_substitution_with_the_conjugate_images():
    """compose leaves f's never-read zb slots to g; the full substitution agrees."""
    rng = random.Random(21)
    for _ in range(10):
        f, g = (make_p_element(random_p_params(rng, "-")) for _ in range(2))
        images = list(g.components) + [c.conjugate() for c in g.components]
        want = HoloPolyMap(SP4, SP4, [c.substitute(images) for c in f.components])
        got = compose(f, g)
        assert got == want and [c.terms for c in got.components] == [c.terms for c in want.components]
    lifted = lift_affine(rand_affine(rng))
    assert compose(lifted, make_p_element(random_p_params(rng, "+"))).components[0].is_holomorphic()


@st.composite
def composition_pairs(draw):
    """(f, g) with f o g defined: two maps of C^4, each a group element, a lifted
    generator or a normalizer map, or two quadric actions of one (p, n)."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    if draw(st.integers(0, 3)) == 0:
        p, n = draw(st.sampled_from([(1, 2), (2, 3), (1, 3)]))
        return tuple(quadric_transitive_map(p, n, random_fraction(rng, 1, 3, 4),
                                            [random_gaussian(rng) for _ in range(n)],
                                            random_fraction(rng)) for _ in range(2))
    maps4 = []
    for kind in draw(st.tuples(*[st.sampled_from(["group", "generator", "normalizer"])] * 2)):
        if kind == "group":
            maps4.append(make_p_element(random_p_params(rng, draw(st.sampled_from("+-")))))
        elif kind == "generator":
            alpha = draw(st.sampled_from([Fraction(1, 12), Fraction(-2, 3), Fraction(123457, 4096)]))
            generator = draw(st.sampled_from(["phi", "psi", "mu", "nu"]))
            maps4.append(lift_affine(make_generator(generator, alpha, random_fraction(rng, 1, 3, 4))))
        else:
            maps4.append(make_normalizer_rational(draw(st.sampled_from(
                [Fraction(7, 12), Fraction(-1, 4), Fraction(1, 12)]))).rational_map)
    return tuple(maps4)


@given(composition_pairs())
@settings(max_examples=200, deadline=None)
def test_numerator_compose_matches_the_substitution_route(pair):
    """compose clears g's components once and runs the numerator kernel per component of
    f; the term maps, in order, are those of substituting g into each component of f."""
    f, g = pair
    want = [c.substitute(list(g.components) * 2) for c in f.components]
    got = compose(f, g).components
    assert [list(c.terms.items()) for c in got] == [list(c.terms.items()) for c in want]


def test_raw_map_equals_the_checked_constructor():
    comps = [HermitianPolynomial.variable(SP4, i) * (i + 1) for i in range(4)]
    raw = HoloPolyMap._raw(SP4, SP4, comps)
    assert raw == HoloPolyMap(SP4, SP4, comps) and isinstance(raw.components, tuple)
    with pytest.raises(AttributeError):
        raw.components = ()


def test_pullback_identity_and_realness():
    rng = random.Random(5)
    rho = make_gamma(Fraction(1, 3)).rho
    assert canonical_pullback(rho, HoloPolyMap.identity(SP4)) == rho
    for _ in range(100):
        f = lift_affine(rand_affine(rng))
        assert canonical_pullback(rho, f).is_real_valued()


def test_weighted_scaling_pullback_factor():
    rho = model_surface("+").rho
    rng = random.Random(6)
    for _ in range(20):
        q = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        scale = rational_affine(
            [
                [q, 0, 0, 0],
                [0, q**3, 0, 0],
                [0, 0, q**2, 0],
                [0, 0, 0, q**4],
            ],
            [0, 0, 0, 0],
        )
        cert = invariance_certificate(rho, lift_affine(scale))
        assert cert.exact and cert.factor == GaussianRational(q**4)


def test_certificate_functoriality():
    rng = random.Random(7)
    rho = model_surface("+").rho
    for _ in range(50):
        a = make_p_element(random_p_params(rng, "+"))
        b = make_p_element(random_p_params(rng, "+"))
        ca = invariance_certificate(rho, a)
        cb = invariance_certificate(rho, b)
        cab = invariance_certificate(rho, compose(a, b))
        assert ca.exact and cb.exact and cab.exact
        assert cab.factor == ca.factor * cb.factor


def test_certificate_missing_lead_monomial():
    rho = model_surface("+").rho
    collapse = HoloPolyMap(
        SP4, SP4, [HermitianPolynomial.zero(SP4) for _ in range(4)]
    )
    cert = invariance_certificate(rho, collapse)
    assert not cert.exact
    assert cert.residual.is_zero()  # pullback of rho under the zero map is 0
    assert cert.factor == GaussianRational(0)


def test_identity_certificate():
    rho = model_surface("-").rho
    cert = invariance_certificate(rho, HoloPolyMap.identity(SP4))
    assert cert.exact and cert.factor == GaussianRational(1)
    assert cert.factor_is_positive_real


def test_diagonal_quartic_pullback():
    # rho with monomials whose accumulated radicands are fourth powers
    z1, zb1 = HermitianPolynomial.variable(SP4, 0), HermitianPolynomial.variable(SP4, 4)
    z4, zb4 = HermitianPolynomial.variable(SP4, 3), HermitianPolynomial.variable(SP4, 7)
    rho = (z4 + zb4) * Fraction(1, 2) - z1 * zb1
    # diag(2^(1/4) per z1, 1): |z1|^2 picks up sqrt(2): not a rational fourth power
    with pytest.raises(DomainError):
        pullback_diagonal_quartic(rho, [2, 1, 1, 1])
    # diag(4^(1/4)) = sqrt(2): |z1|^2 picks up 4^(1/2) = 2
    scaled = pullback_diagonal_quartic(rho, [4, 1, 1, 1])
    assert scaled == (z4 + zb4) * Fraction(1, 2) - z1 * zb1 * 2
    # scaling with radicand 1 everywhere is the identity
    assert pullback_diagonal_quartic(rho, [1, 1, 1, 1]) == rho


def test_linear_part_and_determinant():
    rng = random.Random(8)
    f = rand_affine(rng)
    lifted = lift_affine(f)
    det = lifted.linear_determinant()
    assert det == _ref_det(affine_parts(f)[0])


def test_equivalence_certificate_between_distinct_surfaces():
    # doubling map carries {Re z4 = |z1|^2} data onto itself with factor 4 vs 2
    sp = VariableSpace(2)
    z1 = HermitianPolynomial.variable(sp, 0)
    z2 = HermitianPolynomial.variable(sp, 1)
    zb1 = HermitianPolynomial.variable(sp, 2)
    zb2 = HermitianPolynomial.variable(sp, 3)
    rho_a = (z2 + zb2) * Fraction(1, 2) - z1 * zb1
    rho_b = (z2 + zb2) * Fraction(1, 2) - z1 * zb1 * 4
    doubling = HoloPolyMap(sp, sp, [z1 * 2, z2])
    cert = equivalence_certificate(rho_a, doubling, rho_b)
    assert cert.exact and cert.factor == GaussianRational(1)


def test_pullback_multiplies_no_polynomial_by_a_constant(monkeypatch):
    """Powers and substituted terms never pay a polynomial product with a constant.

    The exact substitution multiplies numerator maps ({exps: (a, b)}) with
    ``poly._num_mul``, so that is the product recorded here.
    """
    params = random_p_params(random.Random(31), "+")
    rho = model_surface("+").rho
    element = make_p_element(params)
    constant_flags = []  # (left is constant, right is constant) per polynomial product
    original = poly._num_mul
    constant_exps = {(0,) * (2 * SP4.n)}

    def recording_mul(p, q):
        constant_flags.append((set(p) <= constant_exps, set(q) <= constant_exps))
        return original(p, q)

    monkeypatch.setattr(poly, "_num_mul", recording_mul)
    cert = invariance_certificate(rho, element)
    assert cert.exact
    assert constant_flags, "the pullback made no polynomial products"
    assert [flags for flags in constant_flags if any(flags)] == []


# --- the numerator zero test against the canonical route ---------------------------


def reference_certificate(rho_target, f, rho_source):
    """(exact, factor, residual terms) by the canonical route: the pullback built with
    each conjugate image from ``conjugate()`` and canonicalised, then p - rho_source * factor."""
    p = rho_target.substitute(list(f.components) + [c.conjugate() for c in f.components])
    lead = rho_source.first_monomial()
    num = p.coefficient(lead)
    if num == 0:
        return False, num, p.terms
    factor = num / rho_source.coefficient(lead)
    residual = p - rho_source * factor
    return residual.is_zero(), factor, residual.terms


@st.composite
def certificate_cases(draw):
    """(rho_target, map, rho_source, shape): a group element, a quadric action, a lifted
    generator or a normalizer, with both defining functions scaled by Q(i) constants or
    not; the map as built, with one coefficient of one component changed, or (group
    elements) with the last component zero, so that the model's lead monomial zb4 is
    absent from the pullback."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(["group", "quadric", "generator", "normalizer"]))
    if kind == "group":
        sign = draw(st.sampled_from("+-"))
        rho, f = model_surface(sign).rho, make_p_element(random_p_params(rng, sign))
        source = rho
    elif kind == "quadric":
        p, n = draw(st.sampled_from([(1, 2), (2, 3), (1, 3)]))
        a = random_fraction(rng, 1, 3, 4)
        f = quadric_transitive_map(p, n, a, [random_gaussian(rng) for _ in range(n)],
                                   random_fraction(rng))
        rho = source = quadric_surface(p, n).rho
    elif kind == "generator":
        alpha = draw(st.sampled_from([Fraction(1, 12), Fraction(-2, 3), Fraction(123457, 4096)]))
        generator = draw(st.sampled_from(["phi", "psi", "mu", "nu"]))
        rho = source = make_gamma(alpha).rho
        f = lift_affine(make_generator(generator, alpha, random_fraction(rng, 1, 3, 4)))
    else:
        eq = make_normalizer_rational(draw(st.sampled_from(
            [Fraction(7, 12), Fraction(-1, 4), Fraction(1, 12)])))
        rho, f, source = eq.conjugated_target_rho, eq.rational_map, eq.source_rho
    if draw(st.booleans()):  # Q(i) multiples: a lead coefficient off the real line
        rho, source = (r * GaussianRational(Fraction(draw(st.integers(1, 5)), 3),
                                            draw(st.integers(-3, 3))) for r in (rho, source))
    shape = draw(st.sampled_from(["as built", "mutated"] + ["lead vanishes"] * (kind == "group")))
    comps, space = list(f.components), f.space_in
    if shape == "mutated":
        i = draw(st.integers(0, len(comps) - 1))
        monomials = [(0,) * (2 * space.n), *(space.unit(j) for j in range(space.n)),
                     (2,) + (0,) * (2 * space.n - 1), *comps[i].terms]
        e = draw(st.sampled_from(monomials))
        re, im = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any))
        delta = GaussianRational(Fraction(re, draw(st.sampled_from([1, 3]))), im)
        comps[i] = comps[i] + HermitianPolynomial(space, {e: delta})
    elif shape == "lead vanishes":
        comps[-1] = HermitianPolynomial.zero(space)
    return rho, HoloPolyMap(space, f.space_out, comps), source, (kind, shape)


@given(certificate_cases())
@settings(max_examples=200, deadline=None)
def test_numerator_zero_test_matches_the_canonical_route(case):
    """The certificate's exactness, factor and residual (its terms in order, each a
    canonical triple) equal the canonical route's, passing or failing."""
    rho, f, source, shape = case
    cert = equivalence_certificate(rho, f, source)
    exact, factor, residual = reference_certificate(rho, f, source)
    assert cert.exact is exact
    assert (cert.factor._a, cert.factor._b, cert.factor._d) == (factor._a, factor._b, factor._d)
    assert [(e, c._a, c._b, c._d) for e, c in cert.residual.terms.items()] == [
        (e, c._a, c._b, c._d) for e, c in residual.items()]
    assert cert.residual.space == f.space_in
    if shape[1] == "lead vanishes":
        assert not cert.exact and cert.factor == 0 and cert.residual.terms
    if shape[1] == "as built":
        assert cert.exact


def test_the_zero_test_canonicalises_only_a_failing_residual(monkeypatch):
    """An exact certificate builds no Q(i) polynomial from the pullback: poly._canonical
    runs only when the numerator test fails."""
    canonicalised = []
    original = poly._canonical

    def recording(num, d):
        canonicalised.append(len(num))
        return original(num, d)

    monkeypatch.setattr(maps, "_canonical", recording)
    rho = model_surface("+").rho
    element = make_p_element(random_p_params(random.Random(41), "+"))
    assert invariance_certificate(rho, element).exact and canonicalised == []
    bent = HoloPolyMap(SP4, SP4, [element.components[0] * 2, *element.components[1:]])
    assert not invariance_certificate(rho, bent).exact and len(canonicalised) == 1
