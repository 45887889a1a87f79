"""Each catalog formula is written once for both scalar towers.

Seeded rational draws go through the exact path and, converted to floats,
through the float path of the same function; the float result must match
``complex(...)`` of the exact one within 1e-12 of its magnitude.
"""

import random
from fractions import Fraction

import pytest

from tubecert import catalog, chern_moser, geometry
from tubecert.catalog import (
    BASE_POINT,
    PParams,
    composed_generator,
    make_isotropy_matrix,
    make_p_element,
    p_jacobian_rank_at_identity,
    quadric_transitive_map,
    random_fraction,
    random_gaussian,
    random_p_params,
    random_positive_fraction,
    transitive_params_omega,
)

TOL = 1e-12


def close(got, want) -> bool:
    want = complex(want)
    return abs(complex(got) - want) <= TOL * max(1.0, abs(want))


def assert_poly_close(got, want):
    assert not got.exact and want.exact
    for exps in set(got.terms) | set(want.terms):
        assert close(got.coefficient(exps), want.coefficient(exps)), exps


def assert_map_close(got, want):
    for g, w in zip(got.components, want.components, strict=True):
        assert_poly_close(g, w)


@pytest.mark.parametrize("sign", "+-")
def test_p_element_towers_agree(sign):
    """The P group lives on the exact tower only; its formula on complex values
    is checked against the exact chart Jacobian in test_catalog."""
    rng = random.Random(301 if sign == "+" else 302)
    for _ in range(40):
        params = random_p_params(rng, sign)
        for misread in (False, True):
            assert make_p_element(params, misread_phase=misread).exact
    assert p_jacobian_rank_at_identity(sign) == 13


def test_quadric_transitive_map_towers_agree():
    rng = random.Random(303)
    for p, n in ((1, 1), (1, 2), (2, 3), (5, 7)):
        for _ in range(10):
            a = random_fraction(rng) or Fraction(1)
            b = [random_gaussian(rng) for _ in range(n)]
            c = random_fraction(rng)
            exact = quadric_transitive_map(p, n, a, b, c)
            assert exact.exact
            floats = quadric_transitive_map(p, n, float(a), [complex(x) for x in b], float(c))
            assert_map_close(floats, exact)


def test_transitive_params_omega_towers_agree():
    rng = random.Random(304)
    for alpha in (Fraction(0), Fraction(1, 12), Fraction(1), Fraction(-2)):
        for _ in range(25):
            q = random_positive_fraction(rng)
            r, s, t = (random_fraction(rng) for _ in range(3))
            target = composed_generator(alpha, q, s, t, r).apply(BASE_POINT)
            exact = transitive_params_omega(alpha, target)
            floats = transitive_params_omega(alpha, [float(x) for x in target])
            assert exact.exact and not floats.exact
            for name in "qrst":
                assert close(getattr(floats, name), getattr(exact, name)), name
    # an exact target whose graph defect is not a fourth power takes the float path
    sol = transitive_params_omega(Fraction(0), (0, 0, 0, 2))
    assert not sol.exact and close(sol.q**4, 2)


def test_contains_complex_line_towers_agree():
    rng = random.Random(305)
    draws = [(ident, base, line) for ident, (base, line, _) in catalog.stated_lines().items()]
    for _ in range(10):
        draws.append((
            "D_plus(side=>)",
            [random_gaussian(rng) for _ in range(4)],
            [random_gaussian(rng) for _ in range(4)],
        ))
    for ident, base, direction in draws:
        domain = catalog.resolve(ident).obj
        exact = geometry.contains_complex_line(domain, base, direction)
        floats = geometry.contains_complex_line(
            domain, [complex(x) for x in base], [complex(x) for x in direction]
        )
        assert exact.restriction.exact
        assert_poly_close(floats.restriction, exact.restriction)
        assert floats.inside_at_all_samples == exact.inside_at_all_samples
        assert floats.grade == "sampled"


def test_linear_scaling_check_towers_agree():
    rng = random.Random(306)
    g = catalog.GaussianRational
    surface = chern_moser.model_normal_form("+")
    cases = [(((g(2), g(0), g(0)), (g(0), g(1, 2), g(0)), (g(0), g(0), g(1))), Fraction(1))]
    for _ in range(10):
        p = random_p_params(rng, "+")
        params = PParams("+", p.q, p.phi_phase, p.psi_phase, Fraction(0),
                         g(0), g(0), g(0), p.b, p.d).validate()
        cases.append((make_isotropy_matrix(params), p.q**2))
        cases.append((make_isotropy_matrix(params), p.q))
    for U, lam in cases:
        exact = chern_moser.linear_scaling_check(surface, U, lam)
        floats = chern_moser.linear_scaling_check(
            surface, [[complex(x) for x in row] for row in U], float(lam)
        )
        assert (floats.form_preserved, floats.relation_holds) == (
            exact.form_preserved, exact.relation_holds
        )
        assert close(floats.max_abs_residual, exact.max_abs_residual)


@pytest.mark.parametrize(
    "rationalized",
    [
        catalog.make_normalizer_rational(Fraction(7, 12)),
        catalog.make_normalizer_rational(Fraction(-1, 4)),
        catalog.make_normalizer_rational(Fraction(1, 12)),
        catalog.make_tube_realisation_rational(1, 2),
        catalog.make_tube_realisation_rational(2, 3),
        catalog.make_cayley_rational(),
    ],
    ids=["normalizer-7/12", "normalizer--1/4", "normalizer-1/12", "tube-1-2", "tube-2-3",
         "cayley"],
)
def test_printed_maps_are_scaled_rational_maps(rationalized):
    printed = rationalized.printed_map()
    rng = random.Random(307)
    for _ in range(20):
        point = [random_gaussian(rng) for _ in range(printed.space_in.n)]
        exact = rationalized.rational_map.apply(point)
        scaled = [complex(w) * float(r) ** 0.25 for w, r in zip(exact, rationalized.radicands)]
        for got, want in zip(printed.apply(point), scaled, strict=True):
            assert close(got, want)
