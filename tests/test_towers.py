"""Where the two scalar towers meet.

Two formulas still serve both towers: :func:`catalog.transitive_params_omega`
(exact parameters for exact targets whose graph defect is a fourth power,
floats otherwise) and the printed maps, which scale a rational map by the
fourth roots of its radicands.  Seeded rational draws go through the exact
path and, converted to floats, through the float path; the float result must
match ``complex(...)`` of the exact one within 1e-12 of its magnitude.  Every
catalog polynomial, the sigma graphs included, is built exact: a polynomial
enters the float tower only through ``to_float()``.  The routines that only
exact data reach reject float input with a TypeError.
"""

import random
from fractions import Fraction

import pytest

from tubecert import catalog, chern_moser, geometry, lie
from tubecert.catalog import (
    BASE_POINT,
    composed_generator,
    control_wrong_phase,
    make_p_element,
    p_jacobian_rank_at_identity,
    quadric_transitive_map,
    random_fraction,
    random_gaussian,
    random_p_params,
    random_positive_fraction,
    transitive_params_omega,
)
from tubecert.poly import HermitianPolynomial, RealPolynomial, VariableSpace

TOL = 1e-12


def close(got, want) -> bool:
    want = complex(want)
    return abs(complex(got) - want) <= TOL * max(1.0, abs(want))


@pytest.mark.parametrize("sign", "+-")
def test_p_element_towers_agree(sign):
    """The P group lives on the exact tower only; its formula on complex values
    is checked against the exact chart Jacobian in test_catalog."""
    rng = random.Random(301 if sign == "+" else 302)
    for _ in range(40):
        params = random_p_params(rng, sign)
        assert make_p_element(params).exact
    assert control_wrong_phase(sign).exact
    assert p_jacobian_rank_at_identity(sign) == 13


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


def _float_line():
    base, direction, _ = catalog.stated_line("D_plus(side=>)")
    domain = catalog.resolve("D_plus(side=>)").obj
    geometry.contains_complex_line(
        domain, [complex(x) for x in base], [complex(x) for x in direction]
    )


def _float_scaling():
    U = [[complex(x) for x in row] for row in lie.IDENTITY3]
    chern_moser.linear_scaling_check(chern_moser.model_normal_form("+"), U, 1.0)


def _float_quadric_map():
    quadric_transitive_map(1, 2, 0.5, [complex(1, 2), 0j], 0.25)


def _float_apply():
    catalog.make_cayley_map().apply([0j, 0j, 0j])


def _float_determinant():
    catalog.make_cayley_map().linear_determinant()


def _float_sigma():
    catalog.make_sigma_surface(2.5)


def _float_tube():
    x = HermitianPolynomial.variable(VariableSpace(2), 0).to_float()
    geometry.lifted_tube(RealPolynomial(x * x))


@pytest.mark.parametrize(
    "call", [_float_line, _float_scaling, _float_quadric_map, _float_apply, _float_determinant,
             _float_sigma, _float_tube],
    ids=["contains_complex_line", "linear_scaling_check", "quadric_transitive_map",
         "HoloPolyMap.apply", "HoloPolyMap.linear_determinant", "make_sigma_surface",
         "lifted_tube"],
)
def test_float_input_to_exact_routines_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


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
        image = [c.evaluate_complex(point) for c in printed.components]
        for got, want in zip(image, scaled, strict=True):
            assert close(got, want)
