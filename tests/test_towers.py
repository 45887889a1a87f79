"""Where exact values and floats meet.

Two formulas serve both: :func:`catalog.transitive_params_omega` (exact
parameters for an exact target, whose graph defect must then be a fourth
power, and floats for a float target) and the printed maps, which scale a
rational map by the fourth roots of its radicands and are read at complex
points (``RationalizedEquivalence.printed_image``).  Seeded rational draws
go through the exact path and, converted to floats, through the float path;
the float result must match ``complex(...)`` of the exact one within 1e-12 of
its magnitude.  Every polynomial is exact; the routines that only exact data
reach reject float input with a TypeError.
"""

import random
from fractions import Fraction

import pytest

from tubecert import catalog, checks, chern_moser, geometry, lie, maps, poly
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
from tubecert.errors import DomainError
from tubecert.maps import HoloPolyMap
from tubecert.poly import HermitianPolynomial, RealPolynomial, VariableSpace
from tubecert.scalars import GaussianRational

from float_oracle import printed_components

TOL = 1e-12


def close(got, want) -> bool:
    want = complex(want)
    return abs(complex(got) - want) <= TOL * max(1.0, abs(want))


@pytest.mark.parametrize("sign", "+-")
def test_p_element_towers_agree(sign):
    """The P group has exact coefficients only; its formula on complex values
    is checked against the exact chart Jacobian in test_catalog."""
    rng = random.Random(301 if sign == "+" else 302)

    def exact(f):
        coefficients = (c for comp in f.components for c in comp.terms.values())
        return all(type(c) is GaussianRational for c in coefficients)

    for _ in range(40):
        params = random_p_params(rng, sign)
        assert exact(make_p_element(params))
    assert exact(control_wrong_phase(sign))
    assert p_jacobian_rank_at_identity(sign) == 13


def test_transitive_params_omega_towers_agree():
    rng = random.Random(304)
    for alpha in (Fraction(0), Fraction(1, 12), Fraction(1), Fraction(-2)):
        for _ in range(25):
            q = random_positive_fraction(rng)
            r, s, t = (random_fraction(rng) for _ in range(3))
            target = composed_generator(alpha, q, r, s, t).apply(BASE_POINT)
            exact = transitive_params_omega(alpha, target)
            floats = transitive_params_omega(alpha, [float(x) for x in target])
            assert isinstance(exact.q, Fraction) and isinstance(floats.q, float)
            for name in "qrst":
                assert close(getattr(floats, name), getattr(exact, name)), name
    # the tower follows the target: an exact target whose graph defect is not
    # a fourth power is an error, and the same point in floats is solved
    with pytest.raises(DomainError, match="graph defect 2 is not the fourth power"):
        transitive_params_omega(Fraction(0), (0, 0, 0, 2))
    sol = transitive_params_omega(Fraction(0), (0, 0, 0, 2.0))
    assert isinstance(sol.q, float) and close(sol.q**4, 2)


def _float_line():
    base, direction, _ = catalog.stated_line("D_plus(side=>)")
    domain = catalog.resolve("D_plus(side=>)").obj
    geometry.contains_complex_line(
        domain, [complex(x) for x in base], [complex(x) for x in direction]
    )


def _float_scaling():
    U = [[complex(x) for x in row] for row in lie.IDENTITY3]
    chern_moser.linear_scaling_check(chern_moser.model_normal_form("+")[2, 2], U, 1.0)


def _float_quadric_map():
    quadric_transitive_map(1, 2, 0.5, [complex(1, 2), 0j], 0.25)


def _float_apply():
    catalog.make_cayley_rational().rational_map.apply([0j, 0j, 0j])


def _float_determinant():
    # a float coefficient stops at the polynomial, before a map can hold it
    space = VariableSpace(1)
    HoloPolyMap(space, space, [HermitianPolynomial(space, {(1, 0): 0.5})]).linear_determinant()


def _float_sigma():
    catalog.make_sigma_surface(2.5)


def _float_tube():
    x = HermitianPolynomial(VariableSpace(2), {(1, 0, 0, 0): 1.0})
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
    """printed_image is the exact image scaled by float fourth roots, and it agrees
    with the printed map built as float polynomials (the test oracle)."""
    oracle = printed_components(rationalized)
    n = rationalized.rational_map.space_in.n
    rng = random.Random(307)
    for _ in range(20):
        point = [random_gaussian(rng) for _ in range(n)]
        exact = rationalized.rational_map.apply(point)
        scaled = [complex(w) * float(r) ** 0.25 for w, r in zip(exact, rationalized.radicands)]
        image = rationalized.printed_image(point)
        values = [complex(w) for w in point] + [complex(w.conjugate()) for w in point]
        for got, want, c in zip(image, scaled, oracle, strict=True):
            assert close(got, want) and close(got, c.evaluate(values))


@pytest.mark.parametrize("path", ["exact", "float", "both"])
def test_a_perturbed_fourth_root_fails_the_float_path_only(path, monkeypatch):
    """Mutation control: the printed map with one fourth root off by 1e-6 (that of
    the radicand 3/4 of normalizer(alpha=7/12)) misses the model, so the float
    path fails with the printed-map error; the exact certificate never reads it."""
    nth_root_float = catalog.nth_root_float

    def perturbed(r, n):
        root = nth_root_float(r, n)
        return root * (1 + 1e-6) if r == Fraction(3, 4) else root

    monkeypatch.setattr(catalog, "nth_root_float", perturbed)
    spec = checks.CheckSpec("n", "invariance", "normalizer(alpha=7/12)", seed=11, path=path)
    result = checks.run_check(spec)
    if path == "exact":
        assert result.status == "pass", result.details
    else:
        assert result.status == "fail"
        assert result.details["reason"].startswith("printed map error")


def test_printed_map_check_multiplies_no_polynomials(monkeypatch):
    """The float path reads the printed map at points: with the equivalence built,
    it runs no polynomial product or substitution."""
    rationalized = catalog.make_normalizer_rational(Fraction(7, 12))

    def refuse(*args):
        raise AssertionError("polynomial arithmetic on the float path")

    monkeypatch.setattr(poly, "_num_mul", refuse)
    monkeypatch.setattr(poly, "_substitute_num", refuse)  # substitute
    monkeypatch.setattr(maps, "_substitute_num", refuse)  # compose and pullback
    spec = checks.CheckSpec("n", "invariance", "normalizer(alpha=7/12)", seed=11, path="float")
    details = checks._invariance_equivalence(
        spec, random.Random(11), rationalized, checks.EXPECTED_NORMALIZER_FACTOR)
    assert details["float_points"] == checks.FLOAT_POINTS
    assert details["float_worst_error"] <= checks.FLOAT_TOL

