"""Catalog constructors: printed coefficients, group laws, solvers, registry."""

import inspect
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubecert import catalog, checks, exactla, lie
from tubecert.checks import CheckSpec, run_check
from tubecert.chern_moser import sign_to_eps
from tubecert.cli import parse_config, run_suite
from tubecert.catalog import (
    BASE_POINT,
    PParams,
    QuadricFamily,
    RationalizedEquivalence,
    control_bad_constraint,
    control_wrong_phase,
    identity_p_params,
    make_cayley_rational,
    make_gamma,
    make_generator,
    make_isotropy_matrix,
    make_normalizer_rational,
    make_omega,
    make_p_element,
    make_quadric_domain,
    make_sigma_surface,
    make_tube_realisation_rational,
    model_domain,
    model_surface,
    orbit_point,
    p_compose,
    p_chart_jacobian,
    p_inverse,
    p_jacobian_rank_at_identity,
    p_params_from_map,
    pseudo_unitarity_residual,
    quadric_base_point,
    quadric_surface,
    quadric_transitive_map,
    quadric_transitive_params,
    random_p_params,
    resolve,
    transitive_params_omega,
)
from tubecert.errors import ClosureViolation, ConstraintError, DomainError
from tubecert.geometry import side_of, tube_hessian_signature
from tubecert.maps import (
    AffineMapR,
    HoloPolyMap,
    compose,
    equivalence_certificate,
    invariance_certificate,
    lift_affine,
)
from tubecert.poly import HermitianPolynomial, VariableSpace
from tubecert.scalars import GaussianRational, _Unreduced, phase_from_parameter

from affine_helpers import affine_det, affine_parts, composed_generator, rational_affine
from float_oracle import FloatPoly, printed_map_error, printed_pullback

SP4 = VariableSpace(4)


def frac(rng, span=8, den=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


# --- gamma family -------------------------------------------------------------


def test_gamma_defining_polynomial_alpha_zero():
    rho = make_gamma(0).rho
    # hand-entered: Re z4 - Re z1 Re z2 - (Re z3)^2 - (Re z1)^2 Re z3
    z = [HermitianPolynomial.variable(SP4, i) for i in range(4)]
    zb = [HermitianPolynomial.variable(SP4, 4 + i) for i in range(4)]
    re = [(z[i] + zb[i]) * Fraction(1, 2) for i in range(4)]
    assert rho == re[3] - re[0] * re[1] - re[2] ** 2 - re[0] ** 2 * re[2]


def test_generator_printed_entries():
    # shear at r=1, alpha=1: third coordinate gains -4 x1 - 2
    m, t = affine_parts(make_generator("psi", 1, 1))
    assert m[2] == (Fraction(-4), Fraction(0), Fraction(1), Fraction(0))
    assert t[2] == Fraction(-2)
    # vertical shift at t=1: last coordinate gains 2 x3 + 1
    m, t = affine_parts(make_generator("nu", 1, 1))
    assert m[3] == (Fraction(0), Fraction(0), Fraction(2), Fraction(1))
    assert t[3] == Fraction(1)
    # determinants
    assert affine_det(make_generator("phi", 0, 2)) == Fraction(1024)  # 2^10
    for kind in ("psi", "mu", "nu"):
        assert affine_det(make_generator(kind, Fraction(1, 3), Fraction(5, 2))) == 1
    identity = rational_affine([[int(i == j) for j in range(4)] for i in range(4)], [0] * 4)
    assert affine_parts(make_generator("psi", 1, 0)) == affine_parts(identity)
    with pytest.raises(DomainError):
        make_generator("phi", 1, 0)


def test_generator_one_parameter_group_laws():
    rng = random.Random(11)
    alpha = Fraction(2, 3)
    for _ in range(20):
        a, b = frac(rng), frac(rng)
        for kind in ("psi", "mu", "nu"):
            left = make_generator(kind, alpha, a).compose(make_generator(kind, alpha, b))
            assert affine_parts(left) == affine_parts(make_generator(kind, alpha, a + b))
        qa, qb = a or Fraction(1), b or Fraction(1)
        left = make_generator("phi", alpha, qa).compose(make_generator("phi", alpha, qb))
        assert affine_parts(left) == affine_parts(make_generator("phi", alpha, qa * qb))


def test_generator_invariance_each_alpha():
    rng = random.Random(12)
    for alpha in (0, Fraction(1, 12), 1, -2):
        rho = make_gamma(alpha).rho
        for kind in ("phi", "psi", "mu", "nu"):
            for _ in range(20):
                param = frac(rng)
                if kind == "phi" and param == 0:
                    param = Fraction(1, 2)
                cert = invariance_certificate(
                    rho, lift_affine(make_generator(kind, alpha, param))
                )
                assert cert.exact
                expected = param**4 if kind == "phi" else Fraction(1)
                assert cert.factor == GaussianRational(expected)


def _fraction_generator(kind, alpha, p):
    """(matrix, translation) of a gamma generator, written with Fraction arithmetic."""
    zero, one, a = Fraction(0), Fraction(1), Fraction(alpha)
    if kind == "phi":
        return [[p, 0, 0, 0], [0, p**3, 0, 0], [0, 0, p**2, 0], [0, 0, 0, p**4]], [zero] * 4
    if kind == "psi":
        c = 4 * a - 1
        return (
            [[one, zero, zero, zero],
             [-4 * a * c * p**2, one, 2 * c * p, zero],
             [-4 * a * p, zero, one, zero],
             [-Fraction(4, 3) * a * c * p**3, p, c * p**2, one]],
            [p, -Fraction(4, 3) * a * c * p**3, -2 * a * p**2, -Fraction(1, 3) * a * c * p**4],
        )
    if kind == "mu":
        return [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [p, 0, 0, 1]], [zero, p, zero, zero]
    return [[1, 0, 0, 0], [-p, 1, 0, 0], [0, 0, 1, 0], [0, 0, 2 * p, 1]], [zero, zero, p, p**2]


def _generator_params(rng):
    """Integer, small-rational and binary-fraction parameters, none of them zero."""
    params = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 5)) for _ in range(3)]
    params += [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 9))
               for _ in range(3)]
    params += [Fraction(rng.uniform(-3, 3)) for _ in range(3)]
    return [p for p in params if p]


def test_integer_generators_match_the_fraction_formulas():
    rng = random.Random(31)
    small = [Fraction(0), Fraction(1, 4), Fraction(-7, 12), Fraction(5), frac(rng, 12, 12)]
    large = [Fraction(rng.randint(-3 * 10**5, 3 * 10**5), 100_003) for _ in range(3)]
    assert all(a.denominator >= 10**5 for a in large)
    for alpha in small + large + [Fraction(rng.uniform(-3, 3))]:
        for kind in ("phi", "psi", "mu", "nu"):
            for p in _generator_params(rng):
                g = make_generator(kind, alpha, p)
                mat, tr = _fraction_generator(kind, alpha, p)
                want = tuple(tuple(map(Fraction, row)) for row in mat), tuple(tr)
                assert affine_parts(g) == want
                assert affine_parts(g) == affine_parts(rational_affine(mat, tr))
                assert affine_det(g) == (p**10 if kind == "phi" else 1)


def _fraction_orbit_point(alpha, q, r, s, t):
    """BASE_POINT moved by psi(r), nu(t), mu(s) and then phi(q), each as a plain Fraction
    matrix and translation."""
    x = list(BASE_POINT)
    for kind, p in (("psi", r), ("nu", t), ("mu", s), ("phi", q)):
        mat, tr = _fraction_generator(kind, alpha, p)
        x = [sum((Fraction(a) * v for a, v in zip(row, x)), Fraction(0)) + c
             for row, c in zip(mat, tr)]
    return x


@pytest.mark.parametrize("style", ["small", "float"])
def test_composed_generator_moves_the_base_point_as_the_fraction_matrices_do(style):
    """200 draws of small rationals, and 200 of Fraction(float) parameters as the omega
    float path passes them, at small and large alpha heights."""
    rng = random.Random(47 if style == "small" else 48)
    for i in range(200):
        if i % 2:
            alpha = frac(rng, 12, 12)
        else:
            alpha = Fraction(rng.randint(-3 * 10**5, 3 * 10**5), rng.randint(10**5, 10**6))
        if style == "small":
            q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            s, t, r = (frac(rng) for _ in range(3))
        else:
            q = Fraction(rng.uniform(0.1, 3))
            s, t, r = (Fraction(rng.uniform(-3, 3)) for _ in range(3))
        got = composed_generator(alpha, q, r, s, t).apply(BASE_POINT)
        assert got == _fraction_orbit_point(alpha, q, r, s, t), (alpha, q, r, s, t)


@pytest.mark.parametrize("style", ["small", "large", "solver"])
def test_orbit_point_is_the_full_composite_at_the_base_point(style):
    """orbit_point holds the integers that the 4x4 composite gives for the base point
    (its column 4 plus translation, and its denominator): 150 exact draws at small alpha
    heights, 150 at the benchmark's 10^5-10^6 denominators, and the parameters that the
    float solver returns for 150 uniform targets, as the omega float path passes them."""
    rng = random.Random({"small": 61, "large": 62, "solver": 63}[style])
    checked = 0
    while checked < 150:
        if style == "large":
            den = rng.randint(10**5, 10**6)
            alpha = Fraction(rng.randint(-3 * den, 3 * den), den)
        else:
            alpha = frac(rng, 12, 12)
        if style == "solver":
            target = [rng.uniform(-3, 3) for _ in range(4)]
            if catalog.omega_defect(float(alpha), target) <= 0:
                continue
            params = tuple(map(Fraction, transitive_params_omega(alpha, target)))
        else:
            params = (catalog.random_positive_fraction(rng),
                      *(catalog.random_fraction(rng) for _ in range(3)))
        f = composed_generator(alpha, *params)
        column = tuple(row[3] + t for row, t in zip(f.m, f.t))
        got = orbit_point(alpha, *params)
        assert got == AffineMapR(((),) * 4, column, f.d), params
        assert got.apply(()) == f.apply(BASE_POINT)
        checked += 1


@pytest.mark.parametrize("path", ["exact", "float"])
def test_one_omega_target_costs_four_compositions_onto_a_point(path, monkeypatch):
    """Each omega target applies the four generators to the base point: four
    AffineMapR.compose calls, each onto a map with no columns, and no 4x4 product."""
    columns, compose = [], AffineMapR.compose
    monkeypatch.setattr(AffineMapR, "compose",
                        lambda f, g: columns.append(len(g.m[0])) or compose(f, g))
    result = run_check(CheckSpec(
        id="w", kind="transitivity", target="omega(alpha=-259571/161267,side=>)", seed=11,
        path=path, parameters={f"{path}_count": "1"}))
    assert result.status == "pass" and result.details[f"{path}_targets"] == 1
    assert columns == [0, 0, 0, 0]


def test_one_wrong_integer_entry_of_psi_breaks_invariance():
    for alpha, r in ((Fraction(2, 3), Fraction(3, 2)), (Fraction(-5, 7), Fraction(1))):
        rho = make_gamma(alpha).rho
        psi = make_generator("psi", alpha, r)
        assert invariance_certificate(rho, lift_affine(psi)).exact
        for i in range(4):
            for j in range(5):  # column 4 is the translation
                mat, tr = [list(row) for row in psi.m], list(psi.t)
                if j < 4:
                    mat[i][j] += 1
                else:
                    tr[i] += 1
                cert = invariance_certificate(rho, lift_affine(AffineMapR(mat, tr, psi.d)))
                assert not cert.exact, (alpha, r, i, j)


def test_universal_generator_certificates():
    """Each generator is a symmetry for every alpha and parameter: one exact identity
    g o F = c g in z1..z6 with alpha = z5 and the parameter = z6, matched against
    rho_source = g c(z6) (g z6^4 for phi), so the factor is 1."""
    z = [HermitianPolynomial.variable(catalog.SPACE6, i) for i in range(6)]
    g = z[3] - (z[0] * z[1] + z[2] ** 2 + z[0] ** 2 * z[2] + z[0] ** 4 * z[4])
    for kind in ("phi", "psi", "mu", "nu"):
        cert = catalog.universal_generator_certificate(kind)
        assert cert.exact and cert.residual.is_zero()
        assert cert.factor == 1 and cert.factor_is_positive_real
        assert cert.rho == (g * z[5] ** 4 if kind == "phi" else g)
        assert catalog.universal_generator_certificate(kind) is cert  # kept for the process


def test_universal_map_specialises_to_the_numeric_generator():
    """The universal map at alpha = A, param = n (integers) is the lifted integer map."""
    for kind, alpha, param in (("phi", 2, -3), ("psi", -1, 2), ("mu", 3, 5), ("nu", 0, -2)):
        f = catalog.universal_generator_certificate(kind).map
        point = [Fraction(1, 2), Fraction(-3), Fraction(2, 7), Fraction(5), alpha, param]
        want = make_generator(kind, alpha, param).apply(point[:4])
        assert f.apply(point) == [GaussianRational(v) for v in want + [alpha, param]]


def test_every_shifted_generator_entry_leaves_a_universal_residual(monkeypatch):
    """Mutation sweep: each of the 80 entries of _generator_rows, shifted by 1, is caught."""
    rows = catalog._generator_rows
    certify = catalog.universal_generator_certificate.__wrapped__  # past the cache
    killed = 0
    for kind in ("phi", "psi", "mu", "nu"):
        for i in range(4):
            for j in range(5):  # column 4 is the translation
                def shifted(*args, i=i, j=j):
                    mat, tr, d = rows(*args)
                    mat, tr = [list(row) for row in mat], list(tr)
                    if j < 4:
                        mat[i][j] = mat[i][j] + 1
                    else:
                        tr[i] = tr[i] + 1
                    return mat, tr, d

                monkeypatch.setattr(catalog, "_generator_rows", shifted)
                cert = certify(kind)
                assert not cert.exact and cert.residual.terms, (kind, i, j)
                killed += 1
    assert killed == 80


@pytest.mark.parametrize("alpha", [Fraction(1, 12), Fraction(-7, 3), Fraction(624661, 323599)])
def test_base_graph_and_tube_certificates_agree(alpha):
    """g = x4 - f(x) and the tube's rho = g(Re z) certify the same draws with the same factor,
    and both reject a generator with one entry shifted."""
    rng = random.Random(23)
    g, rho = catalog.gamma_base(alpha), make_gamma(alpha).rho
    assert len(g.terms) == 5 and g.is_holomorphic()
    for kind in ("phi", "psi", "mu", "nu"):
        for _ in range(4):
            param = frac(rng) or Fraction(1, 2)
            f = make_generator(kind, alpha, param)
            base, tube = (invariance_certificate(p, lift_affine(f)) for p in (g, rho))
            assert base.exact and tube.exact and base.factor == tube.factor
            mat, tr = [list(row) for row in f.m], list(f.t)
            mat[rng.randrange(4)][rng.randrange(4)] += 1
            bad = lift_affine(AffineMapR(mat, tr, f.d))
            assert not invariance_certificate(g, bad).exact
            assert not invariance_certificate(rho, bad).exact


def test_importing_the_cli_builds_no_universal_certificate():
    """The universal certificates are built on first use, one per selected generator kind."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    config = ("id = g\nkind = invariance\ntarget = gamma(alpha=1/3)\n"
              "param.count = 1\nparam.generators = psi,mu\n")
    code = (
        "import tubecert.cli as cli\n"
        "size = cli.catalog.universal_generator_certificate.cache_info().currsize\n"
        f"results = cli.run_suite(cli.parse_config({config!r}))\n"
        "print(size, [r.status for r in results],\n"
        "      cli.catalog.universal_generator_certificate.cache_info().currsize)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "0 ['pass'] 2"


def test_transitivity_regression_and_identity():
    sol = transitive_params_omega(1, (1, 0, 0, 2))
    assert sol == (1, 1, 6, 2) and isinstance(sol.q, Fraction)
    image = orbit_point(1, *sol).apply(())
    assert image == [1, 0, 0, 2]
    ident = transitive_params_omega(0, (0, 0, 0, 1))
    assert ident == (1, 0, 0, 0)
    pure_scale = transitive_params_omega(0, (0, 0, 0, 16))
    assert pure_scale == (2, 0, 0, 0)


def test_transitivity_rejects_points_not_above():
    with pytest.raises(DomainError):
        transitive_params_omega(0, (0, 0, 0, 0))
    with pytest.raises(DomainError):
        transitive_params_omega(0, (0, 0, 0, -1))


def test_an_exact_target_off_the_exact_path_fails_transitivity(monkeypatch):
    """A constructed target whose defect has no rational fourth root is a fail, not an error."""
    spec = CheckSpec(id="omega", kind="transitivity", target="omega(alpha=0,side=>)", seed=1)
    assert run_check(spec).status == "pass"
    monkeypatch.setattr(catalog, "fourth_root_exact", lambda r: None)
    result = run_check(spec)
    assert result.status == "fail"
    assert result.details["reason"].startswith("constructed target ")
    assert result.details["reason"].endswith(" missed the exact path")


def test_quadric_transitivity_builds_one_map_per_draw(monkeypatch):
    """Each draw is checked by solving its target back to the generating parameters,
    so the action's map is built once per draw; a solver that misses its target fails."""
    built, build = [], catalog.quadric_transitive_map
    monkeypatch.setattr(catalog, "quadric_transitive_map",
                        lambda *args: built.append(args) or build(*args))
    spec = CheckSpec(id="q", kind="transitivity", target="quadric(p=1,n=2,side=<)", seed=5,
                     parameters={"draws": "7"})
    assert run_check(spec).status == "pass"
    assert len(built) == 7
    monkeypatch.setattr(catalog, "quadric_base_point", lambda p, n, side: [0] * n + [-2])
    result = run_check(spec)
    assert result.status == "fail"
    assert result.details["reason"].startswith("constructed target ")
    assert result.details["reason"].endswith(" missed the exact path")


def test_transitivity_exact_and_float_paths():
    rng = random.Random(13)
    for alpha in (0, Fraction(1, 12), 1, -2):
        for _ in range(25):
            q = Fraction(rng.randint(1, 12), rng.randint(1, 4))
            r, s, t = (frac(rng) for _ in range(3))
            target = orbit_point(alpha, q, r, s, t).apply(())
            assert side_of(make_omega(alpha, ">"), target) == "inside"
            sol = transitive_params_omega(alpha, target)
            assert isinstance(sol.q, Fraction)
            assert sol == (q, r, s, t)
        worst = 0.0
        produced = 0
        while produced < 25:
            target = [rng.uniform(-3, 3) for _ in range(4)]
            try:
                sol = transitive_params_omega(alpha, target)
            except DomainError:
                continue
            produced += 1
            image = orbit_point(alpha, *map(Fraction, sol)).apply(())
            worst = max(worst, max(abs(float(a) - b) for a, b in zip(image, target)))
        assert worst <= 1e-9


# --- the 13-parameter group -----------------------------------------------------


def test_p_element_trivial_and_translation():
    ident = make_p_element(identity_p_params("+"))
    assert ident == HoloPolyMap.identity(SP4)
    shifted = PParams(
        "+", Fraction(1), phase_from_parameter(0), phase_from_parameter(0),
        Fraction(5), GaussianRational(0), GaussianRational(0), GaussianRational(0),
        GaussianRational(0), GaussianRational(0),
    ).validate()
    f = make_p_element(shifted)
    z4 = HermitianPolynomial.variable(SP4, 3)
    assert f.components[3] == z4 + HermitianPolynomial.constant(SP4, GaussianRational(0, 5))


def test_p_element_certificates_by_sign():
    rng = random.Random(14)
    for sign in "+-":
        rho = model_surface(sign).rho
        for _ in range(50):
            params = random_p_params(rng, sign)
            cert = invariance_certificate(rho, make_p_element(params))
            assert cert.exact
            assert cert.factor == GaussianRational(params.q**4)


def test_random_p_params_satisfy_the_constraint_by_construction():
    rng = random.Random(23)
    for sign in "+-":
        for _ in range(200):
            params = random_p_params(rng, sign)
            assert params.validate() is params


def test_a_group_invariance_draw_validates_its_parameters_once(monkeypatch):
    """random_p_params leaves validation to make_p_element, which does it on first build."""
    validated = []
    validate = PParams.validate
    monkeypatch.setattr(PParams, "validate", lambda self: validated.append(self) or validate(self))
    (result,) = run_suite(parse_config(
        "id = g\nkind = invariance\ntarget = M_minus\nseed = 5\nparam.draws = 1\n"))
    assert result.status == "pass" and result.details["draws"] == 1
    assert len(validated) == 1 and validated[0].sign == "-"


def test_p_element_example_q2():
    params = PParams(
        "+", Fraction(2), phase_from_parameter(0), phase_from_parameter(0), Fraction(0),
        GaussianRational(0), GaussianRational(0), GaussianRational(0),
        GaussianRational(-1), GaussianRational(4),
    ).validate()
    cert = invariance_certificate(model_surface("+").rho, make_p_element(params))
    assert cert.exact and cert.factor == GaussianRational(16)


def test_constraint_validation():
    with pytest.raises(ConstraintError):
        PParams(
            "+", Fraction(2), phase_from_parameter(0), phase_from_parameter(0),
            Fraction(0), GaussianRational(0), GaussianRational(0), GaussianRational(0),
            GaussianRational(-1), GaussianRational(5),
        ).validate()
    with pytest.raises(ConstraintError):
        PParams(
            "+", Fraction(-1), phase_from_parameter(0), phase_from_parameter(0),
            Fraction(0), GaussianRational(0), GaussianRational(0), GaussianRational(0),
            GaussianRational(0), GaussianRational(0),
        ).validate()
    with pytest.raises(ConstraintError):
        # Re(phase * conj(b)) > 0 is rejected even with matching |d|
        PParams(
            "+", Fraction(1), phase_from_parameter(0), phase_from_parameter(0),
            Fraction(0), GaussianRational(0), GaussianRational(0), GaussianRational(0),
            GaussianRational(1), GaussianRational(0),
        ).validate()


@pytest.mark.parametrize("field", ["phi_phase", "psi_phase"])
def test_validate_rejects_a_non_unit_phase(field):
    params = identity_p_params("+")._replace(**{field: GaussianRational(Fraction(1, 2))})
    with pytest.raises(ConstraintError, match=f"phase {field[:3]} must have modulus 1"):
        params.validate()
    with pytest.raises(ConstraintError):
        make_p_element(params)


def test_validate_phase_check_on_integers_matches_the_fraction_modulus():
    """a^2 + b^2 = d^2 on the canonical triple accepts exactly the phases of
    modulus 1, and a rejection states the Fraction modulus."""
    rng = random.Random(24)
    units = [phase_from_parameter(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
             for _ in range(200)]
    near = [w * GaussianRational(Fraction(rng.randint(1, 9), rng.randint(1, 9))) for w in units]
    for w in units + near + [GaussianRational(0), GaussianRational(1, 1)]:
        for field in ("phi_phase", "psi_phase"):
            params = identity_p_params("-")._replace(**{field: w})
            if w.abs2() == 1:
                assert params.validate() is params
                continue
            with pytest.raises(ConstraintError) as exc:
                params.validate()
            assert str(exc.value) == f"phase {field[:3]} must have modulus 1: |{w}|^2 = {w.abs2()}"


def test_negative_controls_fail_certification():
    for sign, build in (("+", control_bad_constraint), ("+", control_wrong_phase)):
        cert = invariance_certificate(model_surface(sign).rho, build(sign))
        assert not cert.exact
        assert not cert.residual.is_zero()


def test_wrong_phase_control_misreads_only_the_z3_coefficient_of_z4():
    """The control is the correct element with phi in place of psi in the one
    coefficient 2 (conj(rho) q d + conj(tau) q^2 psi) of z3 in the last component."""
    for sign in "+-":
        params = identity_p_params(sign)._replace(
            phi_phase=phase_from_parameter(Fraction(1, 2)),
            psi_phase=phase_from_parameter(Fraction(1, 3)), tau=GaussianRational(1))
        good = make_p_element(params).components
        bad = control_wrong_phase(sign).components
        z3 = SP4.unit(2)
        assert bad[:3] == good[:3] and list((bad[3] - good[3]).terms) == [z3]
        assert bad[3].coefficient(z3) == params.tau.conjugate() * params.phi_phase * 2
        assert good[3].coefficient(z3) == params.tau.conjugate() * params.psi_phase * 2


def test_p_compose_laws():
    rng = random.Random(15)
    ident = identity_p_params("+")
    a = random_p_params(rng, "+")
    assert p_compose(ident, a) == a
    assert p_compose(a, ident) == a
    # pure scalings multiply
    def pure_scale(q):
        return PParams(
            "+", q, phase_from_parameter(0), phase_from_parameter(0), Fraction(0),
            GaussianRational(0), GaussianRational(0), GaussianRational(0),
            GaussianRational(0), GaussianRational(0),
        ).validate()
    assert p_compose(pure_scale(Fraction(2)), pure_scale(Fraction(3))) == pure_scale(Fraction(6))
    # imaginary translations add
    def shift(u):
        return PParams(
            "+", Fraction(1), phase_from_parameter(0), phase_from_parameter(0), u,
            GaussianRational(0), GaussianRational(0), GaussianRational(0),
            GaussianRational(0), GaussianRational(0),
        ).validate()
    assert p_compose(shift(Fraction(1)), shift(Fraction(2))) == shift(Fraction(3))


def test_p_compose_closure_draws():
    rng = random.Random(16)
    for sign in "+-":
        for _ in range(50):
            a = random_p_params(rng, sign)
            b = random_p_params(rng, sign)
            ab = p_compose(a, b)  # validates the constraint internally
            assert ab.q == a.q * b.q
            assert make_p_element(ab) == compose(make_p_element(a), make_p_element(b))


def test_p_inverse_and_identity_recovery():
    rng = random.Random(17)
    for sign in "+-":
        assert p_params_from_map(HoloPolyMap.identity(SP4), sign) == identity_p_params(sign)
        for _ in range(20):
            a = random_p_params(rng, sign)
            inv = p_inverse(a)
            assert p_compose(inv, a) == identity_p_params(sign)
            assert p_compose(a, inv) == identity_p_params(sign)


def _term_by_term(params: PParams) -> HoloPolyMap:
    """The element built through the checked constructors, one coerced term at a time."""
    rows = catalog._p_rows(sign_to_eps(params.sign), *catalog._p_values(params))
    return HoloPolyMap(SP4, SP4, [HermitianPolynomial(SP4, row) for row in rows])


def test_fast_p_element_equals_the_term_by_term_build():
    rng = random.Random(18)
    # sign -, q = 1, rho = 1, b = -2: the z1 coefficient 2|rho|^2 q phi + q^2 b of z2 vanishes
    cancelling = identity_p_params("-")._replace(rho=GaussianRational(1), b=GaussianRational(-2),
                                                 d=GaussianRational(2)).validate()
    cases = [identity_p_params("+"), identity_p_params("-"), cancelling]
    cases += [random_p_params(rng, sign) for sign in "+-" for _ in range(10)]
    for params in cases:
        fast, slow = make_p_element(params), _term_by_term(params)
        assert fast == slow
        assert [c.terms for c in fast.components] == [c.terms for c in slow.components]
        assert all(not c.is_zero() for comp in fast.components for c in comp.terms.values())
        assert all(comp.is_holomorphic() for comp in fast.components)
    assert catalog._Z1 not in make_p_element(cancelling).components[1].terms


def test_kept_element_map_is_never_stale():
    a = random_p_params(random.Random(19), "+")
    assert a._map is None
    f = make_p_element(a)
    assert a._map is f and make_p_element(a) is f
    # equality, hashing and repr ignore the kept map
    twin = a._replace()
    assert twin._map is None and twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)
    moved = a._replace(u=a.u + 1)
    assert moved._map is None and make_p_element(moved) != f
    assert make_p_element(moved) == _term_by_term(moved)
    # the unchecked build neither reads nor fills the slot, so a kept map always passed validate()
    good = identity_p_params("+")._replace(q=Fraction(2), b=GaussianRational(-1),
                                           d=GaussianRational(4)).validate()
    bad = good._replace(d=good.d + 1)
    catalog._p_map(bad)
    assert bad._map is None
    with pytest.raises(ConstraintError):
        make_p_element(bad)
    assert bad._map is None
    assert catalog._p_map(good) is not catalog._p_map(good)
    assert good._map is None


def _triples(rows):
    return [{m: (c._a, c._b, c._d) for m, c in row.items() if not c.is_zero()} for row in rows]


@st.composite
def _p_params(draw):
    """A valid element: q over 1, 2 or 4, then d, then b solved from the constraint;
    translation-free (the isotropy case) in about half the draws."""
    def gaussian():
        return GaussianRational(Fraction(draw(st.integers(-8, 8)), 4),
                                Fraction(draw(st.integers(-8, 8)), 4))

    def phase():
        return phase_from_parameter(Fraction(draw(st.integers(-15, 15)), draw(st.integers(1, 5))))

    sign = draw(st.sampled_from("+-"))
    q = Fraction(draw(st.integers(1, 12)), draw(st.sampled_from([1, 2, 4])))
    phi, psi = phase(), phase()
    if draw(st.booleans()):
        u, rho, sigma, tau = Fraction(0), GaussianRational(0), GaussianRational(0), GaussianRational(0)
    else:
        u, rho, sigma, tau = Fraction(draw(st.integers(-12, 12)), 4), gaussian(), gaussian(), gaussian()
    d = gaussian()
    y = Fraction(draw(st.integers(-12, 12)), 4)
    b = (phi.conjugate() * GaussianRational(-d.abs2() / (2 * q**3), y)).conjugate()
    return PParams(sign, q, phi, psi, u, rho, sigma, tau, b, d).validate()


@given(_p_params())
@settings(max_examples=150, deadline=None)
def test_unreduced_p_rows_match_the_gaussian_rational_rows(params):
    """The formula over unreduced numerators, reduced once per coefficient, gives
    the triples of the formula over GaussianRational with zeros dropped, and the
    built map holds only canonical GaussianRational coefficients."""
    eps, values = sign_to_eps(params.sign), catalog._p_values(params)
    want = _triples(catalog._p_rows(eps, *values))
    unreduced = list(catalog._p_rows(eps, *map(_Unreduced.of, values)))
    assert all(type(c) is _Unreduced for row in unreduced for c in row.values())
    assert _triples([{m: c.reduced() for m, c in row.items()} for row in unreduced]) == want
    f = make_p_element(params)
    for comp in f.components:
        for c in comp.terms.values():
            assert type(c) is GaussianRational and c._d > 0
            assert math.gcd(c._a, c._b, c._d) == 1 and not c.is_zero()
    assert _triples(comp.terms for comp in f.components) == want


def _fraction_random_p_params(rng, sign):
    """random_p_params as it was written on Fractions: the oracle for the integer draws."""
    def fraction(lo=-3, hi=3, den=4):
        return Fraction(rng.randint(lo * den, hi * den), den)

    def gaussian():
        return GaussianRational(fraction(-2, 2), fraction(-2, 2))

    def phase():
        return phase_from_parameter(fraction(-3, 3, 5))

    q = Fraction(rng.randint(1, 12), 4)
    phi, psi, u = phase(), phase(), fraction()
    rho, sigma, tau, d = gaussian(), gaussian(), gaussian(), gaussian()
    m = d.abs2() / (2 * q**3)
    y = fraction()
    b = (phi.conjugate() * GaussianRational(-m, y)).conjugate()
    return PParams(sign, q, phi, psi, u, rho, sigma, tau, b, d)


def test_integer_draws_equal_the_fraction_draws_and_keep_the_stream():
    fields = ("q", "phi_phase", "psi_phase", "u", "rho", "sigma", "tau", "b", "d")
    for seed in range(500):
        sign = "+-"[seed % 2]
        old_rng, new_rng = random.Random(seed), random.Random(seed)
        old, new = _fraction_random_p_params(old_rng, sign), random_p_params(new_rng, sign)
        for name in fields:
            a, b = getattr(old, name), getattr(new, name)
            assert type(a) is type(b) and a == b, (seed, name)
            if isinstance(a, GaussianRational):
                assert (a._a, a._b, a._d) == (b._a, b._b, b._d)
        assert old == new
        assert old_rng.randint(-10**6, 10**6) == new_rng.randint(-10**6, 10**6)


def _fraction_constraint_error(params):
    """The constraint checked on Fractions, as the error text it raises, or None."""
    w = params.phi_phase * params.b.conjugate()
    if w.re > 0:
        return "Re(phase * conj(b)) must be <= 0"
    if params.d.abs2() != -2 * params.q**3 * w.re:
        return f"|d|^2 = {params.d.abs2()} != -2 q^3 Re(phase*conj(b)) = {-2 * params.q ** 3 * w.re}"
    return None


def _constraint_error(params):
    try:
        params.validate()
    except ConstraintError as exc:
        return str(exc)
    return None


def test_integer_constraint_matches_the_fraction_formula():
    phi = phase_from_parameter(Fraction(1, 2))
    # The boundary: Re(phase * conj(b)) = 0 with d = 0.
    boundary = identity_p_params("+")._replace(phi_phase=phi, q=Fraction(3, 2),
                                               b=phi * GaussianRational(0, Fraction(5, 3)))
    assert _constraint_error(boundary) is None and _fraction_constraint_error(boundary) is None
    rng = random.Random(24)
    rejected = 0
    for sign in "+-":
        for _ in range(100):
            p = random_p_params(rng, sign)
            assert _constraint_error(p) is None and _fraction_constraint_error(p) is None
            a, b, den = p.d._a, p.d._b, p.d._d
            for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                moved = p._replace(d=GaussianRational(Fraction(a + da, den), Fraction(b + db, den)))
                text = _constraint_error(moved)
                assert text is not None and text.startswith("|d|^2 = ")
                assert text == _fraction_constraint_error(moved)
            if not p.d.is_zero():  # then Re(phase * conj(b)) < 0, and -b makes it positive
                flipped = p._replace(b=-p.b)
                assert _constraint_error(flipped) == "Re(phase * conj(b)) must be <= 0"
                assert _fraction_constraint_error(flipped) == "Re(phase * conj(b)) must be <= 0"
                rejected += 1
    assert rejected > 150


def test_closure_draws_build_three_maps_each(monkeypatch):
    builds = []
    rows = catalog._p_rows
    monkeypatch.setattr(catalog, "_p_rows", lambda *args: builds.append(1) or rows(*args))
    rng = random.Random(20)
    for sign in "+-":
        a, b = random_p_params(rng, sign), random_p_params(rng, sign)
        builds.clear()
        p_compose(a, b)  # a, b and the recovered composite
        assert len(builds) == 3
        a = random_p_params(rng, sign)
        builds.clear()
        inv = p_inverse(a)
        assert p_compose(inv, a) == identity_p_params(sign)  # a, its inverse, the identity
        assert len(builds) == 3


def _invert_p_map(f: HoloPolyMap) -> HoloPolyMap:
    """Invert a symmetry map by back-substitution: the oracle for :func:`p_inverse`.

    The components are triangular: z1 enters alone, z3 through (z1, z3), z2
    through (z1, z2, z3) with the only nonlinearity a z1^2 term, and z4
    linearly on top of those, so back-substitution stays polynomial.
    """
    one, z1, z2, z3, z4, z1sq = catalog.P_MONOMIALS
    c1, c2, c3, c4 = f.components
    w1, w2, w3, w4 = (HermitianPolynomial.variable(SP4, i) for i in range(4))

    def const(c):
        return HermitianPolynomial.constant(SP4, c.coefficient(one))

    Z1 = (w1 - const(c1)) * (1 / c1.coefficient(z1))
    Z1sq = Z1 * Z1
    Z3 = (w3 - const(c3) - Z1 * c3.coefficient(z1)) * (1 / c3.coefficient(z3))
    Z2 = (w2 - const(c2) - Z1 * c2.coefficient(z1) - Z3 * c2.coefficient(z3)
          - Z1sq * c2.coefficient(z1sq)) * (1 / c2.coefficient(z2))
    Z4 = (w4 - const(c4) - Z1 * c4.coefficient(z1) - Z2 * c4.coefficient(z2)
          - Z3 * c4.coefficient(z3) - Z1sq * c4.coefficient(z1sq)) * (1 / c4.coefficient(z4))
    return HoloPolyMap(SP4, SP4, [Z1, Z2, Z3, Z4])


def _translation(a: PParams) -> PParams:
    """T: q = 1, unit phases, b = d = 0, and a's rho, sigma, tau and u."""
    return identity_p_params(a.sign)._replace(u=a.u, rho=a.rho, sigma=a.sigma, tau=a.tau)


def _linear(a: PParams) -> PParams:
    """L: a's q, phases, b and d, with rho = sigma = tau = u = 0."""
    zero = GaussianRational(0)
    return a._replace(u=Fraction(0), rho=zero, sigma=zero, tau=zero)


@st.composite
def _inverse_cases(draw):
    """The _p_params draws (translation-free in about half), as drawn, with d = 0,
    with b = d = 0, or cut to their translation part."""
    a = draw(_p_params())
    shape = draw(st.sampled_from(["as drawn", "d = 0", "b = 0", "translation only"]))
    zero = GaussianRational(0)
    if shape == "d = 0":  # b = phi (-|d|^2 / (2 q^3) - i y) loses its |d|^2 part
        return a._replace(d=zero, b=a.b + a.phi_phase * (a.d.abs2() / (2 * a.q**3)))
    if shape == "b = 0":
        return a._replace(b=zero, d=zero)
    if shape == "translation only":
        return _translation(a)
    return a


@given(_inverse_cases())
@settings(max_examples=150, deadline=None)
def test_closed_form_inverse_equals_the_back_substituted_inverse(a):
    f = make_p_element(a)
    g = _invert_p_map(f)
    assert compose(f, g) == HoloPolyMap.identity(SP4)
    inv = p_inverse(a)
    assert make_p_element(inv) == g
    assert p_compose(inv, a) == identity_p_params(a.sign)


def test_each_element_is_its_translation_after_its_linear_factor():
    rng = random.Random(25)
    for sign in "+-":
        for _ in range(30):
            a = random_p_params(rng, sign)
            t = _translation(a)
            assert make_p_element(a) == compose(make_p_element(t), make_p_element(_linear(a)))
            t_inv = t._replace(u=-t.u, rho=-t.rho, sigma=-t.sigma, tau=-t.tau)
            assert compose(make_p_element(t), make_p_element(t_inv)) == HoloPolyMap.identity(SP4)
            assert p_inverse(t) == t_inv


# One line of p_inverse's formulas each, as (text, perturbed text).
_INVERSE_MUTANTS = {
    "sign of d'": ("d = -phi * psi * a.d / q3", "d = phi * psi * a.d / q3"),
    "|d|^2/q^3 term of b'": ("phi * a.b + a.d.abs2() / q3", "phi * a.b - a.d.abs2() / q3"),
    "conj(d) rho term of tau'": ("-(a.d.conjugate() * a.rho / q", "-(-a.d.conjugate() * a.rho / q"),
    "power of q in u'": ("-a.u / q**4", "-a.u / q**3"),
}


@pytest.mark.parametrize("target", ["P_plus", "P_minus"])
@pytest.mark.parametrize("mutant", [None, *_INVERSE_MUTANTS])
def test_a_perturbed_inverse_formula_fails_group_closure(monkeypatch, mutant, target):
    """p_inverse recompiled from its source with one formula perturbed: the
    closure check reports a group-law failure; unperturbed, it passes."""
    source = textwrap.dedent(inspect.getsource(catalog.p_inverse))
    if mutant is not None:
        text, perturbed = _INVERSE_MUTANTS[mutant]
        assert source.count(text) == 1
        source = source.replace(text, perturbed)
    namespace = dict(vars(catalog))
    exec(source, namespace)
    monkeypatch.setattr(checks, "p_inverse", namespace["p_inverse"])
    result = run_check(CheckSpec(id="closure", kind="closure", target=target, seed=1))
    if mutant is None:
        assert result.status == "pass"
    else:
        assert result.status == "fail"
        assert result.details["reason"].startswith("group law: inverse parameters ")


def test_gamma_base_partials_are_independent_for_every_alpha():
    """The premise that lets an exact generator certificate stand in for a determinant.

    g = z4 - f and alpha enters g only through -alpha z1^4, whose partial lives at
    z1^3; at the monomials 1, z1, z2, z3 the four partials' rows do not depend on
    alpha and already have rank 4.
    """
    units = [(0,) * 8] + [SP4.unit(i) for i in range(3)]
    quartic = HermitianPolynomial(SP4, {(4,) + (0,) * 7: 1})
    assert all(set(quartic.partial(i).terms).isdisjoint(units) for i in range(4))
    base = catalog.gamma_base(0)
    minor = [[base.partial(i).coefficient(e) for e in units] for i in range(4)]
    assert exactla.rank(minor) == 4
    for alpha in (Fraction(0), Fraction(1, 12), Fraction(-2), Fraction(2, 3),
                  Fraction(-987654, 999983)):
        g = catalog.gamma_base(alpha)
        partials = [g.partial(i) for i in range(4)]
        monos = sorted(set().union(*(p.terms for p in partials)))
        rows = [[p.coefficient(e) for e in monos] for p in partials]
        assert exactla.rank(rows) == 4
        assert [[p.coefficient(e) for e in units] for p in partials] == minor


def test_p_params_from_map_rejects_non_group_maps():
    with pytest.raises(ClosureViolation):
        p_params_from_map(control_bad_constraint("+"), "+")


def test_p_params_from_map_rejects_a_second_phase_off_the_unit_circle():
    """The z3 coefficient q^2 (2 + i) of the third component reads as psi = 2 + i;
    the recovered parameters fail validate, and recovery names the phase."""
    params = random_p_params(random.Random(3), "+")
    c1, c2, c3, c4 = make_p_element(params).components
    z3 = SP4.unit(2)
    bent = c3 + HermitianPolynomial(SP4, {z3: GaussianRational(2, 1) * params.q**2
                                          - c3.coefficient(z3)})
    assert bent.coefficient(z3) == GaussianRational(2, 1) * params.q**2
    with pytest.raises(ClosureViolation, match="recovered parameters violate the constraint: "
                                               "phase psi must have modulus 1"):
        p_params_from_map(HoloPolyMap(SP4, SP4, [c1, c2, bent, c4]), "+")


def _bent_identity(component, monomial, coefficient) -> HoloPolyMap:
    """The identity map of SP4 with one coefficient of one component set."""
    comps = [HermitianPolynomial.variable(SP4, i) for i in range(4)]
    comps[component] = comps[component] + HermitianPolynomial(
        SP4, {monomial: coefficient - comps[component].coefficient(monomial)})
    return HoloPolyMap(SP4, SP4, comps)


@pytest.mark.parametrize("component, monomial, coefficient, message", [
    (0, SP4.unit(0), GaussianRational(2, 1),
     "|z1-coefficient|^2 is not a perfect rational square"),
    (0, SP4.unit(0), GaussianRational(0), "|z1-coefficient|^2 is not a perfect rational square"),
    (3, (0,) * 8, GaussianRational(1), "translation constant has a stray real part"),
    (2, SP4.unit(2), GaussianRational(2), "recovered parameters violate the constraint: "
                                          "phase psi must have modulus 1: |2|^2 = 4"),
    (0, SP4.unit(1), GaussianRational(1), "recovered parameters do not regenerate the map"),
], ids=["not a square", "zero", "stray real part", "constraint", "regenerate"])
def test_each_closure_violation_message(component, monomial, coefficient, message):
    f = _bent_identity(component, monomial, coefficient)
    for sign in "+-":
        with pytest.raises(ClosureViolation) as exc:
            p_params_from_map(f, sign)
        assert str(exc.value) == message


def test_jacobian_rank_is_13():
    for sign in "+-":
        jac = p_chart_jacobian(sign)
        assert len(jac) == 48 and all(len(row) == 13 for row in jac)
        assert all(type(x) is Fraction for row in jac for x in row)
        assert p_jacobian_rank_at_identity(sign) == 13


def p_chart_float(theta, sign: str) -> PParams:
    """The float chart the rank check used before it became exact, kept as an oracle.

    Coordinates: q, angle_phi, angle_psi, u, Re/Im rho, Re/Im sigma,
    Re/Im tau, Im b, Re/Im d.  Re b is eliminated by the constraint.
    """
    q, aphi, apsi, u = (float(theta[i]) for i in range(4))
    d = complex(theta[11], theta[12])
    m = abs(d) ** 2 / (2 * q**3)
    b_im = float(theta[10])
    b_re = (-m - math.sin(aphi) * b_im) / math.cos(aphi)
    return PParams(
        sign, q, complex(math.cos(aphi), math.sin(aphi)), complex(math.cos(apsi), math.sin(apsi)),
        u, complex(theta[4], theta[5]), complex(theta[6], theta[7]), complex(theta[8], theta[9]),
        complex(b_re, b_im), d,
    )


def float_coefficient_vector(params: PParams) -> list[float]:
    """The 48 real map coefficients, through the shared formula on complex values."""
    rows = catalog._p_rows(
        sign_to_eps(params.sign), params.q, params.phi_phase, params.psi_phase, 1j * params.u,
        params.rho, params.sigma, params.tau, params.b, params.d,
    )
    out = []
    for row in rows:
        for mono in catalog.P_MONOMIALS:
            c = complex(row.get(mono, 0))
            out += (c.real, c.imag)
    return out


@pytest.mark.parametrize("sign", "+-")
def test_chart_jacobian_matches_central_differences(sign):
    step = 1e-6
    exact = p_chart_jacobian(sign)
    columns = []
    for j in range(13):
        tp, tm = [1.0] + [0.0] * 12, [1.0] + [0.0] * 12
        tp[j] += step
        tm[j] -= step
        fp = float_coefficient_vector(p_chart_float(tp, sign))
        fm = float_coefficient_vector(p_chart_float(tm, sign))
        columns.append([(a - b) / (2 * step) for a, b in zip(fp, fm)])
    jac = np.array(columns).T
    assert np.max(np.abs(jac - np.array(exact, dtype=float))) < 1e-6
    svals = np.linalg.svd(jac, compute_uv=False)
    assert int(np.sum(svals > 1e-8)) == 13


@pytest.mark.parametrize("k", range(13))
def test_zeroing_a_chart_direction_drops_the_rank_to_12(k, monkeypatch):
    chart = list(catalog.P_CHART)
    chart[k] = (chart[k][0], 0)
    monkeypatch.setattr(catalog, "P_CHART", tuple(chart))
    assert p_jacobian_rank_at_identity("+") == 12
    assert p_jacobian_rank_at_identity("-") == 12


# --- isotropy matrices -----------------------------------------------------------


def test_isotropy_identity_and_example():
    ident = make_isotropy_matrix(identity_p_params("+"))
    assert ident == tuple(
        tuple(GaussianRational(1 if i == j else 0) for j in range(3)) for i in range(3)
    )
    params = PParams(
        "+", Fraction(2), phase_from_parameter(0), phase_from_parameter(0), Fraction(0),
        GaussianRational(0), GaussianRational(0), GaussianRational(0),
        GaussianRational(-1), GaussianRational(4),
    ).validate()
    U = make_isotropy_matrix(params)
    expected = (
        (GaussianRational(Fraction(1, 2)), GaussianRational(0), GaussianRational(0)),
        (GaussianRational(-1), GaussianRational(2), GaussianRational(2)),
        (GaussianRational(-1), GaussianRational(0), GaussianRational(1)),
    )
    assert U == expected
    res = pseudo_unitarity_residual(U)
    assert all(x.is_zero() for row in res for x in row)


def test_isotropy_pure_second_phase():
    psi = phase_from_parameter(Fraction(1, 3))
    params = PParams(
        "+", Fraction(1), phase_from_parameter(0), psi, Fraction(0),
        GaussianRational(0), GaussianRational(0), GaussianRational(0),
        GaussianRational(0), GaussianRational(0),
    ).validate()
    U = make_isotropy_matrix(params)
    assert U[0][0] == GaussianRational(1) and U[1][1] == GaussianRational(1)
    assert U[2][2] == psi
    assert U[2][0].is_zero() and U[0][2].is_zero()


def test_isotropy_pseudo_unitarity_random_draws():
    rng = random.Random(18)
    for _ in range(50):
        p = random_p_params(rng, "+")
        params = PParams(
            "+", p.q, p.phi_phase, p.psi_phase, Fraction(0),
            GaussianRational(0), GaussianRational(0), GaussianRational(0), p.b, p.d,
        ).validate()
        res = pseudo_unitarity_residual(make_isotropy_matrix(params))
        assert all(x.is_zero() for row in res for x in row)


def test_isotropy_matches_scaled_jacobian_of_group_element():
    """The matrix family is the z-linear block of a translation-free element over q^2."""
    rng = random.Random(19)
    for _ in range(10):
        p = random_p_params(rng, "+")
        params = PParams(
            "+", p.q, p.phi_phase, p.psi_phase, Fraction(0),
            GaussianRational(0), GaussianRational(0), GaussianRational(0), p.b, p.d,
        ).validate()
        f = make_p_element(params)
        U = make_isotropy_matrix(params)
        block = [row[:3] for row in f.linear_part()[:3]]
        q2 = GaussianRational(params.q * params.q)
        scaled = [[x / q2 for x in row] for row in block]
        assert all(scaled[i][j] == U[i][j] for i in range(3) for j in range(3))


def test_isotropy_rejects_translations():
    with pytest.raises(DomainError):
        bad = PParams(
            "+", Fraction(1), phase_from_parameter(0), phase_from_parameter(0),
            Fraction(0), GaussianRational(1), GaussianRational(0), GaussianRational(0),
            GaussianRational(0), GaussianRational(0),
        ).validate()
        make_isotropy_matrix(bad)


def test_isotropy_matrix_never_builds_the_fourth_component(monkeypatch):
    """The isotropy block reads the first three components of _p_rows, so the
    fourth, most of the formula's arithmetic, is never computed."""
    p_rows = catalog._p_rows
    built = []

    def counting(*args):
        for row in p_rows(*args):
            built.append(row)
            yield row

    monkeypatch.setattr(catalog, "_p_rows", counting)
    params = identity_p_params("+")._replace(q=Fraction(2), b=GaussianRational(-1),
                                             d=GaussianRational(4)).validate()
    make_isotropy_matrix(params)
    assert len(built) == 3
    built.clear()
    catalog._p_map(params)
    assert len(built) == 4


def test_a_flipped_p_rows_coefficient_fails_isotropy_family(monkeypatch):
    """The isotropy matrices and their algebra are read off _p_rows, so a sign
    flip of the z1 coefficient of its third component (-conj(d) phi psi) fails
    the isotropy check: the matrices stop preserving the pairing form and the
    Re d tangent leaves u(2,1)."""
    p_rows = catalog._p_rows

    def flipped(*args, **kwargs):
        rows = list(p_rows(*args, **kwargs))
        rows[2][catalog._Z1] = -rows[2][catalog._Z1]
        return rows

    spec = CheckSpec(id="iso", kind="lie", target="isotropy_family", seed=1601)
    assert run_check(spec).status == "pass"
    monkeypatch.setattr(catalog, "_p_rows", flipped)
    catalog.isotropy_algebra.cache_clear()
    try:
        result = run_check(spec)
        assert result.status == "fail"
        assert "does not preserve the pairing form" in result.details["reason"]
        assert not all(lie.is_zero_matrix(lie.algebra_membership_residual(B, lie.FORM_PAIRING))
                       for B in catalog.isotropy_algebra().basis)
    finally:
        catalog.isotropy_algebra.cache_clear()


@pytest.mark.parametrize("target", ["P_plus", "P_minus"])
def test_a_flipped_p_rows_coefficient_fails_group_closure(monkeypatch, target):
    """A broken group law is a failed closure claim, not an error: with the same
    sign flip, parameter recovery raises ClosureViolation, and the check reports
    its message as the reason."""
    p_rows = catalog._p_rows

    def flipped(*args, **kwargs):
        rows = list(p_rows(*args, **kwargs))
        rows[2][catalog._Z1] = -rows[2][catalog._Z1]
        return rows

    spec = CheckSpec(id="closure", kind="closure", target=target, seed=1)
    assert run_check(spec).status == "pass"
    monkeypatch.setattr(catalog, "_p_rows", flipped)
    result = run_check(spec)
    assert result.status == "fail"
    assert result.details["reason"] == (
        "group law: translation constant has a stray real part")


# --- normalizers -----------------------------------------------------------------


def test_normalizer_rational_certificates():
    for alpha in (Fraction(7, 12), Fraction(-1, 4), Fraction(1, 12)):
        eq = make_normalizer_rational(alpha)
        cert = equivalence_certificate(eq.conjugated_target_rho, eq.rational_map, eq.source_rho)
        assert cert.exact
        assert cert.factor == GaussianRational(4)


def test_normalizer_targets_by_alpha():
    assert make_normalizer_rational(Fraction(7, 12)).target_rho == model_surface("+").rho
    assert make_normalizer_rational(Fraction(-1, 4)).target_rho == model_surface("-").rho
    assert make_normalizer_rational(Fraction(1, 12)).target_rho == quadric_surface(2, 3).rho


def test_normalizer_printed_map_float_path():
    """The printed map at seeded points, and pulled back on the float oracle."""
    for alpha in (Fraction(7, 12), Fraction(-1, 4), Fraction(1, 12)):
        eq = make_normalizer_rational(alpha)
        assert printed_map_error(eq, 4, random.Random(23)) <= 1e-9
        factor, residual = printed_pullback(eq)
        assert residual <= 1e-9
        assert abs(factor - 4.0) < 1e-9


def test_normalizer_printed_coefficients():
    alpha = Fraction(7, 12)
    eq = make_normalizer_rational(alpha)
    lam = eq.printed_image([1, 0, 0, 0])[0]
    assert abs(lam - (3 / 4) ** 0.25) < 1e-15  # |3/2 (alpha - 1/12)|^(1/4) = (3/4)^(1/4)
    assert eq.radicands[3] == 1  # the last component is printed as it is
    c4 = eq.rational_map.components[3]
    assert c4.coefficient((0, 0, 0, 1, 0, 0, 0, 0)) == GaussianRational(4)
    assert c4.coefficient((1, 1, 0, 0, 0, 0, 0, 0)) == GaussianRational(-2)
    assert c4.coefficient((0, 0, 2, 0, 0, 0, 0, 0)) == GaussianRational(-2)
    assert c4.coefficient((2, 0, 1, 0, 0, 0, 0, 0)) == GaussianRational(-1)
    assert c4.coefficient((4, 0, 0, 0, 0, 0, 0, 0)) == GaussianRational(-alpha / 2)


# --- quadrics, tube realisations, Cayley ------------------------------------------


def test_quadric_family_validation():
    fam = QuadricFamily(2, 3)
    assert fam.eps == (1, 1, -1)
    with pytest.raises(DomainError):
        QuadricFamily(0, 3)
    with pytest.raises(DomainError):
        QuadricFamily(4, 3)


def test_quadric_action_certificates():
    rng = random.Random(20)
    for p, n in ((1, 1), (1, 2), (2, 3), (5, 7)):
        rho = quadric_surface(p, n).rho
        for _ in range(5):
            a = frac(rng) or Fraction(1)
            b = [
                GaussianRational(frac(rng), frac(rng)) for _ in range(n)
            ]
            c = frac(rng)
            cert = invariance_certificate(rho, quadric_transitive_map(p, n, a, b, c))
            assert cert.exact and cert.factor == GaussianRational(a * a)


def test_quadric_transitivity_example():
    # one-variable case: target (0, 4) needs b=0, a=2, c=0
    sol = quadric_transitive_params(1, 1, ">", [GaussianRational(0), GaussianRational(4)])
    assert sol.a == 2 and sol.c == 0
    assert all(x.is_zero() for x in sol.b)
    image = quadric_transitive_map(1, 1, *sol).apply(
        quadric_base_point(1, 1, ">")
    )
    assert image == [GaussianRational(0), GaussianRational(4)]
    with pytest.raises(DomainError):
        quadric_transitive_params(1, 1, ">", [GaussianRational(0), GaussianRational(0)])
    with pytest.raises(DomainError, match="not the square of a rational"):
        quadric_transitive_params(1, 1, ">", [GaussianRational(0), GaussianRational(2)])


def test_quadric_transitivity_random_draws():
    rng = random.Random(21)
    for p, n, side in ((2, 3, ">"), (1, 2, "<")):
        base = quadric_base_point(p, n, side)
        for _ in range(20):
            a = Fraction(rng.randint(1, 8), rng.randint(1, 3))
            b = [GaussianRational(frac(rng), frac(rng)) for _ in range(n)]
            c = frac(rng)
            target = quadric_transitive_map(p, n, a, b, c).apply(base)
            sol = quadric_transitive_params(p, n, side, target)
            assert sol == (a, tuple(b), c)
            image = quadric_transitive_map(p, n, *sol).apply(base)
            assert image == target


def float_inside(domain, point) -> bool:
    """rho has the domain's sign beyond a 1e-12 band at a complex point; side_of is exact-only."""
    return domain.rho.evaluate_complex(point).real * domain.side > 1e-12


def test_tube_realisation_certificates_and_shape():
    for p, n in ((1, 1), (1, 2), (2, 3)):
        eq = make_tube_realisation_rational(p, n)
        cert = equivalence_certificate(eq.conjugated_target_rho, eq.rational_map, eq.source_rho)
        assert cert.exact and cert.factor == GaussianRational(1)
        assert printed_map_error(eq, 1, random.Random(24)) <= 1e-9
        assert printed_pullback(eq)[1] <= 1e-9
    eq = make_tube_realisation_rational(1, 1)
    assert eq.printed_image([1, 0])[0] == pytest.approx(math.sqrt(2))
    assert eq.radicands[1] == 1
    last = eq.rational_map.components[1]
    assert last.coefficient((2, 0, 0, 0)) == GaussianRational(1)
    assert last.coefficient((0, 1, 0, 0)) == GaussianRational(1)
    # the last component fixes the axis z = 0
    origin_image = eq.printed_image([0j, 3 + 1j])
    assert origin_image[0] == 0 and origin_image[1] == pytest.approx(3 + 1j)


def test_cayley_certificate_and_origin():
    eq = make_cayley_rational()
    cert = equivalence_certificate(eq.conjugated_target_rho, eq.rational_map, eq.source_rho)
    assert cert.exact and cert.factor == GaussianRational(4)
    assert eq.printed_image([0j, 0j, 0j]) == [0j, 0j, 0j]
    assert printed_map_error(eq, 4, random.Random(25)) <= 1e-9
    factor, residual = printed_pullback(eq)
    assert residual <= 1e-9
    assert abs(factor - 4.0) < 1e-9


def test_cayley_side_correspondence():
    """One side of the Cayley tube maps into one side of the (1,2) quadric."""
    rng = random.Random(22)
    eqc = make_cayley_rational()
    tube_above = catalog.SidedDomain(catalog.cayley_tube_surface(), +1)
    quadric_above = make_quadric_domain(1, 2, ">")
    for _ in range(50):
        x = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        pt = [complex(x[0], rng.uniform(-2, 2)), complex(x[1], rng.uniform(-2, 2)), 0j]
        graph = catalog.cayley_graph().evaluate_real(x)
        pt[2] = complex(graph + rng.uniform(0.1, 3), rng.uniform(-2, 2))
        assert float_inside(tube_above, pt)
        assert float_inside(quadric_above, eqc.printed_image(pt))


# --- degree-4 family ---------------------------------------------------------------


def test_sigma_surface_coefficients():
    """At sigma = 1 (r1 = 4, r2 = 3, r3 = 32/3) in the coordinates y_i = sqrt(r_i) x_i."""
    f = make_sigma_surface(Fraction(1))
    sp = f.space
    def coeff(**pw):
        exps = [0] * (2 * sp.n)
        for name, k in pw.items():
            exps[int(name[1:]) - 1] = k
        return f.poly.coefficient(tuple(exps))
    assert coeff(x1=2) == GaussianRational(Fraction(1, 4))  # 1 / r1
    assert coeff(x2=2) == GaussianRational(Fraction(1, 3))  # 1 / r2
    assert coeff(x3=2) == GaussianRational(Fraction(3, 32))  # 1 / r3
    assert coeff(x1=1, x4=1, x6=1) == GaussianRational(2)
    assert coeff(x3=1, x4=2) == GaussianRational(1)
    assert coeff(x2=1, x6=2) == GaussianRational(2)
    assert coeff(x2=1, x4=2) == GaussianRational(Fraction(2, 3))  # (1 + sigma) / r2
    assert coeff(x4=4) == GaussianRational(1)
    assert coeff(x4=2, x6=2) == GaussianRational(2)  # 1 + sigma at sigma=1
    assert coeff(x6=4) == GaussianRational(1)  # sigma at sigma=1


def _printed_sigma_graph(s: float) -> FloatPoly:
    """The sigma graph as printed, in x1..x7 with square-root coefficients on the
    float oracle: the catalog's formula before its rescaling."""
    r1 = 2.0 * (1.0 + s)
    r2 = 3.0 * s
    r3 = (-s * s + 34.0 * s - 1.0) / (3.0 * s)
    x = [FloatPoly.variable(14, i) for i in range(7)]
    f = (
        x[0] ** 2 + x[1] ** 2 + x[2] ** 2 + x[3] * x[4] + x[5] * x[6]
        + x[0] * x[3] * x[5] * (2.0 * math.sqrt(r1))
        + x[1] * x[5] ** 2 * (2.0 * math.sqrt(r2))
        + x[1] * x[3] ** 2 * ((1.0 + s) / math.sqrt(r2))
        + x[2] * x[3] ** 2 * math.sqrt(r3)
        + (x[3] ** 2 + x[5] ** 2) * (x[3] ** 2 + x[5] ** 2 * s)
    )
    return f


def _signature(H) -> tuple[int, int, int]:
    """numpy's eigenvalue counts beyond 1e-9 of ||H||_F, as tube_hessian_signature cuts."""
    eig, cut = np.linalg.eigvalsh(H), 1e-9 * np.linalg.norm(H)
    pos, neg = int((eig > cut).sum()), int((eig < -cut).sum())
    return pos, neg, len(eig) - pos - neg


@pytest.mark.parametrize("sigma", [Fraction(1), Fraction(2), Fraction(17), Fraction(339, 10),
                                   Fraction(339699, 10000)], ids=str)
def test_rational_sigma_graph_is_the_printed_graph_after_rescaling(sigma):
    """f(y) equals the printed graph at x_i = y_i / sqrt(r_i) for i = 1, 2, 3, and the
    two graphs' Hessians there have the same signature."""
    rng = random.Random(20)
    f, printed = make_sigma_surface(sigma), _printed_sigma_graph(float(sigma))
    second = [[printed.partial(i).partial(j) for j in range(7)] for i in range(7)]
    radicands = [2 * (1 + sigma), 3 * sigma, (-sigma * sigma + 34 * sigma - 1) / (3 * sigma)]
    roots = [math.sqrt(r) for r in radicands] + [1.0] * 4
    for _ in range(20):
        y = [rng.uniform(-1, 1) for _ in range(7)]
        x = [v / r for v, r in zip(y, roots)] + [0.0] * 7
        assert f.evaluate_real(y) == pytest.approx(printed.evaluate(x).real, rel=1e-12)
        H = [[d.evaluate(x).real for d in row] for row in second]
        assert tube_hessian_signature(f, y) == _signature(H) == (5, 2, 0)


def test_sigma_interval_endpoints():
    make_sigma_surface(Fraction(1))
    make_sigma_surface(Fraction(3397056, 100000))  # 17 + 12 sqrt(2) = 33.970562...
    with pytest.raises(DomainError):
        make_sigma_surface(Fraction(99, 100))
    with pytest.raises(DomainError):
        make_sigma_surface(Fraction(3397057, 100000))
    # the largest radicand vanishes exactly at the right endpoint
    s = 17 + 12 * math.sqrt(2)
    assert abs(-s * s + 34 * s - 1) < 1e-9


def test_no_simultaneously_rational_radicands():
    """2(1+s) and 3s cannot both be rational squares: 2 a^2 - 3 b^2 = -6 has no
    rational points (mod-3 obstruction), so no member of the family as printed has
    rational coefficients; the catalog rescales x1, x2, x3 instead."""
    for bnum in range(1, 40):
        for bden in range(1, 12):
            b = Fraction(bnum, bden)  # b^2 = 2 (1 + s)
            s = b * b / 2 - 1
            if not (1 <= s < Fraction(339, 10)):
                continue
            from tubecert.scalars import sqrt_exact

            assert sqrt_exact(3 * s) is None


# --- registry -----------------------------------------------------------------------


def test_registry_resolution_and_descriptions():
    for ident in catalog.known_identifiers():
        entry = resolve(ident)
        assert entry.ident == ident
        assert entry.description
    assert resolve("gamma(alpha=1/12)").kind == "hypersurface"
    assert resolve("quadric(p=2,n=3,side=>)").obj.side == 1
    assert resolve("sigma(σ=1)").kind == "graph"  # unicode parameter accepted
    with pytest.raises(KeyError):
        resolve("unknown_thing")
    with pytest.raises(KeyError):
        resolve("gamma(alpha=1")


def test_d0_equals_quadric_2_3():
    assert resolve("D0(side=>)").obj == make_quadric_domain(2, 3, ">")


def test_side_is_decoded_once_and_strictly():
    assert make_quadric_domain(1, 2, "<").side == make_omega(1, "<").side == -1
    assert quadric_base_point(1, 1, "<")[-1] == GaussianRational(-1)
    for build in (
        lambda: make_quadric_domain(1, 2, "x"),
        lambda: make_omega(1, "x"),
        lambda: model_domain("+", "x"),
        lambda: quadric_base_point(1, 1, "x"),
        lambda: quadric_transitive_params(1, 1, "x", [GaussianRational(0), GaussianRational(4)]),
    ):
        with pytest.raises(DomainError, match="side must be"):
            build()
    with pytest.raises(DomainError, match="strictly inside the '<' side"):
        quadric_transitive_params(1, 1, "<", [GaussianRational(0), GaussianRational(4)])


def test_rationalized_equivalence_rejects_an_inexact_scaling():
    eq = make_tube_realisation_rational(1, 1)
    with pytest.raises(DomainError, match="diagonal scaling"):
        RationalizedEquivalence(eq.rational_map, eq.target_rho, eq.source_rho, (2, 1))
