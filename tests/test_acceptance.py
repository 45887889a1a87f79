"""Acceptance criteria for the certificate suite.

Each test is one exit criterion, run at its stated tolerance: exact checks
demand zero residual (the parameter-count rank is exact too), floating
checks a 1e-9 sup-norm, and eigenvalue margins 1e-9 of the spectral radius.
A one-line summary per criterion is printed at the end of the
session (see conftest).
"""

import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from tubecert import catalog, chern_moser, geometry, lie
from tubecert.catalog import (
    PParams,
    control_bad_constraint,
    identity_p_params,
    make_gamma,
    make_generator,
    make_isotropy_matrix,
    make_normalizer_rational,
    make_p_element,
    make_sigma_surface,
    make_tube_realisation_rational,
    model_surface,
    orbit_point,
    p_compose,
    p_inverse,
    p_jacobian_rank_at_identity,
    p_params_from_map,
    parse_ident,
    pseudo_unitarity_residual,
    quadric_surface,
    quadric_transitive_map,
    random_fraction,
    random_gaussian,
    random_p_params,
    random_positive_fraction,
    resolve,
    stated_line,
    transitive_params_omega,
)
from tubecert.cli import default_config_text, parse_config, result_json_line, run_suite
from tubecert.errors import DomainError
from tubecert.maps import (
    HoloPolyMap,
    compose,
    equivalence_certificate,
    invariance_certificate,
    lift_affine,
)
from tubecert.poly import HermitianPolynomial, VariableSpace
from tubecert.scalars import GaussianRational

from float_oracle import printed_map_error

FLOAT_TOL = 1e-9
GOLDEN_REPORT = Path(__file__).parent / "data" / "default_suite.golden.ndjson"
ALPHAS = (Fraction(0), Fraction(1, 12), Fraction(1), Fraction(-2))


def test_criterion_01_generator_invariance():
    """1. generator invariance: exact certificates with factors q^4, 1, 1, 1"""
    rng = random.Random(101)
    for alpha in ALPHAS:
        rho = make_gamma(alpha).rho
        for kind in ("phi", "psi", "mu", "nu"):
            for _ in range(20):
                param = random_fraction(rng)
                if kind == "phi" and param == 0:
                    param = Fraction(1, 3)
                cert = invariance_certificate(
                    rho, lift_affine(make_generator(kind, alpha, param))
                )
                assert cert.exact and cert.residual.is_zero()
                want = param**4 if kind == "phi" else Fraction(1)
                assert cert.factor == GaussianRational(want)


def test_criterion_02_affine_homogeneity():
    """2. affine homogeneity: 100 exact and 100 floating targets, plus the pinned regression"""
    rng = random.Random(102)
    for alpha in ALPHAS:
        for _ in range(25):
            q = random_positive_fraction(rng)
            r, s, t = (random_fraction(rng) for _ in range(3))
            target = orbit_point(alpha, q, r, s, t).apply(())
            sol = transitive_params_omega(alpha, target)
            assert isinstance(sol.q, Fraction)
            image = orbit_point(alpha, *sol).apply(())
            assert list(image) == list(target)  # zero error on the exact path
        produced = 0
        while produced < 25:
            target = [rng.uniform(-3, 3) for _ in range(4)]
            try:
                sol = transitive_params_omega(alpha, target)
            except DomainError:
                continue
            produced += 1
            image = orbit_point(alpha, *map(Fraction, sol)).apply(())
            assert max(abs(float(a) - b) for a, b in zip(image, target)) <= FLOAT_TOL
    sol = transitive_params_omega(Fraction(1), (1, 0, 0, 2))
    assert sol == (1, 1, 6, 2)


def test_criterion_03_normalization_equivalences():
    """3. normalizing equivalences certify exactly with a recorded positive factor"""
    for alpha in (Fraction(7, 12), Fraction(-1, 4), Fraction(1, 12)):
        eq = make_normalizer_rational(alpha)
        cert = equivalence_certificate(
            eq.conjugated_target_rho, eq.rational_map, eq.source_rho
        )
        assert cert.exact and cert.residual.is_zero()
        assert cert.factor_is_positive_real
        assert cert.factor == GaussianRational(4)  # recorded regression value
        assert printed_map_error(eq, 4, random.Random(103)) <= FLOAT_TOL


def test_criterion_04_group_preserves_models():
    """4. the 13-parameter group certifies with factor q^4; the d+1 control fails"""
    rng = random.Random(104)
    for sign in "+-":
        rho = model_surface(sign).rho
        for _ in range(50):
            params = random_p_params(rng, sign)
            cert = invariance_certificate(rho, make_p_element(params))
            assert cert.exact and cert.factor == GaussianRational(params.q**4)
    control = invariance_certificate(model_surface("+").rho, control_bad_constraint("+"))
    assert not control.exact and not control.residual.is_zero()


def test_criterion_05_group_structure():
    """5. closure with exact recovery, identity and inverse recovery, chart rank 13"""
    rng = random.Random(105)
    for sign in "+-":
        for _ in range(25):
            a, b = random_p_params(rng, sign), random_p_params(rng, sign)
            ab = p_compose(a, b)
            assert make_p_element(ab) == compose(make_p_element(a), make_p_element(b))
        ident = p_params_from_map(HoloPolyMap.identity(catalog.SPACE4), sign)
        assert ident == identity_p_params(sign)
        for _ in range(10):
            a = random_p_params(rng, sign)
            inv = p_inverse(a)
            assert p_compose(inv, a) == identity_p_params(sign)
        assert p_jacobian_rank_at_identity(sign) == 13


def test_criterion_06_isotropy_matrices():
    """6. isotropy matrices preserve the pairing form; their algebra has dimension 6"""
    rng = random.Random(106)
    for _ in range(50):
        p = random_p_params(rng, "+")
        params = PParams(
            "+", p.q, p.phi_phase, p.psi_phase, Fraction(0),
            GaussianRational(0), GaussianRational(0), GaussianRational(0), p.b, p.d,
        ).validate()
        res = pseudo_unitarity_residual(make_isotropy_matrix(params))
        assert all(x.is_zero() for row in res for x in row)
    algebra = catalog.isotropy_algebra()
    assert algebra.dimension == 6
    assert lie.is_subalgebra(algebra).closed


def test_criterion_07_levi_geometry():
    """7. Levi signature (2,1) at the origin and 50 boundary points per model"""
    rng = random.Random(107)
    for sign in "+-":
        surface = model_surface(sign)
        points = [[GaussianRational(0)] * 4]
        points += geometry.sample_boundary_points(surface, rng, 50)
        for pt in points:
            data = geometry.levi_form(surface, [complex(v) for v in pt])
            assert data.signature == (2, 1, 0)
            assert data.min_abs_eigenvalue > 1e-9 * data.spectral_radius


def test_criterion_08_normal_form_conditions():
    """8. trace conditions and non-umbilicity hold exactly; the trace constant is 8"""
    rng = random.Random(108)
    sp = VariableSpace(3)
    for sign, eps in (("+", 1), ("-", -1)):
        components = chern_moser.model_normal_form(sign)
        assert all(res.is_zero() for _, res in chern_moser.normal_form_check(components))
        want = (
            HermitianPolynomial.variable(sp, 0) ** 2
            * HermitianPolynomial.variable(sp, 3) ** 2
            * eps
        )
        f22 = components[2, 2]
        assert not f22.is_zero() and f22 == want
    fp, g = chern_moser.pairing_poly(sp), chern_moser.pairing_inverse()
    for _ in range(10):
        c = random_gaussian(rng)
        while c.is_zero():
            c = random_gaussian(rng)
        assert (chern_moser.trace_op(fp * fp * c, g) - fp * (c * 8)).is_zero()


def test_criterion_09_subalgebra_dimension_core():
    """9. trace-form rank 8; only E_12 passes the kernel test; patterns and stabilizers"""
    rng = random.Random(109)
    assert lie.sl3_gram_rank() == 8
    for name, P, expect_ge4 in lie.jordan_test_set():
        S = lie.perp(lie.LieSubspace((P,), "C"))
        assert (lie.ad_kernel_dim(P, S) >= 4) == expect_ge4, name
    pperp = lie.perp(lie.LieSubspace((lie.E(0, 1),), "C"))
    assert not lie.is_subalgebra(pperp).closed
    for which in (1, 2):
        S = lie.candidate_subalgebra(which)
        assert S.dimension == 6 and lie.is_subalgebra(S).closed
    g0, g1 = GaussianRational(0), GaussianRational(1)
    basis = lie.su21_basis()
    for v, want in (((g1, g0, g0), 4), ((g0, g0, g1), 4), ((g1, g0, g1), 5)):
        assert lie.stabilizer_up_to_scale_dim(v) == want
        produced = 0
        while produced < 10:
            A = lie.mat([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
            for B in basis:
                A = lie.madd(A, lie.mscale(B, Fraction(rng.randint(-2, 2), 3)))
            try:
                U = lie.cayley_group_element(A)
            except ZeroDivisionError:
                continue
            assert lie.stabilizer_up_to_scale_dim(lie.apply_vec(U, v)) == want
            produced += 1


def test_criterion_10_common_eigenvector_line():
    """10. the line test accepts exactly the multiples of (0,1,0), on 50 draws"""
    rng = random.Random(110)
    algebra = catalog.isotropy_algebra()
    for k in range(50):
        if k % 2 == 0:
            s = random_gaussian(rng)
            while s.is_zero():
                s = random_gaussian(rng)
            w = (GaussianRational(0), s, GaussianRational(0))
            assert lie.line_image_test(algebra, w)
        else:
            w = tuple(random_gaussian(rng) for _ in range(3))
            while w[0].is_zero() and w[2].is_zero():
                w = tuple(random_gaussian(rng) for _ in range(3))
            assert not lie.line_image_test(algebra, w)


def test_criterion_11_non_hyperbolicity_witnesses():
    """11. exact symbolic line certificates for every stated line"""
    model_ids = [f"{name}(side={side})" for name in ("D_plus", "D_minus") for side in "><"]
    quadric_ids = [f"quadric(p={p},n={n},side={side})" for n in range(1, 8)
                   for p in range(1, n + 1) for side in "<>"]
    for ident in model_ids + quadric_ids:
        args = parse_ident(ident)[1]
        if "p" in args and args["p"] == args["n"] and args["side"] == ">":  # a ball: no line
            with pytest.raises(DomainError, match="is a ball"):
                stated_line(args)
            continue
        base, direction, expected_grade = stated_line(args)
        witness = geometry.contains_complex_line(resolve(ident).obj, base, direction)
        assert witness.certified, ident
        assert witness.grade == expected_grade, ident
        assert witness.grade == ("constant" if ident in model_ids else "definite"), ident


def test_criterion_12_quadric_equivalences():
    """12. quadric action factor a^2; tube realisations and Cayley exact; sigma signatures"""
    rng = random.Random(112)
    rho23 = quadric_surface(2, 3).rho
    for _ in range(20):
        a = random_fraction(rng) or Fraction(2)
        b = [random_gaussian(rng) for _ in range(3)]
        c = random_fraction(rng)
        cert = invariance_certificate(rho23, quadric_transitive_map(2, 3, a, b, c))
        assert cert.exact and cert.factor == GaussianRational(a * a)
    for p, n in ((1, 1), (1, 2), (2, 3)):
        eq = make_tube_realisation_rational(p, n)
        cert = equivalence_certificate(
            eq.conjugated_target_rho, eq.rational_map, eq.source_rho
        )
        assert cert.exact and cert.factor == GaussianRational(1)
        assert printed_map_error(eq, 1, random.Random(212)) <= FLOAT_TOL
    eqc = catalog.make_cayley_rational()
    cert = equivalence_certificate(eqc.conjugated_target_rho, eqc.rational_map, eqc.source_rho)
    assert cert.exact and cert.factor == GaussianRational(4)
    assert cert.factor_is_positive_real
    for sigma in (Fraction(1), Fraction(2), Fraction(17), Fraction(339, 10)):
        f = make_sigma_surface(sigma)
        for _ in range(20):
            x = [rng.uniform(-1, 1) for _ in range(7)]
            assert geometry.tube_hessian_signature(f, x) == (5, 2, 0)


def same_report_value(got, want) -> bool:
    """Exact equality, except floats, which may differ in LAPACK's last digits across machines."""
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-14)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same_report_value(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(same_report_value, got, want)))
    return type(got) is type(want) and got == want


def test_criterion_13_determinism():
    """13. the default suite reruns byte-identically apart from timing and matches the golden report"""
    specs = parse_config(default_config_text())

    def run_once():
        results = run_suite(specs)
        assert all(r.status == "pass" for r in results), [
            (r.id, r.status, r.details) for r in results if r.status != "pass"
        ]
        lines = [result_json_line(r) for r in results]
        return [re.sub(r',?\s*"wall_time_ms":\s*[0-9.]+', "", ln) for ln in lines]

    report = run_once()
    assert report == run_once()
    golden = GOLDEN_REPORT.read_text().splitlines()
    assert len(report) == len(golden)
    for line, want in zip(report, golden):
        assert same_report_value(json.loads(line), json.loads(want)), (line, want)
