"""Membership, Levi forms, tube Hessian shortcut, and line witnesses."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tubecert.catalog import (
    cayley_graph,
    gamma_graph,
    make_gamma,
    make_omega,
    make_p_element,
    make_quadric_domain,
    model_domain,
    model_surface,
    quadric_surface,
    random_p_params,
    stated_line,
    make_sigma_surface,
    parse_ident,
    resolve,
)
from tubecert.errors import DomainError, NotAHypersurfacePoint, SpaceError
from tubecert.geometry import (
    Hypersurface,
    SidedDomain,
    _grade_restriction,
    _hermitian_eigenvalues,
    _inertia,
    contains_complex_line,
    levi_form,
    lifted_tube,
    re_last_solver,
    sample_boundary_points,
    side_of,
    tube_hessian_signature,
)
from tubecert.maps import invariance_certificate
from tubecert.poly import HermitianPolynomial, RealPolynomial, VariableSpace
from tubecert.scalars import GaussianRational


def test_side_of_examples():
    d_plus_above = model_domain("+", ">")
    assert side_of(d_plus_above, [0, 0, 0, 1]) == "inside"
    assert side_of(d_plus_above, [0, 0, 0, 0]) == "on_boundary"
    d_plus_below = model_domain("+", "<")
    assert side_of(d_plus_below, [0, 0, 0, -1]) == "inside"
    assert side_of(d_plus_above, [0, 0, 0, -1]) == "outside"
    # sides are decided exactly; a float point is refused
    with pytest.raises(TypeError):
        side_of(d_plus_above, [0j, 0j, 0j, 0.5 + 3j])


def test_side_of_base_point_in_every_gamma_domain():
    for alpha in (0, Fraction(1, 12), 1, -2):
        omega = make_omega(alpha, ">")
        assert side_of(omega, [0, 0, 0, 1]) == "inside"
        assert side_of(make_omega(alpha, "<"), [0, 0, 0, -1]) == "inside"


def test_levi_signature_eigenvalue_oracle_at_origin():
    """The restricted Hessian at the origin is the pairing block; check against numpy."""
    oracle = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    eigs = np.linalg.eigvalsh(oracle)
    assert (np.sum(eigs > 0), np.sum(eigs < 0)) == (2, 1)
    data = levi_form(model_surface("+"), [0, 0, 0, 0])
    assert data.signature == (2, 1, 0)


def test_levi_sphere_quadric():
    data = levi_form(quadric_surface(3, 3), [0, 0, 0, 0])
    assert data.signature == (3, 0, 0)


def test_levi_minus_model_away_from_origin():
    surface = model_surface("-")
    re_z4 = re_last_solver(surface.rho)(
        [GaussianRational(1), GaussianRational(0), GaussianRational(0)]
    )
    assert re_z4 == Fraction(-1)
    data = levi_form(surface, [1.0, 0.0, 0.0, complex(-1.0, 0.7)])
    assert data.signature == (2, 1, 0)
    assert data.min_abs_eigenvalue > 1e-9 * data.spectral_radius


def test_levi_zero_gradient_rejected():
    sp = VariableSpace(2)
    z1, zb1 = HermitianPolynomial.variable(sp, 0), HermitianPolynomial.variable(sp, 2)
    cone = Hypersurface(z1 * zb1)
    with pytest.raises(NotAHypersurfacePoint):
        levi_form(cone, [0, 0])


def test_boundary_sampling_levi_signature():
    rng = random.Random(99)
    for sign in "+-":
        surface = model_surface(sign)
        points = sample_boundary_points(surface, rng, 50)
        for pt in points:
            assert surface.rho.evaluate(pt).re == 0  # exactly on the surface
            data = levi_form(surface, [complex(v) for v in pt])
            assert data.signature == (2, 1, 0)
            assert data.min_abs_eigenvalue > 1e-9 * data.spectral_radius


def test_tube_hessian_examples():
    # one real variable: f = x1^2 at 0 has signature (1,0,0)
    sp1 = VariableSpace(1)
    f1 = RealPolynomial(HermitianPolynomial.variable(sp1, 0) ** 2)
    assert tube_hessian_signature(f1, [0.0]) == (1, 0, 0)
    # full family at the origin: quartic terms vanish there
    assert tube_hessian_signature(make_sigma_surface(Fraction(1)), [0.0] * 7) == (5, 2, 0)


def test_tube_hessian_agrees_with_levi_on_lift():
    rng = random.Random(100)
    graphs = [gamma_graph(a) for a in (0, Fraction(1, 12), 1, -1)] + [cayley_graph()]
    for f in graphs:
        tube = lifted_tube(f)
        for _ in range(20):
            x = [rng.uniform(-2, 2) for _ in range(f.space.n)]
            z = [complex(v, rng.uniform(-1, 1)) for v in x]
            z.append(complex(f.evaluate_real(x), rng.uniform(-1, 1)))
            # the lift only constrains real parts; adjust to stay on the surface
            z[: f.space.n] = [complex(v, zi.imag) for v, zi in zip(x, z)]
            sig = tube_hessian_signature(f, x)
            data = levi_form(tube, z)
            assert sig == data.signature_signed


def test_sigma_tube_hessian_agrees_with_levi_on_lift():
    # The sigma graphs have rational coefficients, so their tubes are exact;
    # the Levi form there must read the same (5, 2) signature as the real
    # Hessian of the graph at the same points.
    rng = random.Random(104)
    for sigma in (Fraction(1), Fraction(5, 2), Fraction(339, 10)):
        f = make_sigma_surface(sigma)
        tube = lifted_tube(f)
        assert all(isinstance(c, GaussianRational) for c in tube.rho.terms.values())
        assert tube.space.n == 8
        for _ in range(10):
            x = [rng.uniform(-1, 1) for _ in range(7)]
            z = [complex(v, rng.uniform(-1, 1)) for v in x]
            z.append(complex(f.evaluate_real(x), rng.uniform(-1, 1)))
            sig = tube_hessian_signature(f, x)
            assert sig == levi_form(tube, z).signature_signed == (5, 2, 0)


def test_side_invariance_under_certified_automorphisms():
    rng = random.Random(101)
    for sign in "+-":
        domain = model_domain(sign, ">")
        params = random_p_params(rng, sign)
        f = make_p_element(params)
        cert = invariance_certificate(domain.rho, f)
        assert cert.exact and cert.factor_is_positive_real
        for _ in range(100):
            pt = [
                GaussianRational(
                    Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4)
                )
                for _ in range(4)
            ]
            assert side_of(domain, pt) == side_of(domain, f.apply(pt))


def test_line_witness_constant_grade():
    domain = model_domain("+", ">")
    w = contains_complex_line(domain, [0, 0, 0, 1], [0, 1, 0, 0])
    assert w.certified and w.grade == "constant"
    assert str(w.restriction) == "(1)"
    below = model_domain("+", "<")
    w2 = contains_complex_line(below, [0, 0, 0, -1], [0, 1, 0, 0])
    assert w2.certified and w2.grade == "constant"


def test_line_witness_definite_grade_and_failure():
    below = make_quadric_domain(1, 1, "<")
    w = contains_complex_line(below, [0, -1], [1, 0])
    assert w.certified and w.grade == "definite"
    # the same direction on the '>' side of the ball-like quadric must fail
    above = make_quadric_domain(1, 1, ">")
    w2 = contains_complex_line(above, [0, 1], [1, 0])
    assert not w2.inside_at_all_samples
    assert w2.grade == "sampled"
    assert w2.first_failure is not None and w2.first_failure.abs2() >= 1
    # rho = 1 - 2 Im t on this line: only the imaginary ray leaves the domain, at t = i
    up = [0, 0, 0, GaussianRational(0, 2)]
    w3 = contains_complex_line(model_domain("+", ">"), [0, 0, 0, 1], up)
    assert not w3.inside_at_all_samples and w3.first_failure == GaussianRational(0, 1)


def _reference_grade(restriction, side):
    """The term-by-term grading loop that the one-rule grade replaced."""
    terms = restriction.terms
    const_key = (0, 0)
    if not terms:
        return "sampled"
    if set(terms) == {const_key}:
        c = terms[const_key]
        if c.is_real() and (1 if c.re > 0 else -1) == side:
            return "constant"
        return "sampled"
    ok = True
    has_const = False
    for (a, b), c in terms.items():
        if a != b or not c.is_real():
            ok = False
            break
        if (a, b) == const_key:
            has_const = True
            if (1 if c.re > 0 else -1) != side:
                ok = False
                break
        elif c.re != 0 and (1 if c.re > 0 else -1) != side:
            ok = False
            break
    if ok and has_const:
        return "definite"
    return "sampled"


_LINE = VariableSpace(1)
_T, _TB = HermitianPolynomial.variable(_LINE, 0), HermitianPolynomial.variable(_LINE, 1)
_ONE = HermitianPolynomial.constant(_LINE, 1)
_ABS2 = _T * _TB


@pytest.mark.parametrize(
    "restriction, side, grade",
    [
        (HermitianPolynomial.zero(_LINE), 1, "sampled"),
        (_ONE * -2, 1, "sampled"),
        (_ONE * GaussianRational(1, 1), 1, "sampled"),
        (_ONE + _ABS2 + _T * _TB**2, 1, "sampled"),
        (_ABS2 * 3, 1, "sampled"),
        (_ONE + _ABS2 - _ABS2**2, 1, "sampled"),
        (_ABS2 - _ONE, -1, "sampled"),
        (_ONE * 3, 1, "constant"),
        (_ONE * Fraction(-1, 2), -1, "constant"),
        (_ONE + _ABS2 * 2 + _ABS2**2, 1, "definite"),
        (-_ONE - _ABS2 * Fraction(1, 3), -1, "definite"),
    ],
    ids=["zero", "wrong-sign-constant", "non-real-constant", "off-diagonal-term",
         "no-constant-term", "mixed-sign-abs2", "mixed-sign-below", "constant-above",
         "constant-below", "definite-above", "definite-below"],
)
def test_grade_restriction_matches_the_term_loop(restriction, side, grade):
    assert _grade_restriction(restriction, side) == grade == _reference_grade(restriction, side)


# The lines the catalog once listed domain by domain: (base point, direction, grade).
TABLE_LINES = {
    "D_plus(side=>)": ((0, 0, 0, 1), (0, 1, 0, 0), "constant"),
    "D_plus(side=<)": ((0, 0, 0, -1), (0, 1, 0, 0), "constant"),
    "D_minus(side=>)": ((0, 0, 0, 1), (0, 1, 0, 0), "constant"),
    "D_minus(side=<)": ((0, 0, 0, -1), (0, 1, 0, 0), "constant"),
    "quadric(p=1,n=1,side=<)": ((0, -1), (1, 0), "definite"),
    "quadric(p=1,n=2,side=<)": ((0, 0, -1), (1, 0, 0), "definite"),
    "quadric(p=1,n=2,side=>)": ((0, 0, 1), (0, 1, 0), "definite"),
    "quadric(p=2,n=3,side=<)": ((0, 0, 0, -1), (1, 0, 0, 0), "definite"),
    "quadric(p=2,n=3,side=>)": ((0, 0, 0, 1), (0, 0, 1, 0), "definite"),
    "quadric(p=5,n=7,side=<)": ((0,) * 7 + (-1,), (1,) + (0,) * 7, "definite"),
    "quadric(p=5,n=7,side=>)": ((0,) * 7 + (1,), (0,) * 6 + (1, 0), "definite"),
}

# Every D_plus/D_minus side and every quadric side with 1 <= p <= n <= 7 but the
# balls (side '>' with p = n).
LINE_DOMAINS = [f"{name}(side={side})" for name in ("D_plus", "D_minus") for side in "><"] + [
    f"quadric(p={p},n={n},side={side})" for n in range(1, 8) for p in range(1, n + 1)
    for side in "<>" if side == "<" or p < n]


@pytest.mark.parametrize("ident", sorted(TABLE_LINES))
def test_the_line_rule_gives_each_table_line(ident):
    base, direction, grade = TABLE_LINES[ident]
    got = stated_line(parse_ident(ident)[1])
    assert got == (tuple(map(GaussianRational, base)), tuple(map(GaussianRational, direction)),
                   grade)
    assert all(type(x) is GaussianRational for x in got[0] + got[1])


def test_all_stated_lines_certify():
    assert set(TABLE_LINES) <= set(LINE_DOMAINS) and len(LINE_DOMAINS) == 53
    for ident in LINE_DOMAINS:
        base, direction, grade = stated_line(parse_ident(ident)[1])
        w = contains_complex_line(resolve(ident).obj, base, direction)
        assert w.certified, ident
        assert w.grade == grade, ident
    for n in range(1, 8):
        with pytest.raises(DomainError, match="is a ball"):
            stated_line(parse_ident(f"quadric(p={n},n={n},side=>)")[1])


def test_gradient_nonzero_at_catalog_sample_points():
    rng = random.Random(103)
    surfaces = [
        model_surface("+"),
        model_surface("-"),
        make_gamma(Fraction(1, 12)),
        quadric_surface(2, 3),
    ]
    for surface in surfaces:
        grad = surface.gradient_at([0.0] * surface.space.n)
        assert max(abs(g) for g in grad) > 1e-9
        for pt in sample_boundary_points(surface, rng, 10):
            grad = surface.gradient_at([complex(v) for v in pt])
            assert max(abs(g) for g in grad) > 1e-9


def test_negative_certificate_factor_means_side_swap():
    sp = VariableSpace(1)
    z1 = HermitianPolynomial.variable(sp, 0)
    zb1 = HermitianPolynomial.variable(sp, 1)
    half_plane = Hypersurface((z1 + zb1) * Fraction(1, 2))  # rho = Re z1
    from tubecert.maps import HoloPolyMap

    negate = HoloPolyMap(sp, sp, [z1 * -1])
    cert = invariance_certificate(half_plane.rho, negate)
    assert cert.exact and cert.factor == GaussianRational(-1)
    assert not cert.factor_is_positive_real
    domain = SidedDomain(half_plane, +1)
    assert side_of(domain, [GaussianRational(1)]) == "inside"
    assert side_of(domain, negate.apply([GaussianRational(1)])) == "outside"


def test_graph_solver_matches_evaluation():
    rng = random.Random(102)
    surface = make_gamma(Fraction(2, 3))
    solve = re_last_solver(surface.rho)
    for _ in range(20):
        zp = [
            GaussianRational(Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 2))
            for _ in range(3)
        ]
        re4 = solve(zp)
        value = surface.rho.evaluate(zp + [GaussianRational(re4, Fraction(1, 3))])
        assert value.re == 0 and value.im == 0


def test_graph_solver_refuses_what_it_cannot_solve():
    sp = VariableSpace(2)
    z1, z2, zb1, zb2 = (HermitianPolynomial.variable(sp, i) for i in range(4))
    with pytest.raises(DomainError, match="not a graph in Re z_n"):
        re_last_solver(z1 * zb1 + z1 + zb1)  # z2 does not occur
    with pytest.raises(DomainError, match="not a graph in Re z_n"):
        re_last_solver(z2 * GaussianRational(0, 1) - zb2 * GaussianRational(0, 1))
    with pytest.raises(DomainError, match="not linear in the last variable"):
        re_last_solver(z2 + zb2 + z2 * zb2)
    with pytest.raises(DomainError, match="not linear in the last variable"):
        sample_boundary_points(Hypersurface(z2 + zb2 + z1 * zb2 + zb1 * z2), random.Random(1), 3)
    solve = re_last_solver(z2 + zb2 + z1 * zb1)
    assert solve([GaussianRational(1, 1)]) == Fraction(-1)
    with pytest.raises(SpaceError, match="need 1 leading coordinates"):
        solve([1, 2])
    with pytest.raises(DomainError, match="non-real residual"):
        re_last_solver(z2 + zb2 + z1)([GaussianRational(0, 1)])


def test_boundary_samples_are_drawn_as_before():
    """One solver per surface: the same rng stream gives the same exact points as
    solving each point from rho alone."""
    surface = make_gamma(Fraction(-7, 5))
    points = sample_boundary_points(surface, random.Random(5), 30)
    rng = random.Random(5)
    for pt in points:
        zp = [GaussianRational(Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4))
              for _ in range(3)]
        assert pt[:3] == zp
        assert pt[3] == GaussianRational(re_last_solver(surface.rho)(zp),
                                          Fraction(rng.randint(-8, 8), 4))
        assert surface.rho.evaluate(pt) == 0


def _derivative_surfaces():
    """M_plus and a gamma tube (Levi form); the gamma and sigma graphs (tube Hessian)."""
    graphs = [gamma_graph(Fraction(2, 3)), make_sigma_surface(Fraction(5, 2))]
    return [model_surface("+"), lifted_tube(graphs[0])], graphs


def test_kept_derivatives_evaluate_as_fresh_ones():
    rng = random.Random(103)
    surfaces, graphs = _derivative_surfaces()
    for surface in surfaces:
        n = surface.space.n
        for _ in range(5):
            pt = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
            grad = [surface.rho.partial(j) for j in range(n)]
            assert surface.gradient_at(pt) == [d.evaluate_complex(pt) for d in grad]
            assert surface.complex_hessian_at(pt) == [
                [d.partial(n + k).evaluate_complex(pt) for k in range(n)] for d in grad
            ]
    for f in graphs:
        n = f.space.n
        for _ in range(5):
            xs = [rng.uniform(-1, 1) for _ in range(n)]
            pt = [complex(x, 0.0) for x in xs]
            assert f.hessian_at(xs) == [
                [f.poly.partial(i).partial(j).evaluate_complex(pt).real for j in range(n)]
                for i in range(n)
            ]


def test_second_levi_and_hessian_calls_differentiate_nothing(monkeypatch):
    calls = []
    partial = HermitianPolynomial.partial

    def counted(self, var):
        calls.append(var)
        return partial(self, var)

    monkeypatch.setattr(HermitianPolynomial, "partial", counted)
    surfaces, graphs = _derivative_surfaces()
    for surface in surfaces:
        pt = [0.5 + 0.25j] * surface.space.n
        first = levi_form(surface, pt)
        assert calls
        calls.clear()
        assert levi_form(surface, pt) == first and not calls
    for f in graphs:
        xs = [0.25] * f.space.n
        first = f.hessian_at(xs)
        assert calls
        calls.clear()
        assert f.hessian_at(xs) == first and tube_hessian_signature(f, xs) and not calls


def test_kept_derivatives_leave_equality_hashing_and_immutability_alone():
    filled, empty = model_surface("-"), model_surface("-")
    levi_form(filled, [0j] * 4)
    f, g = gamma_graph(Fraction(1, 3)), gamma_graph(Fraction(1, 3))
    f.hessian_at([0.5, -0.5, 0.25])
    for a, b in ((filled, empty), (f, g)):
        assert a == b and b == a and hash(a) == hash(b) and len({a, b}) == 1
    for obj in (filled, empty):
        for name in ("rho", "space", "_derivs", "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
    for obj in (f, g):
        for name in ("poly", "_hess", "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)


def test_hessians_evaluate_only_the_nonzero_derivatives(monkeypatch):
    """Identically zero second derivatives are skipped, and the matrices stay equal to a
    full evaluation of every derivative."""
    rng = random.Random(105)
    surfaces, graphs = _derivative_surfaces()
    sigma = graphs[1]
    full = {}
    for surface in surfaces:
        n = surface.space.n
        pt = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        second = [surface.rho.partial(j).partial(n + k) for j in range(n) for k in range(n)]
        full[surface] = (pt, [[d.evaluate_complex(pt) for d in second[j * n:(j + 1) * n]]
                              for j in range(n)], second)
    for f in graphs:
        n = f.space.n
        xs = [rng.uniform(-1, 1) for _ in range(n)]
        pt = [complex(x, 0.0) for x in xs]
        second = [f.poly.partial(i).partial(j) for i in range(n) for j in range(n)]
        full[f] = (xs, [[d.evaluate_complex(pt).real for d in second[i * n:(i + 1) * n]]
                        for i in range(n)], second)

    calls = []
    evaluate = HermitianPolynomial.evaluate_values  # every evaluation ends here

    def counted(self, vals):
        calls.append(self)
        return evaluate(self, vals)

    monkeypatch.setattr(HermitianPolynomial, "evaluate_values", counted)
    nonzero = {}
    for obj, (pt, want, second) in full.items():
        calls.clear()
        got = obj.complex_hessian_at(pt) if obj in surfaces else obj.hessian_at(pt)
        assert got == want
        assert all(not d.is_zero() for d in calls)
        assert len(calls) == sum(not d.is_zero() for d in second)
        nonzero[obj] = (len(calls), len(second))
    assert nonzero[surfaces[0]] == (4, 16)  # M_plus
    assert nonzero[surfaces[1]] == (6, 16)  # a gamma tube
    assert nonzero[sigma] == (21, 49)


# -- the float eigenvalue and inertia routines, against numpy ----------------

ORACLE_KINDS = ("random", "repeated", "zero", "rank-deficient", "zero-diagonal")


def _oracle_matrix(gen, n, kind, hermitian):
    """A seeded symmetric (or Hermitian) matrix of size n of the given kind."""

    def draw(rows, cols):
        m = gen.normal(size=(rows, cols))
        return m + 1j * gen.normal(size=(rows, cols)) if hermitian else m

    if kind == "zero":
        return np.zeros((n, n), dtype=complex if hermitian else float)
    if kind == "repeated":
        q, _ = np.linalg.qr(draw(n, n))
        d = gen.choice([-2.0, 0.0, 1.0], size=n)  # at most three distinct values
        m = q @ np.diag(d) @ q.conj().T
    elif kind == "rank-deficient":
        b = draw(n, max(n - 2, 1))
        m = b @ np.diag(gen.choice([-1.0, 1.0], size=b.shape[1])) @ b.conj().T
    else:
        m = draw(n, n)
        m = m + m.conj().T
        if kind == "zero-diagonal":
            np.fill_diagonal(m, 0.0)
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "real"])
@pytest.mark.parametrize("n", range(1, 9))
def test_jacobi_eigenvalues_match_numpy(n, hermitian):
    gen = np.random.default_rng(1000 * n + hermitian)
    for kind in ORACLE_KINDS:
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            for _ in range(3):
                m = _oracle_matrix(gen, n, kind, hermitian) * scale
                want = np.linalg.eigvalsh(m)
                got = _hermitian_eigenvalues(m.tolist())
                radius = float(np.max(np.abs(want)))
                assert len(got) == n and got == sorted(got)
                assert np.max(np.abs(np.array(got) - want)) <= 1e-12 * radius, (kind, scale)


@pytest.mark.parametrize("n", range(1, 9))
def test_inertia_counts_match_numpy_at_the_cut(n):
    gen = np.random.default_rng(2000 + n)
    for kind in ORACLE_KINDS:
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            for _ in range(3):
                m = _oracle_matrix(gen, n, kind, False) * scale
                eigs = np.linalg.eigvalsh(m)
                cut = 1e-9 * float(np.linalg.norm(m))
                want = (int(np.sum(eigs > cut)), int(np.sum(eigs < -cut)))
                rows = m.tolist()
                assert (_inertia(rows, cut)[0], _inertia(rows, -cut)[1]) == want, (kind, scale)
                if kind in ("random", "zero-diagonal"):  # nonsingular: the plain counts too
                    zero = n - int(np.sum(eigs > 0)) - int(np.sum(eigs < 0))
                    assert _inertia(rows) == (int(np.sum(eigs > 0)), int(np.sum(eigs < 0)), zero)


def test_tube_hessian_cut_counts_what_numpy_counts():
    """tube_hessian_signature reads the counts numpy's eigenvalues give at 1e-9 ||H||_F."""
    rng = random.Random(106)
    for f in [gamma_graph(Fraction(2, 3)), cayley_graph()] + [
        make_sigma_surface(s) for s in (Fraction(1), Fraction(5, 2), Fraction(339, 10))
    ]:
        for _ in range(10):
            x = [rng.uniform(-2, 2) for _ in range(f.space.n)]
            h = np.array(f.hessian_at(x))
            eigs = np.linalg.eigvalsh((h + h.T) / 2)
            cut = 1e-9 * float(np.linalg.norm((h + h.T) / 2))
            pos, neg = int(np.sum(eigs > cut)), int(np.sum(eigs < -cut))
            assert tube_hessian_signature(f, x) == (pos, neg, f.space.n - pos - neg)


def test_signatures_of_degenerate_hessians():
    sp = VariableSpace(3)
    x1, x2 = (HermitianPolynomial.variable(sp, i) for i in range(2))
    assert tube_hessian_signature(RealPolynomial(x1 * x2), [0.0] * 3) == (1, 1, 1)
    assert tube_hessian_signature(RealPolynomial(x1 ** 3 - x2 ** 2), [0.0] * 3) == (0, 1, 2)
    assert tube_hessian_signature(RealPolynomial(x1 + x2), [1.0] * 3) == (0, 0, 3)


LEVI_WITHOUT_NUMPY = """\
id = levi-plus
kind = levi
target = M_plus
seed = 1
param.samples = 5

id = levi-sigma
kind = levi
target = sigma(sigma=2)
seed = 2
param.points = 5
"""


def test_levi_checks_run_without_numpy():
    """Levi forms and tube-Hessian signatures are tubecert's own: numpy is a test-only oracle."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = (
        "import sys, tubecert.cli as cli\n"
        f"results = cli.run_suite(cli.parse_config({LEVI_WITHOUT_NUMPY!r}))\n"
        "print([r.status for r in results], 'numpy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "['pass', 'pass'] False"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads through /proc")
def test_loading_the_package_starts_no_blas_threads():
    """A BLAS helper thread would spin beside the checks; loading tubecert starts none."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    code = "import os, tubecert.cli; print(len(os.listdir('/proc/self/task')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "1"
