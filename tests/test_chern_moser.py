"""Trace operator, normal-form conditions, non-umbilicity, scaling relation."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubecert import chern_moser
from tubecert.catalog import (
    PParams,
    make_isotropy_matrix,
    model_surface,
    random_gaussian,
    random_p_params,
)
from tubecert.checks import CheckSpec, run_check
from tubecert.chern_moser import (
    linear_scaling_check,
    model_normal_form,
    normal_form_check,
    pairing_inverse,
    pairing_poly,
    trace_op,
)
from tubecert.errors import DomainError
from tubecert.lie import FORM_PAIRING, IDENTITY3
from tubecert.poly import HermitianPolynomial, VariableSpace
from tubecert.scalars import GaussianRational, phase_from_parameter

SP3 = VariableSpace(3)


def var(i):
    return HermitianPolynomial.variable(SP3, i)


def rand_gaussian(rng):
    return GaussianRational(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
    )


def test_form_inverse_and_signature():
    eigs = np.linalg.eigvalsh(np.array([[complex(x) for x in row] for row in FORM_PAIRING]))
    assert (int(np.sum(eigs > 0.5)), int(np.sum(eigs < -0.5))) == (2, 1)  # eigenvalues +-1
    # h is an involution here, so g = h
    assert pairing_inverse() == FORM_PAIRING
    assert pairing_poly(SP3) == var(0) * var(4) + var(1) * var(3) + var(2) * var(5)
    # Built once per space: an equal space reads the same polynomial.
    assert pairing_poly(VariableSpace(3)) is pairing_poly(SP3)
    assert pairing_poly(VariableSpace(4)) is not pairing_poly(SP3)


def test_trace_examples():
    g = pairing_inverse()
    assert trace_op(var(0) * var(3), g).is_zero()  # g_11 = 0
    assert trace_op(var(0) * var(4), g) == HermitianPolynomial.constant(SP3, 1)
    assert trace_op(HermitianPolynomial.constant(SP3, 9), g).is_zero()


def test_trace_linearity_and_bidegree():
    rng = random.Random(30)
    g = pairing_inverse()
    for _ in range(100):
        k, l = rng.randint(1, 3), rng.randint(1, 3)
        terms = {}
        for _ in range(3):
            zexps = [0, 0, 0]
            bexps = [0, 0, 0]
            for _ in range(k):
                zexps[rng.randint(0, 2)] += 1
            for _ in range(l):
                bexps[rng.randint(0, 2)] += 1
            terms[tuple(zexps + bexps)] = rand_gaussian(rng)
        p = HermitianPolynomial(SP3, terms)
        q = HermitianPolynomial(SP3, {e: rand_gaussian(rng) for e in terms})
        c = rand_gaussian(rng)
        assert trace_op(p * c + q, g) == trace_op(p, g) * c + trace_op(q, g)
        out = trace_op(p, g)
        if not out.is_zero():
            n = SP3.n
            assert {(sum(e[:n]), sum(e[n:])) for e in out.terms} == {(k - 1, l - 1)}


def test_trace_with_identity_form_is_laplacian_pairing():
    rng = random.Random(31)
    for _ in range(50):
        terms = {
            tuple(rng.randint(0, 2) for _ in range(6)): rand_gaussian(rng)
            for _ in range(4)
        }
        p = HermitianPolynomial(SP3, terms)
        direct = HermitianPolynomial.zero(SP3)
        for a in range(3):
            direct = direct + p.partial(a).partial(3 + a)
        assert trace_op(p, IDENTITY3) == direct


def test_normal_form_conditions_for_models():
    for sign in "+-":
        conditions = normal_form_check(model_normal_form(sign))
        assert all(residual.is_zero() for _, residual in conditions)
        assert [name for name, _ in conditions] == [
            "tr F_(2,2)", "tr^2 F_(2,3)", "tr^3 F_(3,3)",
        ]


def test_normal_form_counterexample_c_form_squared():
    """F_(2,2) = c <z,z>^2 fails: its trace is 8 c <z,z>, computed exactly."""
    rng = random.Random(32)
    fp = pairing_poly(SP3)
    for _ in range(10):
        c = rand_gaussian(rng)
        while c.is_zero():
            c = rand_gaussian(rng)
        (name, residual), *_ = normal_form_check({(2, 2): fp * fp * c})
        assert name == "tr F_(2,2)" and not residual.is_zero()
        assert residual == fp * (c * 8)


def test_quadric_is_umbilic_and_models_are_not():
    """The quadric has no F_(2,2); each model's is the nonzero quartic +-|z1|^4."""
    assert all(residual.is_zero() for _, residual in normal_form_check({}))
    for sign, eps in (("+", 1), ("-", -1)):
        f22 = model_normal_form(sign)[2, 2]
        assert not f22.is_zero()
        assert f22 == var(0) ** 2 * var(3) ** 2 * eps


@pytest.mark.parametrize("target, eps", [("M_plus", 1), ("M_minus", -1)])
def test_a_mutated_pairing_inverse_fails_the_trace_condition(monkeypatch, target, eps):
    """With g_11 = 1, tr F_(2,2) = 4 eps z1 zb1: the check reads the form it certifies."""
    g = [list(row) for row in pairing_inverse()]
    g[0][0] = GaussianRational(1)
    mutated = tuple(tuple(row) for row in g)
    spec = CheckSpec(id="normal-form", kind="chern_moser", target=target, seed=1)
    assert run_check(spec).status == "pass"
    monkeypatch.setattr(chern_moser, "pairing_inverse", lambda: mutated)
    result = run_check(spec)
    assert result.status == "fail"
    residual = var(0) * var(3) * (4 * eps)
    assert result.details["reason"] == f"tr F_(2,2) residual is nonzero: {residual}"


def test_linear_scaling_identity_phase_and_negative_control():
    f22 = model_normal_form("+")[2, 2]
    ident = tuple(
        tuple(GaussianRational(1 if i == j else 0) for j in range(3)) for i in range(3)
    )
    assert linear_scaling_check(f22, ident, Fraction(1)) == (True, True)

    phases = PParams(
        "+", Fraction(1), phase_from_parameter(Fraction(1, 2)),
        phase_from_parameter(Fraction(2, 3)), Fraction(0),
        GaussianRational(0), GaussianRational(0), GaussianRational(0),
        GaussianRational(0), GaussianRational(0),
    ).validate()
    assert linear_scaling_check(f22, make_isotropy_matrix(phases), Fraction(1)) == (True, True)

    scaled = PParams(
        "+", Fraction(2), phase_from_parameter(0), phase_from_parameter(0), Fraction(0),
        GaussianRational(0), GaussianRational(0), GaussianRational(0),
        GaussianRational(-1), GaussianRational(4),
    ).validate()
    assert linear_scaling_check(f22, make_isotropy_matrix(scaled), Fraction(4)) == (True, True)
    wrong = linear_scaling_check(f22, make_isotropy_matrix(scaled), Fraction(1))
    assert wrong == (True, False)

    bad = tuple(
        tuple(GaussianRational(v) for v in row)
        for row in [[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]]
    )
    assert linear_scaling_check(f22, bad, Fraction(1)) == (True, False)


def reference_scaling(f22, U, lam):
    """linear_scaling_check by the canonical route: each identity's two sides as
    canonical polynomials (conjugate images from ``conjugate()``) and their difference."""
    comps = [HermitianPolynomial(SP3, {SP3.unit(j): GaussianRational(x) if not isinstance(
        x, GaussianRational) else x for j, x in enumerate(row)}) for row in U]
    images = comps + [c.conjugate() for c in comps]
    form = pairing_poly(SP3)
    return ((form.substitute(images) - form).is_zero(),
            (f22.substitute(images) - f22 * (1 / GaussianRational(lam) ** 2)).is_zero())


@st.composite
def scaling_cases(draw):
    """(F_(2,2), U, lam): a model's F_(2,2), a random (2,2) polynomial or zero; the
    isotropy matrix of a drawn group element, translations dropped, with lam = q^2, or with lam off by a factor,
    or with one entry of U changed."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    sign = draw(st.sampled_from("+-"))
    which = draw(st.sampled_from(["model", "model", "random", "zero"]))
    if which == "model":
        f22 = model_normal_form(sign)[2, 2]
    elif which == "random":
        monomials = [(a, b, c, d, e, f) for a in range(3) for b in range(3) for d in range(3)
                     for e in range(3) if a + b <= 2 and d + e <= 2
                     for c, f in [(2 - a - b, 2 - d - e)]]
        f22 = HermitianPolynomial(SP3, {e: random_gaussian(rng) for e in draw(
            st.lists(st.sampled_from(monomials), min_size=1, max_size=4))})
    else:
        f22 = HermitianPolynomial.zero(SP3)
    zero = GaussianRational(0)
    params = random_p_params(rng, sign)._replace(u=Fraction(0), rho=zero, sigma=zero, tau=zero)
    U = [list(row) for row in make_isotropy_matrix(params)]
    lam = params.q ** 2
    shape = draw(st.sampled_from(["as built", "lam", "U"]))
    if shape == "lam":
        lam *= draw(st.sampled_from([Fraction(1, 2), 2, 3, Fraction(4, 9)]))
    elif shape == "U":
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        re, im = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
        U[i][j] = U[i][j] + GaussianRational(Fraction(re, 2), im)
    return f22, U, lam, (which, shape)


@given(scaling_cases())
@settings(max_examples=200, deadline=None)
def test_linear_scaling_certificates_match_the_canonical_route(case):
    f22, U, lam, (which, shape) = case
    got = linear_scaling_check(f22, U, lam)
    assert got == reference_scaling(f22, U, lam)
    if shape == "as built":
        assert got[0] and (got[1] or which == "random")


@pytest.mark.parametrize("lam", [-1, 0, Fraction(-1, 4), GaussianRational(0, 1),
                                 GaussianRational(1, 1)])
def test_linear_scaling_rejects_a_scale_that_is_not_a_positive_rational(lam):
    """lam = -1 would pass the relation (it enters squared) and lam = 0 divides by zero."""
    with pytest.raises(DomainError, match="positive rational"):
        linear_scaling_check(model_normal_form("+")[2, 2], IDENTITY3, lam)


@pytest.mark.parametrize("build", [model_normal_form, model_surface])
def test_unknown_model_sign_is_rejected(build):
    with pytest.raises(DomainError, match="sign must be"):
        build("x")
