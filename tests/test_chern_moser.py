"""Trace operator, normal-form conditions, umbilicity, scaling relation."""

import random
from fractions import Fraction

import numpy as np
import pytest

from tubecert.catalog import PParams, make_isotropy_matrix, model_surface
from tubecert.chern_moser import (
    HermitianForm,
    NormalFormSurface,
    linear_scaling_check,
    model_normal_form,
    normal_form_check,
    pairing_form,
    trace_op,
    umbilicity_at_origin,
)
from tubecert.errors import DomainError
from tubecert.lie import IDENTITY3
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
    form = pairing_form()
    eigs = np.linalg.eigvalsh(np.array([[complex(x) for x in row] for row in form.h]))
    assert (int(np.sum(eigs > 0.5)), int(np.sum(eigs < -0.5))) == (2, 1)  # eigenvalues +-1
    # h is an involution here, so g = h
    assert form.g == form.h
    with pytest.raises(DomainError):
        HermitianForm([[0, 1, 0], [0, 0, 0], [0, 0, 1]])  # not Hermitian


def test_trace_examples():
    form = pairing_form()
    assert trace_op(var(0) * var(3), form).is_zero()  # g_11 = 0
    assert trace_op(var(0) * var(4), form) == HermitianPolynomial.constant(SP3, 1)
    assert trace_op(HermitianPolynomial.constant(SP3, 9), form).is_zero()


def test_trace_linearity_and_bidegree():
    rng = random.Random(30)
    form = pairing_form()
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
        assert trace_op(p * c + q, form) == trace_op(p, form) * c + trace_op(q, form)
        out = trace_op(p, form)
        if not out.is_zero():
            n = SP3.n
            assert {(sum(e[:n]), sum(e[n:])) for e in out.terms} == {(k - 1, l - 1)}


def test_trace_with_identity_form_is_laplacian_pairing():
    rng = random.Random(31)
    ident = HermitianForm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for _ in range(50):
        terms = {
            tuple(rng.randint(0, 2) for _ in range(6)): rand_gaussian(rng)
            for _ in range(4)
        }
        p = HermitianPolynomial(SP3, terms)
        direct = HermitianPolynomial.zero(SP3)
        for a in range(3):
            direct = direct + p.partial(a).partial(3 + a)
        assert trace_op(p, ident) == direct


def test_normal_form_conditions_for_models():
    for sign in "+-":
        surface = model_normal_form(sign)
        reports = normal_form_check(surface)
        assert all(r.passed for r in reports)
        assert [r.name for r in reports] == [
            "tr F_(2,2)", "tr^2 F_(2,3)", "tr^3 F_(3,3)",
        ]


def test_normal_form_counterexample_c_form_squared():
    """F_(2,2) = c <z,z>^2 fails: its trace is 8 c <z,z>, computed exactly."""
    rng = random.Random(32)
    form = pairing_form()
    fp = form.poly()
    for _ in range(10):
        c = rand_gaussian(rng)
        while c.is_zero():
            c = rand_gaussian(rng)
        surface = NormalFormSurface.build(form, {(2, 2): fp * fp * c})
        reports = normal_form_check(surface)
        assert not reports[0].passed
        assert reports[0].residual == fp * (c * 8)


def test_quadric_is_umbilic_and_models_are_not():
    assert umbilicity_at_origin(NormalFormSurface.build(pairing_form(), {})).umbilic
    for sign, eps in (("+", 1), ("-", -1)):
        report = umbilicity_at_origin(model_normal_form(sign))
        assert not report.umbilic
        assert report.witness == var(0) ** 2 * var(3) ** 2 * eps


def test_component_validation():
    form = pairing_form()
    with pytest.raises(DomainError):
        NormalFormSurface.build(form, {(1, 2): var(0) * var(3) * var(4)})
    with pytest.raises(DomainError):
        NormalFormSurface.build(form, {(2, 2): var(0) * var(3)})  # not bigraded (2,2)


def test_linear_scaling_identity_phase_and_negative_control():
    surface = model_normal_form("+")
    ident = tuple(
        tuple(GaussianRational(1 if i == j else 0) for j in range(3)) for i in range(3)
    )
    rep = linear_scaling_check(surface, ident, Fraction(1))
    assert rep.form_preserved and rep.relation_holds

    phases = PParams(
        "+", Fraction(1), phase_from_parameter(Fraction(1, 2)),
        phase_from_parameter(Fraction(2, 3)), Fraction(0),
        GaussianRational(0), GaussianRational(0), GaussianRational(0),
        GaussianRational(0), GaussianRational(0),
    ).validate()
    rep = linear_scaling_check(surface, make_isotropy_matrix(phases), Fraction(1))
    assert rep.form_preserved and rep.relation_holds

    scaled = PParams(
        "+", Fraction(2), phase_from_parameter(0), phase_from_parameter(0), Fraction(0),
        GaussianRational(0), GaussianRational(0), GaussianRational(0),
        GaussianRational(-1), GaussianRational(4),
    ).validate()
    rep = linear_scaling_check(surface, make_isotropy_matrix(scaled), Fraction(4))
    assert rep.form_preserved and rep.relation_holds
    rep_wrong = linear_scaling_check(surface, make_isotropy_matrix(scaled), Fraction(1))
    assert rep_wrong.form_preserved and not rep_wrong.relation_holds

    bad = tuple(
        tuple(GaussianRational(v) for v in row)
        for row in [[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]]
    )
    rep_bad = linear_scaling_check(surface, bad, Fraction(1))
    assert rep_bad.form_preserved and not rep_bad.relation_holds


@pytest.mark.parametrize("lam", [-1, 0, Fraction(-1, 4), GaussianRational(0, 1),
                                 GaussianRational(1, 1)])
def test_linear_scaling_rejects_a_scale_that_is_not_a_positive_rational(lam):
    """lam = -1 would pass the relation (it enters squared) and lam = 0 divides by zero."""
    with pytest.raises(DomainError, match="positive rational"):
        linear_scaling_check(model_normal_form("+"), IDENTITY3, lam)


@pytest.mark.parametrize("build", [model_normal_form, model_surface])
def test_unknown_model_sign_is_rejected(build):
    with pytest.raises(DomainError, match="sign must be"):
        build("x")
