"""The failure reason of each per-draw condition in the invariance, Levi and line checks.

These conditions build their message only when they fail.  Each test forces
one of them to fail on a default-suite check, by swapping a routine the check
reads for one returning a failing value or by certifying a bent map, and pins
the reason text (and, where a certificate fails, its evidence: factor and
residual head) byte for byte.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from tubecert import catalog, checks, geometry, lie
from tubecert.checks import run_check
from tubecert.maps import HoloPolyMap
from tubecert.cli import default_config_text, parse_config
from tubecert.scalars import GaussianRational


def _details(check_id):
    specs = {spec.id: spec for spec in parse_config(default_config_text())}
    result = run_check(specs[check_id])
    assert result.status == "fail"
    return result.details


def _inexact(cert):
    return cert._replace(exact=False)


def _doubled(cert):
    return cert._replace(factor=cert.factor * 2)


def test_universal_generator_certificate(monkeypatch):
    universal = catalog.universal_generator_certificate
    monkeypatch.setattr(catalog, "universal_generator_certificate",
                        lambda kind: _inexact(universal(kind)))
    assert _details("gamma-generators-alpha-1-12") == {
        "reason": "phi is not a symmetry for every alpha and q",
        "factor": "1",
        "residual_terms": 0,
        "residual_head": [],
    }


@pytest.mark.parametrize("check_id", ["gamma-generators-alpha-0", "gamma-generators-alpha-1-12",
                                      "gamma-generators-alpha-1", "gamma-generators-alpha-neg2"])
def test_a_wrong_universal_factor_fails_although_the_identity_is_exact(monkeypatch, check_id):
    """Soundness control: with phi's factor doubled to 2q^4, g o F = q^4 g still holds
    exactly, so the certificate is exact with factor 1/2, and only the factor test
    rejects it."""
    monkeypatch.setitem(catalog.GENERATORS, "phi", ("q", lambda q: 2 * q**4))
    monkeypatch.setattr(catalog, "universal_generator_certificate",
                        catalog.universal_generator_certificate.__wrapped__)  # past the cache
    cert = catalog.universal_generator_certificate("phi")
    assert cert.exact and cert.factor == GaussianRational(Fraction(1, 2))
    assert _details(check_id) == {
        "reason": "phi is not a symmetry for every alpha and q",
        "factor": "1/2",
        "residual_terms": 0,
        "residual_head": [],
    }


@pytest.mark.parametrize(
    "check_id, change, details",
    [
        ("gamma-generators-alpha-1-12", _inexact,
         {"reason": "phi at 11/4 is not an exact symmetry", "factor": "14641/256",
          "residual_terms": 0, "residual_head": []}),
        ("gamma-generators-alpha-1-12", _doubled,
         {"reason": "phi at 11/4: factor 14641/128 != 14641/256"}),
        ("group-invariance-plus", _inexact,
         {"reason": "group draw with q=3 did not certify exactly", "factor": "81",
          "residual_terms": 0, "residual_head": []}),
        ("group-invariance-plus", _doubled, {"reason": "factor 162 != q^4 = 81"}),
        ("quadric-action-2-3", _inexact,
         {"reason": "quadric action draw a=11/4 did not certify", "factor": "121/16",
          "residual_terms": 0, "residual_head": []}),
        ("quadric-action-2-3", _doubled, {"reason": "factor 121/8 != a^2 = 121/16"}),
    ],
)
def test_certificate_draws(monkeypatch, check_id, change, details):
    issue = checks.invariance_certificate
    monkeypatch.setattr(checks, "invariance_certificate", lambda *args: change(issue(*args)))
    assert _details(check_id) == details


def _bent(f):
    """f with its first component doubled: no symmetry of any surface here."""
    return HoloPolyMap(f.space_in, f.space_out, [f.components[0] * 2, *f.components[1:]])


@pytest.mark.parametrize(
    "check_id, details",
    [
        ("group-invariance-plus",
         {"reason": "group draw with q=3 did not certify exactly", "factor": "81",
          "residual_terms": 17, "residual_head": [
              "(-12327/64)", "(-9/16-153/16i)*zb3^1", "(-18117/388+8343/388i)*zb2^1"]}),
        ("quadric-action-2-3",
         {"reason": "quadric action draw a=11/4 did not certify", "factor": "121/16",
          "residual_terms": 4, "residual_head": [
              "(-27/8)", "(-99/16+99/16i)*zb1^1", "(-99/16-99/16i)*z1^1"]}),
        ("normalizer-alpha-7-12",
         {"reason": "conjugated equivalence did not certify exactly", "factor": "4",
          "residual_terms": 7, "residual_head": [
              "(-1)*z2^1*zb1^1", "(-1)*z1^1*zb2^1", "(-1)*z1^1*zb1^1*zb3^1"]}),
    ],
)
def test_a_failing_certificate_shows_its_factor_and_residual(monkeypatch, check_id, details):
    """Certified on a bent map, each draw fails on a genuine nonzero residual."""
    invariance, equivalence = checks.invariance_certificate, checks.equivalence_certificate
    monkeypatch.setattr(checks, "invariance_certificate", lambda rho, f: invariance(rho, _bent(f)))
    monkeypatch.setattr(checks, "equivalence_certificate",
                        lambda target, f, source: equivalence(target, _bent(f), source))
    assert _details(check_id) == details


def test_an_inexact_equivalence_shows_its_evidence(monkeypatch):
    issue = checks.equivalence_certificate
    monkeypatch.setattr(checks, "equivalence_certificate", lambda *args: _inexact(issue(*args)))
    assert _details("normalizer-alpha-7-12") == {
        "reason": "conjugated equivalence did not certify exactly", "factor": "4",
        "residual_terms": 0, "residual_head": []}


def test_group_draw_with_a_singular_linear_part(monkeypatch):
    singular = SimpleNamespace(linear_determinant=lambda: GaussianRational(0))
    monkeypatch.setattr(checks, "make_p_element", lambda params: singular)
    assert _details("group-invariance-plus") == {
        "reason": "group draw with q=3 has a singular linear part"}


def test_levi_model_signature_at_a_sampled_point(monkeypatch):
    levi_form, points = geometry.levi_form, []

    def second_fails(surface, z):
        points.append(z)
        return levi_form(surface, z) if len(points) == 1 else SimpleNamespace(signature=(1, 2, 0))

    monkeypatch.setattr(geometry, "levi_form", second_fails)
    assert _details("levi-m-plus") == {"reason": (
        "signature (1, 2, 0) at [GaussianRational(Fraction(7, 4), Fraction(1, 1)), "
        "GaussianRational(Fraction(3, 2), Fraction(7, 4)), "
        "GaussianRational(Fraction(-5, 4), Fraction(-1, 4)), "
        "GaussianRational(Fraction(6881, 256), Fraction(-3, 4))] is not (2,1)")}


def test_sigma_signature(monkeypatch):
    monkeypatch.setattr(geometry, "tube_hessian_signature", lambda f, x: (4, 3, 0))
    assert _details("sigma-signature-2") == {"reason": (
        "signature (4, 3, 0) at [-0.9665442588354427, 0.9535607811266473, -0.8372271979030483, "
        "0.9214579540850476, -0.7044427847813914, 0.7150206138152377, -0.8279621135119342] "
        "is not (5,2)")}


@pytest.mark.parametrize(
    "answer, reason",
    [
        (False, "line test at ('0', '-2-7/4i', '0') returned False, expected True"),
        (True, "line test at ('7/4+2i', '7/4-1/2i', '7/4-5/4i') returned True, expected False"),
    ],
)
def test_line_image(monkeypatch, answer, reason):
    monkeypatch.setattr(lie, "line_image_test", lambda S, w: answer)
    assert _details("common-eigenvector-line") == {"reason": reason}


def _conjugated_b(sol):
    return sol._replace(b=tuple(x.conjugate() for x in sol.b))


def _negated_c(sol):
    return sol._replace(c=-sol.c)


@pytest.mark.parametrize("change", [_conjugated_b, _negated_c])
def test_a_quadric_solver_off_the_generating_parameters(monkeypatch, change):
    """Mutation control: conj(b) or -c still solves for a point of the domain, and only
    the comparison with the generating parameters rejects it."""
    solve = catalog.quadric_transitive_params
    monkeypatch.setattr(catalog, "quadric_transitive_params",
                        lambda *args: change(solve(*args)))
    assert _details("quadric-transitivity-2-3") == {
        "reason": "recovered parameters differ from the generating ones"}
