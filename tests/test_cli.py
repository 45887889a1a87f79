"""Config parsing, suite running, determinism, and the command-line surface."""

import importlib.util
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from tubecert import catalog, checks, scalars
from tubecert.checks import CheckSpec, prepare
from tubecert.cli import (
    ConfigError,
    default_config_text,
    main,
    markdown_summary,
    parse_config,
    result_json_line,
    resolve_targets,
    run_suite,
)
from tubecert.errors import DomainError
from tubecert.maps import AffineMapR, HoloPolyMap
from tubecert.poly import HermitianPolynomial, VariableSpace

SMALL_CONFIG = """
# a small but representative suite
id = generators
kind = invariance
target = gamma(alpha=1)
seed = 7
path = exact
param.count = 3

id = lines
kind = line_witness
target = D_plus(side=>)
seed = 8

id = closure
kind = closure
target = P_plus
seed = 9
param.draws = 3
param.inverse_draws = 2

id = rank
kind = rank
target = P_plus
seed = 10
"""


GOLDEN_DESCRIBE = Path(__file__).parent / "data" / "describe.golden.txt"


def strip_timing(lines):
    return [re.sub(r',?\s*"wall_time_ms":\s*[0-9.]+', "", ln) for ln in lines]


def test_parse_config_blocks():
    specs = parse_config(SMALL_CONFIG)
    assert [s.id for s in specs] == ["generators", "lines", "closure", "rank"]
    assert specs[0].parameters == {"count": 3, "generators": ("phi", "psi", "mu", "nu")}
    assert specs[0].seed == 7
    assert specs[1].path == "exact"


def test_parse_config_rejects_bad_blocks():
    with pytest.raises(ConfigError):
        parse_config("id = a\nkind = invariance\n")  # missing target
    with pytest.raises(ConfigError):
        parse_config("id = a\nkind = nope\ntarget = M_plus\n")
    with pytest.raises(ConfigError):
        parse_config("id = a\nkind = levi\ntarget = M_plus\n\nid = a\nkind = levi\ntarget = M_plus\n")
    with pytest.raises(ConfigError):
        parse_config("just some words\n")
    with pytest.raises(ConfigError):
        parse_config("id = a\nkind = levi\ntarget = M_plus\npath = sideways\n")


def test_resolve_targets_flags_unknown_identifiers():
    with pytest.raises(ConfigError) as err:
        resolve_targets(parse_config("id = a\nkind = levi\ntarget = M_wrong\n"))
    assert "a" in str(err.value)


def test_empty_config_is_empty_passing_report(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("# nothing here\n")
    code = main(["verify", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == ""


def test_small_suite_passes_and_is_deterministic():
    specs = parse_config(SMALL_CONFIG)
    first = run_suite(specs)
    second = run_suite(specs)
    assert all(r.status == "pass" for r in first)
    a = strip_timing([result_json_line(r) for r in first])
    b = strip_timing([result_json_line(r) for r in second])
    assert a == b


def test_failing_check_and_fail_fast():
    bad = parse_config(
        """
id = must-fail
kind = invariance
target = control:bad_constraint
seed = 1
param.expect = exact

id = never-runs
kind = rank
target = P_plus
seed = 2
"""
    )
    results = run_suite(bad, fail_fast=True)
    assert len(results) == 1
    assert results[0].status == "fail"
    results_all = run_suite(bad)
    assert [r.status for r in results_all] == ["fail", "pass"]


def _assert_evidence(details, factor):
    """A failed certificate reports its factor, residual size and first residual terms."""
    assert details["factor"] == factor
    head = details["residual_head"]
    assert len(head) == min(3, details["residual_terms"]) > 0
    assert all(term.startswith("(") and " + " not in term for term in head)


def test_control_expected_exact_reports_its_residual():
    (result,) = run_suite(parse_config(
        "id = c\nkind = invariance\ntarget = control:bad_constraint\nparam.expect = exact\n"
    ))
    assert result.status == "fail" and result.details["model"] == "M_plus"
    inexact = run_suite(parse_config(
        "id = c\nkind = invariance\ntarget = control:bad_constraint\n"))[0]
    assert result.details["residual_terms"] == inexact.details["residual_terms"]
    _assert_evidence(result.details, "16")  # q = 2, so the model factor is q^4
    assert result.details["residual_head"] == ["(-9)*z1^1*zb1^1"]


GAMMA_PSI = "id = g\nkind = invariance\ntarget = gamma(alpha=2/3)\nparam.generators = psi\n"


def test_failed_universal_generator_certificate_reports_its_residual(monkeypatch):
    rows = catalog._generator_rows

    def shifted_x1(*args):
        mat, tr, d = rows(*args)
        return mat, (tr[0] + 1, *tr[1:]), d

    monkeypatch.setattr(catalog, "_generator_rows", shifted_x1)
    monkeypatch.setattr(catalog, "universal_generator_certificate",
                        catalog.universal_generator_certificate.__wrapped__)
    (result,) = run_suite(parse_config(GAMMA_PSI))
    assert result.status == "fail"
    assert result.details["reason"] == "psi is not a symmetry for every alpha and r"
    _assert_evidence(result.details, "1")
    assert result.details["residual_terms"] == 16  # g(F(z) + e1/3) - g(F(z)), alpha = z5
    assert result.details["residual_head"] == ["(-1/81)*z5^1", "(-4/27)*z5^1*z6^1",
                                               "(-4/9)*z5^1*z6^2"]


def test_failed_drawn_generator_certificate_reports_its_residual(monkeypatch):
    def shifted(kind, alpha, param):
        f = catalog.make_generator(kind, alpha, param)
        return AffineMapR(f.m, (f.t[0] + f.d, *f.t[1:]), f.d)  # x1 moved by 1

    monkeypatch.setattr(checks, "make_generator", shifted)
    (result,) = run_suite(parse_config(GAMMA_PSI))
    assert result.status == "fail" and result.details["reason"] == "psi at 0 is not an exact symmetry"
    _assert_evidence(result.details, "1")
    assert result.details["residual_terms"] == 7
    assert result.details["residual_head"] == ["(-2/3)", "(-1)*z3^1", "(-1)*z2^1"]


@pytest.mark.parametrize("kind", ["phi", "psi", "mu", "nu"])
@pytest.mark.parametrize("row", range(4))
def test_a_singular_drawn_generator_still_fails_without_a_determinant(kind, row, monkeypatch):
    """The drawn generators carry no determinant test: a map with a zero matrix row is
    singular, and its certificate g o F = c g cannot be exact."""
    def flattened(kind, alpha, param):
        f = catalog.make_generator(kind, alpha, param)
        mat = tuple(r if i != row else (0,) * 4 for i, r in enumerate(f.m))
        return AffineMapR(mat, f.t, f.d)

    monkeypatch.setattr(checks, "make_generator", flattened)
    config = GAMMA_PSI.replace("psi", kind).replace("alpha=2/3", "alpha=1/12")
    (result,) = run_suite(parse_config(config))
    assert result.status == "fail"
    assert re.fullmatch(rf"{kind} at \S+ is not an exact symmetry", result.details["reason"])


GROUP_CHECKS = ("id = i\nkind = invariance\ntarget = M_{sign}\nseed = 3\nparam.draws = 4\n\n"
                "id = c\nkind = closure\ntarget = P_{sign}\nseed = 3\nparam.draws = 2\n"
                "param.inverse_draws = 2\n")


@pytest.mark.parametrize("slot", [(k, mono) for k, terms in enumerate(catalog._p_rows(
    1, *catalog._p_values(catalog.identity_p_params("+")))) for mono in terms])
def test_every_wrong_p_rows_coefficient_is_killed(slot, monkeypatch):
    """Adding 1 to any coefficient of the group element's formula fails group invariance
    on both models, through the kept-map build."""
    k, mono = slot
    rows = catalog._p_rows

    def shifted(*args):
        out = [dict(r) for r in rows(*args)]
        out[k][mono] = out[k][mono] + 1
        return tuple(out)

    monkeypatch.setattr(catalog, "_p_rows", shifted)
    for sign in ("plus", "minus"):
        invariance, _ = run_suite(parse_config(GROUP_CHECKS.format(sign=sign)))
        assert invariance.status == "fail"


def test_closure_check_builds_three_maps_per_draw(monkeypatch):
    builds = []
    rows = catalog._p_rows
    monkeypatch.setattr(catalog, "_p_rows", lambda *args: builds.append(1) or rows(*args))
    _, spec = parse_config(GROUP_CHECKS.format(sign="plus"))
    (closure,) = run_suite([spec])
    assert closure.status == "pass"
    assert len(builds) == 3 * 2 + 1 + 3 * 2  # compose draws, the identity, inverse draws


def test_negative_control_with_a_singular_map_fails(monkeypatch):
    """A degenerate map fails to certify trivially, so as a control it shows nothing."""
    space = VariableSpace(4)
    z = [HermitianPolynomial.variable(space, i) for i in range(3)]
    singular = HoloPolyMap(space, space, z + [HermitianPolynomial.constant(space, 0)])
    (spec,) = parse_config(
        "id = c\nkind = invariance\ntarget = control:bad_constraint\nseed = 1\n"
        "param.expect = inexact\n"
    )
    assert run_suite([spec])[0].status == "pass"
    monkeypatch.setattr(
        catalog, "resolve", lambda ident: catalog.RegistryEntry(ident, "map", "", singular)
    )
    (result,) = run_suite([spec])
    assert result.status == "fail"
    assert "singular" in result.details["reason"]


def test_error_status_keeps_suite_running():
    specs = [
        CheckSpec(id="boom", kind="levi", target="sigma(sigma=0.5)", seed=1),
        CheckSpec(id="fine", kind="levi", target="quadric_surface(p=3,n=3)", seed=2),
    ]
    results = run_suite(specs)
    assert results[0].status == "error"
    assert "DomainError" in results[0].details["error"]
    assert results[1].status == "pass"


def test_cli_verify_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text(
        "id = ok\nkind = line_witness\ntarget = D_plus(side=>)\nseed = 1\n"
    )
    assert main(["verify", str(good)]) == 0
    out = capsys.readouterr().out.strip()
    payload = json.loads(out)
    assert payload["status"] == "pass" and payload["id"] == "ok"

    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "id = no\nkind = invariance\ntarget = control:bad_constraint\nseed = 1\n"
        "param.expect = exact\n"
    )
    assert main(["verify", str(bad)]) == 1

    broken = tmp_path / "broken.cfg"
    broken.write_text("id = x\nkind = levi\n")
    assert main(["verify", str(broken)]) == 2
    assert main(["verify", str(tmp_path / "missing.cfg")]) == 2
    with pytest.raises(SystemExit) as exc:  # the checks run serially; there is no --jobs
        main(["verify", str(good), "--jobs", "2"])
    assert exc.value.code == 2


def test_fractional_sigma_runs_in_levi_check(tmp_path, capsys):
    cfg = tmp_path / "sigma.cfg"
    cfg.write_text("id = s\nkind = levi\ntarget = sigma(sigma=3/2)\nseed = 1\nparam.points = 5\n")
    assert main(["verify", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "pass" and payload["details"]["sigma"] == 1.5


def test_zero_denominator_argument_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("id = g\nkind = invariance\ntarget = gamma(alpha=1/0)\nseed = 1\n")
    assert main(["verify", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["describe", "gamma(alpha=1/0)"]) == 2


def test_omega_transitivity_rejects_the_lower_side(tmp_path, capsys):
    text = "id = w\nkind = transitivity\ntarget = omega(alpha=1,side=<)\nseed = 1\n"
    cfg = tmp_path / "omega.cfg"
    cfg.write_text(text)
    assert main(["verify", str(cfg)]) == 2
    assert "side=>" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        parse_config(text)
    # built in code, past the config checks, the handler refuses instead of passing
    spec = CheckSpec(id="w", kind="transitivity", target="omega(alpha=1,side=<)")
    (result,) = run_suite([spec])
    assert result.status == "error"


def test_cli_markdown_and_out_file(tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("id = ok\nkind = line_witness\ntarget = D_plus(side=<)\nseed = 1\n")
    out_file = tmp_path / "report.jsonl"
    code = main(["verify", str(cfg), "--format", "md", "--out", str(out_file)])
    assert code == 0
    md = capsys.readouterr().out
    assert "| ok | pass |" in md
    assert "1/1 checks passed." in md
    lines = out_file.read_text().strip().splitlines()
    assert json.loads(lines[0])["id"] == "ok"


@pytest.mark.parametrize("where", ["missing-dir/report.jsonl", "."])
def test_unwritable_out_path_exits_2_before_any_check(where, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("id = ok\nkind = line_witness\ntarget = D_plus(side=<)\nseed = 1\n")
    ran = []
    monkeypatch.setattr("tubecert.cli.run_check", lambda spec: ran.append(spec))
    out = tmp_path / where
    assert main(["verify", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and ran == []
    assert str(out) in captured.err and "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_cli_describe_and_list(capsys):
    assert main(["list"]) == 0
    listed = capsys.readouterr().out
    assert "M_plus" in listed and "cayley" in listed

    assert main(["describe", "M_plus"]) == 0
    text = capsys.readouterr().out
    assert "rho =" in text and "z1^2*zb1^2" in text

    assert main(["describe", "cayley"]) == 0
    text = capsys.readouterr().out
    assert "x3 = x1 x2 + x1^3" in text

    assert main(["describe", "sigma(sigma=1)"]) == 0
    text = capsys.readouterr().out
    assert "degree-4" in text

    assert main(["describe", "does_not_exist"]) == 2


def test_describe_matches_the_golden_text(capsys):
    """describe of every listed identifier, byte for byte (the printed floats
    are Python double arithmetic on fixed inputs)."""
    assert main(["list"]) == 0
    printed = []
    for ident in capsys.readouterr().out.splitlines():
        assert main(["describe", ident]) == 0
        printed.append(capsys.readouterr().out)
    assert "".join(printed) == GOLDEN_DESCRIBE.read_text()


def test_describe_normalizer_components(capsys):
    assert main(["describe", "normalizer(alpha=7/12)"]) == 0
    text = capsys.readouterr().out
    assert "z4 ->" in text


def test_seed_override_changes_draws_but_not_outcomes():
    specs = parse_config(SMALL_CONFIG)
    overridden = run_suite(specs, seed_override=1234)
    assert all(r.status == "pass" for r in overridden)


def test_default_config_parses_and_covers_all_kinds():
    specs = parse_config(default_config_text())
    resolve_targets(specs)
    kinds = {s.kind for s in specs}
    assert kinds == {
        "invariance", "transitivity", "levi", "chern_moser",
        "lie", "line_witness", "closure", "rank",
    }
    assert len(specs) > 40


def test_markdown_summary_counts():
    specs = parse_config(SMALL_CONFIG)[:1]
    results = run_suite(specs)
    md = markdown_summary(results)
    assert md.endswith("1/1 checks passed.")


# One config snippet per argument the config parser or the check table
# rejects; each must exit 2 with a message that names the check id.
REJECTED = {
    "count-negative": "kind = invariance\ntarget = gamma(alpha=1)\nparam.count = -5",
    "count-text": "kind = invariance\ntarget = gamma(alpha=1)\nparam.count = abc",
    "count-misspelt": "kind = invariance\ntarget = gamma(alpha=1)\nparam.cuont = 1",
    "samples-zero": "kind = levi\ntarget = M_plus\nparam.samples = 0",
    "float-generators": "kind = invariance\ntarget = gamma(alpha=1)\npath = float",
    "float-lie": "kind = lie\ntarget = line_image\npath = float",
    "closure-of-model": "kind = closure\ntarget = M_plus",
    "unknown-lie": "kind = lie\ntarget = jordan_shapes",
    "line-on-model": "kind = line_witness\ntarget = M_plus",
    "line-not-stated": "kind = line_witness\ntarget = quadric(p=3,n=3,side=>)",
    "step-text": "kind = rank\ntarget = P_plus\nparam.step = abc",
    "cutoff-zero": "kind = rank\ntarget = P_plus\nparam.cutoff = 0",
    "step-unknown": "kind = rank\ntarget = P_plus\nparam.step = 1e-6",
    "generators-unknown": "kind = invariance\ntarget = gamma(alpha=1)\nparam.generators = phi,xi",
    "expect-unknown": "kind = invariance\ntarget = control:wrong_phase\nparam.expect = foo",
    "regression-unknown": "kind = transitivity\ntarget = omega(alpha=1,side=>)\n"
    "param.regression = alpha2",
    "against": "kind = invariance\ntarget = control:bad_constraint\n"
    "param.against = omega(alpha=1,side=>)",
    "sign-param": "kind = invariance\ntarget = control:bad_constraint\nparam.sign = -",
    "extra-argument": "kind = levi\ntarget = M_plus(alpha=3)",
    "missing-argument": "kind = levi\ntarget = gamma",
    "repeated-argument": "kind = levi\ntarget = gamma(alpha=1,alpha=2)",
    "seed-text": "kind = levi\ntarget = M_plus\nseed = x",
    "path-misspelt": "kind = invariance\ntarget = gamma(alpha=1)\npaht = float",
    "seed-misspelt": "kind = levi\ntarget = M_plus\nsede = 3",
    "count-repeated": "kind = invariance\ntarget = gamma(alpha=1)\nparam.count = 1\n"
    "param.count = 2",
    "seed-repeated": "kind = levi\ntarget = M_plus\nseed = 1\nseed = 2",
    "sigma-overflow": "kind = levi\ntarget = sigma(sigma=1e400)",
    "alpha-unprintable": "kind = levi\ntarget = gamma(alpha=1e5000)",
    "n-above-limit": "kind = levi\ntarget = quadric_surface(p=1,n=65)",
}


@pytest.mark.parametrize("check_id", sorted(REJECTED))
def test_rejected_argument_exits_2_naming_the_check(check_id, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"id = {check_id}\n{REJECTED[check_id]}\n")
    assert main(["verify", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"check {check_id!r}" in captured.err


@pytest.mark.parametrize("draws", ["1000000000", str(checks.MAX_COUNT + 1)])
def test_a_count_above_the_limit_exits_2_before_any_check_runs(draws, tmp_path, capsys,
                                                                monkeypatch):
    """10^9 closure draws would run for days; the count is refused with its limit named."""
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"id = huge\nkind = closure\ntarget = P_plus\nparam.draws = {draws}\n")
    ran = []
    monkeypatch.setattr("tubecert.cli.run_check", lambda spec: ran.append(spec))
    assert main(["verify", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and ran == []
    assert f"param.draws = {draws!r}: must be from 1 to 10000, got {draws}" in captured.err
    limit = f"id = ok\nkind = closure\ntarget = P_plus\nparam.draws = {checks.MAX_COUNT}\n"
    assert parse_config(limit)[0].parameters["draws"] == checks.MAX_COUNT


@pytest.mark.parametrize("ident", ["gamma", "M_plus(alpha=2)"])
def test_describe_rejects_missing_and_extra_arguments(ident, capsys):
    assert main(["describe", ident]) == 2
    assert "takes" in capsys.readouterr().err


@pytest.mark.parametrize("ident, message", [
    pytest.param("gamma(alpha=1/0)", "bad value", id="gamma(alpha=1/0)"),
    # 1e400 parses as an exact rational, far outside sigma's interval
    pytest.param("sigma(sigma=1e400)", "sigma must lie in [1, 17 + 12*sqrt(2))",
                 id="sigma(sigma=1e400)"),
    pytest.param("quadric(p=x,n=2,side=>)", "bad value", id="quadric(p=x,n=2,side=>)"),
    # more digits than Python prints of an int, named by order of magnitude
    *(pytest.param(ident, f"bad value {value!r} for alpha in {ident!r}: {shown} has more "
                   "digits than can be printed", id=ident)
      for ident, value, shown in [
          ("gamma(alpha=1e5000)", "1e5000", "about 10^5000"),
          ("omega(alpha=-1e5000,side=>)", "-1e5000", "about -10^5000"),
          ("normalizer(alpha=1e-5000)", "1e-5000", "about 10^-5000")]),
    pytest.param("quadric(p=1,n=65,side=>)",
                 "bad value '65' for n in 'quadric(p=1,n=65,side=>)': must be at most 64",
                 id="quadric(p=1,n=65,side=>)"),
    pytest.param("quadric_action(p=65,n=65)",
                 "bad value '65' for p in 'quadric_action(p=65,n=65)': must be at most 64",
                 id="quadric_action(p=65,n=65)"),
])
def test_describe_rejects_bad_values(ident, message, capsys):
    assert main(["describe", ident]) == 2
    assert message in capsys.readouterr().err


def test_the_dimension_limit_is_accepted():
    assert catalog.parse_ident("quadric(p=64,n=64,side=>)") == (
        "quadric", {"p": 64, "n": 64, "side": ">"})


@pytest.mark.parametrize("ident", ["gamma(alpha=1e999999999)", "sigma(sigma=-2E+999_999_999)",
                                   "normalizer(alpha=1e-999999999)", f"gamma(alpha=1e{'9' * 50})"])
def test_a_huge_decimal_exponent_is_refused_before_fraction_expands_it(ident, monkeypatch,
                                                                       capsys):
    """Fraction would build an integer of 10^9 digits (415 MB) or more; the spy stops it."""
    texts = []

    class Spy(Fraction):
        def __new__(cls, numerator=0, denominator=None):
            if isinstance(numerator, str):
                texts.append(numerator)
                raise AssertionError(f"Fraction was asked to expand {numerator!r}")
            return Fraction(numerator, denominator)

    monkeypatch.setattr(scalars, "Fraction", Spy)
    assert main(["describe", ident]) == 2
    assert "decimal exponent beyond ±10000" in capsys.readouterr().err
    assert texts == []


OVERFLOWING = {
    "levi-1e300": ("levi", "gamma(alpha=1e300)", "exact"),
    "levi-1e4000": ("levi", "gamma(alpha=1e4000)", "exact"),
    "invariance-1e4000": ("invariance", "normalizer(alpha=1e4000)", "float"),
    "transitivity-1e4000": ("transitivity", "omega(alpha=1e4000,side=>)", "float"),
}


@pytest.mark.parametrize("check_id", sorted(OVERFLOWING))
def test_a_float_path_that_overflows_fails_naming_the_overflow(check_id):
    kind, target, path = OVERFLOWING[check_id]
    config = f"id = {check_id}\nkind = {kind}\ntarget = {target}\nseed = 1\npath = {path}\n"
    (result,) = run_suite(parse_config(config))
    assert result.status == "fail", result.details
    assert result.details["reason"].startswith("float overflow: ")


@pytest.mark.parametrize("value, shown", [
    ("1e400", "about 10^400"),
    ("-1e400", "about -10^400"),
    ("1e5000", "about 10^5000"),  # more digits than Python prints of an int
    ("3397057/100000", "3397057/100000"),
])
def test_sigma_range_error_stays_short_and_names_the_value(value, shown, capsys):
    assert main(["describe", f"sigma(sigma={value})"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: sigma must lie in [1, 17 + 12*sqrt(2)), got {shown}\n"
    assert len(err) < 80


@pytest.mark.parametrize("p, n", [(p, n) for n in range(1, 5) for p in range(1, n + 1)])
def test_levi_on_a_quadric_surface_passes_whichever_count_is_larger(p, n):
    spec = CheckSpec(id="q", kind="levi", target=f"quadric_surface(p={p},n={n})", seed=1)
    result = checks.run_check(spec)
    assert result.status == "pass", result.details
    assert result.details["signature"] == [max(p, n - p), min(p, n - p), 0]


def test_omega_float_path_stops_at_the_draw_cap(monkeypatch):
    """alpha = 1e300 leaves almost no uniform draw above the graph; the float path
    gives up after OMEGA_DRAWS_PER_TARGET draws per target instead of looping.
    Each draw is one call of the domain test, checks.omega_defect."""
    calls, defect = [], catalog.omega_defect

    def counted(alpha, target):
        calls.append(list(target))
        if len(calls) > 10_000:  # ends an uncapped loop as an error
            raise RuntimeError("no draw cap")
        if alpha == 0 and len(calls) == 5:  # one target in the domain
            target[:] = [0.0, 0.0, 0.0, 2.0]
        elif alpha == 0:
            return -1.0  # outside
        return defect(alpha, target)

    monkeypatch.setattr(checks, "omega_defect", counted)
    result = checks.run_check(
        CheckSpec(id="w", kind="transitivity", target="omega(alpha=1e300,side=>)",
                  parameters={"float_count": "2"}, seed=3, path="float"))
    assert result.details == {
        "reason": "only 0 of 2 float targets lay in the domain in 2000 draws"}
    assert len(calls) == 2 * 1000 == 2 * checks.OMEGA_DRAWS_PER_TARGET

    calls.clear()
    result = checks.run_check(
        CheckSpec(id="w", kind="transitivity", target="omega(alpha=0,side=>)",
                  parameters={"float_count": "3"}, seed=3, path="float"))
    assert result.details == {
        "reason": "only 1 of 3 float targets lay in the domain in 3000 draws"}
    assert len(calls) == 3000


def _solver_per_draw(alpha, rng, float_count):
    """The omega float loop with the solver deciding each draw and the exact image
    read through AffineMapR.apply and float(Fraction): (drawn, produced, worst)."""
    worst, produced, drawn = 0.0, 0, 0
    while produced < float_count and drawn < checks.OMEGA_DRAWS_PER_TARGET * float_count:
        drawn += 1
        target = [rng.uniform(-3, 3) for _ in range(4)]
        try:
            sol = catalog.transitive_params_omega(alpha, target)
        except DomainError:
            continue
        produced += 1
        image = catalog.composed_generator(alpha, *map(Fraction, sol)).apply(catalog.BASE_POINT)
        worst = max(worst, max(abs(float(a) - b) for a, b in zip(image, target)))
    return drawn, produced, worst


@pytest.mark.parametrize("alpha", ["6", "-259571/161267", "0"])
def test_omega_float_path_matches_the_solver_per_draw(alpha, monkeypatch):
    """Rejecting draws by their graph defect and reading the image of e4 as integer
    quotients leave the draws, the targets and the worst error as they were."""
    drawn, solved = [], []
    defect, solver = checks.omega_defect, catalog.transitive_params_omega
    monkeypatch.setattr(checks, "omega_defect", lambda a, x: drawn.append(x) or defect(a, x))
    monkeypatch.setattr(catalog, "transitive_params_omega",
                        lambda a, x: solved.append(x) or solver(a, x))
    result = checks.run_check(
        CheckSpec(id="w", kind="transitivity", target=f"omega(alpha={alpha},side=>)",
                  parameters={"float_count": "40"}, seed=11, path="float"))
    assert result.status == "pass", result.details
    monkeypatch.undo()
    want = _solver_per_draw(Fraction(alpha), random.Random(11), 40)
    assert (len(drawn), len(solved)) == want[:2]
    assert result.details["float_worst_error"].hex() == want[2].hex()


def test_block_lacking_a_key_is_named_by_its_last_line():
    with pytest.raises(ConfigError, match="block ending at line 6 lacks 'target'"):
        parse_config("id = a\nkind = levi\ntarget = M_plus\n\nid = b\nkind = levi")
    with pytest.raises(ConfigError, match="block ending at line 3 lacks 'target'"):
        parse_config("# two blocks\nid = a\nkind = levi\n\nid = b\nkind = levi\ntarget = M_plus\n")


def test_code_built_spec_runs_with_schema_defaults():
    spec = CheckSpec(id="d", kind="levi", target="sigma(sigma=1)", seed=3)
    assert prepare(spec).parameters == {"points": 20}
    (result,) = run_suite([spec])
    assert result.status == "pass" and result.details["points"] == 20
    assert prepare(prepare(spec)) == prepare(spec)


def test_control_is_certified_against_the_model_of_its_own_sign(monkeypatch):
    asked = []
    model_surface = checks.model_surface
    monkeypatch.setattr(
        checks, "model_surface", lambda sign: asked.append(sign) or model_surface(sign)
    )
    results = run_suite(parse_config(
        "id = minus\nkind = invariance\ntarget = control:bad_constraint(sign=-)\n\n"
        "id = plus\nkind = invariance\ntarget = control:wrong_phase\n"
    ))
    assert [r.status for r in results] == ["pass", "pass"]
    assert asked == ["-", "+"]
    assert [r.details["model"] for r in results] == ["M_minus", "M_plus"]


def _benchmark_workloads():
    """The benchmark's config generator, loaded from its file (it is not a package)."""
    path = Path(__file__).resolve().parents[1] / "tubebench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("tubebench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_and_shipped_configs_are_accepted(capsys):
    workloads = _benchmark_workloads()
    root = Path(__file__).resolve().parents[1]
    for name in workloads.WORKLOADS:
        for seed in range(1, 11):
            text, expected = workloads.generate(name, seed, root)
            specs = parse_config(text)
            resolve_targets(specs)
            assert [s.id for s in specs] == list(expected)
    data = root / "src" / "tubecert" / "data"
    resolve_targets(parse_config(default_config_text()))
    assert main(["verify", str(data / "negative_control.cfg")]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "fail"


# Targets that name a stated line's domain in another spelling.
RESPELLED_LINES = [
    ("quadric(p=1,n=2,side=>)", "quadric(n=2,p=1,side=>)"),
    ("quadric(p=1,n=2,side=>)", "quadric(p=1, n=2, side=>)"),
    ("D_plus(side=>)", "D_plus( side=> )"),
]


@pytest.mark.parametrize("stated, respelled", RESPELLED_LINES)
def test_line_witness_finds_the_line_of_a_respelled_target(stated, respelled, tmp_path, capsys):
    details = []
    for target in (stated, respelled):
        cfg = tmp_path / "line.cfg"
        cfg.write_text(f"id = line\nkind = line_witness\ntarget = {target}\n")
        assert main(["verify", str(cfg)]) == 0
        details.append(json.loads(capsys.readouterr().out)["details"])
    want, got = details
    assert got["domain"] == respelled
    assert (got["grade"], got["restriction"]) == (want["grade"], want["restriction"])
