"""Implementations of the batch verification checks.

Each check takes a :class:`CheckSpec` (target identifier, parameters, seed,
exact/float path) and returns pass/fail with a structured detail payload.
The check table :data:`CHECKS` maps a check kind and a target family to the
function that runs the check, the ``path`` values it honours and the schema of
its parameters; a spec is checked against its row before it runs.
Randomized inputs are fully determined by the seed, so reruns with the same
configuration are byte-identical modulo timing.  The two witness checks each
take one path: an exact transitivity draw passes when the solver carries its
target back to exactly the parameters that built it, and ``line_witness``
certifies the line that :func:`catalog.stated_line` gives for its target.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Mapping
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from . import catalog, chern_moser, geometry, lie
from .catalog import (
    NO_ENTRIES,
    identity_p_params,
    make_generator,
    make_p_element,
    model_surface,
    omega_defect,
    orbit_point,
    p_compose,
    p_inverse,
    p_params_from_map,
    random_fraction,
    random_gaussian,
    random_p_params,
    random_positive_fraction,
)
from .errors import ClosureViolation, ConfigError, DomainError
from .maps import (
    HoloPolyMap,
    equivalence_certificate,
    invariance_certificate,
    lift_affine,
)
from .poly import HermitianPolynomial, VariableSpace, format_poly
from .scalars import GaussianRational, phase_from_parameter

FLOAT_TOL = 1e-9

# The largest draw, sample or point count a check takes: 50 times the largest a
# shipped config or workload asks for (200), and about 7 s of closure draws.
MAX_COUNT = 10_000

OMEGA_DRAWS_PER_TARGET = 1000  # uniform draws per omega float target before the path fails

# Seeded points at which a printed equivalence map is checked, each coordinate's real
# and imaginary parts drawn from [-0.7, 0.7], inside the unit polydisc.
FLOAT_POINTS = 20

# Equivalence factors computed once by the exact engine and pinned as
# regression values: the conjugated normalizers and the Cayley map carry
# factor 4, the tube realisations factor 1.
EXPECTED_NORMALIZER_FACTOR = GaussianRational(4)
EXPECTED_TUBE_FACTOR = GaussianRational(1)
EXPECTED_CAYLEY_FACTOR = GaussianRational(4)


class CheckSpec(NamedTuple):
    """One executable check from a config file."""

    id: str
    kind: str
    target: str
    parameters: Mapping = NO_ENTRIES  # config text until prepare() types it
    seed: int = 0
    path: str = "exact"  # exact | float | both


class CheckResult(NamedTuple):
    id: str
    status: str  # pass | fail | error
    details: dict
    wall_time_ms: float


class CheckFailure(Exception):
    """Raised by handlers to fail a check with a detail payload."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


def _require(cond: bool, message: str, details: dict | None = None):
    if not cond:
        raise CheckFailure(message, details)


def _nonzero(draw: Callable):
    """The first nonzero value of ``draw()``, drawn again while it is zero."""
    value = draw()
    while value == 0:
        value = draw()
    return value


@contextmanager
def _float_range():
    """Fail the check, naming the overflow, when a float path leaves the float range."""
    try:
        yield
    except OverflowError as exc:
        raise CheckFailure(f"float overflow: {exc}") from None


# ---------------------------------------------------------------------------
# invariance checks
# ---------------------------------------------------------------------------


def _evidence(cert) -> dict:
    """What a failed certificate shows: its factor and the head of its residual."""
    res = cert.residual
    head = [format_poly(HermitianPolynomial(res.space, {e: res.terms[e]}))
            for e in sorted(res.terms)[:3]]
    return {"factor": str(cert.factor), "residual_terms": len(res.terms), "residual_head": head}


def _invariance_generators(spec: CheckSpec, rng, alpha: Fraction, count: int, generators) -> dict:
    g = catalog.gamma_base(alpha)
    draw = partial(random_fraction, rng, -3, 3, 4)
    checked = 0
    covers = {}
    for kind in generators:
        covers[kind] = ["alpha", catalog.GENERATORS[kind][0]]
        cert = catalog.universal_generator_certificate(kind)
        _require(cert.exact and cert.factor == 1,
                 f"{kind} is not a symmetry for every {' and '.join(covers[kind])}",
                 _evidence(cert))
        for _ in range(count):
            param = _nonzero(draw) if kind == "phi" else draw()
            # An exact g o F = c g (c != 0) proves F's linear part L nonsingular: Lv = 0
            # makes g constant along v, so sum v_i dg/dz_i = 0, and the four partials of
            # g are linearly independent for every alpha, so v = 0.
            cert = invariance_certificate(g, lift_affine(make_generator(kind, alpha, param)))
            want = catalog.GENERATORS[kind][1](param)
            if not cert.exact:
                raise CheckFailure(f"{kind} at {param} is not an exact symmetry", _evidence(cert))
            if cert.factor != GaussianRational(want):
                raise CheckFailure(f"{kind} at {param}: factor {cert.factor} != {want}")
            checked += 1
    return {
        "alpha": str(alpha),
        "certificates": checked,
        "covers": covers,
        "exact": True,
        "factor": "q^4 for the scaling, 1 for the unipotent generators",
        "universal": True,
    }


def _invariance_group(spec: CheckSpec, rng, sign: str, draws: int) -> dict:
    rho = model_surface(sign).rho
    for _ in range(draws):
        params = random_p_params(rng, sign)
        element = make_p_element(params)
        if element.linear_determinant().is_zero():
            raise CheckFailure(f"group draw with q={params.q} has a singular linear part")
        cert = invariance_certificate(rho, element)
        if not cert.exact:
            raise CheckFailure(f"group draw with q={params.q} did not certify exactly",
                               _evidence(cert))
        if cert.factor != GaussianRational(params.q**4):
            raise CheckFailure(f"factor {cert.factor} != q^4 = {params.q ** 4}")
    return {"sign": sign, "draws": draws, "factor": "q^4", "exact": True}


def _invariance_equivalence(spec: CheckSpec, rng, rationalized, expected) -> dict:
    details: dict = {}
    if spec.path in ("exact", "both"):
        _require(
            not rationalized.rational_map.linear_determinant().is_zero(),
            "equivalence map has a singular linear part",
        )
        cert = equivalence_certificate(
            rationalized.conjugated_target_rho,
            rationalized.rational_map,
            rationalized.source_rho,
        )
        if not cert.exact:
            raise CheckFailure("conjugated equivalence did not certify exactly", _evidence(cert))
        _require(cert.factor_is_positive_real, f"factor {cert.factor} is not positive")
        _require(
            cert.factor == expected,
            f"factor {cert.factor} differs from the pinned value {expected}",
        )
        details["factor"] = str(cert.factor)
        details["exact"] = True
    if spec.path in ("float", "both"):
        # rho_target(F(z)) = c rho_source(z) for the printed map F and the pinned c
        target, source, c = rationalized.target_rho, rationalized.source_rho, complex(expected)
        worst = 0.0
        with _float_range():
            for _ in range(FLOAT_POINTS):
                z = [complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
                     for _ in range(source.space.n)]
                image = rationalized.printed_image(z)
                worst = max(worst, abs(target.evaluate_complex(image) - c * source.evaluate_complex(z)))
        _require(worst <= FLOAT_TOL, f"printed map error {worst:.3e} above {FLOAT_TOL}")
        details["float_points"] = FLOAT_POINTS
        details["float_worst_error"] = worst
    return details


def _invariance_quadric_action(spec: CheckSpec, rng, p: int, n: int, draws: int) -> dict:
    rho = catalog.quadric_surface(p, n).rho
    for _ in range(draws):
        a = _nonzero(partial(random_fraction, rng, -3, 3, 4))
        b = [random_gaussian(rng) for _ in range(n)]
        c = random_fraction(rng)
        cert = invariance_certificate(rho, catalog.quadric_transitive_map(p, n, a, b, c))
        if not cert.exact:
            raise CheckFailure(f"quadric action draw a={a} did not certify", _evidence(cert))
        if cert.factor != GaussianRational(a * a):
            raise CheckFailure(f"factor {cert.factor} != a^2 = {a * a}")
    return {"p": p, "n": n, "draws": draws, "factor": "a^2", "exact": True}


def _invariance_control(spec: CheckSpec, rng, sign: str, expect: str) -> dict:
    """Certify a negative control against the quartic model of its own sign."""
    entry = catalog.resolve(spec.target)
    _require(
        not entry.obj.linear_determinant().is_zero(),
        "negative control has a singular linear part",
    )
    cert = invariance_certificate(model_surface(sign).rho, entry.obj)
    model = "M_plus" if sign == "+" else "M_minus"
    if expect == "inexact":
        _require(
            not cert.exact,
            "negative control certified exactly; the certifier failed to fail",
        )
        return {
            "control": spec.target,
            "exact": cert.exact,
            "model": model,
            "residual_terms": len(cert.residual.terms),
        }
    _require(cert.exact, "control expected to certify but did not",
             {"model": model, **_evidence(cert)})
    return {"control": spec.target, "exact": True, "model": model}


# ---------------------------------------------------------------------------
# transitivity checks
# ---------------------------------------------------------------------------


def _solved_back(solve: Callable, target, params):
    """Require ``solve`` to carry a target built from ``params`` back to exactly them.

    The orbit map is injective in its parameters, so equal parameters are the
    same as the solution's image of the base point being the target.
    """
    try:
        sol = solve(target)
    except DomainError:
        raise CheckFailure(f"constructed target {target} missed the exact path") from None
    _require(sol == params, "recovered parameters differ from the generating ones")


def _transitivity_omega(spec, rng, alpha, side, exact_count, float_count, regression) -> dict:
    """Solve for the group element reaching each target; side is '>' (_upper_side)."""
    details: dict = {"alpha": str(alpha)}

    if spec.path in ("exact", "both"):
        for _ in range(exact_count):
            q = random_positive_fraction(rng)
            r, s, t = (random_fraction(rng) for _ in range(3))
            _, num, d = orbit_point(alpha, q, r, s, t)
            target = [Fraction(x, d) for x in num]
            _solved_back(partial(catalog.transitive_params_omega, alpha), target, (q, r, s, t))
        details["exact_targets"] = exact_count

    if spec.path in ("float", "both"):
        worst, produced, drawn = 0.0, 0, 0
        with _float_range():
            alpha_f = float(alpha)
            while produced < float_count and drawn < OMEGA_DRAWS_PER_TARGET * float_count:
                drawn += 1
                target = [rng.uniform(-3, 3) for _ in range(4)]
                if omega_defect(alpha_f, target) <= 0:  # the solver would refuse it
                    continue
                produced += 1
                sol = catalog.transitive_params_omega(alpha, target)
                # The exact image of the base point is num / d; int / int rounds
                # correctly, as float(Fraction) does.
                _, num, d = orbit_point(alpha, *map(Fraction, sol))
                err = max(abs(xi / d - x) for xi, x in zip(num, target))
                worst = max(worst, err)
        _require(produced == float_count, f"only {produced} of {float_count} float targets "
                 f"lay in the domain in {drawn} draws")
        _require(worst <= FLOAT_TOL, f"floating path sup-norm error {worst:.3e} above {FLOAT_TOL}")
        details["float_targets"] = float_count
        details["float_worst_error"] = worst

    if regression == "alpha1":
        sol = catalog.transitive_params_omega(Fraction(1), (1, 0, 0, 2))
        _require(sol == (1, 1, 6, 2), f"regression target gave {tuple(sol)}")
        details["regression"] = "alpha=1 target (1,0,0,2) -> (q,r,s,t)=(1,1,6,2)"
    return details


def _transitivity_quadric(spec: CheckSpec, rng, p: int, n: int, side: str, draws: int) -> dict:
    base = catalog.quadric_base_point(p, n, side)
    for _ in range(draws):
        a = random_positive_fraction(rng)
        b = tuple(random_gaussian(rng) for _ in range(n))
        c = random_fraction(rng)
        target = catalog.quadric_transitive_map(p, n, a, b, c).apply(base)
        _solved_back(partial(catalog.quadric_transitive_params, p, n, side), target, (a, b, c))
    return {"p": p, "n": n, "side": side, "draws": draws, "all_exact": True}


# ---------------------------------------------------------------------------
# Levi checks
# ---------------------------------------------------------------------------


def _levi_model(spec: CheckSpec, rng, sign: str, samples: int) -> dict:
    surface = model_surface(sign)
    margin_floor = 1e-9
    worst_margin = float("inf")
    points = [[GaussianRational(0)] * 4] + geometry.sample_boundary_points(surface, rng, samples)
    for pt in points:
        data = geometry.levi_form(surface, [complex(v) for v in pt])
        if data.signature != (2, 1, 0):
            raise CheckFailure(f"signature {data.signature} at {pt} is not (2,1)")
        margin = data.min_abs_eigenvalue / data.spectral_radius
        worst_margin = min(worst_margin, margin)
    _require(worst_margin > margin_floor, f"margin {worst_margin:.2e} at or below {margin_floor}")
    return {"sign": sign, "points": len(points), "signature": [2, 1, 0],
            "worst_margin": worst_margin}


def _levi_sigma(spec: CheckSpec, rng, sigma: Fraction, points: int) -> dict:
    f = catalog.make_sigma_surface(sigma)
    for _ in range(points):
        x = [rng.uniform(-1, 1) for _ in range(7)]
        sig = geometry.tube_hessian_signature(f, x)
        if sig != (5, 2, 0):
            raise CheckFailure(f"signature {sig} at {x} is not (5,2)")
    return {"sigma": float(sigma), "points": points, "signature": [5, 2, 0]}


def _levi_gamma_crosscheck(spec: CheckSpec, rng, alpha: Fraction, points: int) -> dict:
    f = catalog.gamma_graph(alpha)
    tube = geometry.lifted_tube(f)
    with _float_range():
        for _ in range(points):
            x = [rng.uniform(-2, 2) for _ in range(3)]
            sig = geometry.tube_hessian_signature(f, x)
            z = [complex(v, 0.0) for v in x] + [
                complex(f.evaluate_real(x), rng.uniform(-1, 1))
            ]
            levi = geometry.levi_form(tube, z)
            _require(
                sig == levi.signature_signed,
                f"tube shortcut {sig} disagrees with Levi computation {levi.signature_signed}",
            )
    return {"alpha": str(alpha), "points": points, "agreement": True}


def _levi_quadric_surface(spec: CheckSpec, rng, p: int, n: int) -> dict:
    surface = catalog.quadric_surface(p, n)
    data = geometry.levi_form(surface, [0.0] * surface.space.n)
    want = (max(p, n - p), min(p, n - p), 0)  # orientation-free: the larger count first
    _require(data.signature == want, f"origin signature {data.signature} != {want}")
    return {"surface": spec.target, "signature": list(data.signature)}


# ---------------------------------------------------------------------------
# normal-form (trace condition) checks
# ---------------------------------------------------------------------------


def _chern_moser(spec: CheckSpec, rng, sign: str, constant_draws: int) -> dict:
    components = chern_moser.model_normal_form(sign)

    conditions = chern_moser.normal_form_check(components)
    for name, residual in conditions:
        _require(residual.is_zero(), f"{name} residual is nonzero: {residual}")

    # Non-umbilic at the origin: F_(2,2) is nonzero, and it is the witness.
    f22 = components[2, 2]
    _require(not f22.is_zero(), "model is unexpectedly umbilic at the origin")
    eps = chern_moser.sign_to_eps(sign)
    sp = VariableSpace(3)
    want = HermitianPolynomial.variable(sp, 0) ** 2 * HermitianPolynomial.variable(sp, 3) ** 2 * eps
    _require(f22 == want, "umbilicity witness is not the expected quartic")

    # The constant in tr(c <z,z>^2) = 8 c <z,z> is computed, not assumed.
    fp, g = chern_moser.pairing_poly(sp), chern_moser.pairing_inverse()
    for _ in range(constant_draws):
        c = _nonzero(partial(random_gaussian, rng))
        lhs = chern_moser.trace_op(fp * fp * c, g)
        _require((lhs - fp * (c * 8)).is_zero(), f"trace of c<z,z>^2 is not 8c<z,z> for c={c}")

    # Scaling relation: identity and a phase isotropy pass with lambda = 1, a
    # q-scaled isotropy with lambda = q^2; the form-preserving diag(2,1/2,1)
    # violates the relation at lambda = 1 (negative control).
    preserved, holds = chern_moser.linear_scaling_check(f22, lie.IDENTITY3, Fraction(1))
    _require(preserved and holds, "identity scaling check failed")

    identity = identity_p_params(sign)
    phases = identity._replace(phi_phase=phase_from_parameter(Fraction(1, 2)),
                               psi_phase=phase_from_parameter(Fraction(2, 3))).validate()
    preserved, holds = chern_moser.linear_scaling_check(
        f22, catalog.make_isotropy_matrix(phases), Fraction(1))
    _require(preserved and holds, "phase isotropy scaling check failed")

    scaled = identity._replace(q=Fraction(2), b=GaussianRational(-1),
                               d=GaussianRational(4)).validate()
    preserved, holds = chern_moser.linear_scaling_check(
        f22, catalog.make_isotropy_matrix(scaled), Fraction(4))
    _require(preserved and holds, "q-scaled isotropy check failed")

    bad = lie.mat([[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]])
    preserved, holds = chern_moser.linear_scaling_check(f22, bad, Fraction(1))
    _require(preserved, "negative control no longer preserves the form")
    _require(not holds, "negative control failed to violate the scaling relation")

    return {
        "sign": sign,
        "trace_conditions": [name for name, _ in conditions],
        "umbilic": False,
        "trace_constant": 8,
        "scaling_controls": "pass/pass/pass/expected-fail",
    }


# ---------------------------------------------------------------------------
# Lie-algebra checks
# ---------------------------------------------------------------------------


def _lie_dimensions(spec: CheckSpec, rng, stabilizer_reps: int) -> dict:
    _require(lie.sl3_gram_rank() == 8, "trace form on sl(3,C) is degenerate")
    _require(len(lie.u21_basis()) == 9, "u(2,1) does not have dimension 9")
    _require(len(lie.su21_basis()) == 8, "su(2,1) does not have dimension 8")

    outcomes = {}
    for name, P, expect_ge4 in lie.jordan_test_set():
        S = lie.perp(lie.LieSubspace((P,), "C"))
        _require(S.dimension == 7, f"{name}: complement dimension {S.dimension} != 7")
        k = lie.ad_kernel_dim(P, S)
        _require(
            (k >= 4) == expect_ge4,
            f"{name}: ad-kernel dimension {k} breaks the expected threshold",
        )
        outcomes[name] = k

    pperp = lie.perp(lie.LieSubspace((lie.E(0, 1),), "C"))
    _require(not lie.is_subalgebra(pperp).closed, "the complement of E_12 closed under bracket")

    for which in (1, 2):
        S = lie.candidate_subalgebra(which)
        _require(S.dimension == 6, f"pattern {which} dimension {S.dimension} != 6")
        _require(lie.is_subalgebra(S).closed, f"pattern {which} is not a subalgebra")
        _require(lie.perp(S).dimension == 2, f"pattern {which} complement is not 2-dimensional")

    g1, g0 = GaussianRational(1), GaussianRational(0)
    models = {
        "positive": ((g1, g0, g0), 4),
        "negative": ((g0, g0, g1), 4),
        "null": ((g1, g0, g1), 5),
    }
    su21 = lie.su21()
    for label, (v, want) in models.items():
        _require(
            lie.stabilizer_up_to_scale_dim(v) == want,
            f"{label} model vector has the wrong stabilizer dimension",
        )
        produced = 0
        while produced < stabilizer_reps:
            A = lie.combine([Fraction(rng.randint(-2, 2), 3) for _ in su21.basis], su21)
            try:
                U = lie.cayley_group_element(A)
            except ZeroDivisionError:
                continue
            moved = lie.apply_vec(U, v)
            dim = lie.stabilizer_up_to_scale_dim(moved)
            _require(
                dim == want,
                f"{label} vector moved by a form-preserving element has stabilizer {dim} != {want}",
            )
            produced += 1
    return {
        "gram_rank": 8,
        "ad_kernel_dims": outcomes,
        "patterns": "6-dimensional subalgebras, complements 2-dimensional",
        "stabilizer_dims": {"positive": 4, "negative": 4, "null": 5},
    }


def _lie_isotropy(spec: CheckSpec, rng, draws: int) -> dict:
    zero = GaussianRational(0)
    for _ in range(draws):
        params = random_p_params(rng, "+")
        translation_free = params._replace(u=0, rho=zero, sigma=zero, tau=zero).validate()
        U = catalog.make_isotropy_matrix(translation_free)
        res = catalog.pseudo_unitarity_residual(U)
        _require(
            all(x.is_zero() for row in res for x in row),
            f"isotropy matrix at q={params.q} does not preserve the pairing form",
        )
    algebra = catalog.isotropy_algebra()
    _require(algebra.dimension == 6, "isotropy algebra dimension is not 6")
    _require(
        all(
            lie.is_zero_matrix(lie.algebra_membership_residual(B, lie.FORM_PAIRING))
            for B in algebra.basis
        ),
        "an isotropy generator leaves u(2,1) for the pairing form",
    )
    _require(lie.is_subalgebra(algebra).closed, "isotropy generators do not close under bracket")
    return {"draws": draws, "pseudo_unitary": True, "algebra_dimension": 6}


def _lie_line_image(spec: CheckSpec, rng, draws: int) -> dict:
    algebra = catalog.isotropy_algebra()
    proportional = 0
    for k in range(draws):
        if k % 2 == 0:
            w = (GaussianRational(0), _nonzero(partial(random_gaussian, rng)), GaussianRational(0))
            expected = True
        else:
            w = (random_gaussian(rng), random_gaussian(rng), random_gaussian(rng))
            while w[0].is_zero() and w[2].is_zero():
                w = (random_gaussian(rng), random_gaussian(rng), random_gaussian(rng))
            expected = False
        got = lie.line_image_test(algebra, w)
        if got != expected:
            raise CheckFailure(
                f"line test at {tuple(str(x) for x in w)} returned {got}, expected {expected}")
        proportional += got
    return {"draws": draws, "proportional_hits": proportional}


# ---------------------------------------------------------------------------
# complex-line witnesses
# ---------------------------------------------------------------------------


def _line_witness(spec: CheckSpec, rng, **args) -> dict:
    base, direction, expected_grade = catalog.stated_line(args)
    domain = catalog.resolve(spec.target).obj
    witness = geometry.contains_complex_line(domain, base, direction)
    _require(witness.inside_at_all_samples, f"sampled point left the domain at t={witness.first_failure}")
    _require(
        witness.grade == expected_grade,
        f"witness grade {witness.grade!r} is weaker than expected {expected_grade!r}",
    )
    _require(witness.certified, "witness is not an exact certificate")
    return {
        "domain": spec.target,
        "grade": witness.grade,
        "restriction": str(witness.restriction),
    }


# ---------------------------------------------------------------------------
# group closure and rank checks
# ---------------------------------------------------------------------------


def _closure(spec: CheckSpec, rng, sign: str, draws: int, inverse_draws: int) -> dict:
    try:  # recovery raises ClosureViolation when a product or inverse leaves the group
        for _ in range(draws):
            a = random_p_params(rng, sign)
            b = random_p_params(rng, sign)
            ab = p_compose(a, b)
            _require(ab.q == a.q * b.q, "composite scale is not the product of scales")

        ident = p_params_from_map(HoloPolyMap.identity(catalog.SPACE4), sign)
        _require(ident == identity_p_params(sign),
                 "identity map did not recover trivial parameters")

        for _ in range(inverse_draws):
            a = random_p_params(rng, sign)
            inv = p_inverse(a)
            _require(inv.q == 1 / a.q, "inverse scale is not the reciprocal")
            _require(
                p_compose(inv, a) == identity_p_params(sign),
                "inverse composed with the element is not the identity",
            )
    except ClosureViolation as exc:
        raise CheckFailure(f"group law: {exc}") from None
    return {"sign": sign, "compose_draws": draws, "inverse_draws": inverse_draws,
            "recovery": "exact"}


def _rank(spec: CheckSpec, rng, sign: str) -> dict:
    rank = catalog.p_jacobian_rank_at_identity(sign)
    _require(rank == 13, f"parameter chart rank {rank} != 13")
    return {"sign": sign, "rank": rank, "exact": True}


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------


def _count(value) -> int:
    count = int(value)
    if not 1 <= count <= MAX_COUNT:
        raise ValueError(f"must be from 1 to {MAX_COUNT}, got {count}")
    return count


def _generators(value) -> tuple[str, ...]:
    """A non-empty set of generator kinds, kept in the given order."""
    names = tuple(x.strip() for x in value.split(",")) if isinstance(value, str) else tuple(value)
    known = tuple(catalog.GENERATORS)
    if not names or len(set(names)) < len(names) or not set(names) <= set(known):
        raise ValueError(f"must be distinct names from {','.join(known)}, got {value!r}")
    return names


def _upper_side(args: dict):
    if args["side"] != ">":
        raise DomainError("the omega transitivity solver covers only side=>")


class Check(NamedTuple):
    """A row of the check table: ``run(spec, rng, **target_args, **parameters)``,
    each parameter's parser and default, the ``path`` values honoured, and
    ``admits(args)``, which raises DomainError for target arguments not covered."""

    run: Callable
    params: Mapping = NO_ENTRIES
    paths: tuple[str, ...] = ("exact",)
    admits: Callable | None = None


def _equivalence(make_rational, expected) -> Check:
    """The invariance check of an equivalence family, on the exact and the printed map."""
    return Check(
        lambda spec, rng, **args: _invariance_equivalence(
            spec, rng, make_rational(**args), expected),
        paths=("exact", "float", "both"),
    )


def _each(kind: str, families: tuple[str, ...], check: Check) -> dict:
    return {(kind, family): check for family in families}


# (check kind, target family) -> row; a lie target is the name of the check itself.
CHECKS = {
    ("invariance", "gamma"): Check(_invariance_generators, {
        "count": (_count, 20), "generators": (_generators, tuple(catalog.GENERATORS)),
    }),
    **_each("invariance", ("M_plus", "M_minus"), Check(_invariance_group, {"draws": (_count, 50)})),
    ("invariance", "normalizer"): _equivalence(
        catalog.make_normalizer_rational, EXPECTED_NORMALIZER_FACTOR),
    ("invariance", "tube_realisation"): _equivalence(
        catalog.make_tube_realisation_rational, EXPECTED_TUBE_FACTOR),
    ("invariance", "cayley_map"): _equivalence(
        catalog.make_cayley_rational, EXPECTED_CAYLEY_FACTOR),
    ("invariance", "quadric_action"): Check(_invariance_quadric_action, {"draws": (_count, 20)}),
    **_each("invariance", ("control:bad_constraint", "control:wrong_phase"), Check(
        _invariance_control, {"expect": (catalog.one_of("inexact", "exact"), "inexact")})),
    ("transitivity", "omega"): Check(_transitivity_omega, {
        "exact_count": (_count, 25), "float_count": (_count, 25),
        "regression": (catalog.one_of("none", "alpha1"), "none"),
    }, paths=("exact", "float", "both"), admits=_upper_side),
    ("transitivity", "quadric"): Check(_transitivity_quadric, {"draws": (_count, 20)}),
    **_each("levi", ("M_plus", "M_minus"), Check(_levi_model, {"samples": (_count, 50)})),
    ("levi", "sigma"): Check(_levi_sigma, {"points": (_count, 20)}),
    ("levi", "gamma"): Check(_levi_gamma_crosscheck, {"points": (_count, 20)}),
    ("levi", "quadric_surface"): Check(_levi_quadric_surface),
    **_each("chern_moser", ("M_plus", "M_minus"),
            Check(_chern_moser, {"constant_draws": (_count, 10)})),
    ("lie", "subalgebra_dimensions"): Check(_lie_dimensions, {"stabilizer_reps": (_count, 10)}),
    ("lie", "isotropy_family"): Check(_lie_isotropy, {"draws": (_count, 50)}),
    ("lie", "line_image"): Check(_lie_line_image, {"draws": (_count, 50)}),
    **_each("line_witness", ("D_plus", "D_minus", "D0", "quadric"),
            Check(_line_witness, admits=catalog.stated_line)),
    **_each("closure", ("P_plus", "P_minus"),
            Check(_closure, {"draws": (_count, 50), "inverse_draws": (_count, 20)})),
    **_each("rank", ("P_plus", "P_minus"), Check(_rank)),
}


def _bind(spec: CheckSpec) -> tuple[Check, dict, dict]:
    """The row of a spec, its target arguments and its typed parameters.

    Raises ConfigError, naming the check id, for anything the row rejects.
    Typed values parse to themselves, so a prepared spec binds the same way.
    """
    try:
        families = [family for kind, family in CHECKS if kind == spec.kind]
        if not families:
            raise KeyError(f"unknown kind {spec.kind!r}")
        name, args = catalog.parse_ident(spec.target)
        check = CHECKS.get((spec.kind, name))
        if check is None:
            raise KeyError(f"{spec.kind} checks take {', '.join(families)}; not {spec.target!r}")
        if check.admits is not None:
            check.admits(args)
        if spec.path not in check.paths:
            raise ValueError(f"path {spec.path!r}: {spec.kind} on {name} honours {check.paths}")
        for key in sorted(spec.parameters.keys() - check.params.keys()):
            takes = ", ".join(check.params) or "no parameters"
            raise ValueError(f"param.{key}: {spec.kind} on {name} takes {takes}")
        parameters = {}
        for key, (parse, default) in check.params.items():
            value = spec.parameters.get(key, default)
            try:
                parameters[key] = parse(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"param.{key} = {value!r}: {exc}") from None
    except (KeyError, ValueError) as exc:  # DomainError is a ValueError
        raise ConfigError(f"check {spec.id!r}: {exc.args[0]}") from None
    return check, args, parameters


def prepare(spec: CheckSpec) -> CheckSpec:
    """``spec`` with typed parameters, defaults filled in; ConfigError if the table rejects it."""
    return spec._replace(parameters=_bind(spec)[2])


def _handler(kind: str):
    def handler(spec: CheckSpec) -> dict:
        check, args, parameters = _bind(spec)
        return check.run(spec, random.Random(spec.seed), **args, **parameters)

    handler.__name__ = handler.__qualname__ = f"check_{kind}"
    return handler


# One distinct handler per kind, so that each kind's time can be told apart.
HANDLERS = {kind: _handler(kind) for kind in dict.fromkeys(kind for kind, _ in CHECKS)}


def run_check(spec: CheckSpec) -> CheckResult:
    """Execute one check; exceptions become status 'error' without aborting the suite."""
    start = time.perf_counter()
    try:
        details = HANDLERS[spec.kind](spec)
        status = "pass"
    except CheckFailure as exc:
        details = {"reason": str(exc), **exc.details}
        status = "fail"
    except Exception as exc:  # noqa: BLE001 - the suite must keep going
        details = {"error": f"{type(exc).__name__}: {exc}"}
        status = "error"
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckResult(spec.id, status, details, elapsed)
