"""Constructors for every named object the certificate suite works with.

Families built here:

* the quartic graph family gamma(alpha): x4 = x1 x2 + x3^2 + x1^2 x3 + alpha x1^4,
  its tube hypersurface in C^4, the domains on each side, the four affine
  symmetry generators, and the closed-form transitivity solver;
* the quartic models M_plus / M_minus (Re z4 = z1 zb2 + z2 zb1 + |z3|^2 +- |z1|^4),
  their 13-parameter holomorphic symmetry group with its algebraic constraint,
  composition with exact parameter recovery, the inverse in closed form, and
  the isotropy matrices of the linear parts with their Lie algebra, all read
  off one coefficient formula;
* the normalizing equivalences carrying each tube onto its model, each a
  rational map after a diagonal scaling by fourth roots of rationals, and
  that scaling conjugated into the target exactly;
* the quadric models over Hermitian forms H_{p,n}, their transitive affine
  action, and the tube realisation;
* one rule for an affine complex line in each side of the quartic models and
  of the quadrics, but the '>' side of H_{n,n}, which is a ball;
* the Cayley tube x3 = x1 x2 + x1^3 and its equivalence with the (1,1) quadric;
* the one-parameter degree-4 family of graphs in R^7 used for signature
  consistency checks, on rational coordinates.

All constants are entered as printed in their source displays; simplification
only ever happens inside the certified pipeline, so transcription errors are
caught by certificates instead of being hidden by hand algebra.  The one
exception is the sigma family, whose first three coordinates are rescaled by
square roots so that its coefficients are rational (see
:func:`make_sigma_surface`).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Mapping
from fractions import Fraction
from itertools import islice
from operator import mul
from types import MappingProxyType
from typing import NamedTuple

from . import exactla, lie
from .chern_moser import pairing_poly, sign_to_eps
from .errors import ClosureViolation, ConstraintError, DomainError
from .geometry import Hypersurface, SidedDomain, lifted_tube
from .maps import (
    AffineMapR,
    HoloPolyMap,
    InvarianceCertificate,
    compose,
    equivalence_certificate,
    pullback_diagonal_quartic,
)
from .poly import HermitianPolynomial, RealPolynomial, VariableSpace
from .scalars import (
    GaussianRational,
    I,
    Record,
    _reduce,
    _Unreduced,
    as_rational,
    fourth_root_exact,
    nth_root_float,
    phase_from_parameter,
    sqrt_exact,
    to_tower,
)

SPACE3 = VariableSpace(3)
SPACE4 = VariableSpace(4)
SPACE6 = VariableSpace(6)
SPACE7 = VariableSpace(7)


def _var(space, i):
    return HermitianPolynomial.variable(space, i)


def _re(space, i):
    return HermitianPolynomial.re_variable(space, i)


def _tube(f: RealPolynomial) -> Hypersurface:
    """The tube over the graph x_{n+1} = f(x), oriented as rho = Re z_{n+1} - f(Re z)."""
    return Hypersurface(-lifted_tube(f).rho)


def _side_sign(side: str) -> int:
    """The sign of rho on a side: +1 for '>', -1 for '<'."""
    if side == ">":
        return 1
    if side == "<":
        return -1
    raise DomainError(f"side must be '>' or '<', got {side!r}")


# ---------------------------------------------------------------------------
# gamma family: graphs, tubes, generators, transitivity
# ---------------------------------------------------------------------------


def _gamma_f(x1, x2, x3, alpha):
    """f(x1,x2,x3) = x1 x2 + x3^2 + x1^2 x3 + alpha x1^4 over any commutative ring."""
    return x1 * x2 + x3**2 + x1**2 * x3 + x1**4 * alpha


def gamma_graph(alpha) -> RealPolynomial:
    """The graph function f(x1,x2,x3) = x1 x2 + x3^2 + x1^2 x3 + alpha x1^4."""
    return RealPolynomial(_gamma_f(*(_var(SPACE3, i) for i in range(3)), as_rational(alpha)))


def _gamma_g(z, alpha) -> HermitianPolynomial:
    """g = z4 - f(z1,z2,z3) in the holomorphic variables z, alpha a number or a variable."""
    return z[3] - _gamma_f(z[0], z[1], z[2], alpha)


def gamma_base(alpha) -> HermitianPolynomial:
    """g = x4 - f(x1,x2,x3) in z1..z4.  The tube's rho is g(Re z), so a real
    affine F has rho o F = c rho exactly when g o F = c g."""
    return _gamma_g([_var(SPACE4, i) for i in range(4)], as_rational(alpha))


def make_gamma(alpha) -> Hypersurface:
    """Tube hypersurface over the gamma(alpha) graph: rho = Re z4 - f(Re z')."""
    return _tube(gamma_graph(alpha))


def make_omega(alpha, side: str) -> SidedDomain:
    """Tube domain over one side of gamma(alpha); side is '>' or '<'."""
    return SidedDomain(make_gamma(alpha), _side_sign(side))


def _generator_rows(kind: str, A, B, n, m):
    """(matrix, translation, d) of one gamma(alpha) generator: x |-> (matrix x + translation) / d.

    param = n/m and alpha = A/B over any commutative ring: integers give the
    numeric generator, parameter polynomials with B = m = 1 the universal one.
    """
    if kind == "phi":  # diag(q, q^3, q^2, q^4) with q = n/m, over m^4
        return (((n * m**3, 0, 0, 0), (0, n**3 * m, 0, 0), (0, 0, n**2 * m**2, 0),
                 (0, 0, 0, n**4)), (0,) * 4, m**4)
    if kind == "psi":
        # r = n/m, a = A/B and c = 4a - 1 = C/B:
        # x1 -> x1 + r, x2 -> x2 - 4ac r^2 x1 + 2c r x3 - 4/3 ac r^3,
        # x3 -> x3 - 4a r x1 - 2a r^2, x4 -> x4 - 4/3 ac r^3 x1 + r x2 + c r^2 x3 - 1/3 ac r^4
        C = 4 * A - B
        d = 3 * B**2 * m**4  # the diagonal entries are d / d = 1
        return (
            ((d, 0, 0, 0),
             (-12 * A * C * n**2 * m**2, d, 6 * B * C * n * m**3, 0),
             (-12 * A * B * n * m**3, 0, d, 0),
             (-4 * A * C * n**3 * m, 3 * B**2 * n * m**3, 3 * B * C * n**2 * m**2, d)),
            (3 * B**2 * n * m**3, -4 * A * C * n**3 * m, -6 * A * B * n**2 * m**2, -A * C * n**4),
            d,
        )
    if kind == "mu":  # s = n/m: x2 -> x2 + s, x4 -> x4 + s x1
        return ((m, 0, 0, 0), (0, m, 0, 0), (0, 0, m, 0), (n, 0, 0, m)), (0, n, 0, 0), m
    if kind == "nu":  # t = n/m: x2 -> x2 - t x1, x3 -> x3 + t, x4 -> x4 + 2t x3 + t^2
        mm = m * m
        return (((mm, 0, 0, 0), (-n * m, mm, 0, 0), (0, 0, mm, 0), (0, 0, 2 * n * m, mm)),
                (0, 0, n * m, n * n), mm)
    raise DomainError(f"unknown generator kind {kind!r}")


def make_generator(kind: str, alpha, param) -> AffineMapR:
    """One of the four affine symmetry generators of the gamma(alpha) sides.

    kind 'phi' is the weighted scaling (param q != 0, determinant q^10);
    'psi', 'mu', 'nu' are the unipotent generators (determinant 1).
    """
    alpha, p = as_rational(alpha), as_rational(param)
    if kind == "phi" and p == 0:
        raise DomainError("phi generator needs a nonzero scale")
    return AffineMapR(*_generator_rows(kind, alpha.numerator, alpha.denominator,
                                       p.numerator, p.denominator))


# kind -> (its parameter, its factor c in rho o F = c rho, over any ring)
GENERATORS = {"phi": ("q", lambda q: q**4), "psi": ("r", lambda r: 1),
              "mu": ("s", lambda s: 1), "nu": ("t", lambda t: 1)}


@functools.cache
def universal_generator_certificate(kind: str) -> InvarianceCertificate:
    """g o F = c g for one generator kind at every alpha and parameter, built on first use.

    alpha = z5 and the parameter = z6 join g's space as holomorphic variables with
    identity images, and F is matched against g * c(z6), so an exact certificate has
    factor 1.  A zero residual proves the identity as polynomials, at every value of
    alpha and the parameter, real ones included; and rho o F = c rho follows for the
    tube's rho = g(Re z), since F is real affine.
    """
    z = [_var(SPACE6, i) for i in range(6)]
    mat, tr, d = _generator_rows(kind, z[4], 1, z[5], 1)
    comps = [sum(map(mul, row, z), t) * Fraction(1, d) for row, t in zip(mat, tr)]
    f = HoloPolyMap(SPACE6, SPACE6, comps + z[4:])
    g = _gamma_g(z, z[4])
    return equivalence_certificate(g, f, g * GENERATORS[kind][1](z[5]))


BASE_POINT = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))


def orbit_point(alpha, q, r, s, t) -> AffineMapR:
    """The image of BASE_POINT under phi(q) o mu(s) o nu(t) o psi(r), with the
    parameters in the solver's order.

    The point enters as the constant map R^0 -> R^4 (a matrix with no columns), so
    each generator is one ``compose``, a matrix-vector product over one integer
    denominator.  The result is such a map too: the image is its translation over
    its denominator.
    """
    point = AffineMapR(((),) * 4, tuple(map(int, BASE_POINT)), 1)
    for kind, param in (("psi", r), ("nu", t), ("mu", s), ("phi", q)):
        point = make_generator(kind, alpha, param).compose(point)
    return point


class TransitivityResult(NamedTuple):
    q: object
    r: object
    s: object
    t: object


def omega_defect(alpha, x):
    """The graph defect x4 - x1 x2 - x3^2 - x1^2 x3 - alpha x1^4 of a point of R^4,
    positive exactly on the '>' side of gamma(alpha); floats or exact values, not mixed."""
    x1, x2, x3, x4 = x
    return x4 - x1 * x2 - x3**2 - x1**2 * x3 - alpha * x1**4


def transitive_params_omega(alpha, target) -> TransitivityResult:
    """Parameters (q, r, s, t) moving the base point (0,0,0,1) to the target.

    The target must lie strictly on the '>' side of gamma(alpha).  A target
    with a float coordinate is solved in floats (sup-norm error of the
    reproduced target below 1e-9); any other target is solved exactly, and
    its graph defect must then be the fourth power of a rational.
    """
    floating = any(isinstance(x, float) for x in target)
    alpha = float(as_rational(alpha)) if floating else as_rational(alpha)
    x1, x2, x3, x4 = (float(x) if floating else as_rational(x) for x in target)
    rad = omega_defect(alpha, (x1, x2, x3, x4))
    if rad <= 0:
        raise DomainError("target is not strictly above the graph")
    q = nth_root_float(rad, 4) if floating else fourth_root_exact(rad)
    if q is None:
        raise DomainError(f"graph defect {rad} is not the fourth power of a rational")
    r = x1 / q
    s = (x2 + Fraction(4, 3) * alpha * (4 * alpha - 1) * x1**3 + x1 * x3
         + 2 * alpha * x1**3) / q**3
    t = (x3 + 2 * alpha * x1**2) / q**2
    return TransitivityResult(q, r, s, t)


# ---------------------------------------------------------------------------
# quartic models M_plus / M_minus and their symmetry group
# ---------------------------------------------------------------------------


def model_surface(sign: str) -> Hypersurface:
    """M_plus / M_minus: rho = Re z4 - (z1 zb2 + z2 zb1 + |z3|^2 +- |z1|^4)."""
    eps = sign_to_eps(sign)
    z1 = _var(SPACE4, 0)
    zb1 = _var(SPACE4, 4)
    quartic = z1**2 * zb1**2
    return Hypersurface(_re(SPACE4, 3) - pairing_poly(SPACE4) - quartic * eps)


def model_domain(sign: str, side: str) -> SidedDomain:
    return SidedDomain(model_surface(sign), _side_sign(side))


class PParams(Record):
    """The 13 real parameters of a quartic-model symmetry, with their constraint.

    q and u are Fractions; the two phases, rho, sigma, tau, b and d are
    GaussianRationals.  :meth:`validate` checks q > 0, that each phase has
    modulus 1, and the constraint tying |d|^2 to q, the first phase, and b:

        |d|^2 = -2 q^3 Re(phase_phi * conj(b)),  Re(phase_phi * conj(b)) <= 0.

    d is stored explicitly: the constraint fixes only |d|, and d's phase is a
    genuine parameter direction.  ``_map`` holds the element's map once
    :func:`make_p_element` has validated and built it.
    """

    _fields = ("sign", "q", "phi_phase", "psi_phase", "u", "rho", "sigma", "tau", "b", "d")
    __slots__ = _fields + ("_map",)

    def __init__(self, sign, q, phi_phase, psi_phase, u, rho, sigma, tau, b, d):
        set_ = object.__setattr__  # one call per slot: a loop over them costs about 45% more
        set_(self, "sign", sign)
        set_(self, "q", q)
        set_(self, "phi_phase", phi_phase)
        set_(self, "psi_phase", psi_phase)
        set_(self, "u", u)
        set_(self, "rho", rho)
        set_(self, "sigma", sigma)
        set_(self, "tau", tau)
        set_(self, "b", b)
        set_(self, "d", d)
        set_(self, "_map", None)

    def validate(self):
        sign_to_eps(self.sign)
        if self.q <= 0:
            raise ConstraintError("scale parameter q must be positive")
        # On numerators over positive denominators: |w|^2 = 1 is a^2 + b^2 = d^2,
        # Re(phase * conj(b)) = r / (phase_d b_d) and |d|^2 = (d_a^2 + d_b^2) / d_d^2,
        # so each condition cross-multiplies to integers.
        for name, w in (("phi", self.phi_phase), ("psi", self.psi_phase)):
            if w._a * w._a + w._b * w._b != w._d * w._d:
                raise ConstraintError(f"phase {name} must have modulus 1: |{w}|^2 = {w.abs2()}")
        phi, b, d, q = self.phi_phase, self.b, self.d, self.q
        r = phi._a * b._a + phi._b * b._b
        if r > 0:
            raise ConstraintError("Re(phase * conj(b)) must be <= 0")
        if ((d._a * d._a + d._b * d._b) * q.denominator**3 * phi._d * b._d
                != -2 * q.numerator**3 * r * d._d * d._d):
            w = phi * b.conjugate()
            raise ConstraintError(
                f"|d|^2 = {d.abs2()} != -2 q^3 Re(phase*conj(b)) = {-2 * q ** 3 * w.re}"
            )
        return self


def identity_p_params(sign: str) -> PParams:
    one, zero = GaussianRational(1), GaussianRational(0)
    return PParams(sign, Fraction(1), one, one, Fraction(0), zero, zero, zero, zero, zero)


# The monomials a symmetry map's components can carry: 1, z1, z2, z3, z4, z1^2.
P_MONOMIALS = ((0,) * 8, *(SPACE4.unit(i) for i in range(4)), (2,) + (0,) * 7)
_ONE, _Z1, _Z2, _Z3, _Z4, _Z1SQ = P_MONOMIALS


def _p_values(params: PParams) -> list:
    """The arguments of :func:`_p_rows` after ``eps``, as Q(i) scalars."""
    q, phi, psi, rho, sigma, tau, b, d = (
        to_tower(x)
        for x in (params.q, params.phi_phase, params.psi_phase, params.rho, params.sigma,
                  params.tau, params.b, params.d)
    )
    return [q, phi, psi, I * params.u, rho, sigma, tau, b, d]


def _p_rows(eps, q, phi, psi, iu, rho, sigma, tau, b, d):
    """The four components of a symmetry map as ``{monomial: coefficient}``, yielded in turn.

    The one formula for the group element.  The values are Q(i) scalars, or
    polynomials in chart coordinates (the tangent map of the rank check);
    ``eps`` is the model's sign as +-1 and ``iu`` is i times the real u.  Each
    repeated product is computed once.  A caller that reads only the first
    three components (the isotropy block) never computes the fourth, the
    costliest.
    """
    rho_bar, d_bar = rho.conjugate(), d.conjugate()
    qphi, q2, rho2 = q * phi, q * q, rho * rho_bar
    q2qphi, q2b, qd, q2psi, dphipsi = q2 * qphi, q2 * b, q * d, q2 * psi, d_bar * (phi * psi)
    z1sq = rho_bar * qphi * qphi * (-2 * eps)
    yield {_ONE: rho, _Z1: qphi}
    yield {_ONE: sigma, _Z1: rho2 * qphi * (-2 * eps) + q2b, _Z2: q2qphi, _Z3: qd, _Z1SQ: z1sq}
    yield {_ONE: tau, _Z1: -dphipsi, _Z3: q2psi}
    sigma_bar, tau_bar = sigma.conjugate(), tau.conjugate()
    yield {_ONE: rho * sigma_bar + sigma * rho_bar + tau * tau_bar + rho2 * rho2 * eps + iu,
           _Z1: (sigma_bar * qphi + rho_bar * q2b - tau_bar * dphipsi) * 2,
           _Z2: rho_bar * q2qphi * 2,
           _Z3: (rho_bar * qd + tau_bar * q2psi) * 2,
           _Z4: q2 * q2,
           _Z1SQ: rho_bar * z1sq}


def _p_map(params: PParams) -> HoloPolyMap:
    """The map of ``params``, unchecked and not kept.  The rows are evaluated on unreduced
    Gaussian-integer numerators and each nonzero coefficient is canonicalised once."""
    rows = _p_rows(sign_to_eps(params.sign), *map(_Unreduced.of, _p_values(params)))
    return HoloPolyMap._raw(SPACE4, SPACE4, [HermitianPolynomial._raw(
        SPACE4, {e: c.reduced() for e, c in row.items() if not c.is_zero()}) for row in rows])


def make_p_element(params: PParams) -> HoloPolyMap:
    """The degree-2 holomorphic symmetry of the quartic model with the given parameters,
    built once per validated ``params`` and kept in its ``_map``."""
    if params._map is None:
        object.__setattr__(params.validate(), "_map", _p_map(params))
    return params._map


def p_params_from_map(f: HoloPolyMap, sign: str) -> PParams:
    """Recover the 13 parameters from an expanded symmetry map, exactly.

    Raises ClosureViolation when the map is not of the group's shape or the
    recovered parameters fail to regenerate it exactly; that never happens
    for genuine compositions or inverses of group elements.
    """
    eps = sign_to_eps(sign)
    c1, c2, c3, c4 = f.components

    a1 = c1.coefficient(_Z1)
    q = sqrt_exact(a1.abs2())
    if q is None or q == 0:
        raise ClosureViolation("|z1-coefficient|^2 is not a perfect rational square")
    phi = a1 / GaussianRational(q)  # modulus 1, as q = |a1|
    rho = c1.coefficient(_ONE)

    psi = c3.coefficient(_Z3) / GaussianRational(q * q)  # validate checks its modulus
    tau = c3.coefficient(_ONE)
    d = -phi * psi * c3.coefficient(_Z1).conjugate()  # the z1 coefficient is -conj(d) phi psi

    sigma = c2.coefficient(_ONE)
    c21 = c2.coefficient(_Z1)
    b = (c21 + GaussianRational(rho.abs2()) * phi * GaussianRational(q) * (2 * eps)) / GaussianRational(q * q)

    const4 = c4.coefficient(_ONE)
    core = (
        rho * sigma.conjugate()
        + sigma * rho.conjugate()
        + GaussianRational(tau.abs2())
        + GaussianRational(rho.abs2() ** 2) * eps
    )
    iu = const4 - core
    if iu.re != 0:
        raise ClosureViolation("translation constant has a stray real part")
    u = iu.im

    params = PParams(sign, q, phi, psi, u, rho, sigma, tau, b, d)
    try:
        g = make_p_element(params)
    except ConstraintError as exc:
        raise ClosureViolation(f"recovered parameters violate the constraint: {exc}") from None
    if g != f:
        raise ClosureViolation("recovered parameters do not regenerate the map")
    return params


def p_compose(a: PParams, b: PParams) -> PParams:
    """Parameters of the composite (a after b), recovered exactly."""
    if a.sign != b.sign:
        raise DomainError("cannot compose symmetries of different models")
    fa, fb = make_p_element(a), make_p_element(b)
    return p_params_from_map(compose(fa, fb), a.sign)


def p_inverse(a: PParams) -> PParams:
    """Parameters of the inverse element in closed form, certified by composing to the identity.

    Each element is T∘L: L its linear factor (a's q, phases, b and d) and T a
    translation (q = 1, unit phases, b = d = 0, a's rho, sigma, tau and u) whose
    inverse negates those four.  So F^-1 has linear factor L^-1 and its
    translation part is read off F^-1(0) = L^-1(T^-1(0)).
    """
    f = make_p_element(a)
    q, q3, phi, psi = a.q, a.q**3, a.phi_phase.conjugate(), a.psi_phase.conjugate()
    d = -phi * psi * a.d / q3
    b = -phi * (phi * a.b + a.d.abs2() / q3)
    rho = -phi * a.rho / q
    tau = -(a.d.conjugate() * a.rho / q + psi * a.tau) / (q * q)
    sigma = -(b * a.rho / (q * q) + phi * a.sigma / q3 + d * a.tau / q)
    params = PParams(a.sign, 1 / q, phi, psi, -a.u / q**4, rho, sigma, tau, b, d)
    try:
        g = make_p_element(params)
    except ConstraintError as exc:
        raise ClosureViolation(f"inverse parameters violate the constraint: {exc}") from None
    if compose(f, g) != HoloPolyMap.identity(SPACE4):
        raise ClosureViolation("inverse parameters do not give a two-sided inverse")
    return params


_Z_LINEAR = (_Z1, _Z2, _Z3)


def make_isotropy_matrix(params: PParams):
    """3x3 matrix of the linear isotropy action of a translation-free symmetry.

    Requires rho = sigma = tau = 0 and u = 0.  The matrix is the z1..z3 block
    of the first three components of :func:`_p_rows` over q^2, and preserves
    the pairing form H = lie.FORM_PAIRING in the sense U^t H conj(U) = H.
    """
    if not (params.rho.is_zero() and params.sigma.is_zero() and params.tau.is_zero()) or params.u != 0:
        raise DomainError("isotropy matrices need translation-free parameters")
    params.validate()
    rows = _p_rows(sign_to_eps(params.sign), *map(_Unreduced.of, _p_values(params)))
    scale = _Unreduced(params.q.denominator**2, 0, params.q.numerator**2)  # 1 / q^2
    zero = GaussianRational(0)
    return tuple(tuple((row[m] * scale).reduced() if m in row else zero for m in _Z_LINEAR)
                 for row in islice(rows, 3))


def pseudo_unitarity_residual(U):
    """U^t H conj(U) - H for the pairing form H, exactly; the zero matrix certifies form preservation."""
    H = lie.FORM_PAIRING
    return lie.msub(lie.mmul(lie.mmul(lie.mtrans(U), H), lie.mconj(U)), H)


# -- randomized draws --------------------------------------------------------


def random_fraction(rng, lo=-3, hi=3, den=4) -> Fraction:
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_positive_fraction(rng) -> Fraction:
    return Fraction(rng.randint(1, 12), 4)


def random_gaussian(rng) -> GaussianRational:
    return _reduce(rng.randint(-8, 8), rng.randint(-8, 8), 4)  # both parts in [-2, 2]


def random_phase(rng) -> GaussianRational:
    return phase_from_parameter(random_fraction(rng, -3, 3, 5))


def random_p_params(rng, sign: str) -> PParams:
    """A random exact group element: draw d first, then solve for b's real slope.

    With q = n/4, d = (da + db i)/4 and Im(phi conj(b)) = y/4 drawn, the
    constraint Re(phi conj(b)) = -|d|^2 / (2 q^3) = -8 (da^2 + db^2) / (4 n^3)
    fixes b as an integer expression over 4 n^3.
    """
    n = rng.randint(1, 12)
    phi, psi, u = random_phase(rng), random_phase(rng), random_fraction(rng)
    rho, sigma, tau = random_gaussian(rng), random_gaussian(rng), random_gaussian(rng)
    da, db = rng.randint(-8, 8), rng.randint(-8, 8)  # as random_gaussian
    x, y = -8 * (da * da + db * db), rng.randint(-12, 12) * n**3
    # b = phi (x - i y) / (4 n^3)
    b = _reduce(phi._a * x + phi._b * y, phi._b * x - phi._a * y, phi._d * 4 * n**3)
    # The constraint holds by construction; make_p_element validates on first build.
    return PParams(sign, Fraction(n, 4), phi, psi, u, rho, sigma, tau, b, _reduce(da, db, 4))


# -- the tangent map of the 13-parameter chart ---------------------------------


# The chart directions at the identity, as (argument of _p_rows, tangent): q,
# the two phases (each as 1 + i t), u (entering as i u), Re/Im rho, sigma and
# tau, Im b, Re/Im d.  Re b is left out: the constraint makes it quadratic in
# the others, so its slope at the identity is zero.
P_CHART = (("q", 1), ("phi", I), ("psi", I), ("iu", I), ("rho", 1), ("rho", I),
           ("sigma", 1), ("sigma", I), ("tau", 1), ("tau", I), ("b", I), ("d", 1), ("d", I))


def _p_slopes(sign: str, name: str, tangent) -> list[dict]:
    """Each component's ``{monomial: slope}`` at the identity along one chart direction.

    The direction moves the parameter ``name`` of the identity by t * tangent,
    t = Re z1 in a one-variable space; a slope is the t-linear part of the
    coefficient, given for every monomial of ``P_MONOMIALS``.
    """
    space = VariableSpace(1)
    t = HermitianPolynomial.re_variable(space, 0)
    z, zb = space.unit(0), space.unit(1)
    names = ("q", "phi", "psi", "iu", "rho", "sigma", "tau", "b", "d")
    identity = dict(zip(names, _p_values(identity_p_params(sign))))
    rows = _p_rows(sign_to_eps(sign), **{**identity, name: t * tangent + identity[name]})

    def slope(c):
        if isinstance(c, HermitianPolynomial):
            return c.coefficient(z) + c.coefficient(zb)
        return GaussianRational(0)  # a coefficient the moving parameter does not reach

    return [{mono: slope(row.get(mono, 0)) for mono in P_MONOMIALS} for row in rows]


def p_chart_jacobian(sign: str) -> list[list[Fraction]]:
    """The exact 48 x 13 Jacobian of the chart-to-coefficients map at the identity.

    Each column is one direction's slopes of the 24 map coefficients, split
    into real and imaginary parts.
    """
    columns = [[part for row in _p_slopes(sign, name, tangent) for slope in row.values()
                for part in (slope.re, slope.im)] for name, tangent in P_CHART]
    return [list(r) for r in zip(*columns)]


def p_jacobian_rank_at_identity(sign: str) -> int:
    """Exact rank of the chart's tangent map at the identity; the group's dimension shows up as 13."""
    return exactla.rank(p_chart_jacobian(sign))


@functools.cache
def isotropy_algebra() -> lie.LieSubspace:
    """The real Lie algebra of the isotropy matrices, tangent at the identity.

    One generator per translation-free chart direction (q, the two phases,
    Im b, Re d and Im d): the slope of the z-linear block of the first three
    components, less 2 dq I for the division by q^2 (the block is I at the
    identity).  The sign is '+': eps multiplies only rho terms, so both
    models share the algebra.
    """
    basis = []
    for name, tangent in P_CHART:
        if name in ("q", "phi", "psi", "b", "d"):
            slopes = _p_slopes("+", name, tangent)
            dq2 = 2 * tangent if name == "q" else 0
            basis.append(lie.mat([[slopes[i][m] - (dq2 if i == j else 0)
                                   for j, m in enumerate(_Z_LINEAR)] for i in range(3)]))
    return lie.LieSubspace(tuple(basis), "R")


# ---------------------------------------------------------------------------
# normalizing equivalences
# ---------------------------------------------------------------------------


def normalizer_strength(alpha) -> Fraction:
    """The signed quartic coefficient (12*alpha - 1)/8 of the conjugated model."""
    return (12 * as_rational(alpha) - 1) / 8


class RationalizedEquivalence(Record):
    """A printed map split as (diagonal scaling) o (rational map).

    ``rational_map`` composed with the diagonal scaling diag(radicand_i^(1/4))
    reproduces the printed map; ``conjugated_target_rho`` is the exact pullback
    of ``target_rho`` under that scaling, so the certificate
    ``conjugated_target_rho o rational_map = c * source_rho`` is an exact
    statement equivalent to the printed one.  Construction raises DomainError
    when the scaling does not conjugate ``target_rho`` exactly.
    """

    _fields = ("rational_map", "target_rho", "source_rho", "radicands")
    __slots__ = _fields + ("conjugated_target_rho", "_scales")

    def __init__(self, rational_map: HoloPolyMap, target_rho: HermitianPolynomial,
                 source_rho: HermitianPolynomial, radicands: tuple):
        conj = pullback_diagonal_quartic(target_rho, radicands)
        for name, value in zip(self.__slots__,
                               (rational_map, target_rho, source_rho, radicands, conj, None)):
            object.__setattr__(self, name, value)

    def printed_image(self, point) -> list[complex]:
        """The printed map diag(radicand_i^(1/4)) o rational_map at a point of C^n,
        in complex arithmetic.  The float fourth roots are taken on first use."""
        if self._scales is None:
            object.__setattr__(self, "_scales",
                               tuple(nth_root_float(r, 4) for r in self.radicands))
        vals = self.rational_map.space_in.complex_values(point)
        return [c.evaluate_values(vals) * s
                for c, s in zip(self.rational_map.components, self._scales)]


def make_normalizer_rational(alpha) -> RationalizedEquivalence:
    """The normalizing equivalence of the gamma(alpha) tube.

    For alpha != 1/12 the target is the quartic model (plus variant above
    1/12, minus variant below); at alpha = 1/12 it is the signature-(2,1)
    quadric model, reached by composing the same rows with the split
    (z1 + z2, z3, z1 - z2, z4).  The printed map scales z1, z2 and z3
    irrationally.
    """
    alpha = as_rational(alpha)
    z1, z2, z3, z4 = (_var(SPACE4, i) for i in range(4))
    c4 = z4 * 4 - z1 * z2 * 2 - z3**2 * 2 - z1**2 * z3 - z1**4 * (alpha / 2)
    rows = [z1, z2 + z1 * z3 + z1**3 * alpha, z3 + z1**2 * Fraction(1, 4), c4]
    nmap = HoloPolyMap(SPACE4, SPACE4, rows)
    s4 = normalizer_strength(alpha)
    if s4 == 0:
        nmap = compose(HoloPolyMap(SPACE4, SPACE4, [z1 + z2, z3, z1 - z2, z4]), nmap)
        target = quadric_surface(2, 3).rho
        radicands = (Fraction(1, 4), Fraction(4), Fraction(1, 4), Fraction(1))
    else:
        target = model_surface("+" if s4 > 0 else "-").rho
        radicands = (abs(s4), 1 / abs(s4), Fraction(4), Fraction(1))
    return RationalizedEquivalence(nmap, target, make_gamma(alpha).rho, radicands)


# ---------------------------------------------------------------------------
# quadric models over H_{p,n}
# ---------------------------------------------------------------------------


class QuadricFamily(Record):
    """The Hermitian form H_{p,n}, 1 <= p <= n, and the affine action it defines."""

    __slots__ = _fields = ("p", "n")

    def __init__(self, p: int, n: int):
        if not (1 <= p <= n):
            raise DomainError("need 1 <= p <= n")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)

    @property
    def eps(self) -> tuple[int, ...]:
        return tuple(1 if j < self.p else -1 for j in range(self.n))

    def form(self, u, v):
        """H_{p,n}(u, v) = sum_j eps_j u_j v_j, over scalars or polynomials alike."""
        terms = [x * y * e for x, y, e in zip(u, v, self.eps)]
        return sum(terms[1:], terms[0])


def quadric_space(n: int) -> VariableSpace:
    return VariableSpace(n + 1)


def quadric_hermitian_poly(p: int, n: int) -> HermitianPolynomial:
    """H_{p,n}(z, zb) = sum_{j<=p} |z_j|^2 - sum_{j>p} |z_j|^2 inside C^{n+1}."""
    space = quadric_space(n)
    zs = [_var(space, j) for j in range(n)]
    zbs = [_var(space, n + 1 + j) for j in range(n)]
    return QuadricFamily(p, n).form(zs, zbs)


def quadric_surface(p: int, n: int) -> Hypersurface:
    space = quadric_space(n)
    return Hypersurface(_re(space, n) - quadric_hermitian_poly(p, n))


def make_quadric_domain(p: int, n: int, side: str) -> SidedDomain:
    return SidedDomain(quadric_surface(p, n), _side_sign(side))


def quadric_transitive_map(p: int, n: int, a, b, c) -> HoloPolyMap:
    """z |-> a z + b, last |-> 2 a H(z, conj b) + a^2 last + H(b, conj b) + i c.

    a and c are rational and the b_j Gaussian rationals; a float is a TypeError.
    """
    fam = QuadricFamily(p, n)
    space = quadric_space(n)
    a, c = as_rational(a), as_rational(c)
    if a == 0:
        raise DomainError("scale a must be nonzero")
    b = [to_tower(x) for x in b]
    b_bar = [x.conjugate() for x in b]
    const = (0,) * (2 * space.n)
    comps = [HermitianPolynomial(space, {space.unit(j): a, const: b[j]}) for j in range(n)]
    last = {space.unit(n): a * a, const: fam.form(b, b_bar) + I * c}
    for j, e in enumerate(fam.eps):
        last[space.unit(j)] = b_bar[j] * (2 * a * e)
    return HoloPolyMap(space, space, comps + [HermitianPolynomial(space, last)])


def quadric_base_point(p: int, n: int, side: str):
    return [GaussianRational(0)] * n + [GaussianRational(_side_sign(side))]


class QuadricTransitivityResult(NamedTuple):
    a: object
    b: tuple
    c: object


def quadric_transitive_params(p: int, n: int, side: str, target) -> QuadricTransitivityResult:
    """Solve exactly for (a, b, c) carrying the base point to a target strictly inside.

    The scale a is the rational square root of a^2, read off the target; a
    target whose a^2 is not a rational square is a DomainError.
    """
    sign = _side_sign(side)
    vals = [to_tower(v) for v in target]
    b = tuple(vals[:n])
    hbb = QuadricFamily(p, n).form(b, [x.conjugate() for x in b]).re
    x_last = vals[n].re
    c = vals[n].im
    a2 = (x_last - hbb) * sign
    if a2 <= 0:
        raise DomainError(f"target is not strictly inside the '{side}' side")
    a = sqrt_exact(a2)
    if a is None:
        raise DomainError(f"a^2 = {a2} is not the square of a rational")
    return QuadricTransitivityResult(a, b, c)


def quadric_tube_surface(p: int, n: int) -> Hypersurface:
    """Tube over the graph x_{n+1} = H_{p,n}(x, x), oriented as Re z_{n+1} - H(x, x)."""
    xs = [_var(VariableSpace(n), j) for j in range(n)]
    return _tube(RealPolynomial(QuadricFamily(p, n).form(xs, xs)))


def make_tube_realisation_rational(p: int, n: int) -> RationalizedEquivalence:
    """The printed map z |-> sqrt(2) z, last |-> last + H(z, z), which transforms the
    quadric model onto the tube over H(x, x)."""
    space = quadric_space(n)
    zs = [_var(space, j) for j in range(n)]
    nmap = HoloPolyMap(space, space, zs + [_var(space, n) + QuadricFamily(p, n).form(zs, zs)])
    target = quadric_tube_surface(p, n).rho
    radicands = tuple([Fraction(4)] * n + [Fraction(1)])
    return RationalizedEquivalence(nmap, target, quadric_surface(p, n).rho, radicands)


# ---------------------------------------------------------------------------
# Cayley tube
# ---------------------------------------------------------------------------


def cayley_graph() -> RealPolynomial:
    """x3 = x1 x2 + x1^3 as the graph function f(x1, x2)."""
    space = VariableSpace(2)
    x1, x2 = (_var(space, i) for i in range(2))
    return RealPolynomial(x1 * x2 + x1**3)


def cayley_tube_surface() -> Hypersurface:
    return _tube(cayley_graph())


def make_cayley_rational() -> RationalizedEquivalence:
    """The equivalence of the Cayley tube with the (1,2) quadric model."""
    z1, z2, z3 = (_var(SPACE3, i) for i in range(3))
    core = z1 + z2 + z1**2 * Fraction(3, 2)
    anti = z1 - z2 - z1**2 * Fraction(3, 2)
    nmap = HoloPolyMap(SPACE3, SPACE3, [core, anti, z3 * 4 - z1 * z2 * 2 - z1**3])
    target = quadric_surface(1, 2).rho
    radicands = (Fraction(1, 4), Fraction(1, 4), Fraction(1))
    return RationalizedEquivalence(nmap, target, cayley_tube_surface().rho, radicands)


# ---------------------------------------------------------------------------
# degree-4 one-parameter family of graphs in R^7
# ---------------------------------------------------------------------------

def make_sigma_surface(sigma: Fraction) -> RealPolynomial:
    """The degree-4 graph in y1, y2, y3, x4..x7 with rational parameter sigma
    in [1, 17 + 12*sqrt(2)).

    As printed, the graph in x1..x7 carries the coefficients 2*sqrt(r1),
    2*sqrt(r2), (1+sigma)/sqrt(r2) and sqrt(r3), where r1 = 2(1+sigma),
    r2 = 3 sigma and r3 = (-sigma^2 + 34 sigma - 1)/(3 sigma); no sigma makes
    r1 and r2 both rational squares.  This is the one catalog object not
    entered as printed: the diagonal change y_i = sqrt(r_i) x_i (i = 1, 2, 3)
    makes every coefficient rational, and a real linear change of the base
    keeps the tube's Levi signature.  The interval is decided exactly: sigma >= 1
    and r3 > 0, whose numerator ``top`` vanishes at 17 + 12*sqrt(2).
    """
    sigma = as_rational(sigma)
    top = -sigma * sigma + 34 * sigma - 1
    if not (sigma >= 1 and top > 0):
        raise DomainError(f"sigma must lie in [1, 17 + 12*sqrt(2)), got {_shown(sigma)}")
    r1, r2, r3 = 2 * (1 + sigma), 3 * sigma, top / (3 * sigma)
    y1, y2, y3, x4, x5, x6, x7 = (_var(SPACE7, i) for i in range(7))
    f = (
        y1**2 * (1 / r1) + y2**2 * (1 / r2) + y3**2 * (1 / r3) + x4 * x5 + x6 * x7
        + y1 * x4 * x6 * 2 + y2 * x6**2 * 2 + y2 * x4**2 * ((1 + sigma) / r2) + y3 * x4**2
        + (x4**2 + x6**2) * (x4**2 + x6**2 * sigma)
    )
    return RealPolynomial(f)


# ---------------------------------------------------------------------------
# non-hyperbolicity witnesses: the stated affine complex lines
# ---------------------------------------------------------------------------


def stated_line(args: Mapping):
    """(base point, direction, grade) of an affine complex line in the domain
    whose parsed identifier arguments are ``args``.

    A side of the quartic model (``D_plus``, ``D_minus``: no ``p``) holds the
    line through (0, 0, 0, +-1) in direction e2: z2 enters rho only through
    z1 zb2 + z2 zb1, so rho is the constant +-1 there.  A side of the quadric
    over H_{p,n} holds the line through +-e_{n+1} in direction e1 below or
    e_n above, on which rho is +-(1 + |t|^2), definite in |t|^2.  With p = n
    the '>' side is a ball in disguise and holds no line: a DomainError.
    """
    sign = _side_sign(args["side"])
    if "p" in args:
        p, n = args["p"], args["n"]
        if sign > 0 and p == n:
            raise DomainError(f"the '>' side of the quadric over H_{{{p},{n}}} is a ball "
                              "and contains no complex line")
        axis, grade = (n - 1 if sign > 0 else 0), "definite"
    else:
        n, axis, grade = 3, 1, "constant"
    base = [GaussianRational(0)] * (n + 1)
    direction = list(base)
    base[n], direction[axis] = GaussianRational(sign), GaussianRational(1)
    return tuple(base), tuple(direction), grade


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------


def control_bad_constraint(sign: str) -> HoloPolyMap:
    """A would-be symmetry whose d is off by one: the constraint fails, and so
    must the certificate."""
    good = identity_p_params(sign)._replace(q=Fraction(2), b=GaussianRational(-1),
                                            d=GaussianRational(4)).validate()
    return _p_map(good._replace(d=good.d + 1))


def control_wrong_phase(sign: str) -> HoloPolyMap:
    """A group element with the second phase misread as the first in one coefficient.

    The correct element plus the slip 2 q^2 conj(tau) (phi - psi) z3 in its last
    component, which turns the z3 coefficient's psi into phi.  With distinct
    phases and a nonzero z3-translation the invariance identity fails,
    confirming the correct reading of that coefficient.
    """
    params = identity_p_params(sign)._replace(phi_phase=phase_from_parameter(Fraction(1, 2)),
                                              psi_phase=phase_from_parameter(Fraction(1, 3)),
                                              tau=GaussianRational(1)).validate()
    *head, last = make_p_element(params).components
    coeff = params.tau.conjugate() * (params.phi_phase - params.psi_phase) * (2 * params.q**2)
    slip = HermitianPolynomial(SPACE4, {SPACE4.unit(2): coeff})
    return HoloPolyMap(SPACE4, SPACE4, [*head, last + slip])


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class RegistryEntry(NamedTuple):
    ident: str
    kind: str
    description: str
    obj: object


def _shown(x: Fraction) -> str:
    """A rational as printed, or its order of magnitude when it is far out."""
    num, den = abs(x.numerator), x.denominator
    if max(num, den).bit_length() <= 64:
        return str(x)
    return f"about {'-' if x < 0 else ''}10^{round(math.log10(num) - math.log10(den))}"


def printable_rational(value: str) -> Fraction:
    """An exact rational with no more digits than Python prints of an int."""
    x = as_rational(value)
    try:
        str(x)
    except ValueError:
        raise ValueError(f"{_shown(x)} has more digits than can be printed") from None
    return x


MAX_DIMENSION = 64  # the largest p and n an identifier takes


def dimension(value: str) -> int:
    k = int(value)
    if k > MAX_DIMENSION:
        raise ValueError(f"must be at most {MAX_DIMENSION}")
    return k


def one_of(*options: str) -> Callable[[str], str]:
    """A parser that accepts exactly the given strings."""

    def parse(value: str) -> str:
        if value not in options:
            raise ValueError(f"must be one of {', '.join(options)}, got {value!r}")
        return value

    return parse


# The default of a record's mapping field: read-only, so the one shared default stays empty.
NO_ENTRIES = MappingProxyType({})

# Identifier arguments and their parsers; every catalog family draws from these.
IDENT_ARGS = {
    "alpha": printable_rational,
    "sigma": as_rational,
    "p": dimension,
    "n": dimension,
    "side": one_of(">", "<"),
    "sign": one_of("+", "-"),
}


class Family(NamedTuple):
    """A registry family: the arguments its identifiers take (``args``) and
    bind (``binds``; an argument in both is optional), its kind, constructor
    and description (formatted with the arguments and the object ``obj``)."""

    args: tuple[str, ...]
    kind: str
    make: Callable
    description: str
    binds: Mapping = NO_ENTRIES


def _p_identity_element(sign: str) -> HoloPolyMap:
    return make_p_element(identity_p_params(sign))


_QUARTIC_MODEL = "quartic model Re z4 = z1 zb2 + z2 zb1 + |z3|^2 {sign} |z1|^4"
_P_GROUP = "13-parameter symmetry group of the quartic model (identity element shown)"

FAMILIES = {
    "gamma": Family(("alpha",), "hypersurface", make_gamma,
                    "tube over the graph x4 = x1 x2 + x3^2 + x1^2 x3 + ({alpha}) x1^4"),
    "omega": Family(("alpha", "side"), "domain", make_omega,
                    "tube domain on the '{side}' side of gamma(alpha={alpha})"),
    "M_plus": Family((), "hypersurface", model_surface, _QUARTIC_MODEL, {"sign": "+"}),
    "M_minus": Family((), "hypersurface", model_surface, _QUARTIC_MODEL, {"sign": "-"}),
    "D_plus": Family(("side",), "domain", model_domain,
                     "'{side}' side of the plus quartic model", {"sign": "+"}),
    "D_minus": Family(("side",), "domain", model_domain,
                      "'{side}' side of the minus quartic model", {"sign": "-"}),
    "D0": Family(("side",), "domain", make_quadric_domain,
                 "'{side}' side of the signature-(2,1) quadric in C^4", {"p": 2, "n": 3}),
    "quadric": Family(("p", "n", "side"), "domain", make_quadric_domain,
                      "'{side}' side of the quadric over H_{{{p},{n}}}"),
    "quadric_surface": Family(("p", "n"), "hypersurface", quadric_surface,
                              "quadric Re z_{obj.space.n} = H_{{{p},{n}}}(z, zb)"),
    "quadric_action": Family(("p", "n"), "action", QuadricFamily,
                             "transitive affine action on the quadric over H_{{{p},{n}}}"),
    "tube_realisation": Family(("p", "n"), "map", make_tube_realisation_rational,
                               "tube realisation of the H_{{{p},{n}}} quadric sides"),
    "normalizer": Family(("alpha",), "map", make_normalizer_rational,
                         "normalizing equivalence for the gamma(alpha={alpha}) tubes"),
    "cayley": Family((), "hypersurface", cayley_tube_surface,
                     "tube over the Cayley graph x3 = x1 x2 + x1^3"),
    "cayley_map": Family((), "map", make_cayley_rational,
                         "equivalence of the Cayley tube with the H_{{1,2}} quadric"),
    "sigma": Family(("sigma",), "graph", make_sigma_surface,
                    "degree-4 graph family in R^7 at parameter {sigma}"),
    "P_plus": Family((), "group", _p_identity_element, _P_GROUP, {"sign": "+"}),
    "P_minus": Family((), "group", _p_identity_element, _P_GROUP, {"sign": "-"}),
    "isotropy": Family(("sign",), "matrix_family",
                       lambda sign: make_isotropy_matrix(identity_p_params(sign)),
                       "pairing-form-preserving isotropy matrices of the quartic model"),
    "control:bad_constraint": Family(
        ("sign",), "map", control_bad_constraint,
        "negative control: symmetry shape with the d-constraint broken", {"sign": "+"}),
    "control:wrong_phase": Family(
        ("sign",), "map", control_wrong_phase,
        "negative control: second phase misread in one coefficient", {"sign": "+"}),
}


def parse_ident(ident: str) -> tuple[str, dict]:
    """Split ``name(key=value,...)`` into the name and typed arguments.

    This is the one parser of identifiers, shared by :func:`resolve` and the
    check table.  The arguments of a family in :data:`FAMILIES` are checked
    against it and returned with the ones it binds; any other name (a ``lie``
    check target) takes no arguments.  A malformed identifier or a missing,
    extra, repeated or unknown argument raises KeyError; a value its parser rejects
    (``alpha=1/0``, ``side=x``, ``sigma=nan``) raises DomainError.
    """
    ident = ident.strip().replace("σ", "sigma")
    name, paren, body = ident.partition("(")
    name = name.strip()
    family = FAMILIES.get(name)
    if paren and (family is None or not body.endswith(")")):
        raise KeyError(f"unknown or malformed identifier {ident!r}")
    if family is None:
        return name, {}
    takes = f"{name} takes {', '.join(family.args) or 'no arguments'}"
    given = {}
    body = body[:-1]
    for piece in body.split(",") if body.strip() else ():
        key, eq, value = (x.strip() for x in piece.partition("="))
        if not eq or key not in family.args or key in given:
            raise KeyError(f"unknown, repeated or malformed {piece!r} in {ident!r}; {takes}")
        try:
            given[key] = IDENT_ARGS[key](value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad value {value!r} for {key} in {ident!r}: {exc}") from None
    missing = [key for key in family.args if key not in given and key not in family.binds]
    if missing:
        raise KeyError(f"{ident!r} lacks {', '.join(missing)}; {takes}")
    return name, {**family.binds, **given}


def resolve(ident: str) -> RegistryEntry:
    """Resolve a stable string identifier to a catalog object.

    Parametrized forms: ``gamma(alpha=1/12)``, ``omega(alpha=1,side=>)``,
    ``quadric(p=2,n=3,side=>)``, ``quadric_surface(p=1,n=2)``,
    ``quadric_action(p=2,n=3)``, ``tube_realisation(p=1,n=1)``,
    ``normalizer(alpha=7/12)``, ``sigma(sigma=1)``, ``isotropy(sign=+)``.
    Plain forms: ``M_plus``, ``M_minus``, ``D_plus(side=>)``, ``D0(side=<)``,
    ``cayley``, ``cayley_map``, ``P_plus``, ``P_minus``,
    ``control:bad_constraint``, ``control:wrong_phase``.
    """
    name, args = parse_ident(ident)
    if name not in FAMILIES:
        raise KeyError(f"unknown registry identifier {ident!r}")
    family = FAMILIES[name]
    obj = family.make(**args)
    description = family.description.format(obj=obj, **args)
    return RegistryEntry(ident, family.kind, description, obj)


def known_identifiers() -> list[str]:
    """Representative identifiers, one per catalog family (parameters vary freely)."""
    return [
        "gamma(alpha=0)", "gamma(alpha=1/12)", "gamma(alpha=1)", "gamma(alpha=-2)",
        "omega(alpha=1,side=>)",
        "M_plus", "M_minus",
        "D_plus(side=>)", "D_plus(side=<)", "D_minus(side=>)", "D_minus(side=<)",
        "D0(side=>)", "D0(side=<)",
        "quadric(p=1,n=1,side=<)", "quadric(p=1,n=2,side=>)",
        "quadric(p=2,n=3,side=>)", "quadric(p=5,n=7,side=>)",
        "quadric_surface(p=3,n=3)", "quadric_action(p=2,n=3)",
        "tube_realisation(p=1,n=1)", "tube_realisation(p=1,n=2)", "tube_realisation(p=2,n=3)",
        "normalizer(alpha=7/12)", "normalizer(alpha=-1/4)", "normalizer(alpha=1/12)",
        "cayley", "cayley_map",
        "sigma(sigma=1)", "sigma(sigma=2)", "sigma(sigma=17)", "sigma(sigma=33.9)",
        "P_plus", "P_minus",
        "isotropy(sign=+)",
        "control:bad_constraint", "control:wrong_phase",
    ]
