"""Hypersurfaces, one-sided domains, Levi signatures, and complex-line witnesses.

Defining functions are real-valued polynomials from :mod:`tubecert.poly`; a
hypersurface is their zero set and a :class:`SidedDomain` is one of the two
open sides.  The Levi form at a point is the complex Hessian of the defining
function restricted to the complex tangent space; because replacing rho by
-rho flips the restricted Hessian, the reported ``signature`` orders the
counts with the larger one first (orientation-free), while ``signature_signed``
keeps the counts exactly as computed from the stored rho.

The Levi form of a tube over a graph x_{n+1} = f(x) is a quarter of the real
Hessian of f, so tube bases get a real-symmetric shortcut that is cross-checked
against the honest complex computation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

# numpy only ever sees matrices of size at most 8 here, which OpenBLAS never
# splits across threads.  Its helper threads still start with numpy and spin
# for tens of milliseconds, burning CPU beside whatever runs next; keep BLAS
# single-threaded unless the caller has chosen otherwise.  This takes effect
# only if numpy is not loaded yet.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .errors import DomainError, NotAHypersurfacePoint, SpaceError
from .poly import HermitianPolynomial, RealPolynomial, VariableSpace
from .scalars import GaussianRational, is_exact, to_tower

ZERO_EIGENVALUE_RELTOL = 1e-9
SPECTRAL_FLOOR = 1e-30
BOUNDARY_BAND = 1e-12


class Hypersurface:
    """Zero set of a real-valued defining polynomial.

    The first derivatives d rho/dz_j and the mixed second derivatives
    d^2 rho/dz_j dzb_k are differentiated once, on first use, and kept as
    float polynomials; equality and hashing read only rho.
    """

    __slots__ = ("rho", "space", "_derivs")

    def __init__(self, rho: HermitianPolynomial):
        if rho.exact and not rho.is_real_valued():
            raise DomainError("defining function must be real-valued")
        if not rho.exact and not rho.is_real_valued(tol=1e-12):
            raise DomainError("defining function must be real-valued")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "space", rho.space)
        object.__setattr__(self, "_derivs", None)

    def __setattr__(self, name, value):
        raise AttributeError("Hypersurface is immutable")

    def _derivatives(self):
        """(gradient, complex Hessian) of rho as float polynomials, built on first use."""
        if self._derivs is None:
            n = self.space.n
            grad = [self.rho.partial(j) for j in range(n)]
            hess = tuple(tuple(dj.partial(n + k).to_float() for k in range(n)) for dj in grad)
            object.__setattr__(self, "_derivs", (tuple(dj.to_float() for dj in grad), hess))
        return self._derivs

    def gradient_at(self, point) -> list[complex]:
        """(d rho / d z_1, ..., d rho / d z_n) evaluated at the point, as complex."""
        return [d.evaluate_complex(point) for d in self._derivatives()[0]]

    def complex_hessian_at(self, point) -> list[list[complex]]:
        """The matrix (d^2 rho / d z_j d zb_k) evaluated at the point, as complex."""
        return [[d.evaluate_complex(point) for d in row] for row in self._derivatives()[1]]

    def __eq__(self, other):
        if not isinstance(other, Hypersurface):
            return NotImplemented
        return self.rho == other.rho

    def __hash__(self):
        return hash(("hypersurface", self.rho))

    def __repr__(self):
        return f"Hypersurface({self.rho})"


@dataclass(frozen=True)
class SidedDomain:
    """One open side of a hypersurface: the set where sign(rho) == side."""

    surface: Hypersurface
    side: int  # +1 means rho > 0

    def __post_init__(self):
        if self.side not in (+1, -1):
            raise DomainError("side must be +1 or -1")

    @property
    def rho(self) -> HermitianPolynomial:
        return self.surface.rho


def side_of(domain: SidedDomain, point) -> str:
    """Classify a point as 'inside', 'on_boundary', or 'outside'.

    Exact sign on the exact tower; the floating path treats |rho| below a
    1e-12 band as on the boundary.
    """
    rho = domain.rho
    if rho.exact and is_exact(point):
        value = rho.evaluate(point)
        if not value.is_real():
            raise DomainError("defining function evaluated to a non-real value")
        if value.re == 0:
            return "on_boundary"
        sign = 1 if value.re > 0 else -1
    else:
        v = rho.evaluate_complex(point).real
        if abs(v) <= BOUNDARY_BAND:
            return "on_boundary"
        sign = 1 if v > 0 else -1
    return "inside" if sign == domain.side else "outside"


def _signature_from_eigenvalues(eigs: np.ndarray) -> tuple[int, int, int]:
    radius = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if radius < SPECTRAL_FLOOR:
        return (0, 0, int(eigs.size))
    cut = ZERO_EIGENVALUE_RELTOL * radius
    pos = int(np.sum(eigs > cut))
    neg = int(np.sum(eigs < -cut))
    zero = int(eigs.size) - pos - neg
    return (pos, neg, zero)


@dataclass(frozen=True)
class LeviData:
    """Levi form data at a point of a hypersurface.

    ``signature`` is orientation-free (larger count first); ``signature_signed``
    is the raw signature of the restricted Hessian of the stored rho.
    ``min_abs_eigenvalue`` and ``spectral_radius`` give the non-degeneracy margin.
    """

    point: tuple[complex, ...]
    signature: tuple[int, int, int]
    signature_signed: tuple[int, int, int]
    eigenvalues: tuple[float, ...]

    @property
    def spectral_radius(self) -> float:
        return max((abs(e) for e in self.eigenvalues), default=0.0)

    @property
    def min_abs_eigenvalue(self) -> float:
        return min((abs(e) for e in self.eigenvalues), default=0.0)


def levi_form(surface: Hypersurface, point) -> LeviData:
    """Levi form of the hypersurface at a point of it.

    Builds the complex Hessian (d^2 rho / dz_j dzb_k), restricts it to the
    complex tangent space {v : sum_j (d rho/d z_j) v_j = 0} via a
    Gram-Schmidt basis (deterministic given the point), and reports the
    eigenvalue signature with a relative zero threshold.
    """
    n = surface.space.n
    pt = [complex(v) for v in point]
    grad = np.array(surface.gradient_at(pt), dtype=complex)
    gnorm = float(np.linalg.norm(grad))
    if gnorm < 1e-14:
        raise NotAHypersurfacePoint(f"zero gradient at {pt}")

    hess = np.array(surface.complex_hessian_at(pt), dtype=complex)

    # The tangent condition sum g_j v_j = 0 says v is Hermitian-orthogonal to
    # conj(grad); project the standard basis off that direction and keep an
    # orthonormal set (modified Gram-Schmidt, deterministic order).
    u = np.conjugate(grad) / gnorm
    basis: list[np.ndarray] = []
    for j in range(n):
        v = np.zeros(n, dtype=complex)
        v[j] = 1.0
        v = v - np.vdot(u, v) * u
        for b in basis:
            v = v - np.vdot(b, v) * b
        norm = float(np.linalg.norm(v))
        if norm > 1e-10:
            basis.append(v / norm)
        if len(basis) == n - 1:
            break
    if len(basis) != n - 1:
        raise NotAHypersurfacePoint("could not build a tangent basis")

    V = np.column_stack(basis)
    restricted = V.T @ hess @ np.conjugate(V)
    restricted = (restricted + np.conjugate(restricted.T)) / 2.0
    eigs = np.linalg.eigvalsh(restricted)
    signed = _signature_from_eigenvalues(eigs)
    pos, neg, zero = signed
    normalized = (max(pos, neg), min(pos, neg), zero)
    return LeviData(
        point=tuple(pt),
        signature=normalized,
        signature_signed=signed,
        eigenvalues=tuple(float(e) for e in eigs),
    )


def tube_hessian_signature(f: RealPolynomial, xs) -> tuple[int, int, int]:
    """Eigenvalue signature of the real Hessian of a tube-base graph function.

    The Levi form of the tube over x_{n+1} = f(x) is a quarter of this
    Hessian, so the signature here must agree with :func:`levi_form` applied
    to :func:`lifted_tube` at the corresponding point.
    """
    H = np.array(f.hessian_at(xs), dtype=float)
    eigs = np.linalg.eigvalsh((H + H.T) / 2.0)
    return _signature_from_eigenvalues(eigs)


def lifted_tube(f: RealPolynomial) -> Hypersurface:
    """The tube hypersurface over the graph x_{n+1} = f(x), as rho = f(Re z) - Re z_{n+1}.

    The orientation (graph side positive) matches the sign convention of
    :func:`tube_hessian_signature`.  The tube is on f's own scalar tower.
    """
    n = f.space.n
    big = VariableSpace(n + 1)
    re = [HermitianPolynomial.re_variable(big, i) for i in range(n + 1)]
    if not f.exact:
        re = [x.to_float() for x in re]
    # images for conjugate slots of f's space; f has no conjugates but the
    # substitution API wants a full list.
    images = re[:n] + [x.conjugate() for x in re[:n]]
    return Hypersurface(f.poly.substitute(images) - re[n])


@dataclass(frozen=True)
class LineWitness:
    """Report that a domain contains the affine complex line base + t*direction.

    ``grade`` records the strength of the evidence:

    * ``constant``  -- rho restricted to the line is a constant of the correct
      sign: an exact certificate covering every point of the line;
    * ``definite``  -- the restriction is a polynomial in |t|^2 whose
      coefficients all share the domain's sign (constant term strictly): an
      exact certificate as well;
    * ``sampled``   -- only the sampled memberships passed.
    """

    inside_at_all_samples: bool
    first_failure: complex | None
    grade: str
    restriction: HermitianPolynomial

    @property
    def certified(self) -> bool:
        return self.inside_at_all_samples and self.grade in ("constant", "definite")


REQUIRED_SAMPLE_MAGNITUDES = (0.0, 1.0, 1e3, 1e6)


def contains_complex_line(domain: SidedDomain, base, direction) -> LineWitness:
    """Check that the affine complex line base + t*direction lies in the domain.

    Membership is sampled at the magnitudes |t| in {0, 1, 1e3, 1e6} (on two
    rays), and the restriction of rho to the line is analyzed symbolically for
    an exact all-of-line certificate.
    """
    n = domain.surface.space.n
    if len(base) != n or len(direction) != n:
        raise SpaceError("base and direction must match the ambient dimension")
    if all(v == 0 for v in direction):
        raise DomainError("line direction must be nonzero")

    # Symbolic restriction to the line, in one holomorphic variable t: exact
    # when rho and the line are, on the floating tower otherwise.
    exact = domain.rho.exact and is_exact([*base, *direction])
    rho = domain.rho if exact else domain.rho.to_float()
    line_space = VariableSpace(1)
    images = []
    for b, d in zip(base, direction):
        terms = {(0, 0): to_tower(b, exact), (1, 0): to_tower(d, exact)}
        images.append(HermitianPolynomial(line_space, terms, exact))
    restriction = rho.substitute(images + [img.conjugate() for img in images])

    grade = _grade_restriction(restriction, domain.side)

    samples = []
    for mag in REQUIRED_SAMPLE_MAGNITUDES:
        samples.append(complex(mag, 0.0))
        if mag:
            samples.append(complex(0.0, mag))

    first_failure = None
    base_c = [complex(v) for v in base]
    dir_c = [complex(v) for v in direction]
    for tv in samples:
        pt = [b + tv * d for b, d in zip(base_c, dir_c)]
        if side_of(domain, pt) != "inside":
            first_failure = tv
            break
    return LineWitness(
        inside_at_all_samples=first_failure is None,
        first_failure=first_failure,
        grade=grade,
        restriction=restriction,
    )


def _grade_restriction(restriction: HermitianPolynomial, side: int) -> str:
    terms = restriction.terms
    const_key = (0, 0)
    if restriction.exact:
        if not terms:
            return "sampled"  # rho == 0 on the line: the line is in the boundary
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
    return "sampled"


def solve_graph_re_last(rho: HermitianPolynomial, zprime):
    """On a surface whose rho is linear in Re z_n, solve for Re z_n given z_1..z_{n-1}.

    Works for all catalog surfaces (their last variable enters only through
    Re z_n with a real coefficient).  Exact when inputs are exact.
    """
    n = rho.space.n
    vals = [to_tower(v, True) for v in zprime]
    if len(vals) != n - 1:
        raise SpaceError(f"need {n - 1} leading coordinates")
    # rho = alpha * z_n + conj(alpha) * zb_n + rest(z', zb')
    lin_key = tuple(1 if i == n - 1 else 0 for i in range(2 * n))
    alpha = rho.coefficient(lin_key)
    if alpha.is_zero() or not alpha.is_real():
        raise DomainError("surface is not a graph in Re z_n")
    rest = GaussianRational(0)
    for e, c in rho.terms.items():
        if e[n - 1] or e[2 * n - 1]:
            if sum(e) != 1:
                raise DomainError("rho is not linear in the last variable")
            continue
        term = c
        for i in range(n - 1):
            if e[i]:
                term = term * vals[i] ** e[i]
            if e[n + i]:
                term = term * vals[i].conjugate() ** e[n + i]
        rest = rest + term
    if not rest.is_real():
        raise DomainError("non-real residual evaluating the graph equation")
    # alpha * 2 * Re z_n + rest = 0
    return -rest.re / (2 * alpha.re)


def sample_boundary_points(
    surface: Hypersurface, rng, count: int, box: int = 2
) -> list[list[GaussianRational]]:
    """Exact on-surface points: random rational z', exact Re z_n, random Im z_n."""
    n = surface.space.n
    points = []
    for _ in range(count):
        zp = [
            GaussianRational(
                Fraction(rng.randint(-4 * box, 4 * box), 4),
                Fraction(rng.randint(-4 * box, 4 * box), 4),
            )
            for _ in range(n - 1)
        ]
        re_last = solve_graph_re_last(surface.rho, zp)
        im_last = Fraction(rng.randint(-4 * box, 4 * box), 4)
        points.append(zp + [GaussianRational(re_last, im_last)])
    return points
