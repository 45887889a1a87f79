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

Derivatives are read in floats through
:meth:`~tubecert.poly.HermitianPolynomial.evaluate_values`, each compiled once
with the derivative kept on its surface.  Boundary samples are exact: the
graph shape of rho is checked once per surface (:func:`re_last_solver`) and
each point solved on Gaussian-integer numerators.

The float numerics are plain Python on matrices of size at most 8.  Levi
eigenvalues come from cyclic Jacobi rotations (:func:`_hermitian_eigenvalues`),
and their signature counts those beyond 1e-9 of the spectral radius.  The
tube-Hessian signature computes no eigenvalue: it counts them beyond
c = 1e-9 ||H||_F, a cut no smaller than 1e-9 of the spectral radius, from
two Bunch-Kaufman LDL^T factorizations (:func:`_inertia`) of H - cI and H + cI.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, NotAHypersurfacePoint, SpaceError
from .poly import HermitianPolynomial, RealPolynomial, VariableSpace
from .scalars import GaussianRational, Record, to_tower

ZERO_EIGENVALUE_RELTOL = 1e-9
SPECTRAL_FLOOR = 1e-30


class Hypersurface(Record):
    """Zero set of a real-valued defining polynomial.

    The first derivatives d rho/dz_j and the mixed second derivatives
    d^2 rho/dz_j dzb_k are differentiated once, on first use, and kept (the
    second ones only where they are not identically zero); equality and
    hashing read only rho.
    """

    _fields = ("rho",)
    __slots__ = _fields + ("space", "_derivs")

    def __init__(self, rho: HermitianPolynomial):
        if not rho.is_real_valued():
            raise DomainError("defining function must be real-valued")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "space", rho.space)
        object.__setattr__(self, "_derivs", None)

    def _derivatives(self):
        """(gradient, nonzero complex Hessian entries (j, k, d)) of rho, built on
        first use."""
        if self._derivs is None:
            n = self.space.n
            grad = [self.rho.partial(j) for j in range(n)]
            hess = tuple((j, k, d) for j, dj in enumerate(grad) for k in range(n)
                         if not (d := dj.partial(n + k)).is_zero())
            object.__setattr__(self, "_derivs", (tuple(grad), hess))
        return self._derivs

    def gradient_at(self, point) -> list[complex]:
        """(d rho / d z_1, ..., d rho / d z_n) evaluated at the point, as complex."""
        vals = self.space.complex_values(point)
        return [d.evaluate_values(vals) for d in self._derivatives()[0]]

    def complex_hessian_at(self, point) -> list[list[complex]]:
        """The matrix (d^2 rho / d z_j d zb_k) evaluated at the point, as complex."""
        n = self.space.n
        vals = self.space.complex_values(point)
        hess = [[0j] * n for _ in range(n)]
        for j, k, d in self._derivatives()[1]:
            hess[j][k] = d.evaluate_values(vals)
        return hess

    def __repr__(self):
        return f"Hypersurface({self.rho})"


class SidedDomain(Record):
    """One open side of a hypersurface: the set where sign(rho) == side (+1 means rho > 0)."""

    __slots__ = _fields = ("surface", "side")

    def __init__(self, surface: Hypersurface, side: int):
        if side not in (+1, -1):
            raise DomainError("side must be +1 or -1")
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "side", side)

    @property
    def rho(self) -> HermitianPolynomial:
        return self.surface.rho


def side_of(domain: SidedDomain, point) -> str:
    """Classify an exact point as 'inside', 'on_boundary', or 'outside' by the exact sign of rho.

    A float point is a TypeError.
    """
    value = domain.rho.evaluate(point)
    if not value.is_real():
        raise DomainError("defining function evaluated to a non-real value")
    if value.re == 0:
        return "on_boundary"
    sign = 1 if value.re > 0 else -1
    return "inside" if sign == domain.side else "outside"


def _signature_from_eigenvalues(eigs) -> tuple[int, int, int]:
    radius = max(map(abs, eigs), default=0.0)
    if radius < SPECTRAL_FLOOR:
        return (0, 0, len(eigs))
    cut = ZERO_EIGENVALUE_RELTOL * radius
    pos = sum(e > cut for e in eigs)
    neg = sum(e < -cut for e in eigs)
    return (pos, neg, len(eigs) - pos - neg)


def _hermitian_eigenvalues(a) -> list[float]:
    """Eigenvalues of a Hermitian matrix (a list of rows), ascending, by cyclic Jacobi.

    Each rotation first makes the (p, q) entry real by a phase on index q and
    then zeroes it with a real plane rotation.  Rotations skip entries below
    1e-18 of the Frobenius norm, and the sweeps stop when one rotates nothing,
    so each eigenvalue is within a few roundings of the norm.
    """
    n = len(a)
    a = [[complex(x) for x in row] for row in a]
    tiny = 1e-18 * math.sqrt(sum(abs(x) ** 2 for row in a for x in row))
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for _ in range(100):  # finite input converges in a few sweeps; NaN never would
        rotated = False
        for p, q in pairs:
            b = a[p][q]
            r = abs(b)
            if r <= tiny:
                continue
            rotated = True
            phase = b.conjugate() / r
            app, aqq = a[p][p].real, a[q][q].real
            theta = (aqq - app) / (2.0 * r)
            t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
            if theta < 0:
                t = -t
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            a[p][p] = complex(app - t * r)
            a[q][q] = complex(aqq + t * r)
            a[p][q] = a[q][p] = 0j
            for k in range(n):
                if k != p and k != q:
                    x, y = a[k][p], a[k][q] * phase
                    xk, yk = c * x - s * y, s * x + c * y
                    a[k][p], a[k][q] = xk, yk
                    a[p][k], a[q][k] = xk.conjugate(), yk.conjugate()
        if not rotated:
            break
    return sorted(a[k][k].real for k in range(n))


# Bunch-Kaufman pivot threshold: with it every 2x2 pivot is indefinite.
_PIVOT_ALPHA = (1.0 + math.sqrt(17.0)) / 8.0


def _inertia(a, shift: float = 0.0) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of A - shift*I, A real symmetric.

    Sylvester's law of inertia: the congruence A = L D L^T keeps the counts,
    and the block-diagonal D shows them.  Bunch-Kaufman pivoting (Math. Comp.
    31, 1977) takes a 1x1 pivot, whose sign is one count, unless the diagonal
    is small against its column; the 2x2 pivot it takes then has a negative
    determinant and counts one of each.  A pivot column that is exactly zero,
    or a NaN pivot, counts as a zero.
    """
    n = len(a)
    a = [[float(x) for x in row] for row in a]
    for i in range(n):
        a[i][i] -= shift
    rest = list(range(n))
    pos = neg = 0
    while rest:
        k = rest[0]
        col = a[k]
        lam, r = 0.0, k
        for i in rest[1:]:
            if abs(col[i]) > lam:
                lam, r = abs(col[i]), i
        akk = abs(col[k])
        if lam == 0.0 and akk == 0.0:
            rest.remove(k)
            continue
        pivots = (k,)
        if akk < _PIVOT_ALPHA * lam:
            sigma = max(abs(a[r][j]) for j in rest if j != r)
            if akk * sigma < _PIVOT_ALPHA * lam * lam:
                pivots = (r,) if abs(a[r][r]) >= _PIVOT_ALPHA * sigma else (k, r)
        for p in pivots:
            rest.remove(p)
        if len(pivots) == 1:
            prow = a[pivots[0]]
            piv = prow[pivots[0]]
            if piv > 0:
                pos += 1
            elif piv < 0:
                neg += 1
            for i in rest:
                f = prow[i] / piv
                if f:
                    row = a[i]
                    for j in rest:
                        row[j] -= f * prow[j]
        else:
            pos += 1
            neg += 1
            krow, rrow = a[k], a[r]
            akk, arr, akr = krow[k], rrow[r], krow[r]
            det = akk * arr - akr * akr
            for i in rest:
                # (u, w) = [a_ik a_ir] B^-1 for the 2x2 pivot block B
                u = (krow[i] * arr - rrow[i] * akr) / det
                w = (rrow[i] * akk - krow[i] * akr) / det
                if u or w:
                    row = a[i]
                    for j in rest:
                        row[j] -= u * krow[j] + w * rrow[j]
    return (pos, neg, n - pos - neg)


class LeviData(NamedTuple):
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
    signature of its eigenvalues (cyclic Jacobi, :func:`_hermitian_eigenvalues`)
    with the zero cut at 1e-9 of the spectral radius.
    """
    n = surface.space.n
    pt = [complex(v) for v in point]
    grad = surface.gradient_at(pt)
    gnorm = math.sqrt(sum(g.real * g.real + g.imag * g.imag for g in grad))
    if gnorm < 1e-14:
        raise NotAHypersurfacePoint(f"zero gradient at {pt}")

    hess = surface.complex_hessian_at(pt)

    # The tangent condition sum g_j v_j = 0 says v is Hermitian-orthogonal to
    # conj(grad); project the standard basis off that direction and keep an
    # orthonormal set (modified Gram-Schmidt, deterministic order).
    u = [g.conjugate() / gnorm for g in grad]
    basis: list[list[complex]] = []
    for j in range(n):
        # e_j minus its component u_j^* u along u
        cu = u[j].conjugate()
        v = [-cu * x for x in u]
        v[j] += 1.0
        for b in basis:
            proj = sum(x.conjugate() * y for x, y in zip(b, v))
            v = [y - proj * x for x, y in zip(b, v)]
        norm = math.sqrt(sum(y.real * y.real + y.imag * y.imag for y in v))
        if norm > 1e-10:
            basis.append([y / norm for y in v])
        if len(basis) == n - 1:
            break
    if len(basis) != n - 1:
        raise NotAHypersurfacePoint("could not build a tangent basis")

    # restricted = V^T hess conj(V), with the basis vectors as the columns of V,
    # summed over the nonzero Hessian entries only; then its Hermitian part.
    m = n - 1
    conj = [[y.conjugate() for y in b] for b in basis]
    restricted = [[0j] * m for _ in range(m)]
    for j, row in enumerate(hess):
        for k, h in enumerate(row):
            if h:
                for b, out in zip(basis, restricted):
                    x = b[j] * h
                    for c in range(m):
                        out[c] += x * conj[c][k]
    eigs = _hermitian_eigenvalues(
        [[(restricted[i][j] + restricted[j][i].conjugate()) / 2.0 for j in range(m)]
         for i in range(m)]
    )
    signed = _signature_from_eigenvalues(eigs)
    pos, neg, zero = signed
    normalized = (max(pos, neg), min(pos, neg), zero)
    return LeviData(
        point=tuple(pt),
        signature=normalized,
        signature_signed=signed,
        eigenvalues=tuple(eigs),
    )


def tube_hessian_signature(f: RealPolynomial, xs) -> tuple[int, int, int]:
    """Eigenvalue signature of the real Hessian of a tube-base graph function.

    The Levi form of the tube over x_{n+1} = f(x) is a quarter of this
    Hessian, so the signature here must agree with :func:`levi_form` applied
    to :func:`lifted_tube` at the corresponding point.  Only counts are
    needed, so no eigenvalue is computed: with the cut c = 1e-9 ||H||_F (at
    least 1e-9 of the spectral radius), the eigenvalues above c are the
    positive inertia of H - cI and those below -c the negative inertia of
    H + cI (:func:`_inertia`).
    """
    H = f.hessian_at(xs)
    n = len(H)
    sym = [[(H[i][j] + H[j][i]) / 2.0 for j in range(n)] for i in range(n)]
    frob = math.sqrt(sum(x * x for row in sym for x in row))
    # ||H||_F <= sqrt(n) * radius, so this floor covers every radius below SPECTRAL_FLOOR.
    if frob < math.sqrt(n) * SPECTRAL_FLOOR:
        return (0, 0, n)
    cut = ZERO_EIGENVALUE_RELTOL * frob
    pos = _inertia(sym, cut)[0]
    neg = _inertia(sym, -cut)[1]
    return (pos, neg, n - pos - neg)


def lifted_tube(f: RealPolynomial) -> Hypersurface:
    """The tube hypersurface over the graph x_{n+1} = f(x), as rho = f(Re z) - Re z_{n+1}.

    The orientation (graph side positive) matches the sign convention of
    :func:`tube_hessian_signature`.
    """
    n = f.space.n
    big = VariableSpace(n + 1)
    re = [HermitianPolynomial.re_variable(big, i) for i in range(n + 1)]
    # images for conjugate slots of f's space; f has no conjugates but the
    # substitution API wants a full list.
    images = re[:n] + [x.conjugate() for x in re[:n]]
    return Hypersurface(f.poly.substitute(images) - re[n])


class LineWitness(NamedTuple):
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
    first_failure: GaussianRational | None
    grade: str
    restriction: HermitianPolynomial

    @property
    def certified(self) -> bool:
        return self.inside_at_all_samples and self.grade in ("constant", "definite")


REQUIRED_SAMPLE_MAGNITUDES = (0, 1, 10**3, 10**6)


def contains_complex_line(domain: SidedDomain, base, direction) -> LineWitness:
    """Check that the affine complex line base + t*direction lies in the domain.

    Membership is decided exactly at t in {0, 1, i, 10^3, 10^3 i, 10^6, 10^6 i},
    and the restriction of rho to the line is computed exactly and graded for
    an all-of-line certificate.  rho, base and direction must be exact; a
    float coordinate is a TypeError.
    """
    n = domain.surface.space.n
    if len(base) != n or len(direction) != n:
        raise SpaceError("base and direction must match the ambient dimension")
    if all(v == 0 for v in direction):
        raise DomainError("line direction must be nonzero")

    # Exact restriction to the line, in one holomorphic variable t.
    line_space = VariableSpace(1)
    base, direction = [to_tower(b) for b in base], [to_tower(d) for d in direction]
    images = [
        HermitianPolynomial(line_space, {(0, 0): b, (1, 0): d}) for b, d in zip(base, direction)
    ]
    restriction = domain.rho.substitute(images + [img.conjugate() for img in images])

    grade = _grade_restriction(restriction, domain.side)

    samples = []
    for mag in REQUIRED_SAMPLE_MAGNITUDES:
        samples.append(GaussianRational(mag))
        if mag:
            samples.append(GaussianRational(0, mag))

    first_failure = None
    for tv in samples:
        pt = [b + tv * d for b, d in zip(base, direction)]
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
    """'constant' or 'definite' when every term of the restriction is a real
    multiple of |t|^(2k) with the domain's sign and the constant term is among
    them (the only one for 'constant'); 'sampled' otherwise."""
    terms = restriction.terms
    if (0, 0) not in terms or not all(
        a == b and c.is_real() and (c.re > 0) == (side > 0) for (a, b), c in terms.items()
    ):
        return "sampled"
    return "constant" if len(terms) == 1 else "definite"


def re_last_solver(rho: HermitianPolynomial):
    """On a surface whose rho is linear in Re z_n, the function that solves rho = 0
    for Re z_n given the exact values z_1..z_{n-1}.

    Works for all catalog surfaces (their last variable enters only through
    Re z_n with a real coefficient).  The shape of rho is checked once, here;
    each solve is exact.
    """
    n = rho.space.n
    # rho = alpha * z_n + conj(alpha) * zb_n + rest(z', zb')
    lin_key = tuple(1 if i == n - 1 else 0 for i in range(2 * n))
    alpha = rho.coefficient(lin_key)
    if alpha.is_zero() or not alpha.is_real():
        raise DomainError("surface is not a graph in Re z_n")
    if any((e[n - 1] or e[2 * n - 1]) and sum(e) != 1 for e in rho.terms):
        raise DomainError("rho is not linear in the last variable")
    twice = 2 * alpha.re

    def solve(zprime):
        vals = [to_tower(v) for v in zprime]
        if len(vals) != n - 1:
            raise SpaceError(f"need {n - 1} leading coordinates")
        rest = rho.evaluate(vals + [0])
        if not rest.is_real():
            raise DomainError("non-real residual evaluating the graph equation")
        # alpha * 2 * Re z_n + rest = 0
        return -rest.re / twice

    return solve


def sample_boundary_points(surface: Hypersurface, rng, count: int) -> list[list[GaussianRational]]:
    """Exact on-surface points: random rational z', exact Re z_n, random Im z_n,
    with the drawn parts in [-2, 2] on a grid of 1/4."""
    n = surface.space.n
    solve = re_last_solver(surface.rho)
    points = []
    for _ in range(count):
        zp = [
            GaussianRational(Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4))
            for _ in range(n - 1)
        ]
        re_last = solve(zp)
        im_last = Fraction(rng.randint(-8, 8), 4)
        points.append(zp + [GaussianRational(re_last, im_last)])
    return points
