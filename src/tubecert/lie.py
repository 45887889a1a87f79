"""Exact 3x3 matrix Lie algebra computations: sl(3,C), u(2,1), su(2,1).

Everything here is exact.  Each subspace is the kernel of a linear map
written once (trace-form pairing, bracket, the u(2,1) membership residual,
trace, line minors), computed from the images of a basis by rational Gaussian
elimination: complex kernels over Q(i), real ones by doubling each complex
entry into two rational coordinates.  Where only a dimension is wanted it is
the basis size less a rank, and ranks count pivots without building kernel
vectors.  The hot kernels run on Gaussian-integer numerators over one
denominator, kept once per subspace: a 3x3 product and a combination of basis
matrices sum integers and canonicalise each entry once, the independence
check and a membership test eliminate the kept rows (with one cleared row
appended for membership) over the integers, a Cayley group element
is a closed-form adjugate over a Gaussian-integer determinant with no field
inverse, and the line minors of (Xw, w) come out as plain ints.

The dimension bookkeeping this enables: the trace form on sl(3,C) is
non-degenerate (Gram rank 8); among a representative set of Jordan shapes,
only the rank-one nilpotent E_12 has a centralizer meeting its trace-form
complement in dimension >= 4; that complement is not a subalgebra; the two
codimension-2 matrix patterns are 6-dimensional subalgebras; and the
stabilizers up to scale of vectors of positive, negative, and null length in
su(2,1) have real dimensions 4, 4, 5.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from . import exactla
from .errors import DomainError
from .scalars import GaussianRational, Record, _coerce, _over_lcm, _reduce, to_tower

Mat3 = tuple  # 3x3 nested tuples of GaussianRational


def mat(rows) -> Mat3:
    out = []
    for row in rows:
        out.append(tuple(to_tower(x) for x in row))
    if len(out) != 3 or any(len(r) != 3 for r in out):
        raise DomainError("need a 3x3 matrix")
    return tuple(out)


IDENTITY3 = mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def E(i: int, j: int) -> Mat3:
    """Elementary matrix with a single 1 in row i, column j (0-indexed)."""
    return mat([[1 if (r, c) == (i, j) else 0 for c in range(3)] for r in range(3)])


def madd(X: Mat3, Y: Mat3) -> Mat3:
    return tuple(tuple(a + b for a, b in zip(rx, ry)) for rx, ry in zip(X, Y))


def msub(X: Mat3, Y: Mat3) -> Mat3:
    return tuple(tuple(a - b for a, b in zip(rx, ry)) for rx, ry in zip(X, Y))


def mscale(X: Mat3, c) -> Mat3:
    c = to_tower(c)
    return tuple(tuple(a * c for a in row) for row in X)


def _dot(xs, ys) -> tuple[int, int]:
    """sum x*y over paired Gaussian integers (a, b), as a pair."""
    re = im = 0
    for (a, b), (c, e) in zip(xs, ys):
        re += a * c - b * e
        im += a * e + b * c
    return re, im


def mmul(X: Mat3, Y: Mat3) -> Mat3:
    """XY, summed on Gaussian-integer numerators with one canonicalisation per entry."""
    (x, dx), (y, dy) = _over_lcm(flatten(X)), _over_lcm(flatten(Y))
    d = dx * dy
    cols = (y[0::3], y[1::3], y[2::3])
    return tuple(tuple(_reduce(*_dot(x[r:r + 3], col), d) for col in cols) for r in (0, 3, 6))


def mtrans(X: Mat3) -> Mat3:
    return tuple(tuple(X[j][i] for j in range(3)) for i in range(3))


def mconj(X: Mat3) -> Mat3:
    return tuple(tuple(a.conjugate() for a in row) for row in X)


def mtrace(X: Mat3) -> GaussianRational:
    return X[0][0] + X[1][1] + X[2][2]


def is_zero_matrix(X: Mat3) -> bool:
    return all(a.is_zero() for row in X for a in row)


def apply_vec(X: Mat3, v) -> tuple:
    v0, v1, v2 = v
    return tuple(x0 * v0 + x1 * v1 + x2 * v2 for x0, x1, x2 in X)


def bracket(X: Mat3, Y: Mat3) -> Mat3:
    """[X, Y] = XY - YX, exactly."""
    return msub(mmul(X, Y), mmul(Y, X))


def killing(X: Mat3, Y: Mat3) -> GaussianRational:
    """The invariant trace form trace(XY) = sum X[i][j] Y[j][i]; non-degenerate on sl(3,C)."""
    (x00, x01, x02), (x10, x11, x12), (x20, x21, x22) = X
    (y00, y01, y02), (y10, y11, y12), (y20, y21, y22) = Y
    return (x00 * y00 + x01 * y10 + x02 * y20 + x10 * y01 + x11 * y11 + x12 * y21
            + x20 * y02 + x21 * y12 + x22 * y22)


def flatten(X: Mat3) -> list[GaussianRational]:
    return [X[i][j] for i in range(3) for j in range(3)]


def realify(vec) -> list[Fraction]:
    out = []
    for x in vec:
        out.append(x.re)
        out.append(x.im)
    return out


@functools.cache
def sl3() -> LieSubspace:
    """sl(3,C) on its standard basis: six off-diagonal units plus E11-E22 and E22-E33."""
    basis = [E(i, j) for i in range(3) for j in range(3) if i != j]
    basis.append(msub(E(0, 0), E(1, 1)))
    basis.append(msub(E(1, 1), E(2, 2)))
    return LieSubspace(tuple(basis), "C")


class LieSubspace(Record):
    """A subspace of 3x3 matrices over its scalar field.

    ``field`` is 'C' for complex subspaces of sl(3,C) and 'R' for real
    subspaces (of u(2,1)-type algebras).  ``numerators`` is (rows, d): each
    basis matrix as nine Gaussian-integer pairs over one d > 0.  The basis is
    checked for exact linear independence on construction, on those rows.
    """

    _fields = ("basis", "field")
    __slots__ = _fields + ("numerators",)

    def __init__(self, basis: tuple, field: str):
        if field not in ("C", "R"):
            raise DomainError("field must be 'C' or 'R'")
        pairs, d = _over_lcm([x for X in basis for x in flatten(X)])
        rows = [pairs[k:k + 9] for k in range(0, len(pairs), 9)]
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "numerators", (rows, d))
        if self._integer_rank(rows) != len(basis):
            raise DomainError("basis is not linearly independent")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def _integer_rank(self, rows) -> int:
        """The rank of Gaussian-integer rows over the field; over 'R' each
        pair (a, b) is two integer entries.  Scaling a row by a positive integer, as
        clearing it to integers does, keeps the rank."""
        if self.field == "R":
            return exactla.integer_rank([list(chain.from_iterable(row)) for row in rows], False)
        return exactla.integer_rank(rows, True)

    def contains(self, X: Mat3) -> bool:
        """Whether X lies in the span: X's numerators appended to the basis rows
        leave the rank at dim S."""
        return self._integer_rank([*self.numerators[0], _over_lcm(flatten(X))[0]]) == self.dimension


def _kernel(images, field: str) -> list[list]:
    """Kernel coordinates of a linear map, given the images of a basis.

    Each image is a sequence of Q(i) scalars.  Over 'R' each entry counts as
    two rational coordinates, so the kernel is the real-linear one.
    """
    columns = [realify(img) for img in images] if field == "R" else images
    one = Fraction(1) if field == "R" else GaussianRational(1)
    return exactla.nullspace(list(zip(*columns)), ncols=len(columns), one=one)


def combine(coords, S: LieSubspace) -> Mat3:
    """The matrix sum of coords[k] * S.basis[k], summed on Gaussian-integer numerators
    over one denominator with one canonicalisation per entry."""
    c, dc = _over_lcm([_coerce(x) for x in coords])
    rows, d = S.numerators
    x = [_reduce(*_dot(c, col), dc * d) for col in zip(*rows)]
    return tuple(x[0:3]), tuple(x[3:6]), tuple(x[6:9])


def perp(S: LieSubspace) -> LieSubspace:
    """Trace-form orthogonal complement inside sl(3,C).

    The form is non-degenerate on sl(3,C), so dim(S) + dim(perp(S)) = 8.
    """
    if S.field != "C":
        raise DomainError("perp is a complex-ambient operation")
    ambient = sl3()
    coords = _kernel([[killing(e, b) for b in S.basis] for e in ambient.basis], "C")
    return LieSubspace(tuple(combine(c, ambient) for c in coords), "C")


def sl3_gram_rank() -> int:
    """Rank of the trace-form Gram matrix on the standard sl(3,C) basis (8 iff non-degenerate)."""
    basis8 = sl3().basis
    rows = [[killing(x, y) for y in basis8] for x in basis8]
    return exactla.rank(rows)


def ad_kernel_dim(P: Mat3, S: LieSubspace) -> int:
    """Dimension of {X in S : [P, X] = 0} over S's own scalar field: dim S less a rank."""
    return S.dimension - S._integer_rank([_over_lcm(flatten(bracket(P, b)))[0] for b in S.basis])


class SubalgebraReport(NamedTuple):
    closed: bool
    witness: tuple | None  # failing basis pair, when not closed


def is_subalgebra(S: LieSubspace) -> SubalgebraReport:
    """Check [b_i, b_j] in span(S) exactly for all basis pairs."""
    for i, x in enumerate(S.basis):
        for y in S.basis[i + 1:]:
            if not S.contains(bracket(x, y)):
                return SubalgebraReport(False, (x, y))
    return SubalgebraReport(True, None)


def candidate_subalgebra(which: int) -> LieSubspace:
    """The two codimension-2 subalgebra patterns inside sl(3,C).

    Pattern 1 (zeros below the first column) stabilizes the line through the
    first basis vector; pattern 2 (zeros at (2,1) and (2,3)) stabilizes a
    line in the dual representation.  Both are 6-dimensional.
    """
    h1 = msub(E(0, 0), E(1, 1))
    h2 = msub(E(1, 1), E(2, 2))
    if which == 1:
        basis = [E(0, 1), E(0, 2), E(1, 2), E(2, 1), h1, h2]
    elif which == 2:
        basis = [E(0, 1), E(0, 2), E(2, 0), E(2, 1), h1, h2]
    else:
        raise DomainError("which must be 1 or 2")
    return LieSubspace(tuple(basis), "C")


def jordan_test_set() -> list[tuple[str, Mat3, bool]]:
    """Representative Jordan shapes with the expected outcome of the kernel test.

    The flag says whether [P, .] restricted to the trace-form complement of P
    has kernel of dimension at least 4; only the rank-one nilpotent passes.
    """
    diag = lambda a, b, c: mat([[a, 0, 0], [0, b, 0], [0, 0, c]])
    return [
        ("nilpotent_rank1", E(0, 1), True),
        ("nilpotent_rank2", madd(E(0, 1), E(1, 2)), False),
        ("diagonal_distinct", diag(1, 2, -3), False),
        ("diagonal_distinct_alt", diag(1, -1, 0), False),
        ("diagonal_repeated", diag(1, 1, -2), False),
        ("jordan_block_plus_eigenvalue", madd(E(0, 1), diag(1, 1, -2)), False),
    ]


# ---------------------------------------------------------------------------
# u(2,1) and su(2,1) with respect to a rational Hermitian form
# ---------------------------------------------------------------------------

FORM_DIAG = mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
FORM_PAIRING = mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])


def algebra_membership_residual(X: Mat3, H: Mat3) -> Mat3:
    """X^t H + H conj(X); the zero matrix certifies membership in u(2,1) w.r.t. H."""
    return madd(mmul(mtrans(X), H), mmul(H, mconj(X)))


@functools.cache
def _gl3_real() -> LieSubspace:
    """gl(3,C) as a real subspace: E_ij and i E_ij, in the order of realify(flatten(X))."""
    units = [E(k // 3, k % 3) for k in range(9)]
    return LieSubspace(tuple(X for e in units for X in (e, mscale(e, GaussianRational(0, 1)))), "R")


def u21_basis(H: Mat3 = FORM_DIAG) -> list[Mat3]:
    """Exact real basis of u(2,1) w.r.t. H: the kernel of the membership residual (dimension 9)."""
    gl3 = _gl3_real()
    coords = _kernel([flatten(algebra_membership_residual(X, H)) for X in gl3.basis], "R")
    return [combine(c, gl3) for c in coords]


@functools.cache
def su21_basis(H: Mat3 = FORM_DIAG) -> tuple:
    """Exact real basis of su(2,1) w.r.t. H: the trace-free part of u(2,1) (dimension 8)."""
    gl3 = _gl3_real()
    images = [flatten(algebra_membership_residual(X, H)) + [mtrace(X)] for X in gl3.basis]
    return tuple(combine(c, gl3) for c in _kernel(images, "R"))


@functools.cache
def su21() -> LieSubspace:
    """su(2,1) of the diagonal form as a real subspace, so its numerators are built once."""
    return LieSubspace(su21_basis(), "R")


def cayley_group_element(A: Mat3) -> Mat3:
    """(I - A)(I + A)^{-1}: an exact group element from an algebra element A.

    Since I - A = 2I - (I + A) it is 2(I + A)^{-1} - I.  With I + A = M / d on
    Gaussian-integer numerators that is (2d adj(M) - det(M) I) / det(M): a
    closed-form adjugate, each entry divided by det(M) through its conjugate and
    canonicalised once.  If A satisfies A^t H + H conj(A) = 0 then the result U
    satisfies U^t H conj(U) = H (checked by the caller's tests); raises
    ZeroDivisionError exactly when I + A is singular, and the caller redraws.
    """
    x, d = _over_lcm(flatten(A))
    m = [[(a + d, b) if r == c else (a, b) for c, (a, b) in enumerate(x[3 * r:3 * r + 3])]
         for r in range(3)]  # M, with I + A = M / d

    def cofactor(r, c):  # of M[r][c]; taking the indices mod 3 gives its sign
        a, b = m[r - 1][c - 2]
        return _dot((m[r - 2][c - 2], m[r - 2][c - 1]), (m[r - 1][c - 1], (-a, -b)))

    adj = [cofactor(c, r) for r in range(3) for c in range(3)]  # adj(M), flattened
    p, q = _dot(m[0], adj[0::3])  # det(M), along the first row
    n = p * p + q * q
    if n == 0:
        raise ZeroDivisionError("I + A is singular")
    # U = 2d adj(M) conj(det M) / |det M|^2 - I; k % 4 == 0 on the diagonal
    u = [_reduce(2 * d * (a * p + b * q) - (n if k % 4 == 0 else 0), 2 * d * (b * p - a * q), n)
         for k, (a, b) in enumerate(adj)]
    return tuple(u[0:3]), tuple(u[3:6]), tuple(u[6:9])


def _line_minors(S: LieSubspace, w):
    """Yield, for each X in S.basis, the 2x2 minors of (Xw, w) as six ints (real, imaginary parts).

    w and the basis enter as Gaussian-integer numerators over positive denominators
    (S.numerators), so each row is a positive integer multiple of X's true minors.
    Scaling w or X by a positive integer does not change whether Xw lies in C*w, so a
    row is zero exactly when the true minors are, and scaling rows does not change
    the rank of the rows.
    """
    n, _ = _over_lcm(w)
    for x in S.numerators[0]:
        u = [_dot(x[r:r + 3], n) for r in (0, 3, 6)]
        row = []
        for i, j in ((0, 1), (0, 2), (1, 2)):  # u_i n_j - u_j n_i
            row.extend(_dot((u[i], u[j]), (n[j], (-n[i][0], -n[i][1]))))
        yield row


def _nonzero_vector(v) -> tuple:
    vv = tuple(to_tower(x) for x in v)
    if all(x.is_zero() for x in vv):
        raise DomainError("the zero vector spans no line")
    return vv


def stabilizer_up_to_scale_dim(v) -> int:
    """Real dimension of {X in su(2,1) : X v in C v}, for su(2,1) of the diagonal form.

    The proportionality condition is the vanishing of the 2x2 minors of
    (Xv, v), which is real-linear in X, so the dimension is 8 less the exact
    rank of the basis elements' minors over the rationals.
    """
    S = su21()
    return S.dimension - exactla.rank(list(_line_minors(S, _nonzero_vector(v))))


# ---------------------------------------------------------------------------
# the common-eigenvector test
# ---------------------------------------------------------------------------


def line_image_test(S: LieSubspace, w) -> bool:
    """True iff every X in S maps w into the line C*w: every integer line minor is zero.

    For the isotropy algebra (``catalog.isotropy_algebra``), the vectors
    passing this test are exactly the multiples of (0, 1, 0): that line is
    the algebra's only common eigenvector direction, which is what pins the
    group's connected pieces.
    """
    return not any(chain.from_iterable(_line_minors(S, _nonzero_vector(w))))
