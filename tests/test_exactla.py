"""Fraction-free elimination against the field loop it replaced.

``exactla`` clears each row to integers and eliminates without fractions.
The reference here is the plain field-arithmetic Gauss-Jordan loop and the
division-based determinant that ``exactla`` used before, run on the same
Fraction or GaussianRational entries.  RREF is unique and both are exact, so
rows, pivots and determinants must be equal, not close.
"""

import random
from fractions import Fraction

import pytest

from tubecert import exactla
from tubecert.scalars import GaussianRational


def _is_zero(x):
    return x.is_zero() if isinstance(x, GaussianRational) else x == 0


def ref_rref(rows):
    """Gauss-Jordan elimination with field division (the reference loop)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pivot_row = next((i for i in range(r, len(m)) if not _is_zero(m[i][c])), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and not _is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def ref_determinant(matrix, unit):
    """Gaussian elimination with division, tracking row swaps (the reference loop)."""
    n = len(matrix)
    m = [list(r) for r in matrix]
    det = unit
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if not _is_zero(m[i][c])), None)
        if pivot_row is None:
            return unit - unit
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det = det * m[c][c]
        inv = unit / m[c][c]
        for i in range(c + 1, n):
            if not _is_zero(m[i][c]):
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def rational(rng, big=False):
    """A small rational, zero a quarter of the time; denominators near 10^6 when big."""
    if rng.random() < 0.25:
        return Fraction(0)
    den = rng.randint(10**6 - 50, 10**6 + 50) if big else rng.randint(1, 9)
    return Fraction(rng.randint(-9, 9) * (10**5 if big else 1) + rng.randint(-3, 3), den)


def gaussian(rng, big=False, imaginary=False):
    re = Fraction(0) if imaginary else rational(rng, big)
    return GaussianRational(re, rational(rng, big))


def random_matrix(rng, field, nrows, ncols, rank=None, **kw):
    """A random matrix over Q or Q(i); with ``rank``, a product of rank-sized factors."""
    draw = (lambda: rational(rng, **kw)) if field == "Q" else (lambda: gaussian(rng, **kw))
    if rank is None:
        return [[draw() for _ in range(ncols)] for _ in range(nrows)]
    left = [[draw() for _ in range(rank)] for _ in range(nrows)]
    right = [[draw() for _ in range(ncols)] for _ in range(rank)]
    zero = Fraction(0) if field == "Q" else GaussianRational(0)
    return [[sum((a * b for a, b in zip(row, col)), zero) for col in zip(*right)] for row in left]


def _shapes():
    """Seeded (name, matrix) cases over both fields, covering the awkward shapes."""
    rng = random.Random(20)
    cases = []
    for field in ("Q", "QI"):
        zero = Fraction(0) if field == "Q" else GaussianRational(0)
        for k in range(12):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
            cases.append((f"{field}-random-{k}", random_matrix(rng, field, nrows, ncols)))
        for k in range(6):
            nrows, ncols = rng.randint(3, 6), rng.randint(3, 8)
            rank = rng.randint(1, min(nrows, ncols) - 1)
            cases.append((f"{field}-deficient-{k}", random_matrix(rng, field, nrows, ncols, rank)))
        cases.append((f"{field}-all-zero", [[zero] * 4 for _ in range(3)]))
        cases.append((f"{field}-single-row", random_matrix(rng, field, 1, 5)))
        # zero first and middle columns, and a zero leading entry that forces a row swap
        m = random_matrix(rng, field, 4, 6)
        for row in m:
            row[0] = row[3] = zero
        m[0][1] = zero
        cases.append((f"{field}-zero-columns-swap", m))
        cases.append((f"{field}-big-denominators", random_matrix(rng, field, 5, 6, big=True)))
        cases.append((f"{field}-big-deficient", random_matrix(rng, field, 5, 5, 3, big=True)))
    for k in range(4):
        cases.append((f"imaginary-{k}", [[gaussian(rng, imaginary=True) for _ in range(5)]
                                          for _ in range(4)]))
    return cases


CASES = _shapes()
SQUARE = [(name, [row[: len(m)] for row in m]) for name, m in CASES if len(m[0]) >= len(m)]


def _field_type(m):
    return GaussianRational if any(isinstance(x, GaussianRational) for r in m for x in r) else Fraction


@pytest.mark.parametrize("name,m", CASES, ids=[c[0] for c in CASES])
def test_rref_matches_the_field_loop(name, m):
    rows, pivots = exactla.rref(m)
    ref_rows, ref_pivots = ref_rref(m)
    assert pivots == ref_pivots
    assert rows == ref_rows
    kind = _field_type(m)
    assert all(type(x) is kind for row in rows for x in row)


def _int_cases():
    """Plain-int matrices, the shape of the Lie line minors, full rank and deficient."""
    rng = random.Random(22)
    cases = [("int-empty", [])]
    for k in range(4):
        cases.append((f"int-random-{k}", [[rng.randint(-9, 9) for _ in range(6)]
                                           for _ in range(rng.randint(1, 8))]))
    left = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(8)]
    right = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(2)]
    cases.append(("int-deficient", [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                                    for row in left]))
    cases.append(("int-all-zero", [[0] * 6 for _ in range(8)]))
    return cases


RANK_CASES = CASES + _int_cases()


@pytest.mark.parametrize("name,m", RANK_CASES, ids=[c[0] for c in RANK_CASES])
def test_count_only_rank_equals_the_rref_pivot_count(name, m):
    """rank counts pivots without building field elements; the oracle is the
    pivot list of the full rref, and over the field loop where it applies."""
    assert exactla.rank(m) == len(exactla.rref(m)[1])
    if m and not all(type(x) is int for row in m for x in row):
        assert exactla.rank(m) == len(ref_rref(m)[1])


@pytest.mark.parametrize("name,m", CASES, ids=[c[0] for c in CASES])
def test_nullspace_vectors_annihilate_the_rows(name, m):
    basis = exactla.nullspace(m, len(m[0]), _field_type(m)(1))
    assert len(basis) == len(m[0]) - exactla.rank(m)
    for v in basis:
        assert all(_is_zero(sum((a * x for a, x in zip(row, v)), 0)) for row in m)
    if basis:
        assert exactla.rank(basis) == len(basis)


@pytest.mark.parametrize("name,m", SQUARE, ids=[c[0] for c in SQUARE])
def test_determinant_matches_the_field_loop(name, m):
    kind = _field_type(m)
    det = exactla.determinant(m)
    assert det == ref_determinant(m, kind(1))
    assert type(det) is kind
    assert det != 0 or exactla.rank(m) < len(m)


@pytest.mark.parametrize("name,m", SQUARE, ids=[c[0] for c in SQUARE])
def test_inverse_times_matrix_is_identity(name, m):
    n = len(m)
    if exactla.rank(m) < n:
        with pytest.raises(ZeroDivisionError):
            exactla.invert(m)
        return
    inv = exactla.invert(m)
    kind = _field_type(m)
    product = [[sum((a * b for a, b in zip(row, col)), kind(0)) for col in zip(*m)] for row in inv]
    assert product == [[kind(int(i == j)) for j in range(n)] for i in range(n)]


def test_row_swaps_flip_the_determinant_sign():
    m = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert exactla.determinant(m) == -1
    assert exactla.determinant([[0, GaussianRational(0, 1)], [GaussianRational(0, 1), 0]]) == 1


def test_int_entries_come_back_as_fractions():
    rows, pivots = exactla.rref([[2, 4], [1, 3]])
    assert pivots == [0, 1] and rows == [[1, 0], [0, 1]]
    assert all(type(x) is Fraction for row in rows for x in row)
    assert exactla.rref([[2, 4, 6]]) == ([[1, 2, 3]], [0])
    assert exactla.nullspace([[1, 2], [2, 4]], 2, Fraction(1)) == [[Fraction(-2), Fraction(1)]]
    assert all(type(x) is Fraction for x in exactla.nullspace([[1, 2], [2, 4]], 2, Fraction(1))[0])
    assert exactla.rank([[1, 2], [2, 4]]) == 1
    det = exactla.determinant([[2, 1], [1, 3]])
    assert det == 5 and type(det) is Fraction
    assert exactla.invert([[2, 0], [0, 4]]) == [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]


def test_mixed_entries_are_over_q_i():
    m = [[1, GaussianRational(0, 1)], [Fraction(1, 2), 3]]
    assert exactla.rref(m) == ref_rref([[GaussianRational(x) if not isinstance(x, GaussianRational)
                                         else x for x in row] for row in m])
    assert type(exactla.determinant(m)) is GaussianRational
    assert exactla.determinant(m) == 3 - GaussianRational(0, 1) / 2


def test_shape_errors():
    with pytest.raises(ValueError, match="square"):
        exactla.determinant([[1, 2]])
    with pytest.raises(ValueError, match="square"):
        exactla.determinant([[1, 2], [3]])
    with pytest.raises(ValueError, match="square"):
        exactla.invert([[1, 2]])
    for ragged in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError):
            exactla.rref(ragged)
        with pytest.raises(ValueError):
            exactla.rank(ragged)
        with pytest.raises(ValueError):
            exactla.nullspace(ragged, 2, Fraction(1))
    with pytest.raises(TypeError):
        exactla.rref([[1.5, 2]])
    with pytest.raises(TypeError):
        exactla.rank([[1.5, 2]])
    with pytest.raises(TypeError):
        exactla.rank([[GaussianRational(1), 0.5]])


def test_empty_and_degenerate_inputs():
    assert exactla.rref([]) == ([], [])
    assert exactla.nullspace([], 2, GaussianRational(1)) == [
        [GaussianRational(1), GaussianRational(0)],
        [GaussianRational(0), GaussianRational(1)],
    ]
    assert exactla.determinant([]) == 1
    assert exactla.determinant([[0]]) == 0
    assert exactla.determinant([[GaussianRational(0)]]) == GaussianRational(0)


def test_rank_and_determinant_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def to_sympy(x):
        x = GaussianRational(x) if not isinstance(x, GaussianRational) else x
        return sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I * sympy.Rational(
            x.im.numerator, x.im.denominator
        )

    def domain_matrix(m):
        return DomainMatrix.from_list_sympy(
            len(m), len(m[0]), [[to_sympy(x) for x in row] for row in m]
        ).convert_to(sympy.QQ_I)

    for name, m in CASES:
        assert exactla.rank(m) == domain_matrix(m).rank(), name
    for name, m in SQUARE:
        det = domain_matrix(m).det()
        assert to_sympy(exactla.determinant(m)) == sympy.QQ_I.to_sympy(det), name
