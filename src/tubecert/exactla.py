"""Exact Gaussian elimination over the rationals and Gaussian rationals.

Row operations stay in the coefficient field, so ranks, kernels, and inverses
computed here are exact.  Matrices are lists of rows whose entries are
``Fraction`` or :class:`~tubecert.scalars.GaussianRational`; the two field
types are detected from the data (``nullspace`` takes ``one`` to force a
unit element for an empty or all-zero system).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GaussianRational


def _is_zero(x) -> bool:
    if isinstance(x, GaussianRational):
        return x.is_zero()
    return x == 0


def _unit_for(rows, one):
    if one is not None:
        return one
    for row in rows:
        for x in row:
            if isinstance(x, GaussianRational):
                return GaussianRational(1)
            return Fraction(1)
    return Fraction(1)


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot column indices)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if not _is_zero(m[i][c]):
                pivot_row = i
                break
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


def rank(rows: list[list]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: list[list], ncols: int | None = None, one=None) -> list[list]:
    """Exact basis of {x : rows @ x = 0}."""
    if rows:
        ncols = len(rows[0])
    if ncols is None:
        raise ValueError("ncols required for an empty system")
    unit = _unit_for(rows, one)
    zero = unit - unit
    if not rows:
        basis = []
        for j in range(ncols):
            v = [zero] * ncols
            v[j] = unit
            basis.append(v)
        return basis
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = unit
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def invert(matrix: list[list]) -> list[list]:
    """Exact inverse of a square matrix; raises ZeroDivisionError if singular."""
    n = len(matrix)
    unit = _unit_for(matrix, None)
    zero = unit - unit
    aug = []
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix must be square")
        ident = [zero] * n
        ident[i] = unit
        aug.append(list(row) + ident)
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [r[n:] for r in reduced]


def determinant(matrix: list[list]):
    """Exact determinant by Gaussian elimination with division (small matrices only)."""
    n = len(matrix)
    m = [list(r) for r in matrix]
    unit = _unit_for(matrix, None)
    det = unit
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if not _is_zero(m[i][c]):
                pivot_row = i
                break
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
