"""Exact Gaussian elimination over the rationals and Gaussian rationals.

Elimination is fraction-free: each row is cleared to integers over its own
least common denominator (Gaussian-integer ``(a, b)`` pairs over Q(i)), rows
are combined as ``pivot*row_i - f*row_r`` and divided by the gcd of their
entries (see Bareiss, *Math. Comp.* 22, 1968), and only the finished rows are
turned back into field elements, one canonicalisation per entry; a rank is the
pivot count and builds none.  So ranks, kernels, inverses and determinants
computed here are exact.  Matrices are lists of rows whose entries are
``int``, ``Fraction`` or :class:`~tubecert.scalars.GaussianRational`; a matrix
with any ``GaussianRational`` entry is over Q(i) and its results are
``GaussianRational``, any other is over Q and its results are ``Fraction``
(``nullspace`` takes the column count and the field's ``one``, which an empty
system cannot show).
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import chain
from typing import Callable, NamedTuple

from .scalars import GaussianRational, _gaussian_mul, _over_lcm, _reduce, to_tower


def _q_combine(p, row, f, prow):
    """(p*row - f*prow) / g over the integers, g the gcd of its entries; returns (row, g)."""
    new = [p * a - f * b for a, b in zip(row, prow)]
    g = math.gcd(*new)
    return ([a // g for a in new] if g > 1 else new), g


def _qi_combine(p, row, f, prow):
    """(p*row - f*prow) / g over the Gaussian integers, g the gcd of all parts; returns (row, g)."""
    pa, pb = p
    fa, fb = f
    new = [
        (pa * xa - pb * xb - fa * ya + fb * yb, pa * xb + pb * xa - fa * yb - fb * ya)
        for (xa, xb), (ya, yb) in zip(row, prow)
    ]
    g = math.gcd(*chain.from_iterable(new))
    return ([(a // g, b // g) for a, b in new] if g > 1 else new), g


_ZERO = Fraction(0)
_GZERO = GaussianRational(0)


def _q_over(row, p):
    """The integer row divided by p != 0, as Fractions."""
    return [Fraction(x, p) if x else _ZERO for x in row]


def _qi_over(row, p):
    """The Gaussian-integer row divided by p != 0, as GaussianRationals:
    x / p = x * conj(p) / |p|^2."""
    pa, pb = p
    n = pa * pa + pb * pb
    return [_reduce(xa * pa + xb * pb, xb * pa - xa * pb, n) if xa or xb else _GZERO
            for xa, xb in row]


class _Ring(NamedTuple):
    """The integers or the Gaussian integers, as the elimination uses them.

    ``combine`` is the row operation and ``over`` divides a row by a ring
    element into field elements (Fraction or GaussianRational).
    """

    zero: object
    one: object
    mul: Callable
    combine: Callable
    over: Callable


_Z = _Ring(0, 1, operator.mul, _q_combine, _q_over)
_ZI = _Ring((0, 0), (1, 0), _gaussian_mul, _qi_combine, _qi_over)


def _cleared(rows):
    """(integer rows, their denominators, ring) for a non-empty exact matrix.

    A Q row becomes ints and a Q(i) row Gaussian-integer pairs, each over the
    least common denominator of that row.  Ragged rows are a ValueError and
    inexact entries a TypeError.
    """
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError("matrix rows must have equal length")
    kinds = {type(x) for row in rows for x in row}
    if not kinds <= {int, Fraction, GaussianRational}:
        raise TypeError(f"exact elimination needs int, Fraction or GaussianRational, got {kinds}")
    m, dens = [], []
    if GaussianRational in kinds:
        if len(kinds) > 1:
            rows = [[to_tower(x) for x in row] for row in rows]
        for row in rows:
            pairs, d = _over_lcm(row)
            m.append(pairs)
            dens.append(d)
        return m, dens, _ZI
    for row in rows:
        d = math.lcm(*[x.denominator for x in row])
        if d == 1:
            m.append([x.numerator for x in row])
        else:
            m.append([x.numerator * (d // x.denominator) for x in row])
        dens.append(d)
    return m, dens, _Z


def _eliminate(m, ring, steps=None):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Returns the pivot columns; row k of the result holds pivot k.  When
    ``steps`` is a list, each row operation appends its effect on the
    determinant as (p, g), a factor p / g: a combination with pivot p whose
    result was divided by g, or (1, -1) for a row swap.
    """
    zero, one, combine = ring.zero, ring.one, ring.combine
    pivots: list[int] = []
    n = len(m)
    r = 0
    for c in range(len(m[0])):
        for i in range(r, n):
            if m[i][c] != zero:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            if steps is not None:
                steps.append((one, -1))
        prow = m[r]
        p = prow[c]
        for i in range(n):
            f = m[i][c]
            if i != r and f != zero:
                m[i], g = combine(p, m[i], f, prow)
                if steps is not None:
                    steps.append((p, g))
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot column indices)."""
    if not rows:
        return [], []
    m, _, ring = _cleared(rows)
    pivots = _eliminate(m, ring)
    out = [ring.over(row, row[c]) for row, c in zip(m, pivots)]
    zero_row = [ring.zero] * len(m[0])
    out.extend(ring.over(zero_row, ring.one) for _ in range(len(m) - len(pivots)))
    return out, pivots


def rank(rows: list[list]) -> int:
    """The number of pivots of the cleared rows' elimination; builds no field elements."""
    if not rows:
        return 0
    m, _, ring = _cleared(rows)
    return len(_eliminate(m, ring))


def integer_rank(rows: list[list], gaussian: bool) -> int:
    """The rank of already cleared rows: integers, or Gaussian-integer pairs (a, b)
    when ``gaussian``.  Only the outer list is copied; rows are not changed."""
    return len(_eliminate(list(rows), _ZI if gaussian else _Z)) if rows else 0


def nullspace(rows: list[list], ncols: int, one) -> list[list]:
    """Exact basis of {x : rows @ x = 0} for x with ``ncols`` entries.

    ``one`` is the unit of the field the basis lives in, Fraction(1) or
    GaussianRational(1); an empty system has no entries to read it from.
    """
    zero = one - one
    reduced, pivots = rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def invert(matrix: list[list]) -> list[list]:
    """Exact inverse of a square matrix; raises ZeroDivisionError if singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [r[n:] for r in reduced]


def determinant(matrix: list[list]):
    """Exact determinant by fraction-free elimination of the cleared integer rows."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n == 0:
        return Fraction(1)
    m, dens, ring = _cleared(matrix)
    steps: list = []
    if len(_eliminate(m, ring, steps)) < n:
        return ring.over([ring.zero], ring.one)[0]
    # The final rows are diagonal, det(final) = det(cleared) * prod(p / g)
    # over the steps, and det(cleared) = det(matrix) * prod(dens).
    diagonal = functools.reduce(ring.mul, (m[k][k] for k in range(n)), ring.one)
    pivots = functools.reduce(ring.mul, (p for p, _ in steps), ring.one)
    scale = Fraction(math.prod(g for _, g in steps), math.prod(dens))
    return ring.over([diagonal], pivots)[0] * scale
