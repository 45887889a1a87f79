"""Build integer affine maps from rational entries, and read them back, for tests that
write them as Fractions; and the full 4x4 transitive composite, an oracle for
``catalog.orbit_point``."""

import math
from fractions import Fraction

from tubecert.catalog import make_generator
from tubecert.maps import AffineMapR, lift_affine


def rational_affine(matrix, translation) -> AffineMapR:
    """x |-> matrix @ x + translation, entries given as ints, Fractions or strings like '3/2'."""
    mat = [[Fraction(x) for x in row] for row in matrix]
    tr = [Fraction(x) for x in translation]
    d = math.lcm(*(x.denominator for x in tr), *(x.denominator for row in mat for x in row))
    return AffineMapR(tuple(tuple(int(x * d) for x in row) for row in mat),
                      tuple(int(x * d) for x in tr), d)


def affine_parts(f: AffineMapR):
    """(matrix, translation) of f as Fraction tuples, read off by ``apply`` at 0 and e_1..e_n."""
    n = len(f.t)
    translation = tuple(f.apply([0] * n))
    columns = [
        [a - t for a, t in zip(f.apply([int(i == j) for i in range(n)]), translation)]
        for j in range(n)
    ]
    return tuple(zip(*columns)), translation


def affine_det(f: AffineMapR):
    """det of f's linear part, by exact elimination on the lift to C^n."""
    return lift_affine(f).linear_determinant()


def composed_generator(alpha, q, r, s, t) -> AffineMapR:
    """The transitive composite phi(q) o mu(s) o nu(t) o psi(r) as one 4x4 map: scaling
    after shear after the two translations, with the parameters in the solver's order."""
    return (
        make_generator("phi", alpha, q)
        .compose(make_generator("mu", alpha, s))
        .compose(make_generator("nu", alpha, t))
        .compose(make_generator("psi", alpha, r))
    )
