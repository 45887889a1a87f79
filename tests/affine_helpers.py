"""Build integer affine maps from rational entries, for tests that write them as Fractions."""

import math
from fractions import Fraction

from tubecert.maps import AffineMapR


def rational_affine(matrix, translation) -> AffineMapR:
    """x |-> matrix @ x + translation, entries given as ints, Fractions or strings like '3/2'."""
    mat = [[Fraction(x) for x in row] for row in matrix]
    tr = [Fraction(x) for x in translation]
    d = math.lcm(*(x.denominator for x in tr), *(x.denominator for row in mat for x in row))
    return AffineMapR([[int(x * d) for x in row] for row in mat], [int(x * d) for x in tr], d)
