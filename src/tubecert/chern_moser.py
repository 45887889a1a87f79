"""Trace operator, normal-form trace conditions and the scaling relation of the quartic models.

The models M_plus / M_minus are in Chern-Moser normal form: each is the graph

    Re w = <z, z> + F_(2,2),   F_(2,2) = +-|z1|^4,

over the pairing form <z, z> = z1 zb2 + z2 zb1 + |z3|^2, whose matrix is
``lie.FORM_PAIRING``.  The trace operator with respect to that form,

    tr = sum_{a,b} g_{ab} d^2 / (dz_a dzb_b),   g = (h)^{-1},

lowers bidegree by (1,1), and the normal-form conditions are

    tr F_(2,2) = 0,   tr^2 F_(2,3) = 0,   tr^3 F_(3,3) = 0,

all checked here with zero remainder on the exact tower.  A model is
non-umbilic at the origin because its F_(2,2) is a nonzero polynomial.  Only
the v-independent polynomial truncation is modeled: every surface this
package subjects to these checks is of that kind.
"""

from __future__ import annotations

from functools import cache

from . import exactla, lie
from .errors import DomainError, SpaceError
from .maps import HoloPolyMap, invariance_certificate
from .poly import HermitianPolynomial, VariableSpace
from .scalars import to_tower


@cache  # an exact 3x3 inversion, done once
def pairing_inverse() -> tuple:
    """g = h^{-1} for the pairing form h (h is an involution, so g = h)."""
    return tuple(tuple(row) for row in exactla.invert([list(row) for row in lie.FORM_PAIRING]))


@cache  # polynomials and spaces are immutable; the normal-form checks reuse it
def pairing_poly(space: VariableSpace) -> HermitianPolynomial:
    """<z, z> = sum h[a][b] z_a zb_b over the first three variables of space."""
    total = HermitianPolynomial.zero(space)
    for a, row in enumerate(lie.FORM_PAIRING):
        for b, h in enumerate(row):
            if not h.is_zero():
                total = total + (
                    HermitianPolynomial.variable(space, a)
                    * HermitianPolynomial.variable(space, space.n + b)
                    * h
                )
    return total


def sign_to_eps(sign: str) -> int:
    """The quartic term's sign: +1 for the plus model '+', -1 for the minus model '-'."""
    if sign == "+":
        return 1
    if sign == "-":
        return -1
    raise DomainError(f"sign must be '+' or '-', got {sign!r}")


def trace_op(p: HermitianPolynomial, g) -> HermitianPolynomial:
    """sum_{a,b} g_{ab} d^2 p / (dz_a dzb_b); exact and linear, lowers bidegree by (1,1).

    g is the inverse of the form's matrix: ``pairing_inverse()`` for the models.
    """
    if p.space.n < len(g):
        raise SpaceError("polynomial space smaller than the form")
    n = p.space.n
    total = HermitianPolynomial.zero(p.space)
    for a, row in enumerate(g):
        for b, gab in enumerate(row):
            if not gab.is_zero():
                total = total + p.partial(a).partial(n + b) * gab
    return total


def model_normal_form(sign: str) -> dict:
    """The quartic models' normal-form components: {(2, 2): +-(z1 zb1)^2}."""
    space = VariableSpace(3)
    z1 = HermitianPolynomial.variable(space, 0)
    zb1 = HermitianPolynomial.variable(space, 3)
    return {(2, 2): z1**2 * zb1**2 * sign_to_eps(sign)}


def normal_form_check(components: dict) -> list[tuple[str, HermitianPolynomial]]:
    """(name, residual) of tr F_(2,2), tr^2 F_(2,3) and tr^3 F_(3,3) over the pairing form.

    ``components`` maps (k, l) to F_(k,l); an absent component is zero.  A
    condition holds exactly when its residual is the zero polynomial.
    """
    g, zero = pairing_inverse(), HermitianPolynomial.zero(VariableSpace(3))
    out = []
    for name, bidegree, power in (
        ("tr F_(2,2)", (2, 2), 1),
        ("tr^2 F_(2,3)", (2, 3), 2),
        ("tr^3 F_(3,3)", (3, 3), 3),
    ):
        poly = components.get(bidegree, zero)
        for _ in range(power):
            poly = trace_op(poly, g)
        out.append((name, poly))
    return out


def linear_scaling_check(f22: HermitianPolynomial, U, lam) -> tuple[bool, bool]:
    """(U preserves <z, z>, F_(2,2)(U z, conj(U z)) = (1/lam^2) F_(2,2)(z, zb)), exactly.

    U's entries and lam must be exact (int, Fraction or GaussianRational); a
    float is a TypeError, and a lam that is not a positive rational a
    DomainError.  Both identities are invariance certificates, with factor 1
    for the form and 1/lam^2 for F_(2,2).  The relation is the necessary
    condition every linear isotropy of a non-umbilic normal-form surface
    satisfies.
    """
    lam = to_tower(lam)
    if not lam.is_real() or lam.re <= 0:
        raise DomainError(f"the scale lam must be a positive rational, got {lam}")
    space = VariableSpace(3)
    comps = [
        HermitianPolynomial(space, {space.unit(j): to_tower(x) for j, x in enumerate(row)})
        for row in U
    ]
    umap = HoloPolyMap(space, space, comps)
    form = invariance_certificate(pairing_poly(space), umap)
    if f22.is_zero():
        return form.exact and form.factor == 1, True
    scaled = invariance_certificate(f22, umap)
    return form.exact and form.factor == 1, scaled.exact and scaled.factor == 1 / lam ** 2
