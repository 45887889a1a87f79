"""Trace operator, normal-form trace conditions, umbilicity, and the scaling relation.

A surface presented in normal form is the graph

    Re w = <z, z> + sum of bigraded components F_(k,l) with k, l >= 2,

where <z, z> is a non-degenerate Hermitian form.  The trace operator with
respect to that form,

    tr = sum_{a,b} g_{ab} d^2 / (dz_a dzb_b),   g = (h)^{-1},

lowers bidegree by (1,1), and the normal-form conditions are

    tr F_(2,2) = 0,   tr^2 F_(2,3) = 0,   tr^3 F_(3,3) = 0,

all checked here with zero remainder on the exact tower.  Only the
v-independent polynomial truncation is modeled: every surface this package
subjects to these checks is of that kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from . import exactla, lie
from .errors import DomainError, SpaceError
from .maps import HoloPolyMap, pullback
from .poly import HermitianPolynomial, VariableSpace
from .scalars import to_tower


class HermitianForm:
    """An m x m Hermitian coefficient matrix h with its exact inverse g.

    The form is <z, z> = sum h[a][b] z_a zb_b.
    """

    __slots__ = ("h", "g", "m")

    def __init__(self, rows):
        h = tuple(tuple(to_tower(x) for x in row) for row in rows)
        m = len(h)
        if any(len(row) != m for row in h):
            raise SpaceError("form matrix must be square")
        for i in range(m):
            for j in range(m):
                if h[i][j] != h[j][i].conjugate():
                    raise DomainError("form matrix must be Hermitian")
        g = exactla.invert([list(row) for row in h])
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", tuple(tuple(row) for row in g))
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianForm is immutable")

    def poly(self, space: VariableSpace | None = None) -> HermitianPolynomial:
        """<z, z> as a polynomial (in its own m-variable space by default)."""
        space = space or VariableSpace(self.m)
        if space.n < self.m:
            raise SpaceError("space too small for the form")
        total = HermitianPolynomial.zero(space)
        for a in range(self.m):
            for b in range(self.m):
                if not self.h[a][b].is_zero():
                    total = total + (
                        HermitianPolynomial.variable(space, a)
                        * HermitianPolynomial.variable(space, space.n + b)
                        * self.h[a][b]
                    )
        return total

    def __eq__(self, other):
        if not isinstance(other, HermitianForm):
            return NotImplemented
        return self.h == other.h

    def __hash__(self):
        return hash(self.h)


@cache  # an immutable value whose construction inverts the matrix exactly
def pairing_form() -> HermitianForm:
    """The form z1 zb2 + z2 zb1 + |z3|^2 (signature (2,1), equal to its inverse)."""
    return HermitianForm(lie.FORM_PAIRING)


def sign_to_eps(sign: str) -> int:
    """The quartic term's sign: +1 for the plus model '+', -1 for the minus model '-'."""
    if sign == "+":
        return 1
    if sign == "-":
        return -1
    raise DomainError(f"sign must be '+' or '-', got {sign!r}")


def trace_op(p: HermitianPolynomial, form: HermitianForm) -> HermitianPolynomial:
    """sum_{a,b} g_{ab} d^2 p / (dz_a dzb_b); exact and linear, lowers bidegree by (1,1)."""
    if p.space.n < form.m:
        raise SpaceError("polynomial space smaller than the form")
    n = p.space.n
    total = HermitianPolynomial.zero(p.space)
    for a in range(form.m):
        for b in range(form.m):
            gab = form.g[a][b]
            if not gab.is_zero():
                total = total + p.partial(a).partial(n + b) * gab
    return total


@dataclass(frozen=True)
class NormalFormSurface:
    """Normal-form data: the Hermitian form plus bigraded graph components.

    ``components`` maps (k, l) with k, l >= 2 to a bigraded-pure polynomial of
    z-degree k and zb-degree l (v-independent truncation).
    """

    form: HermitianForm
    components: tuple  # sorted tuple of ((k, l), polynomial)

    @staticmethod
    def build(form: HermitianForm, components: dict) -> "NormalFormSurface":
        items = []
        for (k, l), poly in sorted(components.items()):
            if k < 2 or l < 2:
                raise DomainError("normal-form components need bidegrees k, l >= 2")
            if poly.bigraded_component(k, l) != poly:
                raise DomainError(f"component ({k},{l}) is not bigraded-pure")
            items.append(((k, l), poly))
        return NormalFormSurface(form, tuple(items))

    def component(self, k: int, l: int) -> HermitianPolynomial:
        for (kk, ll), poly in self.components:
            if (kk, ll) == (k, l):
                return poly
        return HermitianPolynomial.zero(VariableSpace(self.form.m))


@dataclass(frozen=True)
class TraceConditionReport:
    name: str
    passed: bool
    residual: HermitianPolynomial


def normal_form_check(s: NormalFormSurface) -> list[TraceConditionReport]:
    """Evaluate tr F_(2,2), tr^2 F_(2,3), tr^3 F_(3,3) exactly."""
    reports = []
    for name, (k, l), power in (
        ("tr F_(2,2)", (2, 2), 1),
        ("tr^2 F_(2,3)", (2, 3), 2),
        ("tr^3 F_(3,3)", (3, 3), 3),
    ):
        poly = s.component(k, l)
        for _ in range(power):
            poly = trace_op(poly, s.form)
        reports.append(TraceConditionReport(name, poly.is_zero(), poly))
    return reports


@dataclass(frozen=True)
class UmbilicityReport:
    umbilic: bool
    witness: HermitianPolynomial | None


def umbilicity_at_origin(s: NormalFormSurface) -> UmbilicityReport:
    """Non-umbilic at the origin iff the (2,2) component is a nonzero polynomial."""
    f22 = s.component(2, 2)
    if f22.is_zero():
        return UmbilicityReport(True, None)
    return UmbilicityReport(False, f22)


@dataclass(frozen=True)
class ScalingReport:
    form_preserved: bool
    relation_holds: bool


def linear_scaling_check(s: NormalFormSurface, U, lam) -> ScalingReport:
    """Check F_(2,2)(U z, conj(U z)) = (1/lam^2) F_(2,2)(z, zb) for lam > 0, exactly.

    U's entries and lam must be exact (int, Fraction, GaussianRational or a
    unimodular phase); a float is a TypeError, and a lam that is not a
    positive rational a DomainError.  Whether U preserves the surface's
    Hermitian form is reported beside the relation.  This is the necessary
    condition every linear isotropy of a non-umbilic normal-form surface
    satisfies.
    """
    lam = to_tower(lam)
    if not lam.is_real() or lam.re <= 0:
        raise DomainError(f"the scale lam must be a positive rational, got {lam}")
    space = VariableSpace(s.form.m)
    comps = [
        HermitianPolynomial(space, {space.unit(j): to_tower(x) for j, x in enumerate(row)})
        for row in U
    ]
    umap = HoloPolyMap(space, space, comps)
    form_poly, f22 = s.form.poly(space), s.component(2, 2)
    form_res = pullback(form_poly, umap) - form_poly
    residual = pullback(f22, umap) - f22 * (1 / lam ** 2)
    return ScalingReport(form_res.is_zero(), residual.is_zero())


def model_normal_form(sign: str) -> NormalFormSurface:
    """The quartic models as normal-form data: F_(2,2) = +-(z1 zb1)^2 over the pairing form."""
    space = VariableSpace(3)
    z1 = HermitianPolynomial.variable(space, 0)
    zb1 = HermitianPolynomial.variable(space, 3)
    eps = sign_to_eps(sign)
    return NormalFormSurface.build(pairing_form(), {(2, 2): z1**2 * zb1**2 * eps})
