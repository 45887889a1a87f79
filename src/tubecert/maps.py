"""Affine maps of R^n, holomorphic polynomial maps of C^n, and invariance certificates.

An affine map of R^n is a plain integer triple (m, t, d), x |-> (m x + t) / d, as
the catalog writes the gamma generators; it is lifted to C^n to be certified.

The central proof object is :class:`InvarianceCertificate`: the exact
statement ``rho o F = c * rho`` for a defining function rho and a map F,
with the factor c computed (not guessed) and the full residual polynomial
kept.  An ``exact`` certificate has an identically zero residual; a
positive factor means F preserves each side of the hypersurface, a negative
one means it swaps them.

Maps whose printed form carries irrational diagonal scalings (square and
fourth roots) are certified after conjugating away the diagonal part (see
:func:`pullback_diagonal_quartic`), which turns them into rational maps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from . import exactla
from .errors import DomainError, SpaceError
from .poly import (
    HermitianPolynomial,
    VariableSpace,
    _canonical,
    _conjugate_numerators,
    _numerators,
    _substitute_num,
)
from .scalars import GaussianRational, Record, _reduce, as_rational, fourth_root_exact


class AffineMapR(NamedTuple):
    """x |-> (m @ x + t) / d with integer entries and d > 0, as the catalog builds it.

    Nothing reduces the entries: ``compose`` multiplies integers and ``apply``
    returns Fractions, which reduce themselves.
    """

    m: tuple
    t: tuple
    d: int

    def apply(self, xs) -> list[Fraction]:
        xs = [as_rational(x) for x in xs]
        e = math.lcm(*(x.denominator for x in xs))
        v = [x.numerator * (e // x.denominator) for x in xs]
        d = self.d * e
        return [Fraction(sum(map(mul, row, v)) + t * e, d) for row, t in zip(self.m, self.t)]

    def compose(self, other: "AffineMapR") -> "AffineMapR":
        """self after other: (self o other)(x) = self(other(x))."""
        cols = tuple(zip(*other.m))
        return AffineMapR(
            tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.m),
            tuple(sum(map(mul, row, other.t)) + t * other.d for row, t in zip(self.m, self.t)),
            self.d * other.d,
        )


class HoloPolyMap(Record):
    """A polynomial map C^m -> C^k whose components are holomorphic (no conjugates)."""

    __slots__ = _fields = ("space_in", "space_out", "components")

    def __init__(self, space_in: VariableSpace, space_out: VariableSpace, components):
        components = tuple(components)
        if len(components) != space_out.n:
            raise SpaceError(
                f"map into {space_out.n} variables needs {space_out.n} components"
            )
        for comp in components:
            if comp.space != space_in:
                raise SpaceError("component lives in the wrong source space")
            if not comp.is_holomorphic():
                raise SpaceError("map components must be holomorphic (no zb variables)")
        self._fill(space_in, space_out, components)

    def _fill(self, space_in, space_out, components) -> "HoloPolyMap":
        for name, value in zip(self.__slots__, (space_in, space_out, tuple(components))):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _raw(cls, space_in, space_out, components) -> "HoloPolyMap":
        """Internal: a map whose components live in space_in and are holomorphic by
        construction (no checks)."""
        return object.__new__(cls)._fill(space_in, space_out, components)

    @staticmethod
    def identity(space: VariableSpace) -> "HoloPolyMap":
        return HoloPolyMap(
            space, space, [HermitianPolynomial.variable(space, i) for i in range(space.n)]
        )

    def apply(self, point) -> list:
        """Evaluate all components at an exact point, exactly."""
        return [c.evaluate(point) for c in self.components]

    def linear_part(self):
        """Matrix of degree-1 coefficients (rows: components, cols: variables)."""
        units = [self.space_in.unit(j) for j in range(self.space_in.n)]
        return [[comp.coefficient(e) for e in units] for comp in self.components]

    def linear_determinant(self):
        """Determinant of the linear part, exactly."""
        return exactla.determinant(self.linear_part())

    def __repr__(self):
        comps = "; ".join(str(c) for c in self.components)
        return f"HoloPolyMap({comps})"


def lift_affine(f: AffineMapR) -> HoloPolyMap:
    """Lift an affine map of R^n to the affine map of C^n with the same coefficients."""
    space, d = VariableSpace(len(f.t)), f.d
    units = [space.unit(j) for j in range(space.n)]
    comps = []
    for row, t in zip(f.m, f.t):
        terms = {(0,) * (2 * space.n): _reduce(t, 0, d)} if t else {}
        terms.update((e, _reduce(a, 0, d)) for e, a in zip(units, row) if a)
        comps.append(HermitianPolynomial._raw(space, terms))
    return HoloPolyMap._raw(space, space, comps)


def compose(f: HoloPolyMap, g: HoloPolyMap) -> HoloPolyMap:
    """Exact polynomial composition f o g (f after g)."""
    if g.space_out != f.space_in:
        raise SpaceError("composition spaces do not match")
    # g's components are cleared once; f's are holomorphic, so only z slots are read
    images = [_numerators(c.terms) for c in g.components]
    comps = [HermitianPolynomial._raw(g.space_in, _canonical(
        *_substitute_num(c.terms, images.__getitem__, g.space_in))) for c in f.components]
    return HoloPolyMap._raw(g.space_in, f.space_out, comps)


def pullback(rho: HermitianPolynomial, f: HoloPolyMap) -> tuple[dict, int]:
    """rho o f as Gaussian-integer numerators over one denominator (num, D): z_i -> f_i(z)
    and zb_i -> conjugate(f_i), each conjugate image read off f_i's numerators."""
    if rho.space != f.space_out:
        raise SpaceError("pullback: rho is not defined on the map's target space")
    n, m = f.space_out.n, f.space_in.n
    images = [_numerators(c.terms) for c in f.components]
    return _substitute_num(
        rho.terms, lambda i: images[i] if i < n else _conjugate_numerators(images[i - n], m),
        f.space_in)


class InvarianceCertificate(NamedTuple):
    """The checked statement ``pullback(rho, map) = factor * rho``.

    ``exact`` is True only when the residual polynomial is identically zero.
    """

    map: HoloPolyMap
    rho: HermitianPolynomial
    factor: GaussianRational
    exact: bool
    residual: HermitianPolynomial

    @property
    def factor_is_positive_real(self) -> bool:
        """True when the exact factor is a positive rational."""
        return self.factor.is_real() and self.factor.re > 0


def _proportional(num: dict, source: dict, lead) -> bool:
    """Whether num = c * source for numerator maps without zero entries, c read at lead.

    With rho_source = S / E and a pullback N / D, the identity N / D = factor * S / E
    is N * S_lead == N_lead * S, term by term in Gaussian integers.
    """
    if len(num) != len(source):
        return False
    (na, nb), (sa, sb) = num[lead], source[lead]
    for e, (x, y) in source.items():
        a, b = num.get(e, (0, 0))
        if a * sa - b * sb != na * x - nb * y or a * sb + b * sa != na * y + nb * x:
            return False
    return True


def equivalence_certificate(
    rho_target: HermitianPolynomial, f: HoloPolyMap, rho_source: HermitianPolynomial
) -> InvarianceCertificate:
    """Check ``rho_target o f = c * rho_source`` and return the certificate.

    The factor is read off at the lexicographically first monomial of
    rho_source (canonical term order makes this deterministic); if that
    monomial is absent from the pullback the certificate is inexact with the
    full pullback as residual.  The identity is tested on the pullback's
    numerators; only a certificate that fails builds its residual
    ``pullback - factor * rho_source`` over Q(i).  The certificate's ``rho``
    field records rho_source, the defining function being matched.
    """
    if rho_source.is_zero():
        raise DomainError("equivalence certificate needs a nonzero defining function")
    num, den = pullback(rho_target, f)
    lead = rho_source.first_monomial()
    at_lead = num.get(lead)
    if at_lead is None:
        p = HermitianPolynomial._raw(f.space_in, _canonical(num, den))
        return InvarianceCertificate(f, rho_source, GaussianRational(0), False, p)
    factor = _reduce(*at_lead, den) / rho_source.terms[lead]
    if _proportional(num, _numerators(rho_source.terms)[0], lead):
        zero = HermitianPolynomial.zero(f.space_in)
        return InvarianceCertificate(f, rho_source, factor, True, zero)
    residual = HermitianPolynomial._raw(f.space_in, _canonical(num, den)) - rho_source * factor
    return InvarianceCertificate(f, rho_source, factor, False, residual)


def invariance_certificate(rho: HermitianPolynomial, f: HoloPolyMap) -> InvarianceCertificate:
    """Certificate for ``rho o f = c * rho`` (self-equivalence of one surface)."""
    return equivalence_certificate(rho, f, rho)


def pullback_diagonal_quartic(rho: HermitianPolynomial, radicands: list) -> HermitianPolynomial:
    """Pull rho back along diag(r_1^(1/4), ..., r_n^(1/4)) with rational r_i > 0.

    Each monomial z^a zb^b picks up the factor prod r_i^((a_i+b_i)/4); the
    result is exact iff every such accumulated radicand is a perfect fourth
    power of a rational, and a DomainError names the first monomial that is
    not.  This is how square-root and fourth-root diagonal scalings are
    conjugated away without algebraic-number arithmetic.
    """
    rads = [as_rational(r) for r in radicands]
    if len(rads) != rho.space.n:
        raise SpaceError("need one radicand per holomorphic variable")
    if any(r <= 0 for r in rads):
        raise DomainError("diagonal quartic scales must be positive")
    n = rho.space.n
    out = {}
    for e, c in rho.terms.items():
        acc = Fraction(1)
        for i in range(n):
            k = e[i] + e[n + i]
            if k:
                acc *= rads[i] ** k
        root = fourth_root_exact(acc)
        if root is None:
            raise DomainError(f"diagonal scaling leaves the factor ({acc})^(1/4) on monomial {e}")
        out[e] = c * root
    return HermitianPolynomial(rho.space, out)
