"""Sparse polynomials in holomorphic variables z_1..z_n and their formal conjugates.

A polynomial lives in a :class:`VariableSpace` with 2n variables: indices
0..n-1 are z_1..z_n and indices n..2n-1 are the formal conjugates zb_1..zb_n.
Terms are stored sparsely as ``{exponent tuple: coefficient}``; the
representation is canonical (no zero coefficients, merged monomials), so two
polynomials are identical iff their term maps are equal.

Every coefficient is exact, a :class:`~tubecert.scalars.GaussianRational`; a
``float`` or ``complex`` coefficient is a TypeError.  Floats appear only as the
values of :meth:`HermitianPolynomial.evaluate_values` at complex points, which
is how the Levi and tube-Hessian numerics and the printed maps are read.  A
polynomial compiles its float evaluation on first use (each term's coefficient
as a complex and its nonzero (slot, power) pairs) and keeps it, so a kept
derivative read at many points converts its coefficients once.  Exact values
(:meth:`HermitianPolynomial.evaluate`) are summed as Gaussian-integer numerators
over one denominator and reduced once.

Products and substitutions run on numerator pairs {exps: (a, b)} over one
denominator: Gaussian integers over the lcm of the coefficients' denominators,
summed as integers.  One kernel, :func:`_substitute_num`, runs every
substitution: :meth:`HermitianPolynomial.substitute` and a composition
(:func:`~tubecert.maps.compose`) are canonicalised once per output term; a
pullback (:func:`~tubecert.maps.pullback`) stays on numerators, so a
certificate canonicalises only a residual that fails.

Real-valued polynomials (defining functions) are those fixed by conjugation;
``Re z_k`` is represented as (z_k + zb_k)/2 so every defining function is an
ordinary polynomial here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul

from .errors import DomainError, SpaceError
from .scalars import (GaussianRational, Record, _gaussian_mul, _over_lcm, _power, _reduce,
                      as_rational, format_gaussian)


class VariableSpace(Record):
    """n holomorphic variables plus their formal conjugates (2n in total)."""

    __slots__ = _fields = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise DomainError("a variable space needs at least one variable")
        object.__setattr__(self, "n", n)

    @property
    def names(self) -> list[str]:
        return [f"z{i + 1}" for i in range(self.n)] + [
            f"zb{i + 1}" for i in range(self.n)
        ]

    def unit(self, index: int) -> tuple[int, ...]:
        """Exponent tuple of the single variable with this index."""
        if not 0 <= index < 2 * self.n:
            raise SpaceError(f"variable index {index} out of range for space of {self.n}")
        return tuple(int(i == index) for i in range(2 * self.n))

    def complex_values(self, point) -> list[complex]:
        """The values of z_1..z_n and zb_1..zb_n at a point of C^n, as complex."""
        vals = [complex(v) for v in point]
        if len(vals) != self.n:
            raise SpaceError(f"need {self.n} values, got {len(vals)}")
        return vals + [v.conjugate() for v in vals]

    def conj_index(self, i: int) -> int:
        """Index of the formal conjugate of variable i."""
        return i + self.n if i < self.n else i - self.n


def _swap_exponents(exps: tuple[int, ...], n: int) -> tuple[int, ...]:
    return exps[n:] + exps[:n]


def _coerce_exact(c):
    if isinstance(c, GaussianRational):
        return c
    if isinstance(c, (int, Fraction)):
        return GaussianRational(c)
    raise TypeError(f"polynomial coefficient must be rational, got {type(c).__name__}")


def _numerators(terms: dict) -> tuple[dict, int]:
    """A term map as numerator pairs {exps: (a, b)}: Gaussian integers over the lcm
    D > 0 of the coefficients' denominators."""
    pairs, d = _over_lcm(terms.values())
    return dict(zip(terms, pairs)), d


def _num_mul(p: dict, q: dict) -> dict:
    """The product of two numerator maps, over the product of their denominators.

    A sum that cancels is dropped at once, so the terms come out in the order of
    the term-by-term product of coefficients.
    """
    out: dict = {}
    for e1, (a1, b1) in p.items():
        for e2, (a2, b2) in q.items():
            e = tuple(map(add, e1, e2))
            a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            s = out.get(e)
            if s is not None:
                a, b = a + s[0], b + s[1]
            if a or b:
                out[e] = (a, b)
            elif s is not None:
                del out[e]
    return out


def _canonical(num: dict, d: int) -> dict:
    """Numerators over d back to a canonical term map: one gcd per term."""
    return {e: _reduce(a, b, d) for e, (a, b) in num.items()}


def _conjugate_numerators(image: tuple[dict, int], n: int) -> tuple[dict, int]:
    """The formal conjugate of a polynomial given as numerators (num, D) in a space of
    n variables: each z_i swapped with zb_i and each b negated, over the same D."""
    num, d = image
    return {_swap_exponents(e, n): (a, -b) for e, (a, b) in num.items()}, d


def _substitute_num(terms: dict, image, target: VariableSpace) -> tuple[dict, int]:
    """The composition behind :meth:`HermitianPolynomial.substitute`,
    :func:`~tubecert.maps.compose` and :func:`~tubecert.maps.pullback`, as
    numerators (num, D): the result is num / D.

    ``image(i)`` gives image i as numerators (num_i, D_i); it is called once for
    each variable that occurs, and the powers stay numerator maps (z_i^k over
    D_i^k).  Every term c * prod z_i^k is summed over one denominator D, the lcm
    of c.d * prod D_i^k, with the integer multiplier D // (c.d * prod D_i^k).
    Nothing is canonicalised.
    """
    held: dict = {}
    for e in terms:
        for i, k in enumerate(e):
            if k and i not in held:
                held[i] = image(i)
    parts = [(c._a, c._b, c._d) for c in terms.values()]
    dens = [d * math.prod(held[i][1] ** k for i, k in enumerate(e) if k)
            for e, (_, _, d) in zip(terms, parts)]
    common = math.lcm(*dens)
    zero = (0,) * (2 * target.n)
    powers: dict = {}
    out: dict = {}
    for e, (a, b, _), den in zip(terms, parts, dens):
        term = None
        for i, k in enumerate(e):
            if k:
                if (i, k) not in powers:
                    powers[i, k] = _power(held[i][0], k, _num_mul)
                term = powers[i, k] if term is None else _num_mul(term, powers[i, k])
        m = common // den
        a, b = a * m, b * m
        for ex, (x, y) in ({zero: (a, b)} if term is None else term).items():
            if term is not None:
                x, y = x * a - y * b, x * b + y * a
            s = out.get(ex)
            if s is not None:
                x, y = x + s[0], y + s[1]
            if x or y:
                out[ex] = (x, y)
            elif s is not None:
                del out[ex]
    return out, common


class HermitianPolynomial(Record):
    """Sparse polynomial over GaussianRational in z and zb variables."""

    # _floats, the compiled float evaluation, is set on first use (evaluate_values).
    _fields = ("space", "terms")
    __slots__ = _fields + ("_floats",)

    # Every polynomial is exact; tubebench/tracer.py still reads this flag.
    exact = True

    def __init__(self, space: VariableSpace, terms=None):
        canon = {}
        if terms:
            width = 2 * space.n
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != width or any(e < 0 for e in exps):
                    raise SpaceError(f"bad exponent tuple {exps} for space of {space.n}")
                c = _coerce_exact(coeff)
                if exps in canon:
                    c = canon[exps] + c
                if c.is_zero():
                    canon.pop(exps, None)
                else:
                    canon[exps] = c
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", canon)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(space: VariableSpace) -> "HermitianPolynomial":
        return HermitianPolynomial(space, {})

    @staticmethod
    def constant(space: VariableSpace, c) -> "HermitianPolynomial":
        return HermitianPolynomial(space, {(0,) * (2 * space.n): c})

    @staticmethod
    def variable(space: VariableSpace, index: int) -> "HermitianPolynomial":
        return HermitianPolynomial(space, {space.unit(index): 1})

    @staticmethod
    def re_variable(space: VariableSpace, index: int) -> "HermitianPolynomial":
        """Re z_{index+1} as the exact polynomial (z + zb)/2."""
        z = HermitianPolynomial.variable(space, index)
        zb = HermitianPolynomial.variable(space, space.conj_index(index))
        return (z + zb) * Fraction(1, 2)

    # -- ring operations --------------------------------------------------

    def _check_compat(self, other: "HermitianPolynomial"):
        if self.space != other.space:
            raise SpaceError(f"space mismatch: {self.space} vs {other.space}")

    def __add__(self, other):
        if not isinstance(other, HermitianPolynomial):
            other = HermitianPolynomial.constant(self.space, other)
        self._check_compat(other)
        merged = dict(self.terms)
        for exps, c in other.terms.items():
            s = merged.get(exps)
            s = c if s is None else s + c
            if s.is_zero():
                merged.pop(exps, None)
            else:
                merged[exps] = s
        return self._raw(self.space, merged)

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.space, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, HermitianPolynomial):
            other = HermitianPolynomial.constant(self.space, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, HermitianPolynomial):
            coeff = _coerce_exact(other)
            if coeff.is_zero():
                return HermitianPolynomial.zero(self.space)
            return self._raw(self.space, {e: c * coeff for e, c in self.terms.items()})
        self._check_compat(other)
        (p, dp), (q, dq) = _numerators(self.terms), _numerators(other.terms)
        return self._raw(self.space, _canonical(_num_mul(p, q), dp * dq))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise DomainError("polynomial powers must be nonnegative integers")
        if k == 0:
            return HermitianPolynomial.constant(self.space, 1)
        return _power(self, k, mul)

    @classmethod
    def _raw(cls, space, terms):
        """Internal: build from an already-canonical term map (no re-coercion)."""
        p = object.__new__(cls)
        object.__setattr__(p, "space", space)
        object.__setattr__(p, "terms", terms)
        return p

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_holomorphic(self) -> bool:
        """True when no conjugate variable occurs."""
        n = self.space.n
        return all(sum(e[n:]) == 0 for e in self.terms)

    def first_monomial(self):
        """Lexicographically smallest exponent tuple (canonical term order)."""
        if not self.terms:
            return None
        return min(self.terms)

    def coefficient(self, exps):
        exps = tuple(exps)
        c = self.terms.get(exps)
        if c is not None:
            return c
        return GaussianRational(0)

    def conjugate(self) -> "HermitianPolynomial":
        """Swap each z_i with zb_i and conjugate all coefficients (an involution)."""
        n = self.space.n
        return self._raw(
            self.space,
            {_swap_exponents(e, n): c.conjugate() for e, c in self.terms.items()},
        )

    def is_real_valued(self) -> bool:
        """True iff the polynomial is fixed by conjugation."""
        return self.conjugate() == self

    # -- calculus and decomposition ------------------------------------------

    def partial(self, var: int) -> "HermitianPolynomial":
        """Formal partial derivative, treating all 2n variables as independent."""
        if not 0 <= var < 2 * self.space.n:
            raise SpaceError(f"variable index {var} out of range")
        out = {}
        for e, c in self.terms.items():
            k = e[var]
            if k == 0:
                continue
            d = list(e)
            d[var] = k - 1
            out[tuple(d)] = c * k
        return self._raw(self.space, out)

    def substitute(self, images: list["HermitianPolynomial"]) -> "HermitianPolynomial":
        """Composition: replace variable i by images[i] for all 2n variables."""
        if len(images) != 2 * self.space.n:
            raise SpaceError(
                f"substitution needs {2 * self.space.n} images, got {len(images)}"
            )
        target = images[0].space
        for img in images:
            if img.space != target:
                raise SpaceError("substitution images live in different spaces")
        num = _substitute_num(self.terms, lambda i: _numerators(images[i].terms), target)
        return self._raw(target, _canonical(*num))

    def evaluate(self, point):
        """Evaluate at exact values for the n holomorphic variables.

        Conjugate variables receive conjugated values automatically.  Exact in,
        exact out: each term is a Gaussian-integer numerator over its own
        denominator, and the terms are summed over their lcm with one gcd.
        """
        vals = [v if isinstance(v, GaussianRational) else GaussianRational(as_rational(v))
                for v in point]
        if len(vals) != self.space.n:
            raise SpaceError(f"need {self.space.n} values, got {len(vals)}")
        vals = [(v._a, v._b, v._d) for v in vals]
        vals += [(a, -b, d) for a, b, d in vals]
        powers: dict = {}
        parts = []
        for e, c in self.terms.items():
            a, b, d = c._a, c._b, c._d
            for i, k in enumerate(e):
                if k:
                    p = powers.get((i, k))
                    if p is None:
                        x, y, dv = vals[i]
                        p = powers[i, k] = (*_power((x, y), k, _gaussian_mul), dv**k)
                    x, y, dk = p
                    a, b, d = a * x - b * y, a * y + b * x, d * dk
            parts.append((a, b, d))
        common = math.lcm(*(d for _, _, d in parts))
        return _reduce(sum(a * (common // d) for a, _, d in parts),
                       sum(b * (common // d) for _, b, d in parts), common)

    def evaluate_complex(self, point) -> complex:
        """Evaluate at complex values, in complex arithmetic."""
        return self.evaluate_values(self.space.complex_values(point))

    def evaluate_values(self, vals) -> complex:
        """Evaluate at the 2n values of VariableSpace.complex_values, made once per point.

        The polynomial is compiled on first use: each term's coefficient as a
        complex and its nonzero (slot, power) pairs, in slot order.  Each term
        is then coefficient * vals[i]**k * ... and the terms are summed in
        order from 0j, so the value is the same float as a walk over every
        exponent slot gives.
        """
        try:
            compiled = self._floats
        except AttributeError:
            compiled = tuple(
                (complex(c._a / c._d, c._b / c._d),  # complex(c), without the method call
                 tuple((i, k) for i, k in enumerate(e) if k))
                for e, c in self.terms.items())
            object.__setattr__(self, "_floats", compiled)
        total = 0j
        for term, factors in compiled:
            for i, k in factors:
                term *= vals[i] ** k
            total += term
        return total

    # -- comparison and printing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, HermitianPolynomial):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __repr__(self):
        return f"HermitianPolynomial({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def format_poly(p: HermitianPolynomial) -> str:
    """Canonical plain-text literal, e.g. ``(3/5+4/5i)*z1^2*zb1^1``.

    Terms appear in lexicographic exponent order, so equal polynomials print
    identically.
    """
    if not p.terms:
        return "(0)"
    names = p.space.names
    parts = []
    for exps in sorted(p.terms):
        c = p.terms[exps]
        factors = [f"({format_gaussian(c)})"]
        for i, k in enumerate(exps):
            if k:
                factors.append(f"{names[i]}^{k}")
        parts.append("*".join(factors))
    return " + ".join(parts)


class RealPolynomial(Record):
    """A polynomial in the real coordinates x_1..x_n (graph functions of tube bases).

    Internally a HermitianPolynomial using only the holomorphic variable slots,
    with real coefficients, read as a function on R^n.  Supplies the real
    calculus the tube shortcuts need (values and Hessians) and the lift that
    turns a graph x_{n+1} = f(x) into a tube hypersurface in C^{n+1}.  The
    second derivatives are differentiated once, on first use, and kept where
    they are not identically zero; equality and hashing read only ``poly``.
    """

    _fields = ("poly",)
    __slots__ = _fields + ("_hess",)

    def __init__(self, poly: HermitianPolynomial):
        n = poly.space.n
        for e, c in poly.terms.items():
            if any(e[n:]):
                raise SpaceError("real polynomial must not use conjugate variables")
            if c.conjugate() != c:
                raise DomainError("real polynomial has a non-real coefficient")
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "_hess", None)

    @property
    def space(self) -> VariableSpace:
        return self.poly.space

    def evaluate_real(self, xs) -> float:
        """Evaluate at a real point, as a float."""
        return self.poly.evaluate_complex([complex(float(x), 0.0) for x in xs]).real

    def hessian_at(self, xs) -> list[list[float]]:
        """Real symmetric Hessian matrix, as floats."""
        n = self.space.n
        if self._hess is None:
            rows = (self.poly.partial(i) for i in range(n))
            hess = tuple((i, j, d) for i, di in enumerate(rows) for j in range(n)
                         if not (d := di.partial(j)).is_zero())
            object.__setattr__(self, "_hess", hess)
        vals = self.space.complex_values(complex(float(x), 0.0) for x in xs)
        out = [[0.0] * n for _ in range(n)]
        for i, j, d in self._hess:
            out[i][j] = d.evaluate_values(vals).real
        return out

    def __str__(self):
        # Print with x-names for readability.
        return format_poly(self.poly).replace("z", "x")

    def __repr__(self):
        return f"RealPolynomial({format_poly(self.poly)!r})"
