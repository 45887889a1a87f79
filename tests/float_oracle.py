"""Test-only float oracles for the printed maps and graphs.

The package keeps every polynomial exact and reads a printed map only at points
(``RationalizedEquivalence.printed_image``).  :class:`FloatPoly` is a float
polynomial, term maps {exponent tuple: complex} multiplied, substituted and
differentiated term by term, for tests that need a printed object as a whole
polynomial with irrational coefficients: the printed maps pulled back
coefficient by coefficient, and the sigma graph as printed.
:func:`printed_map_error` reads the printed map at seeded points, as the
``path = float`` check does.
"""

from operator import add


class FloatPoly:
    """A polynomial in 2n slots (z_1..z_n, zb_1..zb_n) with complex coefficients."""

    def __init__(self, width: int, terms: dict):
        self.width = width
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def of(p) -> "FloatPoly":
        """An exact HermitianPolynomial with each coefficient converted by complex()."""
        return FloatPoly(2 * p.space.n, {e: complex(c) for e, c in p.terms.items()})

    @staticmethod
    def variable(width: int, index: int) -> "FloatPoly":
        return FloatPoly(width, {tuple(int(i == index) for i in range(width)): 1.0})

    def __add__(self, other):
        if not isinstance(other, FloatPoly):
            other = FloatPoly(self.width, {(0,) * self.width: complex(other)})
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return FloatPoly(self.width, out)

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-other if isinstance(other, FloatPoly) else -complex(other))

    def __mul__(self, other):
        if not isinstance(other, FloatPoly):
            return FloatPoly(self.width, {e: c * other for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return FloatPoly(self.width, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = FloatPoly(self.width, {(0,) * self.width: 1.0})
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self) -> "FloatPoly":
        n = self.width // 2
        return FloatPoly(self.width, {e[n:] + e[:n]: c.conjugate() for e, c in self.terms.items()})

    def substitute(self, images: list) -> "FloatPoly":
        """Replace slot i by images[i]; every image has the same width."""
        out = FloatPoly(images[0].width, {})
        for e, c in self.terms.items():
            term = FloatPoly(images[0].width, {(0,) * images[0].width: c})
            for image, k in zip(images, e):
                if k:
                    term = term * image**k
            out = out + term
        return out

    def pullback(self, components: list) -> "FloatPoly":
        """z_i -> components[i] and zb_i -> their conjugates."""
        return self.substitute(list(components) + [c.conjugate() for c in components])

    def partial(self, index: int) -> "FloatPoly":
        out = {}
        for e, c in self.terms.items():
            if e[index]:
                d = list(e)
                d[index] -= 1
                out[tuple(d)] = c * e[index]
        return FloatPoly(self.width, out)

    def evaluate(self, values) -> complex:
        """The value at the given values of all slots."""
        total = 0j
        for e, c in self.terms.items():
            for v, k in zip(values, e):
                c = c * v**k
            total += c
        return total

    def max_abs_coefficient(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)


def printed_components(rationalized) -> list[FloatPoly]:
    """The printed map diag(r_i^(1/4)) o rational_map as float polynomials."""
    return [FloatPoly.of(c) * float(r) ** 0.25
            for c, r in zip(rationalized.rational_map.components, rationalized.radicands)]


def printed_pullback(rationalized) -> tuple[complex, float]:
    """The printed map's certificate on floats: the factor c read off at the first
    monomial of rho_source, and the largest coefficient of
    rho_target o F - c * rho_source."""
    pulled = FloatPoly.of(rationalized.target_rho).pullback(printed_components(rationalized))
    source = rationalized.source_rho
    lead = min(source.terms)
    factor = pulled.terms.get(lead, 0j) / complex(source.terms[lead])
    return factor, (pulled - FloatPoly.of(source) * factor).max_abs_coefficient()


def printed_map_error(rationalized, factor, rng, points: int = 20) -> float:
    """The largest |rho_target(F(z)) - factor * rho_source(z)| of the printed map F,
    read with ``printed_image``, at seeded points z with |Re z_i|, |Im z_i| < 0.7."""
    worst = 0.0
    for _ in range(points):
        z = [complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
             for _ in range(rationalized.source_rho.space.n)]
        image = rationalized.printed_image(z)
        worst = max(worst, abs(rationalized.target_rho.evaluate_complex(image)
                               - factor * rationalized.source_rho.evaluate_complex(z)))
    return worst
