"""Read ``maps.pullback``'s numerators back as a polynomial, for tests that compare
pullbacks term by term."""

from tubecert.maps import pullback
from tubecert.poly import HermitianPolynomial, _canonical


def canonical_pullback(rho, f) -> HermitianPolynomial:
    """rho o f as a canonical HermitianPolynomial: ``pullback``'s num / D, one gcd per term."""
    num, d = pullback(rho, f)
    return HermitianPolynomial._raw(f.space_in, _canonical(num, d))
