"""Generalized binomial coefficients, the top-degree intersection pairing,
and the secant-variety degree with its classical cross-check."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import mul

from .ring import AmbientClass, _is_int, _require_curve_degree

__all__ = [
    "THETA_SELF_INTERSECTION",
    "binomial",
    "verify_binomial_identities",
    "degree_pairing",
    "secant3_degree",
    "class_degree",
    "berzolari",
]

# Self-intersection number of the theta divisor on the Picard surface of a
# genus-2 curve.  This is the one normalization the degree pairing takes as
# an axiom: the class T^2 * h^(d-2) integrates to 2.
THETA_SELF_INTERSECTION = 2


def binomial(n: int, k: int) -> int:
    """Binomial coefficient for any integer upper argument.

    Defined through the falling factorial n(n-1)...(n-k+1)/k!, so for n < 0
    it satisfies the upper-negation identity
    binomial(n, k) = (-1)^k * binomial(-n+k-1, k); for k < 0 it is zero.
    """
    if not (_is_int(n) and _is_int(k)):
        raise TypeError("binomial arguments must be integers")
    if k < 0:
        return 0
    if n >= 0:
        return comb(n, k)
    falling = 1
    for j in range(k):
        falling *= n - j
    return falling // factorial(k)


def verify_binomial_identities(sample_bound: int) -> bool:
    """Exhaustively check upper negation and Vandermonde convolution for all
    non-negative parameters up to ``sample_bound``.

    Meaningful because :func:`binomial` evaluates negative upper arguments
    through the falling factorial, not through either identity.
    """
    for r in range(sample_bound + 1):
        for m in range(sample_bound + 1):
            if binomial(-r, m) != (-1) ** m * binomial(r + m - 1, m):
                return False
    table = [[binomial(n, k) for k in range(sample_bound + 1)] for n in range(2 * sample_bound + 1)]
    for m in range(sample_bound + 1):
        for s in range(sample_bound + 1):
            for r in range(sample_bound + 1):
                total = sum(map(mul, table[m][: r + 1], table[s][r::-1]))
                if total != table[m + s][r]:
                    return False
    return True


def degree_pairing(value: AmbientClass) -> Fraction:
    """Integrate a top-degree class over the product space.

    Reads off the coefficient of T^2 * h^(d-2) and scales by the theta
    self-intersection.  Deliberately a plain linear read-off: any stray
    lower-order terms in the input are a caller-side bug and are policed by
    a separate homogeneity assertion, not silently absorbed here.
    """
    top = value.coefficient(2, value.d - 2)
    return Fraction(THETA_SELF_INTERSECTION) * top


def secant3_degree(d: int, method: str = "segre") -> int:
    """Degree of the third secant variety of a genus-2 curve of degree d.

    Evaluates the degeneracy-locus class by the requested determinant route
    and takes its degree with :func:`class_degree`; ``porteous_class``
    checks d first.
    """
    # Imported here: the Porteous pipeline builds on the binomial toolkit above.
    from .porteous import porteous_class

    return class_degree(porteous_class(d, method), method)


def class_degree(locus: AmbientClass, method: str) -> int:
    """Degree of a degeneracy class of total degree d - 5: cut it down by
    five hyperplanes and integrate.  A class that is not homogeneous, or a
    degree that is not a positive integer, aborts loudly, naming d and the
    route ``method`` that produced the class."""
    d = locus.d
    if not locus.is_homogeneous(d - 5):
        raise ArithmeticError(
            f"degeneracy class for d={d} ({method}) is not homogeneous "
            f"of total degree {d - 5}: {locus}"
        )
    paired = degree_pairing(locus * AmbientClass(d, {(0, 5): 1}))
    if paired.denominator != 1 or paired <= 0:
        raise ArithmeticError(
            f"secant degree for d={d} ({method}) should be a positive "
            f"integer, got {paired}"
        )
    return int(paired)


def berzolari(d: int) -> int:
    """Classical count of trisecant lines to a genus-2 space curve, used as an
    independent oracle: binomial(d-2, 3) - 2*(d-4)."""
    _require_curve_degree(d)
    return binomial(d - 2, 3) - 2 * (d - 4)
