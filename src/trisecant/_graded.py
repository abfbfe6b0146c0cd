"""Graded integer kernel for the ambient series of the Porteous pipeline.

There c_k is homogeneous of degree k, so it is the triple (x0, x1, X2) of its
coefficients of h^k, T h^(k-1) and 2*T^2 h^(k-2).  With T^2 doubled, the
pipeline's triples are ints and a product is
(a0 b0, a0 b1 + a1 b0, a0 B2 + 2 a1 b1 + A2 b0), with no division.  The
truncation h^(d-1) = 0 is graded, so it commutes with the kernel and is
applied once, when a triple turns back into an ``AmbientClass``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .ring import AmbientClass, ChernSeries


def graded_inverse(series: ChernSeries) -> ChernSeries:
    """``series.inverse()`` for an ambient series whose c_k is homogeneous of
    degree k, as q_m = -sum_(i>=1) c_i q_(m-i) on triples: six scalar
    convolutions per m.  A c_k of another degree raises ArithmeticError."""
    first = series.coeffs[0]
    if first != first.one_like():
        raise ValueError("series inversion needs constant term 1")
    # The columns of x0, x1 and X2 over c_1..c_order, ints where integral.
    a0, a1, a2 = columns = [[0] * series.order for _ in range(3)]
    for k, c in enumerate(series.coeffs[1:], 1):
        den = c._den
        for (a, b), numerator in c._terms.items():
            if a + b != k:
                raise ArithmeticError(f"c_{k} = {c} is not homogeneous of degree {k}")
            numerator = numerator * 2 if a == 2 else numerator
            whole, rest = divmod(numerator, den)
            columns[a][k - 1] = Fraction(numerator, den) if rest else whole
    q0, q1, q2 = [1], [0], [0]

    def conv(x: list, q: list):
        """sum_(i>=1) x_i q_(m-i), with q holding q_0..q_(m-1)."""
        return sum(map(mul, x, reversed(q)))

    for _ in range(series.order):
        s0 = conv(a0, q0)
        s1 = conv(a0, q1) + conv(a1, q0)
        s2 = conv(a0, q2) + conv(a2, q0) + 2 * conv(a1, q1)
        q0.append(-s0)
        q1.append(-s1)
        q2.append(-s2)
    d = first.d
    inverse = [
        AmbientClass(d, {(a, k - a): x for a, x in enumerate((x0, x1, Fraction(x2, 2))) if x})
        for k, (x0, x1, x2) in enumerate(zip(q0, q1, q2))
    ]
    return ChernSeries(inverse, series.order)
