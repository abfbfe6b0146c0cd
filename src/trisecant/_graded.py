"""Graded integer kernel for the ambient series of the Porteous pipeline.

There c_k is homogeneous of degree k, so it is the triple (x0, x1, X2) of its
coefficients of h^k, T h^(k-1) and 2*T^2 h^(k-2).  With T^2 doubled, the
pipeline's triples are ints and a product is (a0 b0, a0 b1 + a1 b0,
a0 B2 + 2 a1 b1 + A2 b0), with no division.  The kernel forms it from five
products, not six: the middle entry is (a0 + a1)(b0 + b1) - a0 b0 - a1 b1,
and X2 reuses a1 b1.  A series is three columns of such entries.  One solver
gives its quotients and exponential; it divides each step by a divisor only
where one is given, which is the exponential's, as a quotient's is 1.  One
dot product of column triples serves the solver and the exponential's
product with a factor.  Callers hand in columns and take columns back; the
truncation h^(d-1) = 0 is graded, so it commutes with the kernel and is
applied once, where a column entry becomes an ``AmbientClass`` term.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, eq, mul

from .ring import AmbientClass, ChernSeries


def _exact(numerator, denominator: int):
    """numerator / denominator, an int where it divides exactly."""
    whole, rest = divmod(numerator, denominator)
    return Fraction(numerator, denominator) if rest else whole


def _ambient(d: int, k: int, triple) -> AmbientClass:
    """The class over d, homogeneous of degree k, whose (x0, x1, X2) is ``triple``."""
    x0, x1, x2 = triple
    return AmbientClass(d, {(a, k - a): x for a, x in enumerate((x0, x1, _exact(x2, 2))) if x})


def _coefficient(d: int, columns, k: int) -> AmbientClass:
    """The class over d of degree k whose (x0, x1, X2) is entry k of ``columns``."""
    return _ambient(d, k, [column[k] for column in columns])


def _difference(d: int, left, right) -> tuple | None:
    """(k, left class, right class) at the first k where two column triples
    over d differ, None where they agree; columns of different lengths raise
    ValueError."""
    if all(map(eq, left, right)):
        return None
    pairs = zip(zip(*left), zip(*right), strict=True)
    k = next(k for k, (a, b) in enumerate(pairs) if a != b)
    return k, _coefficient(d, left, k), _coefficient(d, right, k)


def _series(d: int, columns) -> ChernSeries:
    """The ambient series over d whose t^k coefficient is the k-th entry of the
    columns (x0, x1, X2)."""
    return ChernSeries([_ambient(d, k, t) for k, t in enumerate(zip(*columns))])


def _dot(a, b, a01, b01) -> tuple:
    """The degree-graded dot product sum_i a_i b_i of two column triples, as a
    triple, from five scalar dot products; a01 and b01 are the summed columns
    a0 + a1 and b0 + b1 of the two triples."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    low, cross = sum(map(mul, a0, b0)), sum(map(mul, a1, b1))
    return (
        low,
        sum(map(mul, a01, b01)) - low - cross,
        sum(map(mul, a0, b2)) + 2 * cross + sum(map(mul, a2, b0)),
    )


def _summed(columns) -> list:
    """The column x0 + x1 of a column triple."""
    return list(map(add, columns[0], columns[1]))


def _solve(columns, divisor=None, numerator=((1,), (0,), (0,))) -> list[list]:
    """The columns of q with q_0 = n_0 and q_m = n_m + sum_(k>=1) c_k q_(m-k),
    divided by divisor(m) where a divisor is given, to the order of c; n, by
    default 1, reads 0 past its end, and c_0 is never read."""
    order = len(columns[0]) - 1
    backwards = [column[::-1] for column in columns]
    backwards01 = _summed(backwards)
    n0, n1, n2 = ([*column, *[0] * order] for column in numerator)
    q0, q1, q2 = q = [[n0[0]], [n1[0]], [n2[0]]]
    q01 = [n0[0] + n1[0]]
    for m in range(1, order + 1):
        # backwards[.][order - m:] runs c_m..c_0, so it meets q_0..q_(m-1) in the dot.
        start = order - m
        x0, x1, x2 = _dot([c[start:] for c in backwards], q, backwards01[start:], q01)
        x0, x1, x2 = x0 + n0[m], x1 + n1[m], x2 + n2[m]
        if divisor:
            x0, x1, x2 = (_exact(x, divisor(m)) for x in (x0, x1, x2))
        q0.append(x0)
        q1.append(x1)
        q2.append(x2)
        q01.append(x0 + x1)
    return q


def _quotient(numerator, columns) -> list[list]:
    """The columns of numerator / series from both columns, to the smaller order; c_0 is 1."""
    size = min(len(numerator[0]), len(columns[0]))
    return _solve([[-x for x in column[:size]] for column in columns], numerator=numerator)


def _exp(columns) -> list[list]:
    """exp of a series with zero constant term, by m e_m = sum_k k x_k e_(m-k)."""
    return _solve([[k * x for k, x in enumerate(column)] for column in columns], lambda m: m)


def _exp_product(factor, exponent) -> list[list]:
    """The columns of factor * exp(exponent), to the smaller order; the
    exponent's constant term, which must be 0, is never read."""
    order = min(len(factor[0]), len(exponent[0])) - 1
    backwards = [column[order::-1] for column in _exp(exponent)]
    backwards01, factor01 = _summed(backwards), _summed(factor)
    triples = [
        _dot([c[order - m:] for c in backwards], factor, backwards01[order - m:], factor01)
        for m in range(order + 1)
    ]
    return [list(column) for column in zip(*triples)]
