"""Graded integer kernel for the ambient series of the Porteous pipeline.

There c_k is homogeneous of degree k, so it is the triple (x0, x1, X2) of its
coefficients of h^k, T h^(k-1) and 2*T^2 h^(k-2).  With T^2 doubled, the
pipeline's triples are ints and a product is (a0 b0, a0 b1 + a1 b0,
a0 B2 + 2 a1 b1 + A2 b0), with no division.  A series is three columns of
such entries.  The kernel's dot product of two such series takes five
scalar dot products, not six: the middle entry is
(a0 + a1)(b0 + b1) - a0 b0 - a1 b1, and X2 reuses a1 b1.  One solver on the
dot gives a series' quotients.  One stepper, with no dot, solves a
first-order equation A y' = B y with short A and B, such as those of the
exponential form and of the banded determinants, one triple product a lag,
max(len B, len A - 1) per entry; an exponential is its case A = 1, with B
the exponent's derivative.  Callers hand in columns and take columns back;
the truncation h^(d-1) = 0 is graded, so it commutes with the kernel and is
applied once, where a column entry becomes an ``AmbientClass`` term, and a
series becomes the tuple of its classes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from operator import add, eq, mul

from .ring import AmbientClass


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


def _classes(d: int, columns) -> tuple[AmbientClass, ...]:
    """The classes over d, c_0 first, whose (x0, x1, X2) are the entries of
    ``columns``: the one place a series of columns becomes classes."""
    return tuple(_ambient(d, k, t) for k, t in enumerate(zip(*columns)))


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


def _solve(columns, numerator) -> list[list]:
    """The columns of q with q_0 = n_0 and q_m = n_m + sum_(k>=1) c_k q_(m-k),
    to the order of c, for n at least as long as c; c_0 is never read."""
    order = len(columns[0]) - 1
    backwards = [column[::-1] for column in columns]
    backwards01 = _summed(backwards)
    n0, n1, n2 = numerator
    q0, q1, q2 = q = [[n0[0]], [n1[0]], [n2[0]]]
    q01 = [n0[0] + n1[0]]
    for m in range(1, order + 1):
        # backwards[.][order - m:] runs c_m..c_0, so it meets q_0..q_(m-1) in the dot.
        start = order - m
        x0, x1, x2 = _dot([c[start:] for c in backwards], q, backwards01[start:], q01)
        x0, x1, x2 = x0 + n0[m], x1 + n1[m], x2 + n2[m]
        q0.append(x0)
        q1.append(x1)
        q2.append(x2)
        q01.append(x0 + x1)
    return q


def _quotient(numerator, columns) -> list[list]:
    """The columns of numerator / series from both columns, to the smaller order; c_0 is 1."""
    size = min(len(numerator[0]), len(columns[0]))
    return _solve([[-x for x in column[:size]] for column in columns], numerator)


def _first_order(a, b, order: int) -> list[list]:
    """The columns of y to t^order with y_0 = 1 and A y' = B y, for the column
    triples a and b of two short series A and B, A_0 = 1 (never read).  The
    t^m coefficient of A y' is sum_j A_j (m - j + 1) y_(m-j+1), so with
    j = L + 1 each A_(L+1) meets the y_(m-L) that B_L meets, and

        (m + 1) y_(m+1) = sum_(L>=0) (B_L - (m - L) A_(L+1)) y_(m-L):

    max(len b, len a - 1) triple products a step, the shorter side padded
    with zeros, then one exact division by m + 1 (Stanley, "Differentiably
    finite power series", Europ. J. Combin. 1, 1980).  The lag-L coefficient
    meets y_(m-L) in degree m + 1, so it is read as a class of degree L + 1.
    With A = 1 and B the derivative of x, x_0 = 0, y is exp(x)."""
    lags = list(zip_longest(zip(*b), list(zip(*a))[1:], fillvalue=(0, 0, 0)))
    y = [(1, 0, 0)]
    for m in range(order):
        x0 = x1 = x2 = 0
        s = m
        for (b0, b1, b2), (a0, a1, a2) in lags[: m + 1]:
            p0, p1, p2 = b0 - s * a0, b1 - s * a1, b2 - s * a2
            # The graded product of p and y_s, written out: a call per product
            # costs more than the products at the orders ``verify`` reads.
            q0, q1, q2 = y[s]
            x0 += p0 * q0
            x1 += p0 * q1 + p1 * q0
            x2 += p0 * q2 + 2 * p1 * q1 + p2 * q0
            s -= 1
        y.append((_exact(x0, m + 1), _exact(x1, m + 1), _exact(x2, m + 1)))
    return [list(column) for column in zip(*y)]
