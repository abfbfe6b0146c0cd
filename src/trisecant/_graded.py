"""Graded integer kernel for the ambient series of the Porteous pipeline.

There c_k is homogeneous of degree k, so it is the triple (x0, x1, X2) of its
coefficients of h^k, T h^(k-1) and 2*T^2 h^(k-2).  With T^2 doubled, the
pipeline's triples are ints and a product is (a0 b0, a0 b1 + a1 b0,
a0 B2 + 2 a1 b1 + A2 b0), with no division.  A series is three columns of
such entries.  The kernel's dot product of two such series takes five
scalar dot products, not six: the middle entry is
(a0 + a1)(b0 + b1) - a0 b0 - a1 b1, and X2 reuses a1 b1.  One solver on the
dot gives a series' quotients, and where only the last quotient is needed,
``_solve_top`` runs the solve to the middle and takes one Newton step of
series inversion, about half the products.  One stepper, with no dot, solves a first-order equation
A y' = B y with short A and B, such as the exponential form's, in
len A + len B - 1 triple products per entry; an exponential is its case
A = 1, with B the exponent's derivative.  Callers hand in columns and take
columns back; the truncation h^(d-1) = 0 is graded, so it commutes with the
kernel and is applied once, where a column entry becomes an
``AmbientClass`` term, and a series becomes the tuple of its classes.
"""

from __future__ import annotations

from fractions import Fraction
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


def _solve(columns, numerator=((1,), (0,), (0,))) -> list[list]:
    """The columns of q with q_0 = n_0 and q_m = n_m + sum_(k>=1) c_k q_(m-k),
    to the order of c; n, by default 1, reads 0 past its end, and c_0 is never
    read."""
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
        q0.append(x0)
        q1.append(x1)
        q2.append(x2)
        q01.append(x0 + x1)
    return q


def _times(a, b) -> tuple:
    """The graded product of two triples: (a0 b0, a0 b1 + a1 b0, a0 B2 + 2 a1 b1 + A2 b0)."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + 2 * a1 * b1 + a2 * b0


def _solve_top(columns) -> tuple:
    """The last entry q_n of ``_solve(columns)``, n >= 1 the order of c, from
    half the recurrence and one Newton step of series inversion (Brent and
    Kung, J. ACM 25, 1978).  q is 1/g for g = 1 - sum_(k>=1) c_k t^k, and
    ``_solve`` to h = n // 2 + 1 terms gives Q = q mod t^h.  As g Q = 1 + O(t^h),
    Q (2 - g Q) = q mod t^(2h), and h <= n < 2h, so

        q_n = sum_(i,j<h) q_i q_j f_(n-i-j),   f = -g = -1 + sum_(k>=1) c_k t^k.

    Row i of the sum is q_i times s_i = 2 sum_(j>=i) q_j f_(n-i-j) - q_i f_(n-2i),
    each pair i < j formed once: h graded dots of q[i:] against f reversed
    from f_(n-2i), then one dot of q with s, about half the products of
    the full solve.  It makes about as many dots as the full solve, each
    shorter, so below d ~ 30, where the integers are small, it costs more
    per call (38 us against 20 us at d = 8, in-process on a loaded 2-vCPU
    VM); the route keeps this one path anyway, as it does not fork on d."""
    n = len(columns[0]) - 1
    if n < 1:
        raise ValueError("the Newton step needs an order n >= 1")
    h = n // 2 + 1
    q = _solve([column[:h] for column in columns])
    q01 = _summed(q)
    # backwards[.][m] is f_(n-m): c_n, ..., c_1, then f_0 = -1.
    backwards = [[*column[:0:-1], x] for column, x in zip(columns, (-1, 0, 0))]
    backwards01 = _summed(backwards)
    s = [[], [], []]
    for i in range(h):
        row = _dot([c[i:] for c in q], [c[2 * i:] for c in backwards], q01[i:], backwards01[2 * i:])
        diagonal = _times([c[i] for c in q], [c[2 * i] for c in backwards])
        for column, x, y in zip(s, row, diagonal):
            column.append(2 * x - y)
    return _dot(q, s, q01, _summed(s))


def _quotient(numerator, columns) -> list[list]:
    """The columns of numerator / series from both columns, to the smaller order; c_0 is 1."""
    size = min(len(numerator[0]), len(columns[0]))
    return _solve([[-x for x in column[:size]] for column in columns], numerator=numerator)


def _first_order(a, b, order: int) -> list[list]:
    """The columns of y to t^order with y_0 = 1 and A y' = B y, for the column
    triples a and b of two short series A and B, A_0 = 1 (never read).  As
    y' = B y - (A - 1) y', the t^m coefficient z_m = (m + 1) y_(m+1) of y' is

        z_m = sum_(j>=0) B_j y_(m-j) - sum_(j>=1) A_j z_(m-j),

    len a + len b - 1 triple products a step, whatever the order, then one
    exact division by m + 1 (Stanley, "Differentiably finite power series",
    Europ. J. Combin. 1, 1980).  B_j meets y_(m-j) in degree m + 1, so it is
    read as a class of degree j + 1.  With A = 1 and B the derivative of a
    series x with x_0 = 0, y is exp(x)."""
    y, z = [(1, 0, 0)], []
    # (j, coefficient, history it meets): B_j against y, -A_j against z.
    terms = [(j, p, y) for j, p in enumerate(zip(*b))]
    terms += [(j, [-x for x in p], z) for j, p in enumerate(zip(*a)) if j]
    for m in range(order):
        x0 = x1 = x2 = 0
        for j, (p0, p1, p2), history in terms:
            if j <= m:
                # The graded product of ``_times``, written out: the call costs
                # more than these products at the orders ``verify`` reads.
                q0, q1, q2 = history[m - j]
                x0 += p0 * q0
                x1 += p0 * q1 + p1 * q0
                x2 += p0 * q2 + 2 * p1 * q1 + p2 * q0
        z.append((x0, x1, x2))
        y.append((_exact(x0, m + 1), _exact(x1, m + 1), _exact(x2, m + 1)))
    return [list(column) for column in zip(*y)]
