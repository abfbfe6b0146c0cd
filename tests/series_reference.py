"""Series operations the engine does not carry, kept as references for the
tests.  A series is a plain tuple of ring values c_0..c_order, so its order
is its length - 1.  Here are the product, the inverse, the exponential and
the sum in plain ring arithmetic; a series' graded columns, and the graded
kernel's quotient and exponential (with a product through its dot) run on
them; a bundle's Chern series and the whole twisted series built from the
engine's Chern triples and its one twist; the graded kernel's dot product in
its schoolbook form; and the closed binomial formula with one ``math.comb``
per entry."""

from fractions import Fraction
from math import comb
from operator import mul

from trisecant._graded import _ambient, _classes, _dot, _exact, _exp, _quotient, _summed
from trisecant.porteous import _chern_triples, _twisted_coefficients
from trisecant.riemann_roch import bundle_characters
from trisecant.ring import AmbientClass, RingMismatchError


def to_order(coeffs, order: int) -> tuple:
    """c_0..c_order from ``coeffs``: cut at the order, or filled with zeros of
    c_0's ring up to it."""
    coeffs = tuple(coeffs[: order + 1])
    return coeffs + (coeffs[0].zero_like(),) * (order + 1 - len(coeffs))


def _check_ring(a: tuple, b: tuple) -> None:
    # Checked up front, since the kernel reads columns, not classes.
    if (type(a[0]), a[0]._top) != (type(b[0]), b[0]._top):
        raise RingMismatchError(f"series over {a[0]!r} cannot combine with one over {b[0]!r}")


def series_mul(a: tuple, b) -> tuple:
    """a * b truncated at the smaller order for two series of one ring (a
    product of two rings raises ``RingMismatchError``); a ring element or a
    scalar b scales every coefficient."""
    if not isinstance(b, tuple):
        return tuple(c * b for c in a)
    order = min(len(a), len(b)) - 1
    out = [a[0].zero_like()] * (order + 1)
    for i, ci in enumerate(a[: order + 1]):
        for j, cj in enumerate(b[: order + 1 - i]):
            out[i + j] = out[i + j] + ci * cj
    return tuple(out)


def series_inverse(series: tuple) -> tuple:
    """The multiplicative inverse; the constant term must be the ring unit."""
    unit = series[0].one_like()
    if series[0] != unit:
        raise ValueError("series inversion needs constant term 1")
    inverse = [unit]
    for m in range(1, len(series)):
        total = series[0].zero_like()
        for k in range(1, m + 1):
            total = total + series[k] * inverse[m - k]
        inverse.append(-total)
    return tuple(inverse)


def _triple(k: int, c: AmbientClass) -> list:
    """The (x0, x1, X2) of c; a c not homogeneous of degree k raises ArithmeticError."""
    triple = [0, 0, 0]
    for (a, b), numerator in c._terms.items():
        if a + b != k:
            raise ArithmeticError(f"c_{k} = {c} is not homogeneous of degree {k}")
        triple[a] = _exact(numerator * 2 if a == 2 else numerator, c._den)
    return triple


def columns(series: tuple, constant: int | None = None) -> list[tuple]:
    """The graded kernel's columns of x0, x1 and X2 over c_0..c_order.  A
    coefficient that is not ``AmbientClass`` raises TypeError, a c_0 other than
    a given ``constant`` ValueError, a c_k not homogeneous of degree k
    ArithmeticError."""
    first = series[0]
    if not isinstance(first, AmbientClass):
        raise TypeError("the graded kernel needs ambient coefficients")
    if constant is not None and first != constant:
        raise ValueError(f"this series operation needs constant term {constant}")
    return list(zip(*(_triple(k, c) for k, c in enumerate(series))))


def graded_quotient(numerator: tuple, series: tuple) -> tuple:
    """numerator / series on the graded kernel's ``_quotient``, for two ambient
    series of one d whose c_k is homogeneous of degree k; ``series`` needs
    constant term 1, and two series over different d raise
    ``RingMismatchError``."""
    pair = columns(numerator), columns(series, 1)
    _check_ring(numerator, series)
    return _classes(series[0].d, _quotient(*pair))


def graded_exp_product(factor: tuple, series: tuple) -> tuple:
    """factor * exp(series) for two such ambient series of one d (or
    ``RingMismatchError``), to the smaller order: the exp by the graded
    kernel's ``_exp`` on the columns of t d/dt series, and the product by its
    ``_dot``; ``series`` needs constant term 0."""
    factor_columns, exponent = columns(factor), columns(series, 0)
    _check_ring(factor, series)
    order = min(len(factor), len(series)) - 1
    exp = _exp([[k * x for k, x in enumerate(column)] for column in exponent])
    backwards = [column[order::-1] for column in exp]
    backwards01, factor01 = _summed(backwards), _summed(factor_columns)
    triples = [
        _dot([c[order - m:] for c in backwards], factor_columns, backwards01[order - m:], factor01)
        for m in range(order + 1)
    ]
    return _classes(series[0].d, list(zip(*triples)))


def series_add(a: tuple, b: tuple) -> tuple:
    """a + b coefficientwise, truncated at the smaller order."""
    return tuple(x + y for x, y in zip(a, b))


def series_exp(series: tuple) -> tuple:
    """sum_j x^j / j! of a series x with zero constant term, in plain series
    products; x^j starts at t^j, so the sum stops at the order."""
    assert series[0].is_zero(), "the exponential needs a zero constant term"
    total = term = to_order([series[0].one_like()], len(series) - 1)
    for j in range(1, len(series)):
        term = series_mul(series_mul(term, series), Fraction(1, j))
        total = series_add(total, term)
    return total


def chern_series(character, d: int, dual: bool = False) -> tuple:
    """The total Chern series of a Picard-surface bundle to order d - 5, its
    c_0, c_1 and c_2 built from ``porteous._chern_triples``."""
    triples = _chern_triples(character, dual)
    return to_order([_ambient(d, k, t) for k, t in enumerate(triples)], d - 5)


def twist(series: tuple, rank: int) -> tuple:
    """c_t(bundle (x) O(-1)) as a whole series, every coefficient of the
    series' order read from ``porteous._twisted_coefficients`` on the kernel's
    triples of ``series``: a coefficient that is not ``AmbientClass`` raises
    TypeError, a c_k not homogeneous of degree k ArithmeticError."""
    triples = list(zip(*columns(series)))
    twisted = _twisted_coefficients(triples, rank, range(len(series)))
    return _classes(series[0].d, list(zip(*twisted)))


def source_series(d: int) -> tuple:
    """c_t(residual (x) O(-1)), the source of the multiplication map."""
    _, residual = bundle_characters(d)
    return twist(chern_series(residual, d), int(residual.c0))


def target_series(d: int) -> tuple:
    """c_t(sections^*), the target of the multiplication map."""
    sections, _ = bundle_characters(d)
    return chern_series(sections, d, dual=True)


def schoolbook_dot(a, b) -> tuple:
    """The degree-graded dot product sum_i a_i b_i of two column triples from
    six scalar dot products, one per cross term of the T-graded product."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return (
        sum(map(mul, a0, b0)),
        sum(map(mul, a0, b1)) + sum(map(mul, a1, b0)),
        sum(map(mul, a0, b2)) + 2 * sum(map(mul, a1, b1)) + sum(map(mul, a2, b0)),
    )


def _comb(n: int, k: int) -> int:
    return comb(n, k) if k >= 0 else 0


def binomial_column(n: int, order: int) -> list[int]:
    """binomial(n + j, j) for j in 0..order, one ``math.comb`` each."""
    return [comb(n + j, j) for j in range(order + 1)]


def formula_triple(i: int, d: int) -> tuple[int, int, int]:
    """The closed binomial formula for c_i as the graded kernel's triple
    (x0, x1, X2) of h^i, T h^(i-1) and 2 T^2 h^(i-2), one ``math.comb`` per
    binomial; (1, 0, 0) at i = 0."""
    return (
        _comb(d - 5 + i, i),
        _comb(d - 5 + i, i - 1) + _comb(d - 6 + i, i - 1),
        4 * _comb(d - 6 + i, i - 2) + _comb(d - 7 + i, i - 4),
    )
