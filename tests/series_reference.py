"""Series operations the engine does not carry, kept as references for the
tests: the product, the inverse, the exponential and the sum in plain
``ChernSeries`` arithmetic; a series' graded columns and the graded kernel's
quotient and exponential product run on them; the whole twisted series built
from the engine's one twist; the graded kernel's dot product in its
schoolbook form; and the closed binomial formula with one ``math.comb`` per
entry."""

from fractions import Fraction
from math import comb
from operator import mul

from trisecant._graded import _exact, _exp_product, _quotient, _series
from trisecant.porteous import _twisted_coefficients, chern_series_from_character
from trisecant.riemann_roch import bundle_characters
from trisecant.ring import AmbientClass, ChernSeries, RingMismatchError


def _check_ring(a: ChernSeries, b: ChernSeries) -> None:
    # Checked up front, since zero or constant coefficients may never meet.
    if (type(a.coeffs[0]), a.coeffs[0]._top) != (type(b.coeffs[0]), b.coeffs[0]._top):
        raise RingMismatchError(
            f"series over {a.coeffs[0]!r} cannot combine with one over {b.coeffs[0]!r}"
        )


def series_mul(a: ChernSeries, b) -> ChernSeries:
    """a * b truncated at the smaller order for two series of one ring (or
    ``RingMismatchError``); a ring element or a scalar b scales every
    coefficient."""
    if not isinstance(b, ChernSeries):
        return ChernSeries([c * b for c in a.coeffs], a.order)
    _check_ring(a, b)
    order = min(a.order, b.order)
    out = [a.coeffs[0].zero_like()] * (order + 1)
    for i, ci in enumerate(a.coeffs[: order + 1]):
        for j, cj in enumerate(b.coeffs[: order + 1 - i]):
            out[i + j] = out[i + j] + ci * cj
    return ChernSeries(out, order)


def series_inverse(series: ChernSeries) -> ChernSeries:
    """The multiplicative inverse; the constant term must be the ring unit."""
    unit = series.coeffs[0].one_like()
    if series.coeffs[0] != unit:
        raise ValueError("series inversion needs constant term 1")
    inverse = [unit]
    for m in range(1, series.order + 1):
        total = series.coeffs[0].zero_like()
        for k in range(1, m + 1):
            total = total + series.coeffs[k] * inverse[m - k]
        inverse.append(-total)
    return ChernSeries(inverse, series.order)


def _triple(k: int, c: AmbientClass) -> list:
    """The (x0, x1, X2) of c; a c not homogeneous of degree k raises ArithmeticError."""
    triple = [0, 0, 0]
    for (a, b), numerator in c._terms.items():
        if a + b != k:
            raise ArithmeticError(f"c_{k} = {c} is not homogeneous of degree {k}")
        triple[a] = _exact(numerator * 2 if a == 2 else numerator, c._den)
    return triple


def columns(series: ChernSeries, constant: int | None = None) -> list[tuple]:
    """The graded kernel's columns of x0, x1 and X2 over c_0..c_order.  A
    coefficient that is not ``AmbientClass`` raises TypeError, a c_0 other than
    a given ``constant`` ValueError, a c_k not homogeneous of degree k
    ArithmeticError."""
    first = series.coeffs[0]
    if not isinstance(first, AmbientClass):
        raise TypeError("the graded kernel needs ambient coefficients")
    if constant is not None and first != constant:
        raise ValueError(f"this series operation needs constant term {constant}")
    return list(zip(*(_triple(k, c) for k, c in enumerate(series.coeffs))))


def graded_quotient(numerator: ChernSeries, series: ChernSeries) -> ChernSeries:
    """numerator / series on the graded kernel's ``_quotient``, for two ambient
    series of one d whose c_k is homogeneous of degree k; ``series`` needs
    constant term 1, and two series over different d raise
    ``RingMismatchError``."""
    pair = columns(numerator), columns(series, 1)
    _check_ring(numerator, series)
    return _series(series.coeffs[0].d, _quotient(*pair))


def graded_exp_product(factor: ChernSeries, series: ChernSeries) -> ChernSeries:
    """factor * exp(series) on the graded kernel's ``_exp_product``, for two
    such ambient series of one d (or ``RingMismatchError``); ``series`` needs
    constant term 0."""
    pair = columns(factor), columns(series, 0)
    _check_ring(factor, series)
    return _series(series.coeffs[0].d, _exp_product(*pair))


def series_add(a: ChernSeries, b: ChernSeries) -> ChernSeries:
    """a + b coefficientwise, truncated at the smaller order."""
    return ChernSeries([x + y for x, y in zip(a.coeffs, b.coeffs)])


def series_exp(series: ChernSeries) -> ChernSeries:
    """sum_j x^j / j! of a series x with zero constant term, in plain series
    products; x^j starts at t^j, so the sum stops at the order."""
    assert series.coeffs[0].is_zero(), "the exponential needs a zero constant term"
    total = term = ChernSeries([series.coeffs[0].one_like()], series.order)
    for j in range(1, series.order + 1):
        term = series_mul(series_mul(term, series), Fraction(1, j))
        total = series_add(total, term)
    return total


def twist(series: ChernSeries, rank: int) -> ChernSeries:
    """c_t(bundle (x) O(-1)) as a whole series, every coefficient of the
    series' order read from ``porteous._twisted_coefficients`` on the kernel's
    triples of ``series``: a coefficient that is not ``AmbientClass`` raises
    TypeError, a c_k not homogeneous of degree k ArithmeticError."""
    triples = list(zip(*columns(series)))
    twisted = _twisted_coefficients(triples, rank, range(series.order + 1))
    return _series(series.coeffs[0].d, list(zip(*twisted)))


def source_series(d: int) -> ChernSeries:
    """c_t(residual (x) O(-1)), the source of the multiplication map."""
    _, residual = bundle_characters(d)
    return twist(chern_series_from_character(residual, d), int(residual.c0))


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
