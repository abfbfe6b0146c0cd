"""Series operations the engine does not carry, kept as references for the
tests: the exponential and the sum in plain ``ChernSeries`` arithmetic, the
whole twisted series built from the engine's one twist, the graded kernel's
dot product in its schoolbook form, and the closed binomial formula with one
``math.comb`` per entry."""

from fractions import Fraction
from math import comb
from operator import mul

from trisecant._graded import _columns, _series
from trisecant.porteous import _twisted_coefficients, chern_series_from_character
from trisecant.riemann_roch import bundle_characters
from trisecant.ring import ChernSeries


def series_add(a: ChernSeries, b: ChernSeries) -> ChernSeries:
    """a + b coefficientwise, truncated at the smaller order."""
    return ChernSeries([x + y for x, y in zip(a.coeffs, b.coeffs)])


def series_exp(series: ChernSeries) -> ChernSeries:
    """sum_j x^j / j! of a series x with zero constant term, in plain series
    products; x^j starts at t^j, so the sum stops at the order."""
    assert series.coeffs[0].is_zero(), "the exponential needs a zero constant term"
    total = term = ChernSeries([series.coeffs[0].one_like()], series.order)
    for j in range(1, series.order + 1):
        term = term * series * Fraction(1, j)
        total = series_add(total, term)
    return total


def twist(series: ChernSeries, rank: int) -> ChernSeries:
    """c_t(bundle (x) O(-1)) as a whole series, every coefficient of the
    series' order read from ``porteous._twisted_coefficients`` on the kernel's
    triples of ``series``: a coefficient that is not ``AmbientClass`` raises
    TypeError, a c_k not homogeneous of degree k ArithmeticError."""
    triples = list(zip(*_columns(series)))
    d = series.coeffs[0].d
    return _series(d, _twisted_coefficients(triples, rank, range(series.order + 1)))


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
