"""The truncated rings, and the graded series kernel against plain series
arithmetic on tuples of ring values."""

import operator
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisecant._graded import _dot, _solve, _solve_top
from trisecant.riemann_roch import CurveClass, UpstreamClass
from trisecant.ring import AmbientClass, RingMismatchError, ThetaPoly

from series_reference import (
    graded_exp_product,
    graded_quotient,
    schoolbook_dot,
    series_add,
    series_exp,
    series_inverse,
    series_mul,
    to_order,
)

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
theta_polys = st.builds(ThetaPoly, small_fractions, small_fractions, small_fractions)


@st.composite
def ambient_triples(draw):
    """Three ambient classes sharing one context d."""
    d = draw(st.integers(8, 12))
    out = []
    for _ in range(3):
        terms = {}
        for _ in range(draw(st.integers(0, 5))):
            key = (draw(st.integers(0, 2)), draw(st.integers(0, d - 2)))
            terms[key] = draw(small_fractions)
        out.append(AmbientClass(d, terms))
    return tuple(out)


# ---------------------------------------------------------------- ThetaPoly


def test_theta_construction_and_coefficients():
    x = ThetaPoly(2, -1, Fraction(1, 3))
    assert x.coefficient(0) == 2
    assert x.coefficient(1) == -1
    assert x.coefficient(2) == Fraction(1, 3)
    with pytest.raises(IndexError):
        x.coefficient(3)


def test_theta_rejects_floats():
    with pytest.raises(TypeError):
        ThetaPoly(0.5)


def test_theta_cube_vanishes():
    theta = ThetaPoly.theta()
    assert (theta * theta * theta).is_zero()
    assert theta ** 3 == ThetaPoly.zero()


def test_theta_inverse_pair():
    # (1 + T)(1 - T + T^2) = 1 + T^3 = 1 in the quotient.
    assert ThetaPoly(1, 1) * ThetaPoly(1, -1, 1) == ThetaPoly.one()


def test_theta_scalar_lifting():
    theta = ThetaPoly.theta()
    assert 2 + theta == ThetaPoly(2, 1)
    assert 2 - theta == ThetaPoly(2, -1)
    assert theta * Fraction(1, 2) == ThetaPoly(0, Fraction(1, 2))
    assert ThetaPoly(5) == 5


def test_theta_power_requires_nonnegative_int():
    with pytest.raises(ValueError):
        ThetaPoly.theta() ** -1


def test_theta_str():
    assert str(ThetaPoly(2, -1)) == "2 - T"
    assert str(ThetaPoly(0, 0, Fraction(1, 2))) == "1/2*T^2"
    assert str(ThetaPoly.zero()) == "0"
    assert str(ThetaPoly(-1, 1)) == "-1 + T"


def test_theta_refuses_ambient_operands():
    theta = ThetaPoly.theta()
    ambient = AmbientClass.hyperplane(8)
    with pytest.raises(RingMismatchError):
        theta * ambient
    with pytest.raises(RingMismatchError):
        theta + ambient
    with pytest.raises(RingMismatchError):
        ambient + theta
    with pytest.raises(RingMismatchError):
        ambient * theta
    with pytest.raises(RingMismatchError):
        theta - ambient
    with pytest.raises(RingMismatchError):
        ambient - theta


@given(theta_polys, theta_polys, theta_polys)
def test_theta_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + ThetaPoly.zero() == a
    assert a * ThetaPoly.one() == a
    assert (a - b) + b == a


# ------------------------------------------------------------- AmbientClass


def test_ambient_frozen_product():
    # (2T + 4h)(9Th + 10h^2) = 18 T^2 h + 56 T h^2 + 40 h^3 at d = 8.
    x = AmbientClass(8, {(1, 0): 2, (0, 1): 4})
    y = AmbientClass(8, {(1, 1): 9, (0, 2): 10})
    expected = AmbientClass(8, {(2, 1): 18, (1, 2): 56, (0, 3): 40})
    assert x * y == expected


def test_ambient_truncation():
    for d in (8, 200):
        h = AmbientClass.hyperplane(d)
        assert (h ** (d - 1)).is_zero()  # h^(d-1) = 0
        assert h ** (d - 2) == AmbientClass(d, {(0, d - 2): 1})
        assert (AmbientClass.theta(d) ** 3).is_zero()
        assert AmbientClass(d, {(0, d - 1): 1}).is_zero()
        assert AmbientClass(d, {(3, 0): 1}).is_zero()
        # the cut inside a product: only the terms below h^(d-1) survive
        x = AmbientClass(d, {(0, d - 3): 2, (1, 1): 3})
        y = AmbientClass(d, {(0, 1): 5, (1, d - 3): 7})
        assert x * y == AmbientClass(d, {(0, d - 2): 10, (1, 2): 15, (2, d - 2): 21})


def test_ambient_context_validation():
    with pytest.raises(ValueError):
        AmbientClass(7)
    with pytest.raises(ValueError):
        AmbientClass(8, {(-1, 0): 1})
    with pytest.raises(RingMismatchError):
        AmbientClass.hyperplane(8) + AmbientClass.hyperplane(9)
    with pytest.raises(RingMismatchError):
        AmbientClass.hyperplane(8) * AmbientClass.hyperplane(9)


def test_ambient_coefficient_is_range_checked():
    x = AmbientClass.one(8)
    with pytest.raises(IndexError):
        x.coefficient(3, 0)
    with pytest.raises(IndexError):
        x.coefficient(0, 7)


def test_ambient_homogeneity():
    x = AmbientClass(8, {(0, 3): 4, (1, 2): 9, (2, 1): 6})
    assert x.is_homogeneous(3)
    assert not x.is_homogeneous(2)
    assert not (x + AmbientClass.one(8)).is_homogeneous(3)


def test_ambient_str_goldens():
    x = AmbientClass(8, {(0, 3): 4, (1, 2): 9, (2, 1): 6})
    assert str(x) == "4h^3 + 9*T*h^2 + 6*T^2*h"
    assert str(AmbientClass(8, {(0, 2): Fraction(25, 2)})) == "25/2*h^2"
    assert str(-AmbientClass.hyperplane(8)) == "-h"
    assert str(AmbientClass.zero(9)) == "0"
    assert str(AmbientClass(8, {(1, 0): 2, (0, 1): 4})) == "4h + 2*T"
    assert str(AmbientClass(8, {(0, 1): 1, (1, 0): Fraction(1, 2)})) == "h + 1/2*T"


def test_ambient_scalar_ops():
    h = AmbientClass.hyperplane(8)
    assert 1 - h == AmbientClass(8, {(0, 0): 1, (0, 1): -1})
    assert h * 0 == AmbientClass.zero(8)
    assert (h * Fraction(3, 2)).coefficient(0, 1) == Fraction(3, 2)
    assert AmbientClass.one(8) == 1


def test_ambient_equality_ignores_insertion_order():
    terms = {(0, 3): 4, (1, 2): Fraction(9, 2), (2, 1): -6}
    x = AmbientClass(8, terms)
    y = AmbientClass(8, dict(reversed(list(terms.items()))))
    assert x == y
    assert hash(x) == hash(y)
    # the same value reached through different sums
    z = AmbientClass(8, {(2, 1): -6}) + AmbientClass(8, {(1, 2): Fraction(9, 2), (0, 3): 4})
    assert z == x
    assert hash(z) == hash(x)


@pytest.mark.parametrize(
    "value, equal",
    [
        (ThetaPoly(5), 5),
        (ThetaPoly(Fraction(-3, 2)), Fraction(-3, 2)),
        (AmbientClass.one(8) * 5, 5),
        (AmbientClass.zero(9), 0),
        (CurveClass(3), 3),
        (UpstreamClass(ThetaPoly(2, -1)), ThetaPoly(2, -1)),
        (UpstreamClass(4), 4),
    ],
    ids=["theta", "theta-fraction", "ambient", "ambient-zero", "curve", "upstream", "upstream-scalar"],
)
def test_equal_values_hash_alike(value, equal):
    """A ring element equal to a scalar (or to its theta part) hashes like
    it, so sets and dict keys treat the two as one."""
    assert value == equal
    assert hash(value) == hash(equal)
    assert len({value, equal}) == 1
    assert value in {equal} and equal in {value}


def test_ambient_nonzero_terms_sorted_and_zero_free():
    x = AmbientClass(9, {(2, 0): 1, (0, 5): 0, (1, 3): -2, (0, 1): 3})
    x = x + AmbientClass(9, {(2, 0): -1})  # cancels a term
    terms = list(x.nonzero_terms())
    assert terms == [(0, 1, 3), (1, 3, -2)]
    assert terms == sorted(terms)
    assert all(c for _, _, c in terms)


def _naive_mul(x: AmbientClass, y: AmbientClass) -> AmbientClass:
    """Dense quadruple loop over every grid slot: the reference product."""
    d = x.d
    terms: dict[tuple[int, int], Fraction] = {}
    for a1 in range(3):
        for b1 in range(d - 1):
            c1 = x.coefficient(a1, b1)
            if not c1:
                continue
            for a2 in range(3):
                for b2 in range(d - 1):
                    c2 = y.coefficient(a2, b2)
                    if not c2:
                        continue
                    a, b = a1 + a2, b1 + b2
                    if a <= 2 and b <= d - 2:
                        terms[(a, b)] = terms.get((a, b), Fraction(0)) + c1 * c2
    return AmbientClass(d, terms)


@given(ambient_triples())
def test_ambient_mul_matches_naive(triple):
    x, y, _ = triple
    assert x * y == _naive_mul(x, y)


@given(ambient_triples())
def test_ambient_ring_axioms(triple):
    x, y, z = triple
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x + x.zero_like() == x
    assert x * x.one_like() == x
    assert (x - y) + y == x
    # nilpotent multiples annihilate everything
    assert (x * (AmbientClass.theta(x.d) ** 3)).is_zero()
    assert (x * (AmbientClass.hyperplane(x.d) ** (x.d - 1))).is_zero()


@given(ambient_triples())
def test_ambient_additive_inverse(triple):
    x, y, _ = triple
    assert x + y - y == x
    assert hash(x + y - y) == hash(x)
    assert (x - x).is_zero()
    assert x - x == AmbientClass.zero(x.d)
    terms = list((x + y).nonzero_terms())
    assert terms == sorted(terms)
    assert all(c for _, _, c in terms)


def test_ring_mismatch_is_not_a_usage_error():
    assert not issubclass(RingMismatchError, ValueError)


def test_bools_are_not_exact_numbers():
    with pytest.raises(TypeError, match="exact rational coefficient required, got bool"):
        ThetaPoly(True, False)
    with pytest.raises(ValueError, match=r"exponents must be non-negative integers, got \(True, 0\)"):
        AmbientClass(10, {(True, 0): 1})
    # an operator meets a bool as a foreign operand
    assert ThetaPoly(1) != True  # noqa: E712
    with pytest.raises(TypeError):
        ThetaPoly(1) + True
    # and so does the upstream ring, which lifts scalars by the same rule
    assert UpstreamClass.one() != True  # noqa: E712
    with pytest.raises(TypeError, match="unsupported operand"):
        UpstreamClass.one() + True


# ----------------------------------------------------------- canonical form


def _assert_canonical(x):
    """Integer numerators over one positive denominator, in lowest terms."""
    assert x._den > 0
    assert all(type(c) is int and c for c in x._terms.values())
    assert gcd(x._den, *x._terms.values()) == 1


# Two fractional values of one ring: theta classes, or ambient classes sharing d.
same_ring_pairs = st.one_of(
    st.tuples(theta_polys, theta_polys), ambient_triples().map(lambda triple: triple[:2])
)


@given(same_ring_pairs, small_fractions)
def test_values_stay_in_lowest_terms(pair, q):
    x, y = pair
    for value in (x, x + y, x - y, x * y, -x, x * q, q - x, x - x, x ** 2):
        _assert_canonical(value)


@given(same_ring_pairs)
def test_equal_values_store_equal_data(pair):
    x, y = pair
    for via in (x * Fraction(1, 3) * 3, (x + y) - y):
        assert via == x
        assert (via._den, via._terms) == (x._den, x._terms)
        assert hash(via) == hash(x)
    assert (x - x)._den == 1
    assert x - x == x.zero_like()


def test_reduced_constant_hashes_like_its_fraction():
    assert hash(ThetaPoly(Fraction(3, 6))) == hash(Fraction(1, 2))
    assert ThetaPoly(Fraction(3, 6)) == Fraction(1, 2)
    # 1/2 + 1/2 leaves the denominator 2 behind unless it is reduced
    half = AmbientClass(8, {(1, 1): Fraction(1, 2)})
    assert (half + half)._den == 1
    assert hash(AmbientClass.one(8) * Fraction(1, 2) * 2) == hash(1)


@given(theta_polys, ambient_triples())
def test_every_accessor_hands_out_fractions(x, triple):
    a = triple[0]
    values = [x.c0, x.c1, x.c2, CurveClass(1, Fraction(1, 2)).c1]
    values += [x.coefficient(i) for i in range(3)]
    values += [a.coefficient(i, j) for i in range(3) for j in range(a.d - 1)]
    values += [c for _, _, c in a.nonzero_terms()]
    assert all(type(c) is Fraction for c in values)


# ------------------------------------------------------- one rule, three rings

# The same coefficients on x^0 and x^1 in five different rings.  A theta
# class lifts into the upstream ring by pullback, so that pair combines.
_RING_VALUES = {
    "theta": ThetaPoly(1, 2),
    "curve": CurveClass(1, 2),
    "ambient-8": AmbientClass(8, {(0, 0): 1, (1, 0): 2}),
    "ambient-9": AmbientClass(9, {(0, 0): 1, (1, 0): 2}),
    "upstream": UpstreamClass(1, 2),
}


@pytest.mark.parametrize(
    "left, right",
    [pair for pair in permutations(_RING_VALUES, 2) if set(pair) != {"theta", "upstream"}],
)
def test_values_of_different_rings_never_combine(left, right):
    x, y = _RING_VALUES[left], _RING_VALUES[right]
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(RingMismatchError):
            op(x, y)
    assert (x == y) is False
    assert x != y


@pytest.mark.parametrize(
    "value",
    [ThetaPoly.theta(), CurveClass.point(), AmbientClass.one(8), UpstreamClass.fiber()],
    ids=["theta", "curve", "ambient", "upstream"],
)
def test_reflected_subtraction_reports_the_minus(value):
    name = type(value).__name__
    with pytest.raises(TypeError, match=f"for -: 'NoneType' and '{name}'"):
        None - value
    assert 2 - value == -(value - 2)


def _truncated_convolution(a: list, b: list, top: int) -> list:
    """``c_k = sum_{i+j=k} a_i b_j`` for k <= top: the reference product of
    ``Q[x]/(x^(top+1))`` on dense coefficient lists."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(top + 1)]


theta_coefficients = st.lists(small_fractions, min_size=3, max_size=3)
curve_coefficients = st.lists(small_fractions, min_size=2, max_size=2)


@given(theta_coefficients, theta_coefficients)
def test_theta_mul_matches_truncated_convolution(a, b):
    assert ThetaPoly(*a) * ThetaPoly(*b) == ThetaPoly(*_truncated_convolution(a, b, 2))


@given(curve_coefficients, curve_coefficients)
def test_curve_mul_matches_truncated_convolution(a, b):
    assert CurveClass(*a) * CurveClass(*b) == CurveClass(*_truncated_convolution(a, b, 1))


# ------------------------------------------------------- reference series
# A series is a tuple of ring values c_0..c_order; ``series_reference`` holds
# the plain series arithmetic the graded kernel is checked against.


def test_series_rejects_mixed_rings():
    # Zero and constant series still meet the other ring, in either order.
    theta_zero = to_order([ThetaPoly.zero()], 2)
    ambient_one = to_order([AmbientClass.one(8)], 2)
    with pytest.raises(RingMismatchError):
        series_mul(theta_zero, ambient_one)
    with pytest.raises(RingMismatchError):
        series_mul(ambient_one, theta_zero)
    with pytest.raises(RingMismatchError):
        series_mul(ambient_one, to_order([AmbientClass.one(9)], 2))


def test_series_geometric_inverse():
    # 1 / (1 - h t) = sum_k h^k t^k.
    d, order = 8, 6
    one = AmbientClass.one(d)
    h = AmbientClass.hyperplane(d)
    series = to_order([one, -h], order)
    inv = series_inverse(series)
    assert inv == tuple(h ** k for k in range(order + 1))
    assert series_mul(series, inv) == to_order([one], order)


def test_series_nilpotent_inverse():
    # 1 / (1 + T t) = 1 - T t + T^2 t^2, exactly, since T^3 = 0.
    theta = ThetaPoly.theta()
    series = to_order([ThetaPoly.one(), theta], 4)
    expected = to_order([ThetaPoly.one(), -theta, theta * theta], 4)
    assert series_inverse(series) == expected


def test_series_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        series_inverse(to_order([ThetaPoly(2)], 3))


def test_series_exp_of_nilpotent():
    theta = ThetaPoly.theta()
    series = to_order([ThetaPoly.zero(), -theta], 5)
    result = series_exp(series)
    assert result[:4] == (ThetaPoly.one(), -theta, theta * theta * Fraction(1, 2), ThetaPoly.zero())


def test_series_telescoping_product():
    # (1 + h t)(1 - h t + h^2 t^2) = 1 + h^3 t^3.
    d, order = 9, 5
    one = AmbientClass.one(d)
    h = AmbientClass.hyperplane(d)
    left = to_order([one, h], order)
    right = to_order([one, -h, h * h], order)
    expected = to_order([one, one * 0, one * 0, h ** 3], order)
    assert series_mul(left, right) == expected


def test_series_binary_ops_truncate_to_smaller_order():
    one = ThetaPoly.one()
    theta = ThetaPoly.theta()
    a = to_order([one, theta], 5)
    b = to_order([one, theta], 2)
    assert len(series_mul(a, b)) == 3


def test_series_scaling_by_ring_element():
    theta = ThetaPoly.theta()
    s = to_order([ThetaPoly.one(), theta], 2)
    assert series_mul(s, theta)[:2] == (theta, theta * theta)


@st.composite
def theta_series(draw, constant):
    coeffs = [draw(theta_polys) for _ in range(draw(st.integers(1, 4)))]
    coeffs[0] = constant
    return to_order(coeffs, 4)


@given(theta_series(constant=ThetaPoly.one()))
def test_series_inverse_contract(s):
    assert series_mul(s, series_inverse(s)) == to_order([ThetaPoly.one()], len(s) - 1)


@given(theta_series(constant=ThetaPoly.zero()), theta_series(constant=ThetaPoly.zero()))
def test_series_exp_group_law(a, b):
    assert series_mul(series_exp(a), series_exp(b)) == series_exp(series_add(a, b))


# ------------------------------------------------------------ graded kernel
# The kernel takes and gives integer columns.  ``graded_quotient`` and
# ``graded_exp_product`` of ``series_reference`` run its ``_quotient``, and its
# ``_exp`` and ``_dot``, on the columns of a series, which they validate first.


@st.composite
def graded_series(draw, d=None):
    """1 + sum_k c_k t^k with c_k homogeneous of degree k, over a drawn d
    unless one is given, up to three orders past the truncation h^(d-1) = 0.
    Each coefficient is n/m, |n| <= 24, m <= 4, drawn as two plain integer
    lists, several times cheaper than one ``st.fractions`` draw per coefficient.
    A T^2 coefficient shifted by 1/6 (one bit of ``shifts`` per k) has a
    doubled value that is not an integer, so the kernel meets Fractions."""
    if d is None:
        d = draw(st.integers(8, 12))
    order = draw(st.integers(1, d + 3))
    size = 3 * order
    numerators = draw(st.lists(st.integers(-24, 24), min_size=size, max_size=size))
    denominators = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
    shifts = draw(st.integers(0, 2 ** order - 1))
    values = map(Fraction, numerators, denominators)
    coeffs = [AmbientClass.one(d)]
    for k in range(1, order + 1):
        terms = {(0, k): next(values), (1, k - 1): next(values)}
        t_squared = next(values) + Fraction(shifts >> (k - 1) & 1, 6)
        if k >= 2:
            terms[(2, k - 2)] = t_squared
        coeffs.append(AmbientClass(d, terms))
    return tuple(coeffs)


def _one_like(series):
    return to_order([series[0].one_like()], len(series) - 1)


@given(graded_series())
def test_graded_inverse_matches_series_inverse(series):
    """The kernel's inverse is its quotient of 1."""
    assert graded_quotient(_one_like(series), series) == series_inverse(series)


@given(graded_series(), st.data())
def test_graded_quotient_matches_product_with_inverse(series, data):
    """quotient(a, b) == a * b.inverse() for a numerator of any constant term
    and an order at, below or past the divisor's."""
    numerator = series_mul(data.draw(graded_series(series[0].d)), data.draw(small_fractions))
    assert graded_quotient(numerator, series) == series_mul(numerator, series_inverse(series))


def test_graded_quotient_at_order_zero():
    d = 8
    numerator = to_order([AmbientClass.one(d) * 3], 0)
    assert graded_quotient(numerator, _one_like(numerator)) == numerator


def test_graded_inverse_needs_constant_term_one():
    d = 8
    series = to_order([AmbientClass.one(d) * 2, AmbientClass.hyperplane(d)], 3)
    with pytest.raises(ValueError, match="constant term 1"):
        graded_quotient(_one_like(series), series)


def _without_constant(series):
    return to_order([series[0].zero_like(), *series[1:]], len(series) - 1)


@settings(max_examples=30)
@given(graded_series())
def test_graded_exp_matches_series_exp(series):
    argument = _without_constant(series)
    one = to_order([series[0]], len(series) - 1)
    assert graded_exp_product(one, argument) == series_exp(argument)


@settings(max_examples=30)
@given(graded_series(), st.integers(0, 15), small_fractions)
def test_graded_product_matches_series_product(series, cut, scale):
    """The kernel's ``_dot``, the product in ``graded_exp_product``, against
    the reference ``series_mul``, for a factor of any constant term and an
    order at, below or past the argument's.  The factor is cut from the drawn series, since drawing is
    the slow part; the graded exp is checked against the reference exp above."""
    argument = _without_constant(series)
    factor = series_mul(to_order(series[: cut + 1], cut), scale)
    one = to_order([series[0]], len(series) - 1)
    exp = graded_exp_product(one, argument)
    assert graded_exp_product(factor, argument) == series_mul(factor, exp)


def column_triples(size, bound=10 ** 6):
    """Three signed int columns of one length whose x1 entries are all nonzero,
    so the summed column x0 + x1 differs from x0 at every index."""
    column = st.lists(st.integers(-bound, bound), min_size=size, max_size=size)
    nonzero = st.integers(-bound, bound).filter(bool)
    return st.tuples(column, st.lists(nonzero, min_size=size, max_size=size), column)


def _summed_by_hand(columns):
    return [x0 + x1 for x0, x1 in zip(columns[0], columns[1])]


@given(st.data(), st.integers(1, 12), st.integers(1, 6), st.booleans())
def test_graded_dot_matches_schoolbook_dot(data, size, extra, longer_first):
    """The kernel's five-product dot against the six-product schoolbook form
    on columns of unequal lengths, read to the shorter one."""
    sizes = (size + extra, size) if longer_first else (size, size + extra)
    a, b = (data.draw(column_triples(n)) for n in sizes)
    assert _dot(a, b, _summed_by_hand(a), _summed_by_hand(b)) == schoolbook_dot(a, b)


@pytest.mark.parametrize("divisor", [None, lambda m: m + 1], ids=["undivided", "divided"])
@given(data=st.data(), order=st.integers(0, 10), size=st.integers(1, 13))
def test_graded_solve_meets_its_recurrence(divisor, data, order, size):
    """q_0 = n_0 and divisor(m) q_m = n_m + sum_(k>=1) c_k q_(m-k), checked
    through the schoolbook dot, for a numerator shorter or longer than the
    order whose x1 is nonzero from index 0 on."""
    columns = data.draw(column_triples(order + 1))
    numerator = data.draw(column_triples(size))
    q = _solve(columns, divisor, numerator)
    assert [len(column) for column in q] == [order + 1] * 3
    assert [column[0] for column in q] == [column[0] for column in numerator]
    for m in range(1, order + 1):
        dot = schoolbook_dot([column[m:0:-1] for column in columns], [column[:m] for column in q])
        n = [column[m] if m < size else 0 for column in numerator]
        scale = divisor(m) if divisor else 1
        assert [scale * column[m] for column in q] == [x + y for x, y in zip(dot, n)]


@settings(max_examples=20)
@given(column_triples(41, 99))
def test_graded_solve_top_is_the_solve_s_last_entry(columns):
    """Half the recurrence and one Newton step give the last entry of the
    full solve on random columns of every order from 1 to 40, the prefixes
    of one draw, its entries and its draws kept few so that 40 orders stay
    cheap; c_0 is random too, and neither reads it."""
    for order in range(1, 41):
        prefix = [column[: order + 1] for column in columns]
        assert _solve_top(prefix) == tuple(column[-1] for column in _solve(prefix)), order


def test_graded_solve_top_refuses_order_zero():
    """At order 0 no Newton step fits (it needs h <= n < 2h), so the top refuses."""
    with pytest.raises(ValueError, match="order n >= 1"):
        _solve_top([[1], [0], [0]])


def test_graded_exp_needs_constant_term_zero():
    series = to_order([AmbientClass.one(8), AmbientClass.hyperplane(8)], 3)
    with pytest.raises(ValueError, match="constant term 0"):
        graded_exp_product(series, series)


# Each series entry point to the kernel, with the series under test as the
# divisor of 1 (the inverse), the numerator over 1, the factor of an exp or the
# exponent (after an ambient factor 1).  The tests below hold each to the
# columns the kernel can read, so that the kernel tests above cannot pass on
# columns a series does not have.
GRADED_ENTRY_POINTS = [
    lambda series: graded_quotient(_one_like(series), series),
    lambda series: graded_quotient(series, to_order([AmbientClass.one(8)], 3)),
    lambda series: graded_exp_product(series, _without_constant(series)),
    lambda series: graded_exp_product(
        to_order([AmbientClass.one(8)], 3), _without_constant(series)
    ),
]
GRADED_ENTRY_IDS = ["inverse", "numerator", "factor", "exponent"]


@pytest.mark.parametrize("kernel", GRADED_ENTRY_POINTS, ids=GRADED_ENTRY_IDS)
def test_graded_kernel_needs_homogeneous_coefficients(kernel):
    d = 8
    c1 = AmbientClass(d, {(0, 1): 1, (1, 1): 1})
    series = to_order([AmbientClass.one(d), c1], 3)
    with pytest.raises(ArithmeticError, match=r"c_1 = .* is not homogeneous of degree 1"):
        kernel(series)


@pytest.mark.parametrize("kernel", GRADED_ENTRY_POINTS[1::2], ids=GRADED_ENTRY_IDS[1::2])
def test_graded_kernel_needs_one_d(kernel):
    """graded_quotient and graded_exp_product refuse a series over d = 9
    against one over d = 8, rather than answer over either d."""
    series = to_order([AmbientClass.one(9), AmbientClass.hyperplane(9)], 3)
    with pytest.raises(RingMismatchError, match="cannot combine"):
        kernel(series)


@pytest.mark.parametrize("kernel", GRADED_ENTRY_POINTS, ids=GRADED_ENTRY_IDS)
def test_graded_kernel_needs_ambient_coefficients(kernel):
    series = to_order([ThetaPoly.one(), ThetaPoly.theta()], 3)
    with pytest.raises(TypeError, match="the graded kernel needs ambient coefficients"):
        kernel(series)
