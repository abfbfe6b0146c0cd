"""Binomial toolkit, the degree pairing, and the final degree with its
classical cross-check."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trisecant.degree import (
    THETA_SELF_INTERSECTION,
    berzolari,
    binomial,
    class_degree,
    degree_pairing,
    secant3_degree,
    verify_binomial_identities,
)
from trisecant.porteous import determinant_formula
from trisecant.ring import AmbientClass


def test_binomial_agrees_with_math_comb():
    for n in range(0, 12):
        for k in range(0, 14):
            assert binomial(n, k) == math.comb(n, k)


def test_binomial_negative_upper_goldens():
    # Falling-factorial values, not routed through the negation identity.
    assert binomial(-3, 2) == 6
    assert binomial(-4, 3) == -20
    assert binomial(-1, 0) == 1
    assert binomial(-1, 5) == -1


def test_binomial_negative_k_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(-5, -2) == 0


def test_binomial_rejects_non_integers():
    """A bool is no integer argument: ``binomial(5, True)`` must not read as binomial(5, 1)."""
    for n, k in ((2.5, 1), (4, "2"), (5, True), (True, 0), (False, False)):
        with pytest.raises(TypeError, match="binomial arguments must be integers"):
            binomial(n, k)


@given(st.integers(0, 10), st.integers(0, 10))
def test_binomial_upper_negation(r, m):
    assert binomial(-r, m) == (-1) ** m * binomial(r + m - 1, m)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_binomial_vandermonde(m, s, r):
    assert sum(binomial(m, k) * binomial(s, r - k) for k in range(r + 1)) == binomial(
        m + s, r
    )


@given(st.integers(-10, 10), st.integers(1, 10))
def test_binomial_pascal_rule_all_integer_n(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_verify_binomial_identities():
    assert verify_binomial_identities(8)


def test_degree_pairing_reads_the_top_cell():
    assert THETA_SELF_INTERSECTION == 2
    assert degree_pairing(AmbientClass(8, {(2, 6): 1})) == 2
    assert degree_pairing(AmbientClass(8, {(2, 6): 3})) == 6
    assert degree_pairing(AmbientClass(8, {(1, 6): 1})) == 0
    assert degree_pairing(AmbientClass.zero(8)) == 0


@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=3),
    st.fractions(min_value=-5, max_value=5, max_denominator=3),
    st.integers(0, 2),
    st.integers(0, 6),
    st.integers(0, 2),
    st.integers(0, 6),
)
def test_degree_pairing_is_linear(a, b, p1, q1, p2, q2):
    x = AmbientClass(8, {(p1, q1): 3})
    y = AmbientClass(8, {(p2, q2): 5})
    assert degree_pairing(x * a + y * b) == a * degree_pairing(x) + b * degree_pairing(y)


def test_class_degree_refuses_a_non_homogeneous_class():
    """A stray lower term leaves the top cell, and so the pairing, unchanged;
    only the homogeneity check stands between it and a plausible degree."""
    d = 11
    locus = determinant_formula(d - 5, d)
    assert class_degree(locus, "closed-form") == 70
    stray = locus + AmbientClass.hyperplane(d)
    with pytest.raises(ArithmeticError, match=r"d=11 \(closed-form\) is not homogeneous"):
        class_degree(stray, "closed-form")


def test_class_degree_refuses_a_degree_that_is_not_a_positive_integer():
    """Both classes are homogeneous of degree d - 5, so only the positivity
    and integrality check stands between them and a reported degree."""
    d = 11
    negated = -determinant_formula(d - 5, d)
    half = AmbientClass(d, {(2, d - 7): Fraction(1, 4)})  # pairs to 1/2
    for locus, value in ((negated, "-70"), (half, "1/2")):
        assert locus.is_homogeneous(d - 5)
        with pytest.raises(ArithmeticError, match=rf"d=11 \(segre\) .* got {value}$"):
            class_degree(locus, "segre")


def test_spot_degrees():
    assert secant3_degree(8) == 12
    assert secant3_degree(9) == 25
    assert secant3_degree(10) == 44
    assert secant3_degree(12) == 104


def test_secant3_degree_method_dispatch():
    for method in ("segre", "recurrence", "closed-form"):
        assert secant3_degree(11, method=method) == 70
    with pytest.raises(ValueError):
        secant3_degree(11, method="leibniz")


def test_secant3_degree_validation():
    with pytest.raises(ValueError):
        secant3_degree(7)
    with pytest.raises(ValueError):
        secant3_degree("nine")


def test_berzolari_direct_values():
    assert berzolari(8) == math.comb(6, 3) - 2 * 4
    assert berzolari(9) == math.comb(7, 3) - 2 * 5
    with pytest.raises(ValueError):
        berzolari(7)


@given(st.integers(8, 30))
def test_all_routes_match_the_classical_count(d):
    reference = berzolari(d)
    assert secant3_degree(d, method="segre") == reference
    assert secant3_degree(d, method="recurrence") == reference
    assert secant3_degree(d, method="closed-form") == reference
