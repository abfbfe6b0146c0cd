"""The Chern-series pipeline and the three routes to the secant class.

The heavyweight oracle here is a Leibniz permutation-sum determinant: for
small d the banded matrix is built here from the Chern coefficients and
evaluated as a literal signed sum over all permutations, with no recurrence
and no series quotient shared with the production code."""

from fractions import Fraction
from functools import reduce
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trisecant import _graded, porteous
from trisecant.degree import binomial
from trisecant.porteous import (
    METHODS,
    chern_coefficient_formula,
    chern_coefficients,
    determinant_formula,
    determinant_segre,
    porteous_class,
    recurrence_determinants,
    virtual_chern_series,
    virtual_chern_series_closed_form,
    virtual_chern_series_expansion,
)
from trisecant.riemann_roch import bundle_characters
from trisecant.ring import AmbientClass, ThetaPoly, TruncatedClass

from series_reference import (
    binomial_column,
    chern_series,
    formula_triple,
    series_add,
    series_exp,
    series_inverse,
    series_mul,
    source_series,
    target_series,
    to_order,
    twist,
)


def _repeated_product(series, n):
    """``series`` to the n-th power as n plain series products."""
    one = to_order([series[0].one_like()], len(series) - 1)
    return reduce(series_mul, [series] * n, one)


def test_surface_bundle_chern_series_is_exponential():
    # A bundle with character r - T has total Chern series e^(-T t).
    d = 8
    sections, _ = bundle_characters(d)
    theta = AmbientClass.theta(d)
    expected = (AmbientClass.one(d), -theta, theta * theta * Fraction(1, 2), AmbientClass.zero(d))
    assert chern_series(sections, d)[:4] == expected


def test_dualizing_negates_only_the_odd_part():
    d = 8
    sections, _ = bundle_characters(d)
    plain = chern_series(sections, d)
    dual = chern_series(sections, d, dual=True)
    assert dual[1] == -plain[1]
    assert dual[2] == plain[2]


def test_second_chern_class_subtracts_ch2():
    """c2 = ch_1^2 / 2 - ch_2.  Both pushforward characters have ch_2 = 0, so
    a character with ch_2 != 0 pins the sign: ch = 3 + T + T^2 gives
    c1 = T and c2 = -T^2/2, and dualizing negates c1 alone."""
    d = 8
    theta = AmbientClass.theta(d)
    for dual, c1 in ((False, theta), (True, -theta)):
        series = chern_series(ThetaPoly(3, 1, 1), d, dual=dual)
        assert series[1:3] == (c1, theta * theta * Fraction(-1, 2))


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
characters = st.builds(ThetaPoly, small_fractions, small_fractions, small_fractions)


@given(characters, st.booleans(), st.integers(8, 30))
def test_chern_triples_follow_the_character(character, dual, d):
    """The triples hold c1 = ch_1 (negated when dual) and twice the T^2 part
    of c2 = ch_1 * ch_1 / 2 - ch_2, computed here in ``ThetaPoly``
    arithmetic, with integral entries as ints; the classes built from them
    are 1, c1 and c2."""
    ch1 = ThetaPoly(0, character.c1)
    c1 = -ch1 if dual else ch1
    c2 = ch1 * ch1 * Fraction(1, 2) - ThetaPoly(0, 0, character.c2)
    triples = porteous._chern_triples(character, dual)
    assert triples == [(1, 0, 0), (0, c1.c1, 0), (0, 0, 2 * c2.c2)]
    assert all(isinstance(x, int) for t in triples for x in t if x == int(x))
    expected = (
        AmbientClass.one(d), AmbientClass(d, {(1, 0): c1.c1}), AmbientClass(d, {(2, 0): c2.c2})
    )
    assert _graded._classes(d, list(zip(*triples))) == expected


def test_twist_of_trivial_series_is_binomial():
    d, order = 8, 5
    one = AmbientClass.one(d)
    h = AmbientClass.hyperplane(d)
    twisted = twist(to_order([one], order), 3)
    # (1 - h t)^3
    assert twisted[:5] == (one, h * (-3), h * h * 3, h ** 3 * (-1), AmbientClass.zero(d))


def test_twist_validation():
    d = 8
    one = AmbientClass.one(d)
    trivial = to_order([one], 4)
    with pytest.raises(ValueError):
        twist(to_order([one * 2], 4), 3)
    with pytest.raises(ValueError):
        twist(trivial, -1)
    with pytest.raises(TypeError):
        twist(to_order([ThetaPoly.one()], 4), 3)


def _twist_by_binomials(triples, rank, k):
    """The twist's t^k triple with one ``degree.binomial`` per c_i, i <= k."""
    terms = [(binomial(rank - i, k - i) * (-1) ** (k - i), t) for i, t in enumerate(triples)]
    return [sum(s * t[a] for s, t in terms[: k + 1]) for a in range(3)]


@pytest.mark.parametrize(
    "triples",
    [[(1, 0, 0), (3, -2, 0), (5, 7, -4)], [(1, 0, 0), (0, 0, 0), (2, 1, 3)]],
    ids=["dense", "zero-c1"],
)
def test_twist_rows_match_binomial_at_every_k(triples):
    """The twist steps each row binomial(rank - i, k - i) over k by term
    ratios; against one ``degree.binomial`` per (k, i) for ranks 0..6 and
    every k up to 12, read as the division reads them (k = 0..12), one k at a
    time and as the Segre route's descending three.  Ranks below 2 reach
    negative upper arguments."""
    twisted = porteous._twisted_coefficients
    for rank in range(7):
        expected = [_twist_by_binomials(triples, rank, k) for k in range(13)]
        assert twisted(triples, rank, range(13)) == expected, rank
        for k in range(13):
            assert twisted(triples, rank, (k,)) == [expected[k]], (rank, k)
        for k in range(2, 13):
            segre = [expected[k], expected[k - 1], expected[k - 2]]
            assert twisted(triples, rank, (k, k - 1, k - 2)) == segre, (rank, k)


@pytest.mark.parametrize("i", (1, 2))
def test_twist_refuses_a_non_homogeneous_coefficient(i):
    """The twist works on the kernel's triples, so a c_i that is not
    homogeneous of degree i is refused with the kernel's message naming i."""
    d = 8
    coeffs = [AmbientClass.one(d), AmbientClass.hyperplane(d), AmbientClass.theta(d) ** 2]
    coeffs[i] = coeffs[i] + 1
    with pytest.raises(ArithmeticError, match=rf"c_{i} = .* is not homogeneous of degree {i}"):
        twist(to_order(coeffs, 4), 3)


def test_segre_route_validates_the_source_like_the_twist(monkeypatch):
    """The Segre route reads the twist without building the source series,
    and still refuses Chern triples whose c_0 is not 1."""
    original = porteous._chern_triples

    def starting_at_2(character, dual=False):
        return [(2, 0, 0), *original(character, dual)[1:]]

    monkeypatch.setattr(porteous, "_chern_triples", starting_at_2)
    with pytest.raises(ValueError, match="a total Chern series must start at 1"):
        determinant_segre(9)


@pytest.mark.parametrize("route", [determinant_segre, virtual_chern_series])
def test_routes_refuse_a_target_not_starting_at_1(monkeypatch, route):
    """The quotient never reads the target's c_0, so both routes that divide
    by the target check it where they read the triples."""
    original = porteous._chern_triples

    def target_at_2(character, dual=False):
        triples = original(character, dual)
        return [(2, 0, 0), *triples[1:]] if dual else triples

    monkeypatch.setattr(porteous, "_chern_triples", target_at_2)
    with pytest.raises(ValueError, match="a total Chern series must start at 1"):
        route(9)


def test_multiplication_map_bundles_shape():
    """The source is the residual bundle (rank d - 4) twisted by O(-1); the
    target is the dual of the sections bundle (rank 2), untwisted: both as
    the routes read them."""
    d = 9
    sections, residual = bundle_characters(d)
    assert residual.c0 == d - 4
    assert sections.c0 == 2
    source, target = porteous._source_and_target(d, range(d - 4))
    residual_series = chern_series(residual, d)
    assert _graded._classes(d, list(zip(*source))) == twist(residual_series, d - 4)
    assert source_series(d) != residual_series
    assert list(zip(*target)) == porteous._chern_triples(sections, dual=True)
    assert list(zip(*target)) != porteous._chern_triples(sections)


@pytest.mark.parametrize("d", (8, 13, 30))
def test_twist_matches_substitution_reference(d):
    """The binomial sum equals (1 - h t)^rank * c(t / (1 - h t)), the
    substitution done here by Horner's rule in series products; ranks 0
    and 1 reach negative upper binomials, and the order d - 2 reaches the
    h^(d-1) truncation."""
    order = d - 2
    one = AmbientClass.one(d)
    h = AmbientClass.hyperplane(d)
    theta = AmbientClass.theta(d)
    t = to_order([AmbientClass.zero(d), one], order)
    coefficients = [
        one,
        theta * -1 + h * Fraction(3, 2),
        theta * theta * Fraction(5, 2) - theta * h,
        theta * h * h * 7 + h ** 3,
    ]
    series = to_order(coefficients, order)
    one_minus = to_order([one, -h], order)
    u = series_mul(t, series_inverse(one_minus))
    substituted = to_order([coefficients[-1]], order)
    for c in reversed(coefficients[:-1]):
        substituted = series_add(series_mul(substituted, u), to_order([c], order))
    for rank in (0, 1, 2, d - 4):
        reference = series_mul(_repeated_product(one_minus, rank), substituted)
        assert twist(series, rank) == reference, rank


def test_source_and_target_series_constants():
    d = 10
    assert source_series(d)[0] == AmbientClass.one(d)
    assert target_series(d)[0] == AmbientClass.one(d)


@pytest.mark.parametrize("d", (8, 10, 13))
def test_twisted_series_exponential_forms(d):
    """Target is exp(T t); source is (1 - h t)^(d-4) exp(-T t / (1 - h t))."""
    order = d - 5
    one = AmbientClass.one(d)
    h = AmbientClass.hyperplane(d)
    theta = AmbientClass.theta(d)
    t_theta = to_order([AmbientClass.zero(d), theta], order)
    assert target_series(d) == series_exp(t_theta)
    one_minus = to_order([one, -h], order)
    argument = series_mul(series_mul(t_theta, series_inverse(one_minus)), -1)
    expected_source = series_mul(_repeated_product(one_minus, d - 4), series_exp(argument))
    assert source_series(d) == expected_source


@pytest.mark.parametrize("d", (*range(8, 15), 100, 200))
def test_virtual_series_three_forms_agree(d):
    division = virtual_chern_series(d)
    assert division == virtual_chern_series_closed_form(d)
    assert division == virtual_chern_series_expansion(d)


def test_first_coefficients_golden_d8():
    c = chern_coefficients(8)
    assert c[0] == AmbientClass(8, {(0, 1): 4, (1, 0): 2})
    assert c[1] == AmbientClass(8, {(0, 2): 10, (1, 1): 9, (2, 0): 2})
    assert c[2] == AmbientClass(8, {(0, 3): 20, (1, 2): 25, (2, 1): 10})


def test_first_chern_coefficient_for_general_d():
    # c_1 = (d - 4) h + 2 T.
    for d in (8, 11, 14):
        assert chern_coefficient_formula(1, d) == AmbientClass(
            d, {(0, 1): d - 4, (1, 0): 2}
        )


def test_coefficient_formula_range():
    with pytest.raises(ValueError):
        chern_coefficient_formula(0, 8)
    with pytest.raises(ValueError):
        chern_coefficient_formula(4, 8)


def test_chern_coefficients_refuses_a_formula_mismatch(monkeypatch):
    """The division is checked against the closed formula at every index:
    c_2 + h^2 in the formula's columns is refused at i = 2."""
    formula = porteous._formula_columns

    def shifted(d, order):
        x0, x1, x2 = formula(d, order)
        return [x + 1 if i == 2 else x for i, x in enumerate(x0)], x1, x2

    monkeypatch.setattr(porteous, "_formula_columns", shifted)
    with pytest.raises(ArithmeticError, match="i=2, d=9"):
        chern_coefficients(9)


def test_formula_columns_match_comb_at_every_order():
    """The Pascal columns against one ``math.comb`` per entry: the formula's
    triples, the expansion's b(k) = binomial(d + k - 3, k) and the
    exponential form's tail binomial(d - 5 + k, k), at every order from 0,
    below the formula's first X2 term at i = 4, to d - 5."""
    for d in range(8, 201):
        triples = [formula_triple(i, d) for i in range(d - 4)]
        tail, b = binomial_column(d - 5, d - 5), binomial_column(d - 3, d - 5)
        for order in range(d - 4):
            assert list(zip(*porteous._formula_columns(d, order))) == triples[: order + 1]
            low, _, high = porteous._pascal_columns(d, order)
            assert low == tail[: order + 1] and high == b[: order + 1]


@pytest.mark.parametrize("d", [20, 200])
def test_recurrence_route_calls_no_binomial(monkeypatch, d):
    """The recurrence route reads the formula off Pascal columns built in
    integer steps, with no binomial coefficient computed per entry."""
    calls = []
    original = porteous.binomial

    def counted(n, k):
        calls.append((n, k))
        return original(n, k)

    monkeypatch.setattr(porteous, "binomial", counted)
    porteous_class(d, "recurrence")
    assert calls == []


def test_segre_quotient_matches_recurrence_determinants():
    """(-1)^m [t^m] c_t(source) / c_t(target) is the m-th banded determinant."""
    for d in (8, 9, 13, 30):
        quotient = series_mul(source_series(d), series_inverse(target_series(d)))
        dets = recurrence_determinants(d)
        for m in range(d - 4):
            sign = 1 if m % 2 == 0 else -1
            assert quotient[m] * sign == dets[m], (d, m)
        assert determinant_segre(d) == dets[d - 5]


@pytest.mark.parametrize("d", (10, 60, 200))
def test_segre_reads_the_whole_quotient_coefficient(d):
    """The route's three-coefficient read equals (-1)^n [t^n] of the whole
    quotient c_t(source) / c_t(target), n = d - 5; the test above covers
    d = 8 and 9 through the banded determinants."""
    n = d - 5
    quotient = series_mul(source_series(d), series_inverse(target_series(d)))
    assert determinant_segre(d) == quotient[n] * (-1) ** n


def test_segre_cost_does_not_grow_with_d(monkeypatch):
    """The Segre route makes no ring product, and as many integer products of
    the graded kernel at d = 400 as at d = 20."""
    calls = []

    def class_product(self, other):
        calls.append("ring")
        return TruncatedClass.__mul__(self, other)

    def integer_product(x, y):
        calls.append("kernel")
        return x * y

    monkeypatch.setattr(AmbientClass, "__mul__", class_product)
    monkeypatch.setattr(AmbientClass, "__rmul__", class_product)
    monkeypatch.setattr(_graded, "mul", integer_product)
    counts = []
    for d in (20, 400):
        calls.clear()
        determinant_segre(d)
        counts.append((calls.count("ring"), calls.count("kernel")))
    assert counts[0] == counts[1]
    assert counts[0][0] == 0 and counts[0][1] > 0


def _band(d: int) -> list[list[AmbientClass]]:
    """The (d-5) x (d-5) Toeplitz-Hessenberg matrix: entry (r, c) holds
    c_(c-r+1), with 1 on the subdiagonal and 0 below it."""
    c = (AmbientClass.one(d),) + chern_coefficients(d)  # c_0, c_1, ..., c_(d-5)
    n = d - 5
    zero = AmbientClass.zero(d)
    return [
        [c[col - row + 1] if col >= row - 1 else zero for col in range(n)] for row in range(n)
    ]


def _leibniz_determinant(matrix: list[list[AmbientClass]]) -> AmbientClass:
    n = len(matrix)
    total = matrix[0][0].zero_like()
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = matrix[0][perm[0]]
        for row in range(1, n):
            term = term * matrix[row][perm[row]]
        total = total + term if inversions % 2 == 0 else total - term
    return total


@pytest.mark.parametrize("d", (8, 9, 10))
def test_determinants_match_leibniz_sum(d):
    oracle = _leibniz_determinant(_band(d))
    assert determinant_segre(d) == oracle
    assert recurrence_determinants(d)[d - 5] == oracle
    assert determinant_formula(d - 5, d) == oracle


def test_small_recurrence_determinants():
    d = 10
    c = chern_coefficients(d)
    dets = recurrence_determinants(d)
    assert dets[0] == AmbientClass.one(d)
    assert dets[1] == c[0]
    assert dets[2] == c[0] * c[0] - c[1]


def test_secant_class_golden_d8():
    expected = AmbientClass(8, {(0, 3): 4, (1, 2): 9, (2, 1): 6})
    for method in METHODS:
        assert porteous_class(8, method=method) == expected
    assert str(expected) == "4h^3 + 9*T*h^2 + 6*T^2*h"


def test_secant_class_golden_d9():
    expected = AmbientClass(
        9, {(0, 4): 5, (1, 3): 14, (2, 2): Fraction(25, 2)}
    )
    assert porteous_class(9) == expected


@pytest.mark.parametrize("d", range(8, 15))
def test_secant_class_is_homogeneous(d):
    for method in METHODS:
        x1 = porteous_class(d, method=method)
        assert x1.is_homogeneous(d - 5)
        # the theta-free part is always (d - 4) h^(d-5)
        assert x1.coefficient(0, d - 5) == d - 4


def test_determinant_formula_validation():
    with pytest.raises(ValueError):
        determinant_formula(2, 10)
    with pytest.raises(ValueError):
        determinant_formula(6, 10)


def test_porteous_class_validation():
    with pytest.raises(ValueError):
        porteous_class(7)
    with pytest.raises(ValueError):
        porteous_class(8, method="gaussian")


def test_closed_form_matches_recurrence_along_the_chain():
    for d in (11, 14):
        dets = recurrence_determinants(d)
        for n in range(3, d - 4):
            assert determinant_formula(n, d) == dets[n]


def _ambient_recurrence(d: int, coefficients) -> tuple[AmbientClass, ...]:
    """The banded recurrence d_m = sum_i (-1)^(i-1) c_i d_(m-i), term by
    term on AmbientClass values: the reference for the graded kernel."""
    dets = [AmbientClass.one(d)]
    for m in range(1, d - 4):
        total = AmbientClass.zero(d)
        for i in range(1, m + 1):
            term = coefficients[i - 1] * dets[m - i]
            total = total + term if i % 2 else total - term
        dets.append(total)
    return tuple(dets)


@pytest.mark.parametrize("d", (8, 13, 30))
def test_recurrence_kernel_matches_ambient_double_loop(d):
    """The kernel's solve on the formula's integer triples against the
    recurrence run term by term on the formula's classes."""
    coefficients = [chern_coefficient_formula(i, d) for i in range(1, d - 4)]
    assert recurrence_determinants(d) == _ambient_recurrence(d, coefficients)


@pytest.mark.parametrize("d", (8, 9, 60, 200))
def test_recurrence_route_is_the_top_determinant(d):
    """The route solves the recurrence on the formula's integer columns and
    builds d_(d-5) alone; it is the last of the d - 4 determinants."""
    dets = recurrence_determinants(d)
    assert len(dets) == d - 4
    assert porteous_class(d, "recurrence") == dets[d - 5]


def test_recurrence_route_cost_does_not_grow_with_d(monkeypatch):
    """The recurrence route builds as many ring values at d = 200 as at
    d = 20: its O(d^2) solve runs on integer columns, not on classes."""
    built = []
    construct, new = TruncatedClass.__init__, TruncatedClass._new

    def constructed(self, top, terms=None):
        built.append(top)
        construct(self, top, terms)

    def derived(self, terms, den=1):
        built.append(self._top)
        return new(self, terms, den)

    monkeypatch.setattr(TruncatedClass, "__init__", constructed)
    monkeypatch.setattr(TruncatedClass, "_new", derived)
    counts = []
    for d in (20, 200):
        built.clear()
        porteous_class(d, "recurrence")
        counts.append(len(built))
    assert counts[0] == counts[1] > 0


def _products(monkeypatch, call) -> int:
    """The scalar products the graded kernel's dots make during ``call()``."""
    products = 0

    def counted(x, y):
        nonlocal products
        products += 1
        return x * y

    monkeypatch.setattr(_graded, "mul", counted)
    call()
    return products


@pytest.mark.parametrize("d", [20, 60])
def test_recurrence_solve_makes_five_products_per_entry_and_step(monkeypatch, d):
    """Step m of the determinants' full solve makes five scalar dot products
    of m entries each, one fewer than the six cross terms of the graded
    product, so d_1..d_n, n = d - 5, cost 5 n (n + 1) / 2 integer products in all."""
    n = d - 5
    assert _products(monkeypatch, lambda: porteous._determinant_columns(d)) == 5 * n * (n + 1) // 2


@pytest.mark.parametrize("d, count", [(20, 360), (60, 4060)])
def test_recurrence_route_makes_half_the_products(monkeypatch, d, count):
    """The route's top solves to h = n // 2 + 1 terms, 5 (h - 1) h / 2
    products, then dots q[i:] against the reversed series for each i < h,
    5 h (h + 1) / 2, and q against the rows, 5 h: 5 h (h + 1) in all, about
    half the full solve's 5 n (n + 1) / 2 (600 and 7700 here)."""
    h = (d - 5) // 2 + 1
    made = _products(monkeypatch, lambda: porteous_class(d, "recurrence"))
    assert made == count == 5 * h * (h + 1)


def test_recurrence_route_top_is_the_full_solve_s_last_entry():
    """The route's top, from half the recurrence and one Newton step, against
    the last entry of the full solve on the same signed formula columns, for
    every d in [8, 160] and at d = 200, 300 and 400: the full solves for
    every d in [161, 400] would add about 20 s."""
    for d in [*range(8, 161), 200, 300, 400]:
        columns = porteous._recurrence_columns(d)
        assert _graded._solve_top(columns) == tuple(c[-1] for c in _graded._solve(columns)), d
