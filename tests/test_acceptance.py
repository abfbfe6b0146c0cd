"""Acceptance battery: one test per criterion, one printed PASS/FAIL line
per criterion (run with ``pytest -sv`` to see them).

Everything here is exact integer or exact rational equality; the only
tolerance anywhere is the wall-clock budget on the full degree sweep.
"""

import math
import operator
import random
import time
from fractions import Fraction

import pytest

from trisecant import porteous
from trisecant._graded import _classes, _coefficient, _first_order, _quotient
from trisecant.degree import berzolari, secant3_degree, verify_binomial_identities
from trisecant.porteous import METHODS, determinant_formula, porteous_class
from trisecant.riemann_roch import (
    UpstreamClass,
    bundle_characters,
    pushforward_to_picard,
    todd_from_chern,
)
from trisecant.ring import AmbientClass, ThetaPoly

from curve_ring import curve
from series_reference import schoolbook_dot


def _report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def divisions() -> dict[int, tuple[AmbientClass, ...]]:
    """Each d's series division c_t(target - source) as classes, built once
    and read by criteria 3 (d in [8, 60]), 4 and 5 (d in [8, 40]).  Its
    coefficients c_1..c_(d-5) are what ``chern_coefficients(d)`` returns,
    read here without its comparison against the closed formula."""
    return {d: _classes(d, porteous._division_columns(d)) for d in range(8, 61)}


def test_criterion_1_degree_formula_full_sweep():
    start = time.perf_counter()
    failures = []
    for d in range(8, 61):
        expected = math.comb(d - 2, 3) - 2 * (d - 4)
        for method in METHODS:
            value = secant3_degree(d, method=method)
            if value != expected:
                failures.append((d, method, value, expected))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _report(1, f"degree formula, d in [8, 60], three methods, {elapsed:.1f}s", ok)
    assert not failures, failures[:3]
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s against a 10s budget"


def test_criterion_2_riemann_roch_constants():
    failures = []
    for d in range(8, 61):
        sections, residual = bundle_characters(d)
        if sections != ThetaPoly(2, -1, 0):
            failures.append((d, "sections", str(sections)))
        if residual != ThetaPoly(d - 4, -1, 0):
            failures.append((d, "residual", str(residual)))
    ok = not failures
    _report(2, "pushforward characters 2 - T and (d-4) - T, d in [8, 60]", ok)
    assert not failures, failures[:3]


def test_criterion_3_determinant_three_way_agreement(divisions):
    """The recurrence reads the formula's c_i; they equal the division's at
    every index, so a recurrence on the divided c_i would give the same class."""
    failures = []
    for d in range(8, 61):
        formula = _classes(d, porteous._formula_columns(d, d - 5))
        if divisions[d][1:] != formula[1:]:
            failures.append((d, "divided c_i != formula c_i"))
        segre = porteous_class(d, "segre")
        recurrence = _classes(d, porteous._determinant_columns(d))[d - 5]
        closed = determinant_formula(d - 5, d)
        if not (segre == recurrence == closed):
            failures.append((d, "determinants"))
    ok = not failures
    _report(
        3,
        "divided c_i = formula c_i, and segre = recurrence = closed form "
        "as classes, d in [8, 60]",
        ok,
    )
    assert not failures, failures


def test_criterion_4_virtual_series_cross_check(divisions):
    failures = []
    for d in range(8, 41):
        division = divisions[d]
        if division != _classes(d, porteous._exponential_columns(d)):
            failures.append((d, "exponential"))
        if division != _classes(d, porteous._expansion_columns(d)):
            failures.append((d, "expansion"))
    ok = not failures
    _report(4, "series division = exponential form = five-sum expansion, d in [8, 40]", ok)
    assert not failures, failures


def test_criterion_5_chern_coefficient_formula(divisions):
    """Each c_i of the formula is the tip of its columns of order i."""
    failures = []
    for d in range(8, 41):
        division = divisions[d][1:]
        for i in range(1, d - 4):
            if division[i - 1] != _coefficient(d, porteous._formula_columns(d, i), i):
                failures.append((d, i))
    ok = not failures
    _report(5, "c_i closed form vs divided series, 1 <= i <= d-5, d in [8, 40]", ok)
    assert not failures, failures[:5]


def test_criterion_6_pushforward_lemma():
    f = UpstreamClass.fiber()
    gamma = UpstreamClass.kunneth()
    theta = UpstreamClass.theta()
    cases = (
        (UpstreamClass.one(), ThetaPoly.zero()),
        (f, ThetaPoly.one()),
        (gamma, ThetaPoly.zero()),
        (f * theta, ThetaPoly.theta()),
    )
    failures = [str(value) for value, want in cases if pushforward_to_picard(value) != want]
    ok = not failures
    _report(6, "pushforward of 1, f, gamma, f*T", ok)
    assert not failures, failures


def test_criterion_7_todd_lemma():
    """P -> f embeds the curve's ring Q[P]/(P^2) in the ring upstairs
    (f^2 = 0), and ``todd_from_chern`` is a polynomial in its arguments, so
    td(-2P, 0) = 1 - P iff td(-2f, 0) = 1 - f: the product case, which the
    engine computes, carries the curve's, which runs on the bare sparse class."""
    ok_surface = todd_from_chern(ThetaPoly.zero(), ThetaPoly.zero()) == ThetaPoly.one()
    ok_curve = todd_from_chern(curve(0, -2), curve()) == curve(1, -1)
    ok_product = todd_from_chern(
        UpstreamClass.fiber() * (-2), UpstreamClass.zero()
    ) == UpstreamClass(1, -1)
    ok = ok_surface and ok_curve and ok_product
    _report(7, "Todd classes 1, 1 - P, 1 - f", ok)
    assert ok_surface and ok_curve and ok_product


def test_criterion_8_property_suites():
    rng = random.Random(20260815)
    failures = []

    def random_theta() -> ThetaPoly:
        return ThetaPoly(
            *(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        )

    def random_ambient(d: int) -> AmbientClass:
        terms = {}
        for _ in range(rng.randint(1, 5)):
            terms[(rng.randint(0, 2), rng.randint(0, d - 2))] = Fraction(
                rng.randint(-9, 9), rng.randint(1, 3)
            )
        return AmbientClass(d, terms)

    # ring axioms, 500 random triples per ring (1500 elements each)
    for _ in range(500):
        a, b, c = random_theta(), random_theta(), random_theta()
        if (a + b) * c != a * c + b * c or (a * b) * c != a * (b * c) or a * b != b * a:
            failures.append("theta-axioms")
            break
    for _ in range(500):
        d = rng.randint(8, 12)
        a, b, c = random_ambient(d), random_ambient(d), random_ambient(d)
        if (a + b) * c != a * c + b * c or (a * b) * c != a * (b * c) or a * b != b * a:
            failures.append("ambient-axioms")
            break

    # binomial identities, exhaustive within the stated bound
    if not verify_binomial_identities(12):
        failures.append("binomial-identities")

    # series contracts on the graded kernel the engine runs: the inverse
    # contract c * (1 / c) = 1 for ``_quotient`` on theta series to order 4,
    # whose t^k coefficient x0 + x1 T + x2 T^2 is the kernel's triple
    # (x0, x1, 2 x2); and the exponential law exp(a) exp(b) = exp(a + b) for
    # ``_first_order`` with A = 1, which reads B, the exponent's derivative,
    # so that the exponent's sum is the sum of what it reads; each product by
    # the schoolbook dot
    def theta_columns(size: int) -> list[list]:
        triples = [(1, 0, 0)]
        triples += [(x.c0, x.c1, 2 * x.c2) for x in (random_theta() for _ in range(size - 1))]
        return [list(column) for column in zip(*triples, *[(0, 0, 0)] * (5 - size))]

    one = [(1, 0, 0)] + [(0, 0, 0)] * 4
    for _ in range(200):
        c = theta_columns(rng.randint(1, 5))
        inverse = _quotient([[1, 0, 0, 0, 0], [0] * 5, [0] * 5], c)
        product = [
            schoolbook_dot([column[m::-1] for column in c], inverse) for m in range(5)
        ]
        if product != one:
            failures.append("series-inverse")
            break

    def random_graded(order: int) -> list[list]:
        """Columns of c_0 = 0, c_1..c_order of an ambient series, c_k
        homogeneous of degree k: x0 h^k + x1 T h^(k-1) + x2 T^2 h^(k-2).
        Each is t d/dt of the series with c_k / k in place of c_k."""
        triples = [(0, 0, 0)]
        for k in range(1, order + 1):
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(min(k, 2) + 1)]
            triples.append((x[0], x[1], 2 * x[2] if k >= 2 else 0))
        return [list(column) for column in zip(*triples)]

    def product(a: list[list], b: list[list]) -> list[list]:
        triples = [schoolbook_dot([column[m::-1] for column in a], b) for m in range(len(a[0]))]
        return [list(column) for column in zip(*triples)]

    def exp(columns: list[list]) -> list[list]:
        """exp of the series whose t d/dt has ``columns``: the derivative's
        columns are those moved up one place."""
        derivative = [column[1:] for column in columns]
        return _first_order(((1,), (0,), (0,)), derivative, len(columns[0]) - 1)

    for _ in range(200):
        order = rng.randint(1, rng.randint(8, 12))
        a, b = random_graded(order), random_graded(order)
        exp_sum = exp([list(map(operator.add, x, y)) for x, y in zip(a, b)])
        if product(exp(a), exp(b)) != exp_sum:
            failures.append("series-exp")
            break

    ok = not failures
    _report(8, "ring axioms, binomial identities, series contracts", ok)
    assert not failures, failures


def test_criterion_9_spot_values_vs_berzolari():
    frozen = {8: 12, 9: 25, 10: 44, 12: 104}
    failures = []
    for d, expected in frozen.items():
        # the oracle, straight from binomials: comb(d-2, 3) - 2 (d-4)
        oracle = math.comb(d - 2, 3) - 2 * (d - 4)
        if oracle != expected:
            failures.append((d, "frozen-vs-oracle", oracle))
        if secant3_degree(d) != expected:
            failures.append((d, "engine", secant3_degree(d)))
        if berzolari(d) != expected:
            failures.append((d, "berzolari", berzolari(d)))
    ok = not failures
    _report(9, "spot degrees 12, 25, 44, 104 at d = 8, 9, 10, 12", ok)
    assert not failures, failures
