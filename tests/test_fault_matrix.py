"""Which checks of the verify battery catch which engine fault.

Each row applies one fault with ``monkeypatch`` and asserts the exact set of
checks of ``verify_checks(8, 14)`` that fail, so a later loss of detection
power shows up as a changed set.  Each per-d counterexample must name d = 8,
and a fault in one coefficient must name its t^k, i or n there too
(``LOCATED``).  Ten faults are caught by one check alone:
a wrong theta self-intersection, and a pairing that reads past the
truncation and raises ``IndexError``, only by ``degree-berzolari``, the quoted
count; a wrong negative-upper binomial only by ``binomial-identities``; a
wrong top coefficient of the binomial expansion or of the exponential form
only by that form's own check, ``series-binomial-expansion`` or
``series-exponential-form``; a lost T^2 column in the graded kernel's
first-order stepper only by ``series-exponential-form``, the one check that
runs it; a faulty sum or theta product on operands no pipeline value has
only by ``ring-axioms``, whose random draws have them; a doubled hyperplane
class only by ``ring-axioms``, through h^(d-2); and a Kunneth class shifted
by f only by ``kunneth-relations``, through pi_* gamma = 0.

A patched function is rebound in every loaded ``trisecant`` module, because
``porteous`` and ``cli`` import names directly.  ``riemann_roch._pushforwards``
is cached per process, so a fault upstream of it goes in at
``bundle_characters``, or with a fresh cache of its own that goes out with
the fault.  A sign flip of gamma^2 upstairs escapes ``degree-berzolari``: it
sends T to -T in both characters, and the degree reads only T^2.
"""

import sys
from fractions import Fraction
from functools import cache
from operator import mul

import pytest

from trisecant import _graded, cli, degree, porteous, riemann_roch
from trisecant.ring import AmbientClass, ThetaPoly, TruncatedClass

NAMES = [name for name, _ in cli.CHECKS]
PER_D = {name for name, per_d in cli.CHECKS if per_d}

SERIES_FIVE = {
    "chern-coefficient-formula",
    "series-exponential-form",
    "series-binomial-expansion",
    "determinant-three-way",
    "degree-berzolari",
}
RECURRENCE_THREE = {"determinant-three-way", "determinant-closed-form", "degree-berzolari"}


def _rebind(monkeypatch, original, replacement):
    """Bind ``replacement`` wherever a loaded trisecant module binds ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "trisecant" or name.startswith("trisecant."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _twist_rank_shifted(monkeypatch, shift):
    """The hyperplane twist reads the residual's rank off by ``shift``.  The
    fault goes in at the per-coefficient twist on kernel triples, which the
    series division and the Segre route both read."""
    original = porteous._twisted_coefficients

    def twisted(series, rank, ks):
        return original(series, rank + shift, ks)

    monkeypatch.setattr(porteous, "_twisted_coefficients", twisted)


def residual_rank_plus_one(monkeypatch):
    _twist_rank_shifted(monkeypatch, 1)


def twist_rank_minus_one(monkeypatch):
    _twist_rank_shifted(monkeypatch, -1)


def twisted_t_cubed_negated(monkeypatch):
    """The twist's t^3 triple negated: at d = 8 the Segre route reads
    t^1..t^3, the division the whole series."""
    original = porteous._twisted_coefficients

    def twisted(series, rank, ks):
        triples = original(series, rank, ks)
        return [[-x for x in t] if k == 3 else t for k, t in zip(ks, triples)]

    monkeypatch.setattr(porteous, "_twisted_coefficients", twisted)


def c2_without_halving(monkeypatch):
    """c2 = c1^2 - ch2: the Chern triples fed a ch2 lowered by c1^2 / 2."""
    original = porteous._chern_triples

    def triples(character, dual=False):
        lowered = character - ThetaPoly(0, 0, character.c1 * character.c1 / 2)
        return original(lowered, dual)

    _rebind(monkeypatch, original, triples)


def target_c0_doubled(monkeypatch):
    """The target's Chern triples start at c_0 = 2, which the quotient never
    reads: the routes that divide by the target refuse it where they read it."""
    original = porteous._chern_triples

    def triples(character, dual=False):
        value = original(character, dual)
        return [(2, 0, 0), *value[1:]] if dual else value

    _rebind(monkeypatch, original, triples)


def sections_c1_flipped(monkeypatch):
    original = riemann_roch.bundle_characters

    def flipped(d):
        sections, residual = original(d)
        return ThetaPoly(sections.c0, -sections.c1, sections.c2), residual

    _rebind(monkeypatch, original, flipped)


def theta_self_intersection_one(monkeypatch):
    monkeypatch.setattr(degree, "THETA_SELF_INTERSECTION", 1)


def negative_binomial_off_at_k2(monkeypatch):
    original = degree.binomial

    def binomial(n, k):
        return original(n, k) + (1 if n < 0 and k == 2 else 0)

    _rebind(monkeypatch, original, binomial)


def c2_bumped_into_recurrence(monkeypatch):
    """c_2 + T^2 in the recurrence alone.  Both its full solve and the
    route's top read the formula's columns signed by (-1)^(i-1), so c_2's
    doubled T^2 part X2 goes in negated, and lowering it by 2 raises c_2 by T^2."""
    original = porteous._recurrence_columns

    def bumped(d):
        x0, x1, x2 = original(d)
        return [x0, x1, [*x2[:2], x2[2] - 2, *x2[3:]]]

    monkeypatch.setattr(porteous, "_recurrence_columns", bumped)


def coefficient_formula_off_at_3(monkeypatch):
    """c_3 + T^2 h in the closed formula's columns, which both the
    ``chern-coefficient-formula`` check and the recurrence read (X2 is twice
    the T^2 part)."""
    original = porteous._formula_columns

    def formula(d, order):
        x0, x1, x2 = original(d, order)
        return x0, x1, [x + 2 if i == 3 else x for i, x in enumerate(x2)]

    monkeypatch.setattr(porteous, "_formula_columns", formula)


def pascal_first_column_off_at_3(monkeypatch):
    """binomial(d - 2, 3) + 1 at t^3 of the first Pascal column alone, which
    only the closed formula now reads: c_3 + h^3 there, so in the recurrence
    too.  The degree reads the class's T^2 part alone, which first moves at
    d = 10."""
    original = porteous._pascal_columns

    def pascal(d, order):
        low, middle, high = original(d, order)
        return [x + 1 if j == 3 else x for j, x in enumerate(low)], middle, high

    monkeypatch.setattr(porteous, "_pascal_columns", pascal)


def determinant_formula_off_at_top(monkeypatch):
    """T^2 h^(n-2) added to the closed form's top determinant, n = d - 5: its
    triple's X2, twice the T^2 part, raised by 2, which the public class and
    the check's integer comparison both read."""
    original = porteous._closed_triple

    def triple(n, d):
        x0, x1, x2 = original(n, d)
        return (x0, x1, x2 + 2) if n == d - 5 else (x0, x1, x2)

    monkeypatch.setattr(porteous, "_closed_triple", triple)


def _top_t_squared_bumped(form):
    """The columns of ``form`` with T^2 h^(n-2) added to the top coefficient
    t^n: its X2 entry, twice the T^2 part, raised by 2."""

    def bumped(d):
        x0, x1, x2 = form(d)
        return x0, x1, [*x2[:-1], x2[-1] + 2]

    return bumped


def expansion_top_bumped(monkeypatch):
    original = porteous._expansion_columns
    _rebind(monkeypatch, original, _top_t_squared_bumped(original))


def exponential_form_top_bumped(monkeypatch):
    original = porteous._exponential_columns
    _rebind(monkeypatch, original, _top_t_squared_bumped(original))


def segre_sign_flipped(monkeypatch):
    """The Segre route's triple negated, before ``porteous_class`` makes it a class."""
    original = porteous._segre_triple
    _rebind(monkeypatch, original, lambda d: [-x for x in original(d)])


def graded_exp_t_squared_zeroed(monkeypatch):
    """The X2 column of the kernel's first-order stepper zeroed past t^0."""
    original = _graded._first_order

    def first_order(a, b, order):
        y0, y1, y2 = original(a, b, order)
        return y0, y1, [y2[0]] + [0] * (len(y2) - 1)

    monkeypatch.setattr(_graded, "_first_order", first_order)


def graded_dot_cross_term_lost(monkeypatch):
    """The 2 a1 b1 term of X2 in the kernel's dot product dropped, though a1 b1
    still comes off the middle entry: it feeds the division, the recurrence
    and the exponential form alike."""
    original = _graded._dot

    def dot(a, b, a01, b01):
        x0, x1, x2 = original(a, b, a01, b01)
        return x0, x1, x2 - 2 * sum(map(mul, a[1], b[1]))

    monkeypatch.setattr(_graded, "_dot", dot)


def newton_diagonal_kept(monkeypatch):
    """The Newton step of the recurrence route's top forms each pair i < j
    once, doubled, and takes the diagonal term q_i q_i f_(n-2i) off once; here
    it is not taken off, so it counts twice.  Only the route reads the step,
    and ``determinant-three-way`` and ``degree-berzolari`` both read the
    route's class; ``determinant-closed-form`` reads the full solve."""
    monkeypatch.setattr(_graded, "_times", lambda a, b: (0, 0, 0))


def hyperplane_doubled(monkeypatch):
    """2h for the hyperplane class: 2h still has (2h)^(d-1) = 0, but
    (2h)^(d-2) is not the single term h^(d-2).  No route reads the generator."""
    monkeypatch.setattr(AmbientClass, "hyperplane", classmethod(lambda cls, d: cls(d, {(0, 1): 2})))


def sum_drops_a_term_of_four(monkeypatch):
    """A sum loses the last term of a four-term operand over another
    denominator.  Only the ring axioms' random ambient classes have four terms.
    ``AmbientClass`` binds the operators in its own namespace, so both go."""
    original = TruncatedClass.__add__

    def add(self, other):
        if isinstance(other, TruncatedClass) and len(other._terms) == 4:
            if other._den != self._den:
                other = other._new(dict(list(other._terms.items())[:3]), other._den)
        return original(self, other)

    for cls in (TruncatedClass, AmbientClass):
        monkeypatch.setattr(cls, "__add__", add)
        monkeypatch.setattr(cls, "__radd__", add)


def theta_product_drops_t_squared(monkeypatch):
    """A theta product of two three-term factors loses its T^2 term; no
    pipeline product has two such factors."""
    original = TruncatedClass.__mul__

    def product(self, other):
        value = original(self, other)
        if isinstance(other, ThetaPoly) and len(self._terms) == len(other._terms) == 3:
            return ThetaPoly(value.c0, value.c1)
        return value

    monkeypatch.setattr(ThetaPoly, "__mul__", product)
    monkeypatch.setattr(ThetaPoly, "__rmul__", product)


def gamma_squared_sign_flipped(monkeypatch):
    """gamma^2 = +2 f T upstairs.  The pushforwards are cached once per
    process, so a fresh cache goes in with the fault and out with it."""
    monkeypatch.setattr(riemann_roch, "_GAMMA_SQUARED_OVER_F", ThetaPoly(0, 2))
    fresh = cache(riemann_roch._pushforwards.__wrapped__)
    monkeypatch.setattr(riemann_roch, "_pushforwards", fresh)


def kunneth_class_shifted_by_f(monkeypatch):
    """gamma + f for the Kunneth class: f^2 = f gamma = 0 leaves every product
    rule unchanged, and the engine builds 3f + gamma without it."""
    shifted = classmethod(lambda cls: cls(0, 1, 1))
    monkeypatch.setattr(riemann_roch.UpstreamClass, "kunneth", shifted)


def pairing_reads_past_the_top(monkeypatch):
    """The pairing reads T^2 h^(d-1), one past the truncation: an IndexError."""

    def pairing(value):
        top = value.coefficient(2, value.d - 1)
        return Fraction(degree.THETA_SELF_INTERSECTION) * top

    _rebind(monkeypatch, degree.degree_pairing, pairing)


FAULTS = [
    (residual_rank_plus_one, SERIES_FIVE),
    (twist_rank_minus_one, SERIES_FIVE),
    (twisted_t_cubed_negated, SERIES_FIVE),
    (c2_without_halving, SERIES_FIVE),
    (target_c0_doubled, SERIES_FIVE),
    (sections_c1_flipped, SERIES_FIVE | {"bundle-characters"}),
    (theta_self_intersection_one, {"degree-berzolari"}),
    (negative_binomial_off_at_k2, {"binomial-identities"}),
    (c2_bumped_into_recurrence, RECURRENCE_THREE),
    (
        coefficient_formula_off_at_3,
        {"chern-coefficient-formula"} | RECURRENCE_THREE,
    ),
    (pascal_first_column_off_at_3, {"chern-coefficient-formula"} | RECURRENCE_THREE),
    (determinant_formula_off_at_top, RECURRENCE_THREE),
    (segre_sign_flipped, {"determinant-three-way", "degree-berzolari"}),
    (expansion_top_bumped, {"series-binomial-expansion"}),
    (exponential_form_top_bumped, {"series-exponential-form"}),
    (graded_exp_t_squared_zeroed, {"series-exponential-form"}),
    (graded_dot_cross_term_lost, SERIES_FIVE | {"determinant-closed-form"}),
    (newton_diagonal_kept, {"determinant-three-way", "degree-berzolari"}),
    (hyperplane_doubled, {"ring-axioms"}),
    (sum_drops_a_term_of_four, {"ring-axioms"}),
    (theta_product_drops_t_squared, {"ring-axioms"}),
    (pairing_reads_past_the_top, {"degree-berzolari"}),
    (kunneth_class_shifted_by_f, {"kunneth-relations"}),
    (
        gamma_squared_sign_flipped,
        SERIES_FIVE - {"degree-berzolari"} | {"kunneth-relations", "bundle-characters"},
    ),
]

# The start of a per-d counterexample, where a fault names more than d = 8:
# the t^k, i or n of its one coefficient, the first d it reaches, or every
# route by its name in ``METHODS``, in that order, with its class.
LOCATED = {
    expansion_top_bumped: {
        "series-binomial-expansion": "d=8: quotient != binomial expansion at t^3: ",
    },
    exponential_form_top_bumped: {
        "series-exponential-form": "d=8: quotient != exponential form at t^3: ",
    },
    determinant_formula_off_at_top: {
        "determinant-three-way": "d=8: segre 4h^3 + 9*T*h^2 + 6*T^2*h; "
        "recurrence 4h^3 + 9*T*h^2 + 6*T^2*h; closed-form 4h^3 + 9*T*h^2 + 7*T^2*h",
        "determinant-closed-form": "d=8, n=3: ",
    },
    coefficient_formula_off_at_3: {
        "chern-coefficient-formula": "d=8, i=3: ",
        "determinant-closed-form": "d=8, n=3: ",
    },
    pascal_first_column_off_at_3: {
        "chern-coefficient-formula": "d=8, i=3: ",
        "determinant-closed-form": "d=8, n=3: ",
        "degree-berzolari": "d=10: ",
    },
}


@pytest.mark.parametrize("fault, expected", FAULTS, ids=[fault.__name__ for fault, _ in FAULTS])
def test_fault_fails_exactly_its_checks(fault, expected, monkeypatch):
    assert expected <= set(NAMES)
    fault(monkeypatch)
    report = cli.verify_checks(8, 14)
    failed = {check.name: check.counterexample for check in report.checks if not check.passed}
    assert set(failed) == expected
    located = LOCATED.get(fault, {})
    for name in PER_D & set(failed):
        assert failed[name].startswith(located.get(name, ("d=8: ", "d=8, "))), failed[name]
