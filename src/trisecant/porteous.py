"""Chern-class setup on (Picard surface) x P^(d-2) and Porteous' formula
for the secant-variety class.

The secant locus is where the multiplication map

    (residual sections) (x) O(-1)  -->  (sections)* (x) O

drops rank, and Porteous' formula evaluates its class as the (d-5)-th
banded determinant of the virtual quotient series c_t(target - source).
Read as a Segre class (Fulton, Intersection Theory, Thm. 14.4), the same
class is (-1)^(d-5) [t^(d-5)] c_t(source) / c_t(target).  Every stage below
is computed along at least two independent routes (series division against
closed binomial formulas; the Segre quotient, the determinant recurrence
and its closed form) and the routes are compared, never trusted singly.
The determinant routes are the one table ``_ROUTES``: each gives the integer
triple (x0, x1, X2) of d_(d-5), and ``porteous_class`` alone makes it a class.

The bundles' Chern classes enter as the integer triples of the graded kernel
of :mod:`trisecant._graded`, read off the characters by ``_chern_triples``.
The source is the residual bundle twisted by the splitting principle,
c_t(E (x) O(-1)) = sum_i c_i(E) t^i (1 - h t)^(rank E - i), in the one twist
``_twisted_coefficients``: one binomial sum of triples per coefficient, its
binomials stepped by term ratios, never a series.  The division reads all of
them; the Segre route reads only t^(d-5), t^(d-6) and t^(d-7), against the
target's inverse at order 2: O(1) integer operations per d, and one class
built.

Each c_k here is homogeneous of degree k, so every series form and the
recurrence are the graded kernel's integer columns (x0, x1, X2): the
division solves the target's triples over the twisted source's, the
recurrence the formula's signed triples (``_recurrence_columns``), the
exponential form steps the first-order equation its logarithmic derivative
gives, in O(d) (``_graded._first_order``), and the binomial expansion sums
shifted Pascal columns.  Only the division's columns become classes, in
``chern_coefficients``; ``trisecant verify`` compares the columns themselves
(``_<form>_columns``).  The recurrence route
needs one determinant, the last: it runs the recurrence to the middle and
then one Newton step (``_graded._solve_top``), while ``verify``, which reads
every size, runs the full recurrence (``_determinant_columns``).  The closed
determinant form has one home, the integer triple ``_closed_triple``.

The closed binomial formula for c_i (``_formula_columns``) and the
expansion's binomial tail read three columns of Pascal's triangle, built per
d in O(d) integer steps (``_pascal_columns``), not one binomial coefficient
per entry.
"""

from __future__ import annotations

from itertools import accumulate

from . import _graded
from .degree import binomial
from ._graded import _ambient, _classes, _difference, _dot, _exact, _quotient, _solve, _summed
from .ring import AmbientClass, ThetaPoly, _require_curve_degree
from .riemann_roch import bundle_characters

__all__ = [
    "METHODS",
    "chern_coefficients",
    "determinant_formula",
    "porteous_class",
]

# Each determinant route: d to the integer triple (x0, x1, X2) of d_(d-5).
# The helpers are looked up when a route runs, so that a rebinding takes effect.
_ROUTES = {
    "segre": lambda d: _segre_triple(d),
    "recurrence": lambda d: _graded._solve_top(_recurrence_columns(d)),
    "closed-form": lambda d: _closed_triple(d - 5, d),
}
METHODS = tuple(_ROUTES)


def _chern_triples(character: ThetaPoly, dual: bool = False) -> list[tuple]:
    """c_0, c_1 and c_2 of a Picard-surface bundle as the graded kernel's
    triples (x0, x1, X2), X2 twice the T^2 part; an integral entry is an int.

    On a surface the character determines the Chern classes exactly:
    c1 = ch_1 and c2 = ch_1^2 / 2 - ch_2.  Dualizing negates the odd part.
    """
    # ch_1 = n1 / den and ch_2 = n2 / den, so X2 = 2 c2 = (n1^2 - 2 n2 den) / den^2.
    terms, den = character._terms, character._den
    n1, n2 = terms.get((1, 0), 0), terms.get((2, 0), 0)
    x1, x2 = _exact(n1, den), _exact(n1 * n1 - 2 * n2 * den, den * den)
    return [(1, 0, 0), (0, -x1 if dual else x1, 0), (0, 0, x2)]


def _require_unit(triples) -> None:
    """A total Chern series' triples start at c_0 = 1, the triple (1, 0, 0)."""
    if list(triples[0]) != [1, 0, 0]:
        raise ValueError("a total Chern series must start at 1")


def _twisted_coefficients(triples, rank: int, ks) -> list[list]:
    """The pipeline's one hyperplane twist: every Chern root shifts by -h, so
    c_t(bundle (x) O(-1)) = sum_i c_i t^i (1 - h*t)^(rank - i) (Fulton,
    Intersection Theory, Example 3.2.2).  ``triples`` are the kernel's
    triples of c_0, c_1, ...; the t^k coefficient, for each k in ``ks``, is
    the triple sum_i binomial(rank - i, k - i) (-1)^(k - i) triple(c_i) over
    the nonzero c_i with i <= k (h^(k-i) keeps a triple).  For i > rank the
    upper argument is negative and the expansion is the full geometric tail.
    Each c_i's row of binomials runs from the smallest k to the largest by
    the exact term ratio (rank - i - j + 1) / j, which holds for a negative
    upper argument too: one ``binomial`` per c_i, whatever the span of ks."""
    _require_unit(triples)
    if not isinstance(rank, int) or rank < 0:
        raise ValueError("rank must be a non-negative integer")
    ks = tuple(ks)
    first, last = min(ks), max(ks)
    out = [[0, 0, 0] for _ in ks]
    for i, t in enumerate(triples):
        if i > last or not any(t):
            continue
        # row[j - low] = (-1)^j binomial(n, j) for j = low..last - i.
        n, low = rank - i, max(first - i, 0)
        row = [(-1) ** low * binomial(n, low)]
        for j in range(low + 1, last - i + 1):
            row.append(-row[-1] * (n - j + 1) // j)
        for entry, k in zip(out, ks):
            if k >= i:
                s = row[k - i - low]
                for a in range(3):
                    entry[a] += s * t[a]
    return out


def _source_and_target(d: int, ks) -> tuple[list, list]:
    """The twisted source's triples at each k in ``ks`` and the target's
    columns: the residual twisted by O(-1), and the dual of the sections,
    whose c_0 must be 1 like the source's, as the quotient never reads it."""
    sections, residual = bundle_characters(d)
    source = _twisted_coefficients(_chern_triples(residual), int(residual.c0), ks)
    target = _chern_triples(sections, dual=True)
    _require_unit(target)
    return source, list(zip(*target))


def _division_columns(d: int) -> list[list]:
    """c_0..c_(d-5) of c_t(target - source) by honest series division: the
    target's triples, padded with zeros, divided by the twisted source's to
    order d - 5 in one solve of the graded integer kernel of
    :mod:`trisecant._graded`."""
    order = d - 5
    source, target = _source_and_target(d, range(order + 1))
    padded = [[*column, *[0] * order] for column in target]
    return _quotient(padded, list(zip(*source)))


def _exponential_columns(d: int) -> list[list]:
    """c_0..c_(d-5) of the same quotient in closed exponential form,

        y = (1 - u)^(4-d) * exp(eps * (2u - u^2) / (1 - u)),  u = h*t, eps = T/h,

    with no division by the source series and no exp taken: y solves the
    first-order equation read off its logarithmic derivative,

        (1 - u)^2 y' = ((d - 4)(1 - u) + eps * (2 - 2u + u^2)) y,

    which ``_graded._first_order`` steps in O(d).  A kernel triple at t^k
    is h^k (x0 + x1 eps + X2/2 eps^2), and dy/dt = h dy/du, so in t
    A = (1 - u)^2 has the columns (1, -2, 1) of h^j, and B the columns
    (d - 4, 4 - d) of h^(j+1) and (2, -2, 1) of T h^j, with no T^2 part.
    """
    a = ((1, -2, 1), (0, 0, 0), (0, 0, 0))
    b = ((d - 4, 4 - d, 0), (2, -2, 1), (0, 0, 0))
    # Through the module, so that a rebinding of ``_graded._first_order`` takes effect.
    return _graded._first_order(a, b, d - 5)


def _expansion_columns(d: int) -> list[list]:
    """c_0..c_(d-5) of the virtual quotient by term-by-term binomial expansion.

    Grouping the three powers of (1 - h*t) over the common tail
    (1 - h*t)^(2-d) = sum_k b(k) h^k t^k, b(k) = binomial(d+k-3, k), leaves
    five shifted sums, evaluated here coefficient by coefficient: the t^m
    coefficient gathers b(m-j) for j in 0..4 (b vanishes below 0), as the
    columns b(m) - 2 b(m-1) + b(m-2) of h^m, 2 b(m-1) - 3 b(m-2) + b(m-3) of
    T h^(m-1) and 4 b(m-2) - 4 b(m-3) + b(m-4) of 2 T^2 h^(m-2).  The b(k)
    are the last of :func:`_pascal_columns`.
    """
    order = d - 5
    b = [0, 0, 0, 0, *_pascal_columns(d, order)[2]]  # b(k) at index k + 4
    steps = range(order + 1)
    return [
        [b[m + 4] - 2 * b[m + 3] + b[m + 2] for m in steps],
        [2 * b[m + 3] - 3 * b[m + 2] + b[m + 1] for m in steps],
        [4 * b[m + 2] - 4 * b[m + 1] + b[m] for m in steps],
    ]


def _pascal_columns(d: int, order: int) -> tuple[list, list, list]:
    """binomial(K + j, j) for j in 0..order and K = d - 5, d - 4 and d - 3:
    the first column by the exact term ratio (K + j) / j, each next one as
    the running sums of the last (the hockey-stick identity), O(order)
    integer steps in all."""
    low = [1]
    for j in range(1, order + 1):
        low.append(low[-1] * (d - 5 + j) // j)
    middle = list(accumulate(low))
    return low, middle, list(accumulate(middle))


def _shifted(column: list, s: int) -> list:
    """``column`` moved s places down, zeros in front, at its own length."""
    return ([0] * s + column)[: len(column)]


def _formula_columns(d: int, order: int) -> tuple[list, list, list]:
    """The closed binomial formula for c_0..c_order as the graded kernel's
    columns (x0, x1, X2) of h^i, T h^(i-1) and 2 T^2 h^(i-2).  With
    D_K(j) = binomial(K + j, j), zero for j < 0, the i-th triple is

        (D_(d-5)(i), D_(d-4)(i-1) + D_(d-5)(i-1), 4 D_(d-4)(i-2) + D_(d-3)(i-4)),

    so c_0 is (1, 0, 0); the D columns are :func:`_pascal_columns`."""
    low, middle, high = _pascal_columns(d, order)
    return (
        low,
        _shifted([x + y for x, y in zip(middle, low)], 1),
        [4 * x + y for x, y in zip(_shifted(middle, 2), _shifted(high, 4))],
    )


def chern_coefficients(d: int) -> tuple[AmbientClass, ...]:
    """Virtual Chern coefficients c_1..c_(d-5) from the series division.

    Each coefficient is compared against the closed binomial form; a
    mismatch means the pipeline is broken and raises rather than letting a
    wrong class flow on.
    """
    _require_curve_degree(d)
    columns = _division_columns(d)
    diff = _difference(d, columns, _formula_columns(d, d - 5))
    if diff:
        i, division, formula = diff
        raise ArithmeticError(
            f"virtual Chern coefficient mismatch at i={i}, d={d}: "
            f"division gave {division}, formula gave {formula}"
        )
    return _classes(d, columns)[1:]


def _segre_triple(d: int) -> list:
    """The triple of Porteous' class as a Segre class:
    (-1)^n [t^n] c_t(source) / c_t(target) with n = d - 5.

    The banded recurrence reads D(t) * c_(-t)(target - source) = 1, so the
    determinants are the coefficients of the quotient with the sign of t
    flipped.  The target's c_k is a multiple of T^k, so the t^j coefficient
    of its inverse is a multiple of T^j and vanishes for j >= 3, as T^3 = 0:
    the inverse taken at order 2 is exact.  The t^n coefficient therefore
    reads three twisted source triples, t^n, t^(n-1) and t^(n-2), against
    the inverse's three in one graded dot product: O(1) integer operations
    whatever d is, with no series, no division by the source and no class
    built.
    """
    n = d - 5
    source, target = _source_and_target(d, (n, n - 1, n - 2))
    inverse = _quotient(((1, 0, 0), (0, 0, 0), (0, 0, 0)), target)
    columns = list(zip(*source))
    triple = _dot(columns, inverse, _summed(columns), _summed(inverse))
    return [x * (-1) ** n for x in triple]


def _recurrence_columns(d: int) -> list[list]:
    """The c the determinants' recurrence solves: the closed formula's
    columns of c_0..c_(d-5) with the sign (-1)^(i-1) put on those of c_i,
    the one sign convention of the full solve and of the route's top."""
    columns = _formula_columns(d, d - 5)
    return [[x if i % 2 else -x for i, x in enumerate(column)] for column in columns]


def _determinant_columns(d: int) -> list[list]:
    """All banded determinants d_0..d_(d-5) through the alternating
    recurrence d_m = sum_i (-1)^(i-1) c_i d_(m-i), which the graded integer
    kernel solves in full on the closed binomial formula's triples, never
    built as classes and independent of the series division.  The recurrence
    route's class is the last of them, reached by ``_graded._solve_top``."""
    return _solve(_recurrence_columns(d))


def determinant_formula(n: int, d: int) -> AmbientClass:
    """Closed form of the n-th banded determinant,

        binomial(d-4, n) h^n
        + (binomial(d-3, n) - binomial(d-5, n)) T h^(n-1)
        + (binomial(d-2, n)/2 - binomial(d-4, n) + binomial(d-6, n)/2) T^2 h^(n-2),

    valid once n >= 3; smaller determinants carry extra terms: d_1 = c_1 and
    d_2 = c_1^2 - c_2, from ``chern_coefficients``.
    """
    _require_curve_degree(d)
    if not isinstance(n, int) or n < 3:
        raise ValueError("the closed determinant form starts at n = 3")
    if n > d - 5:
        raise ValueError(f"determinant size must not exceed d - 5 = {d - 5}")
    return _ambient(d, n, _closed_triple(n, d))


def _closed_triple(n: int, d: int) -> tuple:
    """The closed form of the n-th banded determinant as the graded kernel's
    integer triple (x0, x1, X2) of h^n, T h^(n-1) and 2 T^2 h^(n-2)."""
    middle = binomial(d - 4, n)
    return (
        middle,
        binomial(d - 3, n) - binomial(d - 5, n),
        binomial(d - 2, n) + binomial(d - 6, n) - 2 * middle,
    )


def porteous_class(d: int, method: str = "segre") -> AmbientClass:
    """The degeneracy-locus class of the multiplication map, homogeneous of
    total degree d - 5, by the chosen determinant route of ``METHODS``: the
    one place a route's triple becomes a class."""
    _require_curve_degree(d)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return _ambient(d, d - 5, _ROUTES[method](d))
