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
Each determinant route returns the class itself, an ``AmbientClass``.

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
exponential form is one exp of an exponent written down in closed form, and
the binomial expansion sums shifted Pascal columns.  Each column function
``_<form>_columns`` has one public wrapper that builds the classes, once, on
the way out, and returns them as the tuple c_0..c_(d-5); ``trisecant
verify`` compares the columns themselves.  The recurrence route needs one
determinant, the last: it runs the recurrence to the middle and then one
Newton step (``_graded._solve_top``), while ``recurrence_determinants`` and
``verify``, which read every size, run the full recurrence.  The closed
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
from .ring import AmbientClass, ThetaPoly
from .riemann_roch import bundle_characters

__all__ = [
    "METHODS",
    "virtual_chern_series",
    "virtual_chern_series_closed_form",
    "virtual_chern_series_expansion",
    "chern_coefficient_formula",
    "chern_coefficients",
    "recurrence_determinants",
    "determinant_segre",
    "determinant_formula",
    "porteous_class",
]

METHODS = ("segre", "recurrence", "closed-form")


def _require_degree(d: int) -> None:
    if not isinstance(d, int) or d < 8:
        raise ValueError("the Porteous pipeline requires an integer d >= 8")


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
    """The columns of :func:`virtual_chern_series`."""
    _require_degree(d)
    order = d - 5
    source, target = _source_and_target(d, range(order + 1))
    padded = [[*column, *[0] * order] for column in target]
    return _quotient(padded, list(zip(*source)))


def virtual_chern_series(d: int) -> tuple[AmbientClass, ...]:
    """c_0..c_(d-5) of c_t(target - source) by honest series division: the
    target's triples, padded with zeros, divided by the twisted source's to
    order d - 5 in one solve of the graded integer kernel of
    :mod:`trisecant._graded`, turned into classes once."""
    return _classes(d, _division_columns(d))


def _exponential_columns(d: int) -> list[list]:
    """The columns of :func:`virtual_chern_series_closed_form`."""
    _require_degree(d)
    order = d - 5
    x0, x1 = [0, *[d - 4] * order], [0, 2, *range(2, order + 1)]
    # Through the module, so that a rebinding of ``_graded._exp`` takes effect.
    return _graded._exp([x0, x1, [0] * (order + 1)])


def virtual_chern_series_closed_form(d: int) -> tuple[AmbientClass, ...]:
    """c_0..c_(d-5) of the same quotient in closed exponential form,

        (1 - h*t)^(4-d) * exp((2*T*t - T*h*t^2) / (1 - h*t))
            = exp((d-4) * -log(1 - h*t) + (2*T*t - T*h*t^2) / (1 - h*t)),

    with no division by the source series: one exp on the graded kernel's
    columns.  The exponent is (d-4) h^k / k + T h^(k-1) at each t^k, with
    2T in place of T at t^1, so t d/dt of it has the integer columns
    (0, d-4, d-4, ...) of h^k and (0, 2, 2, 3, 4, ..., d-5) of T h^(k-1),
    and no T^2 part.  The classes are built once, on the way out.
    """
    return _classes(d, _exponential_columns(d))


def _expansion_columns(d: int) -> list[list]:
    """The columns of :func:`virtual_chern_series_expansion`."""
    _require_degree(d)
    order = d - 5
    b = [0, 0, 0, 0, *_pascal_columns(d, order)[2]]  # b(k) at index k + 4
    steps = range(order + 1)
    return [
        [b[m + 4] - 2 * b[m + 3] + b[m + 2] for m in steps],
        [2 * b[m + 3] - 3 * b[m + 2] + b[m + 1] for m in steps],
        [4 * b[m + 2] - 4 * b[m + 1] + b[m] for m in steps],
    ]


def virtual_chern_series_expansion(d: int) -> tuple[AmbientClass, ...]:
    """c_0..c_(d-5) of the virtual quotient by term-by-term binomial expansion.

    Grouping the three powers of (1 - h*t) over the common tail
    (1 - h*t)^(2-d) = sum_k b(k) h^k t^k, b(k) = binomial(d+k-3, k), leaves
    five shifted sums, evaluated here coefficient by coefficient: the t^m
    coefficient gathers b(m-j) for j in 0..4 (b vanishes below 0), as the
    columns b(m) - 2 b(m-1) + b(m-2) of h^m, 2 b(m-1) - 3 b(m-2) + b(m-3) of
    T h^(m-1) and 4 b(m-2) - 4 b(m-3) + b(m-4) of 2 T^2 h^(m-2).  The b(k)
    are the last of :func:`_pascal_columns`.
    """
    return _classes(d, _expansion_columns(d))


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


def chern_coefficient_formula(i: int, d: int) -> AmbientClass:
    """Closed binomial formula for the i-th virtual Chern coefficient,
    valid on 1 <= i <= d - 5: the tips of the formula's columns of order i,
    O(i) integer steps."""
    _require_degree(d)
    if not isinstance(i, int) or not 1 <= i <= d - 5:
        raise ValueError(f"coefficient index must lie in 1..{d - 5}, got {i}")
    return _ambient(d, i, [column[-1] for column in _formula_columns(d, i)])


def chern_coefficients(d: int) -> tuple[AmbientClass, ...]:
    """Virtual Chern coefficients c_1..c_(d-5) from the series division.

    Each coefficient is compared against the closed binomial form; a
    mismatch means the pipeline is broken and raises rather than letting a
    wrong class flow on.
    """
    columns = _division_columns(d)
    diff = _difference(d, columns, _formula_columns(d, d - 5))
    if diff:
        i, division, formula = diff
        raise ArithmeticError(
            f"virtual Chern coefficient mismatch at i={i}, d={d}: "
            f"division gave {division}, formula gave {formula}"
        )
    return _classes(d, columns)[1:]


def determinant_segre(d: int) -> AmbientClass:
    """Porteous' class as a Segre class: (-1)^n [t^n] c_t(source) / c_t(target)
    with n = d - 5.

    The banded recurrence reads D(t) * c_(-t)(target - source) = 1, so the
    determinants are the coefficients of the quotient with the sign of t
    flipped.  The target's c_k is a multiple of T^k, so the t^j coefficient
    of its inverse is a multiple of T^j and vanishes for j >= 3, as T^3 = 0:
    the inverse taken at order 2 is exact.  The t^n coefficient therefore
    reads three twisted source triples, t^n, t^(n-1) and t^(n-2), against
    the inverse's three in one graded dot product: O(1) integer operations
    whatever d is, with no series, no division by the source and one class
    built, the answer.
    """
    _require_degree(d)
    n = d - 5
    source, target = _source_and_target(d, (n, n - 1, n - 2))
    inverse = _quotient(((1, 0, 0), (0, 0, 0), (0, 0, 0)), target)
    columns = list(zip(*source))
    triple = _dot(columns, inverse, _summed(columns), _summed(inverse))
    return _ambient(d, n, [x * (-1) ** n for x in triple])


def _recurrence_columns(d: int) -> list[list]:
    """The c the determinants' recurrence solves: the closed formula's
    columns of c_0..c_(d-5) with the sign (-1)^(i-1) put on those of c_i,
    the one sign convention of the full solve and of the route's top."""
    columns = _formula_columns(d, d - 5)
    return [[x if i % 2 else -x for i, x in enumerate(column)] for column in columns]


def _determinant_columns(d: int) -> list[list]:
    """The graded kernel's columns of the determinants of
    :func:`recurrence_determinants`: every size, by the full solve."""
    _require_degree(d)
    return _solve(_recurrence_columns(d))


def recurrence_determinants(d: int) -> tuple[AmbientClass, ...]:
    """All banded determinants d_0..d_(d-5) through the alternating
    recurrence d_m = sum_i (-1)^(i-1) c_i d_(m-i), which the graded integer
    kernel solves on the closed binomial formula's triples, never built as
    classes, making this route independent of the series division."""
    return _classes(d, _determinant_columns(d))


def determinant_formula(n: int, d: int) -> AmbientClass:
    """Closed form of the n-th banded determinant,

        binomial(d-4, n) h^n
        + (binomial(d-3, n) - binomial(d-5, n)) T h^(n-1)
        + (binomial(d-2, n)/2 - binomial(d-4, n) + binomial(d-6, n)/2) T^2 h^(n-2),

    valid once n >= 3; smaller determinants carry extra terms and must go
    through the recurrence instead.
    """
    _require_degree(d)
    if not isinstance(n, int) or n < 3:
        raise ValueError("the closed determinant form starts at n = 3; use the recurrence below that")
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
    total degree d - 5, by the chosen determinant route."""
    _require_degree(d)
    if method == "segre":
        return determinant_segre(d)
    if method == "recurrence":
        return _ambient(d, d - 5, _graded._solve_top(_recurrence_columns(d)))
    if method == "closed-form":
        return determinant_formula(d - 5, d)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
