"""Exact arithmetic in the truncated monomial rings of the engine.

Every ring is served by one sparse class, :class:`TruncatedClass`, whose
values are elements of ``Q[x, y]/(x^(top_a+1), y^(top_b+1))`` that carry
their truncation ``(top_a, top_b)``.  A value stores integer numerators over
one common denominator and hands every coefficient out as an exact
``fractions.Fraction``; the engine has no floating-point mode.  Three thin
subclasses name the rings of the computation:

* ``CurveClass`` (in :mod:`trisecant.riemann_roch`), ``c0 + c1*P`` in
  ``Q[P]/(P^2)`` on the genus-2 curve, where ``P`` is the class of a point;
* ``ThetaPoly``, ``c0 + c1*T + c2*T^2`` in ``Q[T]/(T^3)`` on the degree-3
  Picard surface of the curve, where ``T`` is the theta-divisor class (the
  surface has complex dimension two, so the cube of any divisor vanishes);
* ``AmbientClass``, ``Q[T, h]/(T^3, h^(d-1))`` on the product of that
  surface with ``P^(d-2)``, where ``h`` is the hyperplane class of the
  projective factor and the curve degree ``d >= 8`` travels with the value
  as its truncation.

The engine has no series type: a Chern series is computed as the integer
columns of :mod:`trisecant._graded` and handed out as a tuple of
``AmbientClass`` coefficients c_0, c_1, ...  All values are immutable after
construction and every operation is a pure function, so values can be shared
freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping, Union

__all__ = [
    "Rational",
    "RingMismatchError",
    "TruncatedClass",
    "ThetaPoly",
    "AmbientClass",
]

# The coefficient field.  Always reduced, positive denominator, arbitrary
# precision; Todd and exponential terms need denominators 2, 6 and 12.
Rational = Fraction

Scalar = Union[int, Fraction]


class RingMismatchError(TypeError):
    """Raised when combining ring elements from incompatible contexts."""


def _is_exact(value) -> bool:
    """An int that is not a bool, or a Fraction: both carry ``numerator`` and ``denominator``."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _power(base, exponent: int, one):
    """``base ** exponent`` by square-and-multiply, starting from the unit
    ``one`` of the base's ring; shared by every ring type."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("ring powers need a non-negative integer exponent")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def _coordinate(a: int) -> property:
    """The coefficient of ``x^a`` (with ``y^0``) as a read-only attribute."""
    return property(lambda self: Fraction(self._terms.get((a, 0), 0), self._den))


class TruncatedClass:
    """Element of ``Q[x, y]/(x^(top_a+1), y^(top_b+1))``.

    Stored sparsely: ``_terms`` maps each exponent pair ``(a, b)`` whose
    coefficient is nonzero to the integer numerator of the coefficient of
    ``x^a * y^b`` over the common denominator ``_den > 0``.  Values are kept
    in lowest terms, ``gcd(_den, *_terms.values()) == 1``, so equal values
    store equal data.  Every operation costs time in the number of nonzero
    terms, not in the truncation; a product is one integer convolution and
    one gcd.  Constructors reduce modulo the relations, so exponents beyond
    the truncation simply vanish.

    The ring of a value is its class together with its truncation.  A
    scalar lifts into any ring, two values of one ring combine, a value of
    another ring raises :class:`RingMismatchError` (``==`` answers False),
    and any other operand gives ``NotImplemented``.
    """

    __slots__ = ("_top", "_terms", "_den")

    # Names of x and y in str, and whether terms print descending in (b, a).
    _variables = ("x", "y")
    _descending = False

    def __init__(self, top: tuple[int, int], terms: Mapping | None = None) -> None:
        top_a, top_b = top
        coeffs: dict[tuple[int, int], Scalar] = {}
        for (a, b), value in (terms or {}).items():
            if not (type(a) is type(b) is int and a >= 0 and b >= 0):
                raise ValueError(f"exponents must be non-negative integers, got ({a}, {b})")
            if type(value) is not int and type(value) is not Fraction and not _is_exact(value):
                kind = type(value).__name__
                raise TypeError(f"exact rational coefficient required, got {kind}")
            if a <= top_a and b <= top_b and value:
                coeffs[(a, b)] = value
        # Over the lcm of reduced denominators the numerators share no factor with it.
        den = lcm(*[c.denominator for c in coeffs.values()])
        self._top = top
        self._terms = {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}
        self._den = den

    def _new(self, terms: dict[tuple[int, int], int], den: int = 1) -> TruncatedClass:
        """A value of this ring from in-range, nonzero integer numerators over
        ``den > 0``, brought to lowest terms; ``terms`` is taken over."""
        if den != 1:
            common = gcd(den, *terms.values())
            if common != 1:
                terms = {key: c // common for key, c in terms.items()}
                den //= common
        out = object.__new__(type(self))
        out._top = self._top
        out._terms = terms
        out._den = den
        return out

    def _coerce(self, other) -> TruncatedClass:
        """``other`` lifted into this ring when it is a scalar; a value of
        another ring raises, and any other operand gives NotImplemented."""
        if _is_exact(other):
            return self._new({(0, 0): other.numerator} if other else {}, other.denominator)
        if isinstance(other, TruncatedClass):
            raise RingMismatchError(
                f"{type(self).__name__} truncated at {self._top} cannot combine with "
                f"{type(other).__name__} truncated at {other._top}"
            )
        return NotImplemented

    def coefficient(self, a: int, b: int = 0) -> Fraction:
        """Coefficient of ``x^a * y^b``, zero when the term is absent;
        exponents are range-checked, not reduced."""
        top_a, top_b = self._top
        if not (0 <= a <= top_a and 0 <= b <= top_b):
            raise IndexError(f"exponents ({a}, {b}) out of range for truncation {self._top}")
        return Fraction(self._terms.get((a, b), 0), self._den)

    def nonzero_terms(self) -> Iterator[tuple[int, int, Fraction]]:
        """``(a, b, coefficient)`` for every nonzero term, sorted by ``(a, b)``.

        The benchmark's per-layer tracer (bench/layers.py) counts the term
        products of every traced ``AmbientClass`` product with it."""
        return ((a, b, Fraction(c, self._den)) for (a, b), c in sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def is_homogeneous(self, degree: int) -> bool:
        """True when every term has total degree a + b equal to ``degree``."""
        return all(a + b == degree for a, b in self._terms)

    def zero_like(self) -> TruncatedClass:
        return self._new({})

    def one_like(self) -> TruncatedClass:
        return self._new({(0, 0): 1})

    def __add__(self, other: TruncatedClass | Scalar) -> TruncatedClass:
        if type(other) is not type(self) or other._top != self._top:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        den = self._den
        if other._den == den:
            acc = dict(self._terms)
            get = acc.get
            for key, c in other._terms.items():
                acc[key] = get(key, 0) + c
        else:
            den = lcm(den, other._den)
            left_scale, right_scale = den // self._den, den // other._den
            acc = {key: c * left_scale for key, c in self._terms.items()}
            get = acc.get
            for key, c in other._terms.items():
                acc[key] = get(key, 0) + c * right_scale
        if 0 in acc.values():
            acc = {key: c for key, c in acc.items() if c}
        return self._new(acc, den)

    __radd__ = __add__

    def __neg__(self) -> TruncatedClass:
        return self._new({key: -c for key, c in self._terms.items()}, self._den)

    def __sub__(self, other: TruncatedClass | Scalar) -> TruncatedClass:
        if not (isinstance(other, TruncatedClass) or _is_exact(other)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other: Scalar) -> TruncatedClass:
        return (-self).__add__(other)

    def __mul__(self, other: TruncatedClass | Scalar) -> TruncatedClass:
        if type(other) is not type(self) or other._top != self._top:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        top_a, top_b = self._top
        right = other._terms.items()
        acc: dict[tuple[int, int], int] = {}
        get = acc.get
        for (a1, b1), c1 in self._terms.items():
            # Each right term must fit in the room this left term leaves to the top.
            room_a, room_b = top_a - a1, top_b - b1
            for (a2, b2), c2 in right:
                if a2 <= room_a and b2 <= room_b:
                    key = (a1 + a2, b1 + b2)
                    acc[key] = get(key, 0) + c1 * c2
        if 0 in acc.values():
            acc = {key: c for key, c in acc.items() if c}
        return self._new(acc, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> TruncatedClass:
        return _power(self, exponent, self.one_like())

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self) or other._top != self._top:
            if not _is_exact(other):
                return False if isinstance(other, TruncatedClass) else NotImplemented
            other = self._coerce(other)
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its scalar, so it must hash like one.
        if self._terms.keys() <= {(0, 0)}:
            return hash(Fraction(self._terms.get((0, 0), 0), self._den))
        return hash((type(self).__name__, self._top, self._den, frozenset(self._terms.items())))

    def __str__(self) -> str:
        """ASCII text such as ``4h^3 + 9*T*h^2 + 6*T^2*h``: an integer
        coefficient is juxtaposed with a leading power of y, every other
        factor is joined with ``*``."""
        x, y = self._variables
        pieces: list[str] = []
        ordered = sorted(
            self._terms.items(), key=lambda item: item[0][::-1], reverse=self._descending
        )
        for (a, b), numerator in ordered:
            coeff = Fraction(numerator, self._den)
            factors = []
            if a:
                factors.append(x if a == 1 else f"{x}^{a}")
            if b:
                factors.append(y if b == 1 else f"{y}^{b}")
            body = "*".join(factors)
            magnitude = abs(coeff)
            if not body:
                text = str(magnitude)
            elif magnitude == 1:
                text = body
            elif not a and magnitude.denominator == 1:
                text = f"{magnitude}{body}"
            else:
                text = f"{magnitude}*{body}"
            if not pieces:
                pieces.append(f"-{text}" if coeff < 0 else text)
            else:
                pieces.append(f" - {text}" if coeff < 0 else f" + {text}")
        return "".join(pieces) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class ThetaPoly(TruncatedClass):
    """Element ``c0 + c1*T + c2*T^2`` of ``Q[T]/(T^3)``.

    Products are reduced by dropping every power of ``T`` beyond the square.
    """

    __slots__ = ()
    _variables = ("T", "")

    def __init__(self, c0: Scalar = 0, c1: Scalar = 0, c2: Scalar = 0) -> None:
        super().__init__((2, 0), {(0, 0): c0, (1, 0): c1, (2, 0): c2})

    c0, c1, c2 = (_coordinate(a) for a in range(3))

    @classmethod
    def zero(cls) -> ThetaPoly:
        return cls()

    @classmethod
    def one(cls) -> ThetaPoly:
        return cls(1)

    @classmethod
    def theta(cls) -> ThetaPoly:
        """The theta-divisor class itself."""
        return cls(0, 1)


class AmbientClass(TruncatedClass):
    """Element of ``Q[T, h]/(T^3, h^(d-1))`` for a fixed curve degree d.

    Two values combine only when their ``d`` agree, and a ``ThetaPoly``
    combined with one raises :class:`RingMismatchError`.  Terms print
    descending in ``h``, then in ``T``.
    """

    __slots__ = ()
    _variables = ("T", "h")
    _descending = True

    def __init__(self, d: int, terms: Mapping[tuple[int, int], Scalar] | None = None) -> None:
        if not isinstance(d, int) or d < 8:
            raise ValueError("ambient context requires an integer d >= 8")
        super().__init__((2, d - 2), terms)

    # Bound here, not inherited: the benchmark's per-layer tracer (bench/layers.py)
    # wraps only the operators found in this class's own namespace.
    __add__ = __radd__ = TruncatedClass.__add__
    __sub__ = TruncatedClass.__sub__
    __rsub__ = TruncatedClass.__rsub__
    __neg__ = TruncatedClass.__neg__
    __mul__ = __rmul__ = TruncatedClass.__mul__

    @property
    def d(self) -> int:
        return self._top[1] + 2

    @classmethod
    def zero(cls, d: int) -> AmbientClass:
        return cls(d)

    @classmethod
    def one(cls, d: int) -> AmbientClass:
        return cls(d, {(0, 0): 1})

    @classmethod
    def theta(cls, d: int) -> AmbientClass:
        return cls(d, {(1, 0): 1})

    @classmethod
    def hyperplane(cls, d: int) -> AmbientClass:
        return cls(d, {(0, 1): 1})

    def __repr__(self) -> str:
        return f"AmbientClass(d={self.d}, {self})"

