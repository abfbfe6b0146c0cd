"""Exact arithmetic in the two ambient quotient rings, plus truncated
Chern-series calculus over them.

Coefficients are exact rationals throughout (``fractions.Fraction``); the
engine has no floating-point mode.  The rings are

* ``ThetaPoly``    classes on the degree-3 Picard surface of a genus-2
  curve, written as ``c0 + c1*T + c2*T^2`` in ``Q[T]/(T^3)`` where ``T`` is
  the theta-divisor class (the surface has complex dimension two, so the
  cube of any divisor class vanishes);
* ``AmbientClass`` classes on the product of that surface with ``P^(d-2)``,
  written in ``Q[T, h]/(T^3, h^(d-1))`` where ``h`` is the hyperplane class
  of the projective factor and the curve degree ``d >= 8`` travels with the
  value as context.

``ChernSeries`` is a polynomial in a formal variable ``t`` truncated at a
fixed order, with coefficients in either ring.  All values are immutable
after construction and every operation is a pure function, so values can be
shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

__all__ = [
    "Rational",
    "RingMismatchError",
    "ThetaPoly",
    "AmbientClass",
    "ChernSeries",
]

# The coefficient field.  Always reduced, positive denominator, arbitrary
# precision; Todd and exponential terms need denominators 2, 6 and 12.
Rational = Fraction

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RingMismatchError(TypeError):
    """Raised when combining ring elements from incompatible contexts."""


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational coefficient required, got {type(value).__name__}")


def _power(base, exponent: int, one):
    """``base ** exponent`` by square-and-multiply, starting from the unit
    ``one`` of the base's ring; shared by every ring and series type."""
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


def _join_terms(parts: list[tuple[Fraction, str]]) -> str:
    """Render a sum of (coefficient, monomial-body) pairs as ASCII text.

    An integer coefficient is juxtaposed with a leading ``h`` ("4h^3");
    every other factor is joined with ``*`` ("9*T*h^2", "25/2*h^2").
    """
    if not parts:
        return "0"
    pieces: list[str] = []
    for coeff, body in parts:
        magnitude = abs(coeff)
        if not body:
            text = str(magnitude)
        elif magnitude == 1:
            text = body
        elif body.startswith("h") and magnitude.denominator == 1:
            text = f"{magnitude}{body}"
        else:
            text = f"{magnitude}*{body}"
        if not pieces:
            pieces.append(f"-{text}" if coeff < 0 else text)
        else:
            pieces.append(f" - {text}" if coeff < 0 else f" + {text}")
    return "".join(pieces)


_THETA_MEETS_AMBIENT = (
    "theta-ring element cannot combine with an ambient class; "
    "inject it first with AmbientClass.from_theta"
)


class ThetaPoly:
    """Element ``c0 + c1*T + c2*T^2`` of ``Q[T]/(T^3)``.

    Products are reduced by dropping every power of ``T`` beyond the square.
    """

    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0: Scalar = 0, c1: Scalar = 0, c2: Scalar = 0) -> None:
        self.c0 = _as_fraction(c0)
        self.c1 = _as_fraction(c1)
        self.c2 = _as_fraction(c2)

    @classmethod
    def zero(cls) -> ThetaPoly:
        return _THETA_ZERO

    @classmethod
    def one(cls) -> ThetaPoly:
        return _THETA_ONE

    @classmethod
    def theta(cls) -> ThetaPoly:
        """The theta-divisor class itself."""
        return _THETA_T

    def zero_like(self) -> ThetaPoly:
        return _THETA_ZERO

    def one_like(self) -> ThetaPoly:
        return _THETA_ONE

    def coefficient(self, k: int) -> Fraction:
        if k == 0:
            return self.c0
        if k == 1:
            return self.c1
        if k == 2:
            return self.c2
        raise IndexError(f"theta exponent out of range: {k}")

    def is_zero(self) -> bool:
        return not (self.c0 or self.c1 or self.c2)

    def __add__(self, other: ThetaPoly | Scalar) -> ThetaPoly:
        if isinstance(other, (int, Fraction)):
            return ThetaPoly(self.c0 + other, self.c1, self.c2)
        if isinstance(other, ThetaPoly):
            return ThetaPoly(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)
        if isinstance(other, AmbientClass):
            raise RingMismatchError(_THETA_MEETS_AMBIENT)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> ThetaPoly:
        return ThetaPoly(-self.c0, -self.c1, -self.c2)

    def __sub__(self, other: ThetaPoly | Scalar) -> ThetaPoly:
        if isinstance(other, (int, Fraction, ThetaPoly)):
            return self + -other
        if isinstance(other, AmbientClass):
            raise RingMismatchError(_THETA_MEETS_AMBIENT)
        return NotImplemented

    def __rsub__(self, other: Scalar) -> ThetaPoly:
        return (-self) + other

    def __mul__(self, other: ThetaPoly | Scalar) -> ThetaPoly:
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            return ThetaPoly(self.c0 * q, self.c1 * q, self.c2 * q)
        if isinstance(other, ThetaPoly):
            return ThetaPoly(
                self.c0 * other.c0,
                self.c0 * other.c1 + self.c1 * other.c0,
                self.c0 * other.c2 + self.c1 * other.c1 + self.c2 * other.c0,
            )
        if isinstance(other, AmbientClass):
            raise RingMismatchError(_THETA_MEETS_AMBIENT)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> ThetaPoly:
        return _power(self, exponent, _THETA_ONE)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ThetaPoly(other)
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        return (self.c0, self.c1, self.c2) == (other.c0, other.c1, other.c2)

    def __hash__(self) -> int:
        # A constant equals its scalar, so it must hash like one.
        if not (self.c1 or self.c2):
            return hash(self.c0)
        return hash(("ThetaPoly", self.c0, self.c1, self.c2))

    def __str__(self) -> str:
        parts = [
            (coeff, body)
            for coeff, body in ((self.c0, ""), (self.c1, "T"), (self.c2, "T^2"))
            if coeff
        ]
        return _join_terms(parts)

    def __repr__(self) -> str:
        return f"ThetaPoly({self})"


_THETA_ZERO = ThetaPoly()
_THETA_ONE = ThetaPoly(1)
_THETA_T = ThetaPoly(0, 1)


class AmbientClass:
    """Element of ``Q[T, h]/(T^3, h^(d-1))`` for a fixed curve degree d.

    Stored sparsely: a dict maps each exponent pair ``(a, b)`` whose
    coefficient is nonzero to the coefficient of ``T^a * h^b``, so every
    operation costs time in the number of nonzero terms, not in d.  Two
    values combine only when their ``d`` agree; the theta ring embeds through
    :meth:`from_theta` and never implicitly.  Constructors reduce modulo the
    relations, so exponents at or beyond the truncation simply vanish.
    """

    __slots__ = ("d", "_terms")

    def __init__(self, d: int, terms: Mapping[tuple[int, int], Scalar] | None = None) -> None:
        if not isinstance(d, int) or d < 8:
            raise ValueError("ambient context requires an integer d >= 8")
        acc: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (a, b), value in terms.items():
                if not isinstance(a, int) or not isinstance(b, int) or a < 0 or b < 0:
                    raise ValueError(f"exponents must be non-negative integers, got ({a}, {b})")
                coeff = _as_fraction(value)
                if a <= 2 and b <= d - 2 and coeff:
                    acc[(a, b)] = coeff
        self.d = d
        self._terms = acc

    @classmethod
    def _from_terms(cls, d: int, acc: dict[tuple[int, int], Fraction]) -> AmbientClass:
        """Internal fast path; ``acc`` must hold only in-range, nonzero terms
        and is taken over, not copied."""
        self = object.__new__(cls)
        self.d = d
        self._terms = acc
        return self

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

    @classmethod
    def monomial(cls, d: int, theta_pow: int, h_pow: int, coeff: Scalar = 1) -> AmbientClass:
        return cls(d, {(theta_pow, h_pow): coeff})

    @classmethod
    def from_theta(cls, poly: ThetaPoly, d: int) -> AmbientClass:
        """The one sanctioned injection of the theta ring into the ambient ring."""
        return cls(d, {(0, 0): poly.c0, (1, 0): poly.c1, (2, 0): poly.c2})

    def coefficient(self, theta_pow: int, h_pow: int) -> Fraction:
        """Coefficient of ``T^theta_pow * h^h_pow``, zero when the term is
        absent; indices are range-checked, not reduced."""
        if not 0 <= theta_pow <= 2:
            raise IndexError(f"theta exponent out of range: {theta_pow}")
        if not 0 <= h_pow <= self.d - 2:
            raise IndexError(f"hyperplane exponent out of range for d={self.d}: {h_pow}")
        return self._terms.get((theta_pow, h_pow), _ZERO)

    def nonzero_terms(self) -> Iterator[tuple[int, int, Fraction]]:
        """``(a, b, coefficient)`` for every nonzero term, sorted by ``(a, b)``."""
        return ((a, b, c) for (a, b), c in sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def is_homogeneous(self, degree: int) -> bool:
        """True when every term has total degree a + b equal to ``degree``."""
        return all(a + b == degree for a, b in self._terms)

    def zero_like(self) -> AmbientClass:
        return AmbientClass._from_terms(self.d, {})

    def one_like(self) -> AmbientClass:
        return AmbientClass._from_terms(self.d, {(0, 0): _ONE})

    def _check_context(self, other: AmbientClass) -> None:
        if self.d != other.d:
            raise RingMismatchError(f"mixed ambient contexts: d={self.d} and d={other.d}")

    def __add__(self, other: AmbientClass | Scalar) -> AmbientClass:
        if isinstance(other, (int, Fraction)):
            other = AmbientClass.monomial(self.d, 0, 0, other)
        if isinstance(other, ThetaPoly):
            raise RingMismatchError(
                "ambient class cannot combine with a theta-ring element; "
                "inject it first with AmbientClass.from_theta"
            )
        if not isinstance(other, AmbientClass):
            return NotImplemented
        self._check_context(other)
        acc = dict(self._terms)
        for key, c in other._terms.items():
            prior = acc.pop(key, None)
            total = c if prior is None else prior + c
            if total:
                acc[key] = total
        return AmbientClass._from_terms(self.d, acc)

    __radd__ = __add__

    def __neg__(self) -> AmbientClass:
        return AmbientClass._from_terms(self.d, {key: -c for key, c in self._terms.items()})

    def __sub__(self, other: AmbientClass | Scalar) -> AmbientClass:
        if isinstance(other, (int, Fraction)):
            other = AmbientClass.monomial(self.d, 0, 0, other)
        if not isinstance(other, AmbientClass):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> AmbientClass:
        return (-self) + other

    def __mul__(self, other: AmbientClass | Scalar) -> AmbientClass:
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if not q:
                return self.zero_like()
            return AmbientClass._from_terms(
                self.d, {key: c * q for key, c in self._terms.items()}
            )
        if isinstance(other, ThetaPoly):
            raise RingMismatchError(
                "ambient class cannot combine with a theta-ring element; "
                "inject it first with AmbientClass.from_theta"
            )
        if not isinstance(other, AmbientClass):
            return NotImplemented
        self._check_context(other)
        top_h = self.d - 2
        right = other._terms.items()
        acc: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in right:
                a = a1 + a2
                if a > 2:
                    continue
                b = b1 + b2
                if b > top_h:
                    continue
                key = (a, b)
                prior = acc.get(key)
                acc[key] = c1 * c2 if prior is None else prior + c1 * c2
        return AmbientClass._from_terms(
            self.d, {key: c for key, c in acc.items() if c}
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> AmbientClass:
        return _power(self, exponent, self.one_like())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = AmbientClass.monomial(self.d, 0, 0, other)
        if isinstance(other, ThetaPoly):
            return NotImplemented
        if not isinstance(other, AmbientClass):
            return NotImplemented
        return self.d == other.d and self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its scalar, so it must hash like one.
        if self._terms.keys() <= {(0, 0)}:
            return hash(self._terms.get((0, 0), _ZERO))
        return hash(("AmbientClass", self.d, frozenset(self._terms.items())))

    def __str__(self) -> str:
        parts = []
        descending = sorted(self._terms.items(), key=lambda item: (-item[0][1], -item[0][0]))
        for (a, b), coeff in descending:
            factors = []
            if a:
                factors.append("T" if a == 1 else f"T^{a}")
            if b:
                factors.append("h" if b == 1 else f"h^{b}")
            parts.append((coeff, "*".join(factors)))
        return _join_terms(parts)

    def __repr__(self) -> str:
        return f"AmbientClass(d={self.d}, {self})"


class ChernSeries:
    """Polynomial in ``t`` truncated at a fixed order, with coefficients in
    one ring (all ``ThetaPoly``, or all ``AmbientClass`` with one ``d``).

    Binary operations truncate at the smaller operand order.  Coefficients
    beyond the stored order are unknown and never invented, with one
    documented exception: :meth:`compose` treats the inner series as a
    polynomial, reading absent coefficients as zero.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence, order: int | None = None) -> None:
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("series order must be non-negative")
        # A coefficient's ring is its type, plus d for an ambient class.
        ring = (type(coeffs[0]), getattr(coeffs[0], "d", None))
        for c in coeffs:
            if (type(c), getattr(c, "d", None)) != ring:
                raise RingMismatchError(f"one series mixes coefficients {coeffs[0]!r} and {c!r}")
        if len(coeffs) <= order:
            coeffs.extend([coeffs[0].zero_like()] * (order + 1 - len(coeffs)))
        self.order = order
        self.coeffs = tuple(coeffs[: order + 1])

    @classmethod
    def constant(cls, element, order: int) -> ChernSeries:
        return cls([element], order)

    def coefficient(self, k: int):
        if not 0 <= k <= self.order:
            raise IndexError(f"series coefficient out of range: t^{k} at order {self.order}")
        return self.coeffs[k]

    def with_order(self, order: int) -> ChernSeries:
        if order == self.order:
            return self
        return ChernSeries(self.coeffs, order)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChernSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __add__(self, other: ChernSeries) -> ChernSeries:
        if not isinstance(other, ChernSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return ChernSeries(
            [a + b for a, b in zip(self.coeffs[: order + 1], other.coeffs[: order + 1])],
            order,
        )

    def __neg__(self) -> ChernSeries:
        return ChernSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other: ChernSeries) -> ChernSeries:
        if not isinstance(other, ChernSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> ChernSeries:
        if isinstance(other, ChernSeries):
            order = min(self.order, other.order)
            zero = self.coeffs[0].zero_like()
            out = [zero] * (order + 1)
            left = [(i, c) for i, c in enumerate(self.coeffs[: order + 1]) if not c.is_zero()]
            right = [(j, c) for j, c in enumerate(other.coeffs[: order + 1]) if not c.is_zero()]
            for i, ci in left:
                for j, cj in right:
                    k = i + j
                    if k > order:
                        break
                    out[k] = out[k] + ci * cj
            return ChernSeries(out, order)
        # ring element or scalar: scale every coefficient
        return ChernSeries([c * other for c in self.coeffs], self.order)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> ChernSeries:
        one = ChernSeries.constant(self.coeffs[0].one_like(), self.order)
        return _power(self, exponent, one)

    def inverse(self) -> ChernSeries:
        """Multiplicative inverse; the constant term must be the ring unit."""
        unit = self.coeffs[0].one_like()
        if self.coeffs[0] != unit:
            raise ValueError("series inversion needs constant term 1")
        zero = self.coeffs[0].zero_like()
        inv = [unit] + [zero] * self.order
        body = [(k, c) for k, c in enumerate(self.coeffs) if k and not c.is_zero()]
        for m in range(1, self.order + 1):
            s = zero
            for k, a in body:
                if k > m:
                    break
                b = inv[m - k]
                if not b.is_zero():
                    s = s + a * b
            inv[m] = -s
        return ChernSeries(inv, self.order)

    def exp(self) -> ChernSeries:
        """Exponential ``sum x^j / j!`` of a series with zero constant term.

        The constant term vanishing forces ``x^j`` into ``t^j * (...)``, so
        the loop is hard-bounded by the truncation order; nilpotent
        coefficients usually stop it much earlier.
        """
        if not self.coeffs[0].is_zero():
            raise ValueError("series exponential needs a zero constant term")
        one = ChernSeries.constant(self.coeffs[0].one_like(), self.order)
        total = one
        term = one
        for j in range(1, self.order + 1):
            term = term * self * Fraction(1, j)
            if term.is_zero():
                break
            total = total + term
        return total

    def compose(self, inner: ChernSeries) -> ChernSeries:
        """Substitution ``self(inner(t))``, truncated at this series' order.

        The inner series must have zero constant term; its coefficients
        beyond the stored order are taken to be zero.
        """
        if not isinstance(inner, ChernSeries):
            raise TypeError("compose expects another ChernSeries")
        if not inner.coeffs[0].is_zero():
            raise ValueError("composition needs an inner series with zero constant term")
        order = self.order
        inner = inner.with_order(order)
        top = 0
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                top = k
        result = ChernSeries.constant(self.coeffs[top], order)
        for k in range(top - 1, -1, -1):
            result = result * inner
            result = ChernSeries(
                (result.coeffs[0] + self.coeffs[k],) + result.coeffs[1:], order
            )
        return result

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self.coeffs)
        return f"ChernSeries(order={self.order}, [{body}])"
