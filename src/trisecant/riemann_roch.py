"""Cohomology of the curve times its degree-3 Picard surface, Todd classes,
and the Riemann-Roch pushforward that produces the two section bundles.

For a genus-2 curve C embedded with degree d, the engine works over
C x Pic^3(C).  Rationally the cohomology it needs is a free rank-3 module
over the theta ring, with basis {1, f, gamma}: f is the class of a point
fiber {pt} x Pic^3, and gamma is the diagonal Kunneth component of the
first Chern class of a normalized Poincare line bundle.  The products

    f * f = 0,   f * gamma = 0,   gamma * gamma = -2 * f * T

are input data here (gamma^3 = 0 follows), as is the first Chern class
3f + gamma of the Poincare bundle itself.  Everything downstream of those
relations is computed, not quoted.  The curve's own ring Q[P]/(P^2), P the
class of a point, needs no type of its own: P -> f embeds it upstairs, as
f^2 = 0, so its Todd class 1 - P is read as 1 - f.

The Riemann-Roch pushforwards behind the two section bundles run once per
process: d enters only through exp(d*f) = 1 + d*f, exact because f^2 = 0,
so the residual character is affine in d.  Three pushforwards fix both
characters: the sections one, and the residual's value at d = 0 and its
slope, from two line-bundle characters in all.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .ring import RingMismatchError, Scalar, ThetaPoly, _Value, _is_exact, _require_curve_degree

__all__ = [
    "UpstreamClass",
    "todd_from_chern",
    "pushforward_to_picard",
    "riemann_roch_pushforward",
    "line_bundle_character",
    "poincare_first_chern",
    "poincare_character",
    "bundle_characters",
]

# The theta class gamma^2 / f of the product rule gamma^2 = -2 f T.
_GAMMA_SQUARED_OVER_F = ThetaPoly(0, -2)


class UpstreamClass(_Value):
    """Class on (curve) x (Picard surface): ``u1 + uf*f + ug*gamma`` with
    theta-ring coordinates.

    Multiplication applies the module relations listed at the top of this
    file; gamma never leaves this ring, because it dies both under the
    pushforward to the Picard side and under restriction to a fiber.  A
    theta class lifts by pullback, like a scalar; the rest of the value
    protocol is :class:`trisecant.ring._Value`'s.
    """

    __slots__ = ("u1", "uf", "ug")

    def __init__(
        self,
        u1: ThetaPoly | Scalar = 0,
        uf: ThetaPoly | Scalar = 0,
        ug: ThetaPoly | Scalar = 0,
    ) -> None:
        self.u1 = u1 if isinstance(u1, ThetaPoly) else ThetaPoly(u1)
        self.uf = uf if isinstance(uf, ThetaPoly) else ThetaPoly(uf)
        self.ug = ug if isinstance(ug, ThetaPoly) else ThetaPoly(ug)

    @classmethod
    def zero(cls) -> UpstreamClass:
        return cls()

    @classmethod
    def one(cls) -> UpstreamClass:
        return cls(1)

    @classmethod
    def fiber(cls) -> UpstreamClass:
        """The class f of a point fiber over the curve factor."""
        return cls(0, 1)

    @classmethod
    def kunneth(cls) -> UpstreamClass:
        """The diagonal Kunneth component gamma."""
        return cls(0, 0, 1)

    @classmethod
    def theta(cls) -> UpstreamClass:
        """The theta class pulled back from the Picard factor."""
        return cls(ThetaPoly.theta())

    def is_zero(self) -> bool:
        return self.u1.is_zero() and self.uf.is_zero() and self.ug.is_zero()

    @staticmethod
    def _lift(other) -> UpstreamClass:
        if isinstance(other, UpstreamClass):
            return other
        if _is_exact(other) or isinstance(other, ThetaPoly):
            return UpstreamClass(other)
        if isinstance(other, _Value):
            raise RingMismatchError(f"UpstreamClass cannot combine with {type(other).__name__}")
        return NotImplemented

    def __add__(self, other: UpstreamClass | ThetaPoly | Scalar) -> UpstreamClass:
        other = self._lift(other)
        if other is NotImplemented:
            return other
        return UpstreamClass(self.u1 + other.u1, self.uf + other.uf, self.ug + other.ug)

    __radd__ = __add__

    def __neg__(self) -> UpstreamClass:
        return UpstreamClass(-self.u1, -self.uf, -self.ug)

    def __mul__(self, other: UpstreamClass | ThetaPoly | Scalar) -> UpstreamClass:
        other = self._lift(other)
        if other is NotImplemented:
            return other
        # gamma^2 = -2 f T contributes to the fiber coordinate; f^2 and
        # f*gamma vanish outright.
        u1 = self.u1 * other.u1
        uf = (
            self.u1 * other.uf
            + self.uf * other.u1
            + self.ug * other.ug * _GAMMA_SQUARED_OVER_F
        )
        ug = self.u1 * other.ug + self.ug * other.u1
        return UpstreamClass(u1, uf, ug)

    __rmul__ = __mul__

    def _key(self) -> tuple:
        return self.u1, self.uf, self.ug

    def __hash__(self) -> int:
        # A class without f or gamma equals its theta part, so it hashes like it.
        if self.uf.is_zero() and self.ug.is_zero():
            return hash(self.u1)
        return hash(("UpstreamClass", self.u1, self.uf, self.ug))

    def __str__(self) -> str:
        parts = []
        if not self.u1.is_zero():
            parts.append(f"({self.u1})")
        if not self.uf.is_zero():
            parts.append(f"({self.uf})*f")
        if not self.ug.is_zero():
            parts.append(f"({self.ug})*gamma")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"UpstreamClass({self})"


def todd_from_chern(c1, c2):
    """Todd class ``1 + c1/2 + (c1^2 + c2)/12`` through complex dimension two.

    Works in any of the coefficient rings here: the inputs need addition,
    multiplication and rational scaling, nothing else.
    """
    one = c1.one_like()
    return one + c1 * Fraction(1, 2) + (c1 * c1 + c2) * Fraction(1, 12)


def pushforward_to_picard(value: UpstreamClass) -> ThetaPoly:
    """Proper pushforward along the projection to the Picard surface.

    Integration over the curve kills the fundamental class and the Kunneth
    component, sends the fiber class to 1, and is theta-linear by the
    projection formula; the result is simply the fiber coordinate.
    """
    return value.uf


def line_bundle_character(first_chern: UpstreamClass) -> UpstreamClass:
    """Chern character ``exp(c1)`` of a line bundle upstairs.

    The input must have no degree-zero part; it is then nilpotent, and the
    exponential terminates at the cube because the product space has
    dimension three.  The bound is enforced, never probed.
    """
    if first_chern.u1.c0 != 0:
        raise ValueError("a first Chern class cannot have a degree-zero part")
    total = UpstreamClass.one()
    power = UpstreamClass.one()
    for j in range(1, 4):
        power = power * first_chern
        total = total + power * Fraction(1, factorial(j))
    return total


def poincare_first_chern() -> UpstreamClass:
    """First Chern class 3f + gamma of the normalized degree-3 Poincare
    bundle; input data for the whole pipeline."""
    return UpstreamClass(0, 3, 1)


def poincare_character() -> UpstreamClass:
    """Chern character of the Poincare bundle, computed from its first
    Chern class.  Equals 1 + 3f + gamma - f*T: the square of 3f + gamma is
    already -2*f*T and the cube vanishes."""
    return line_bundle_character(poincare_first_chern())


def _product_space_todd() -> UpstreamClass:
    """Todd class of (curve) x (Picard surface).

    The tangent bundle splits; the genus-2 curve contributes first Chern
    class -2f (canonical degree 2) and the abelian surface contributes
    nothing, so c1 = -2f and c2 = 0 upstairs.
    """
    return todd_from_chern(UpstreamClass.fiber() * (-2), UpstreamClass.zero())


def riemann_roch_pushforward(character: UpstreamClass) -> ThetaPoly:
    """Chern character of the derived pushforward to the Picard surface.

    Grothendieck-Riemann-Roch:  ch(q_* E) * td(base) = q_*(ch(E) * td(total)).
    The base is an abelian surface, so its Todd class is 1; that identity is
    recomputed on every call rather than assumed.
    """
    td_base = todd_from_chern(ThetaPoly.zero(), ThetaPoly.zero())
    if td_base != ThetaPoly.one():
        raise ArithmeticError("Todd class of the abelian base failed to be 1")
    return pushforward_to_picard(character * _product_space_todd())


@cache
def _pushforwards() -> tuple[ThetaPoly, ThetaPoly, ThetaPoly]:
    """The sections character, and the residual one at hyperplane degree 0
    with its slope in d.  The residual is the pushforward of exp(d*f) times
    the inverse Poincare character, and exp(d*f) = 1 + d*f as f^2 = 0; the
    pushforward is linear, so the inverse character pushes forward to the
    value at d = 0, and f times it to the slope."""
    c1 = poincare_first_chern()
    sections = riemann_roch_pushforward(line_bundle_character(c1))
    dual = line_bundle_character(-c1)
    at_0 = riemann_roch_pushforward(dual)
    slope = riemann_roch_pushforward(UpstreamClass.fiber() * dual)
    for character in (sections, at_0, slope):
        _require_integer_rank(character)
    return sections, at_0, slope


def bundle_characters(d: int) -> tuple[ThetaPoly, ThetaPoly]:
    """Chern characters of the two section bundles on the Picard surface.

    For each degree-3 divisor class the fibers are the sections of that
    divisor ("sections", rank 2 by Riemann-Roch in genus 2) and the sections
    of the hyperplane divisor minus it ("residual", rank d - 4).  Both
    characters come out of the pushforward machinery; nothing is hard-coded.
    The rank of each is its degree-zero part.
    """
    _require_curve_degree(d)
    sections, residual_at_0, slope = _pushforwards()
    return sections, residual_at_0 + slope * d


def _require_integer_rank(character: ThetaPoly) -> None:
    if character.c0.denominator != 1:
        raise ArithmeticError(f"non-integer rank {character.c0} out of the pushforward")
