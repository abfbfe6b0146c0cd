"""Upstream cohomology, Todd classes, and the pushforward to the Picard
surface.  The two bundle characters at the end are the pipeline's first
genuinely derived results, so they get both exact goldens and property
coverage."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trisecant.riemann_roch import (
    UpstreamClass,
    _require_integer_rank,
    bundle_characters,
    line_bundle_character,
    poincare_character,
    poincare_first_chern,
    pushforward_to_picard,
    riemann_roch_pushforward,
    todd_from_chern,
)
from trisecant.ring import ThetaPoly

from curve_ring import curve

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
theta_polys = st.builds(ThetaPoly, small_fractions, small_fractions, small_fractions)
upstream_classes = st.builds(UpstreamClass, theta_polys, theta_polys, theta_polys)


def test_curve_class_point_squares_to_zero():
    point = curve(0, 1)
    assert (point * point).is_zero()
    assert str(curve(1, -1)) == "1 - x"


def test_kunneth_relations():
    f = UpstreamClass.fiber()
    gamma = UpstreamClass.kunneth()
    theta = UpstreamClass.theta()
    assert (f * f).is_zero()
    assert (f * gamma).is_zero()
    assert gamma * gamma == f * theta * (-2)
    assert (gamma ** 3).is_zero()
    assert (f * 3 + gamma) ** 2 == f * theta * (-2)
    assert ((f * 3 + gamma) ** 3).is_zero()


def test_todd_lemma_all_three_cases():
    """Abelian surface: td = 1.  Genus-2 curve: td = 1 - P.  Product: 1 - f.
    P -> f embeds Q[P]/(P^2) in the ring upstairs (f^2 = 0), and
    ``todd_from_chern`` is a polynomial in its arguments, so td(-2P, 0) = 1 - P
    iff td(-2f, 0) = 1 - f: the product case, which the engine computes,
    carries the curve's, which runs here on the bare sparse class."""
    assert todd_from_chern(ThetaPoly.zero(), ThetaPoly.zero()) == ThetaPoly.one()
    assert todd_from_chern(curve(0, -2), curve()) == curve(1, -1)
    assert todd_from_chern(
        UpstreamClass.fiber() * (-2), UpstreamClass.zero()
    ) == UpstreamClass(1, -1)
    # All three have c1^2 + c2 = 0.  The projective plane, c1 = 3H and
    # c2 = 3H^2, does not: its H^2 coefficient 1 is all (c1^2 + c2) / 12.
    td_plane = todd_from_chern(ThetaPoly(0, 3), ThetaPoly(0, 0, 3))
    assert td_plane == ThetaPoly(1, Fraction(3, 2), 1)


def test_pushforward_lemma():
    f = UpstreamClass.fiber()
    gamma = UpstreamClass.kunneth()
    theta = UpstreamClass.theta()
    assert pushforward_to_picard(UpstreamClass.one()) == ThetaPoly.zero()
    assert pushforward_to_picard(f) == ThetaPoly.one()
    assert pushforward_to_picard(gamma) == ThetaPoly.zero()
    assert pushforward_to_picard(f * theta) == ThetaPoly.theta()


@given(upstream_classes, upstream_classes, theta_polys)
def test_pushforward_is_theta_linear(x, y, scale):
    assert pushforward_to_picard(x + y) == pushforward_to_picard(x) + pushforward_to_picard(y)
    assert pushforward_to_picard(x * scale) == pushforward_to_picard(x) * scale
    assert x * scale == scale * x == x * UpstreamClass(scale)


@given(upstream_classes, upstream_classes, upstream_classes)
def test_upstream_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x


def test_poincare_character_golden():
    # exp(3f + gamma) = 1 + 3f + gamma - f T.
    assert poincare_first_chern() == UpstreamClass(0, 3, 1)
    assert poincare_character() == UpstreamClass(
        ThetaPoly.one(), ThetaPoly(3, -1, 0), ThetaPoly.one()
    )


def test_line_bundle_character_rejects_rank_part():
    with pytest.raises(ValueError):
        line_bundle_character(UpstreamClass.one())


def test_riemann_roch_of_trivial_bundle():
    # ch(q_* O) = q_*(td) = q_*(1 - f) = -1: H^0 - H^1 has rank -1 on the
    # Picard surface (no sections, one-dimensional H^1, for O pulled back).
    assert riemann_roch_pushforward(UpstreamClass.one()) == ThetaPoly(-1)


def test_riemann_roch_recovers_fiber_pushforward():
    f = UpstreamClass.fiber()
    # f kills the Todd correction outright: q_*(f * (1 - f)) = q_*(f) = 1.
    assert riemann_roch_pushforward(f) == ThetaPoly.one()


@pytest.mark.parametrize("d", range(8, 17))
def test_bundle_characters_derived_not_quoted(d):
    sections, residual = bundle_characters(d)
    assert sections == ThetaPoly(2, -1, 0)
    assert sections.c0 == 2
    assert residual == ThetaPoly(d - 4, -1, 0)
    assert residual.c0 == d - 4


def test_affine_residual_matches_the_pushforward_at_every_d():
    """The once-per-process derivation against GRR run afresh at each d,
    past the 64 entries a d-keyed cache used to hold."""
    sections_reference = riemann_roch_pushforward(poincare_character())
    inverse_poincare = line_bundle_character(-poincare_first_chern())
    for d in range(8, 201):
        sections, residual = bundle_characters(d)
        hyperplane = line_bundle_character(UpstreamClass.fiber() * d)
        assert residual == riemann_roch_pushforward(hyperplane * inverse_poincare), d
        assert sections == sections_reference, d


@pytest.mark.parametrize("rank", (Fraction(5, 2), Fraction(-7, 3)))
def test_non_integer_rank_out_of_the_pushforward_raises(rank):
    with pytest.raises(ArithmeticError, match=f"non-integer rank {rank}"):
        _require_integer_rank(ThetaPoly(rank, -1))
    _require_integer_rank(ThetaPoly(3, -1))


def test_bundle_characters_validation():
    with pytest.raises(ValueError):
        bundle_characters(7)
    with pytest.raises(ValueError):
        bundle_characters("8")


def test_character_ranks_decompose_hyperplane_sections():
    # rank(sections) + rank(residual) = d - 2 = h^0 of the hyperplane bundle
    # restricted to the curve; an honest Riemann-Roch consistency identity.
    for d in range(8, 20):
        sections, residual = bundle_characters(d)
        assert sections.c0 + residual.c0 == d - 2
