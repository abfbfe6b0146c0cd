"""Exact intersection-theory engine for the degree of the third secant
variety of a genus-2 curve of degree d >= 8.

The pipeline: Chern characters of the two section bundles on the degree-3
Picard surface come out of a Riemann-Roch pushforward, Porteous' formula
turns them into the secant class over Q[T, h]/(T^3, h^(d-1)), and the
degree is read off against the theta self-intersection.  Three independent
routes to that class (a Segre-class quotient, a banded determinant
recurrence and its closed form) and a classical count cross-check every
answer.
"""

from .degree import (
    berzolari,
    binomial,
    class_degree,
    degree_pairing,
    secant3_degree,
    verify_binomial_identities,
)
from .porteous import (
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
from .riemann_roch import (
    CurveClass,
    UpstreamClass,
    bundle_characters,
    line_bundle_character,
    poincare_character,
    poincare_first_chern,
    pushforward_to_picard,
    riemann_roch_pushforward,
    todd_from_chern,
)
from .ring import AmbientClass, Rational, RingMismatchError, ThetaPoly

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # rings
    "Rational",
    "RingMismatchError",
    "ThetaPoly",
    "AmbientClass",
    # upstream cohomology and Riemann-Roch
    "CurveClass",
    "UpstreamClass",
    "todd_from_chern",
    "pushforward_to_picard",
    "riemann_roch_pushforward",
    "line_bundle_character",
    "poincare_first_chern",
    "poincare_character",
    "bundle_characters",
    # Porteous pipeline
    "METHODS",
    "virtual_chern_series",
    "virtual_chern_series_closed_form",
    "virtual_chern_series_expansion",
    "chern_coefficient_formula",
    "chern_coefficients",
    "determinant_segre",
    "determinant_formula",
    "recurrence_determinants",
    "porteous_class",
    # degrees
    "binomial",
    "verify_binomial_identities",
    "degree_pairing",
    "secant3_degree",
    "class_degree",
    "berzolari",
]
