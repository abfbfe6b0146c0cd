"""The curve's own ring ``Q[P]/(P^2)``, P the class of a point, as the bare
sparse class ``TruncatedClass`` at truncation (1, 0), where x plays P.  The
engine has no type for it: P -> f embeds it in the ring upstairs, as
f^2 = 0.  The tests keep it as a third truncation of the sparse class,
beside those of ``ThetaPoly`` and ``AmbientClass``."""

from trisecant.ring import TruncatedClass


def curve(c0=0, c1=0) -> TruncatedClass:
    """``c0 + c1*P``."""
    return TruncatedClass((1, 0), {(0, 0): c0, (1, 0): c1})
