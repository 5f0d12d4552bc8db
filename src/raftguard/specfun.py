"""The Gaussian tail probability and its inverse, used by the
authentication closed forms.

The test suite validates both against an independent oracle:
numerical integration of the Gaussian tail.  The Gauss hypergeometric
function of the coverage closed form is ``scipy.special.hyp2f1``.
"""

from __future__ import annotations

import math

from scipy.special import ndtri

__all__ = [
    "q_function",
    "q_inverse",
]

_SQRT2 = math.sqrt(2.0)


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x).

    Computed as erfc(x/sqrt(2))/2, accurate to double precision over
    the whole real line; underflows to 0 beyond x ~ 38.
    """
    if not math.isfinite(x):
        raise ValueError(f"q_function requires finite x, got {x}")
    return 0.5 * math.erfc(x / _SQRT2)


def q_inverse(p: float) -> float:
    """Inverse of ``q_function``: the x with Q(x) = p, for 0 < p < 1."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"q_inverse requires 0 < p < 1, got {p}")
    # -ndtri(0.5) is -0.0; adding +0.0 makes it +0.0 and changes nothing else
    return float(-ndtri(p)) + 0.0
