"""The Gaussian tail probability and its inverse, used by the
authentication closed forms.

The test suite validates both against an independent oracle:
numerical integration of the Gaussian tail.  The Gauss hypergeometric
function of the coverage closed form is ``scipy.special.hyp2f1``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc, ndtri

__all__ = [
    "q_function",
    "q_inverse",
]

_SQRT2 = math.sqrt(2.0)


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x), elementwise.

    Computed as erfc(x/sqrt(2))/2; underflows to 0 beyond x ~ 38.  The
    relative error is a few ulp for |x| < 10 and grows in the far tail
    (about 1e-13 at x = 25, 5e-12 near x = 38).  Returns a
    ``float`` for scalar input and an array otherwise; raises
    ``ValueError`` if any element is not finite.
    """
    x = np.asarray(x, dtype=float)
    finite = np.isfinite(x)
    if not finite.all():
        raise ValueError(f"q_function requires finite x, got {x[~finite][0]}")
    q = 0.5 * erfc(x / _SQRT2)
    return float(q) if q.ndim == 0 else q


def q_inverse(p: float) -> float:
    """Inverse of ``q_function``: the x with Q(x) = p, for 0 < p < 1."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"q_inverse requires 0 < p < 1, got {p}")
    # -ndtri(0.5) is -0.0; adding +0.0 makes it +0.0 and changes nothing else
    return float(-ndtri(p)) + 0.0
