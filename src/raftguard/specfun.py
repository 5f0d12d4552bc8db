"""The Gaussian tail probability and its inverse, used by the
authentication closed forms, and the Gauss-Legendre rule behind the
coverage integral over the link distance and the consensus engine's
average over the disk.

The test suite validates the tail and its inverse against an
independent oracle: numerical integration of the Gaussian tail.  The
Gauss hypergeometric function of the coverage closed form is
``scipy.special.hyp2f1``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc, ndtri

__all__ = [
    "gauss_legendre",
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


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n from the standard cosine guesses, not
    ``np.polynomial.legendre.leggauss``: its eigenvalue solve at n = 96
    wakes OpenBLAS's thread pool, whose threads then spin for about
    0.13 s of CPU.  Called just before ``simulate_consensus`` on two
    threads (4e4 trials), it raised that run's CPU time from about 55
    to 100 ms (OpenBLAS 0.3.31 on a 2-CPU x86-64 machine).
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(5):
        p, dp = _legendre(n, x)
        x = x - p / dp
    _, dp = _legendre(n, x)
    return x, 2.0 / ((1.0 - x * x) * dp * dp)
