"""Coverage probabilities under annular jamming.

The jammer field is a PPP on an annulus around the receiver and the
desired link distance follows the typical-follower density, so the
coverage probability in each direction is a one-dimensional integral of
the interference Laplace transform against that density.  The Laplace
transform has a hypergeometric closed form for every annulus, including
one that starts at the receiver.  The outer integral over the link
distance is a fixed Gauss-Legendre rule, and the difference from an
embedded rule of half the order is its error estimate.  scipy's adaptive
``quad`` runs only in the ``method="quadrature"`` oracle, which
integrates the defining radial integral inside an adaptive outer
integral and is imported on first use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import hyp2f1

from raftguard.channel import NetworkParams
from raftguard.geometry import AnnulusRegion
from raftguard.specfun import gauss_legendre

__all__ = [
    "CoverageResult",
    "ORACLE_GRID",
    "ORACLE_GRID_GAMMA",
    "ORACLE_GRID_RHO_J",
    "laplace_interference",
    "coverage_joint",
]

QUAD_ABS_TOL = 1e-8

# Canonical cross-check grid: the closed-form and quadrature routes of
# laplace_interference must agree to 1e-8 absolute on every
# (alpha, beta_db, annulus, link distance) combination below.
ORACLE_GRID_GAMMA = 0.01
ORACLE_GRID_RHO_J = 15.0 / (math.pi * 500.0**2)
ORACLE_GRID = tuple(
    (alpha, beta_db, AnnulusRegion(z1, z1 + 50.0), r)
    for alpha in (2.5, 3.0, 4.0, 5.0, 8.0)
    for beta_db in (-30.0, -20.0, -10.0, 0.0)
    for z1 in (10.0, 50.0, 150.0)
    for r in (10.0, 100.0, 400.0)
)

# Truncation point of the outer integral: the typical-distance density
# beyond sqrt(30/(pi*rho_t)) carries exp(-30) < 1e-13 of mass.
_OUTER_TAIL_EXPONENT = 30.0

# Order of the fixed outer rule; the embedded rule has half as many nodes.
_OUTER_NODES = 96


@dataclass(frozen=True)
class CoverageResult:
    """Joint downlink/uplink coverage evaluated analytically.

    ``p_joint`` is the product of the marginals.  For the closed form
    the quadrature error estimate is the larger over the two directions
    of |Q_n - Q_(n/2)|, the gap between the fixed outer rule and its
    embedded half-order rule; for the ``"quadrature"`` oracle it is the
    adaptive outer integral's own estimate.
    """

    p_dl: float
    p_ul: float
    quadrature_error_estimate: float

    def __post_init__(self) -> None:
        for name in ("p_dl", "p_ul"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} = {v} is not a probability")
        if not (math.isfinite(self.quadrature_error_estimate) and self.quadrature_error_estimate >= 0.0):
            raise ValueError("quadrature_error_estimate must be >= 0")

    @property
    def p_joint(self) -> float:
        return self.p_dl * self.p_ul


def _u_kernel(z_lo: float, z_hi: float, m: float) -> float:
    """integral of du / (1 + u^m) over [z_lo, z_hi], m > 1.

    For very large upper limits the tail is mapped through
    w = u^(1-m) onto a finite interval; the integrand there,
    1 / ((m-1)(1 + w^(m/(m-1)))), stays bounded and smooth at w = 0 for
    every m > 1, so the adaptive rule keeps its accuracy as alpha -> 2.
    """
    from scipy import integrate

    if z_hi <= z_lo:
        return 0.0
    split = 100.0
    if z_hi <= split:
        val, _ = integrate.quad(
            lambda u: 1.0 / (1.0 + u**m), z_lo, z_hi,
            epsabs=1e-12, epsrel=1e-12, limit=200,
        )
        return val
    head, _ = integrate.quad(
        lambda u: 1.0 / (1.0 + u**m), z_lo, split,
        epsabs=1e-12, epsrel=1e-12, limit=200,
    )
    k = m - 1.0
    tail, _ = integrate.quad(
        lambda w: 1.0 / (k * (1.0 + w ** (m / k))), (1.0 / z_hi) ** k, (1.0 / split) ** k,
        epsabs=1e-12, epsrel=1e-12, limit=200,
    )
    return head + tail


def _laplace_quadrature(
    r: float, beta: float, gamma: float, rho_j: float, alpha: float,
    annulus: AnnulusRegion,
) -> float:
    scale = (gamma * beta) ** (1.0 / alpha) * r
    z_lo = (annulus.inner / scale) ** 2
    z_hi = (annulus.outer / scale) ** 2
    kernel = _u_kernel(z_lo, z_hi, alpha / 2.0)
    return math.exp(-math.pi * rho_j * r * r * (gamma * beta) ** (2.0 / alpha) * kernel)


def _laplace_closed_form(
    r: np.ndarray, beta: float, gamma: float, rho_j: float, alpha: float,
    annulus: AnnulusRegion,
) -> np.ndarray:
    z1, z2 = annulus.inner, annulus.outer
    b = 1.0 - 2.0 / alpha
    c = 2.0 - 2.0 / alpha
    f_outer = hyp2f1(1.0, b, c, -gamma * beta * (r / z2) ** alpha)
    if z1 > 0.0:
        inner = z1 ** (2.0 - alpha) * hyp2f1(1.0, b, c, -gamma * beta * (r / z1) ** alpha)
    else:
        # z1 -> 0 limit of the inner term: the leading large-argument
        # term of 2F1 cancels the diverging z1^(2-alpha) factor
        inner = math.gamma(c) * math.gamma(2.0 / alpha) * (gamma * beta * r**alpha) ** (-b)
    prefactor = math.pi * rho_j * gamma * beta * r**alpha / (alpha / 2.0 - 1.0)
    # the bracketed difference is intrinsically negative, so the whole
    # exponent is <= 0 and the transform stays in (0, 1]
    bracket = z2 ** (2.0 - alpha) * f_outer - inner
    return np.exp(prefactor * bracket)


def _check_method(method: str) -> None:
    if method not in ("closed_form", "quadrature"):
        raise ValueError(f"unknown method {method!r}")


def laplace_interference(
    r,
    beta: float,
    gamma: float,
    rho_j: float,
    alpha: float,
    annulus: AnnulusRegion,
    *,
    method: str = "closed_form",
):
    """Laplace transform of the annular jammer interference, evaluated
    at the SIR-coverage exponent s = beta * r^alpha / P_tx, elementwise
    over the link distances ``r``.

    ``gamma`` is the jammer-to-transmitter power ratio.  ``method``
    selects "closed_form" (hypergeometric, valid for every annulus
    including inner radius 0) or "quadrature" (adaptive integration of
    the defining radial integral, kept only as the cross-check oracle).
    Returns a ``float`` for scalar ``r`` and an array otherwise.
    """
    _check_method(method)
    r = np.asarray(r, dtype=float)
    ok = np.isfinite(r) & (r > 0.0)
    if not ok.all():
        raise ValueError(f"r must be positive, got {r[~ok].flat[0]}")
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be >= 0 (linear), got {beta}")
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not (math.isfinite(rho_j) and rho_j >= 0.0):
        raise ValueError(f"rho_j must be >= 0, got {rho_j}")
    if not (math.isfinite(alpha) and alpha > 2.0):
        raise ValueError(f"alpha must be > 2, got {alpha}")
    if rho_j == 0.0 or beta == 0.0:
        lap = np.ones_like(r)
    elif method == "quadrature":
        lap = np.array([_laplace_quadrature(x, beta, gamma, rho_j, alpha, annulus)
                        for x in r.flat]).reshape(r.shape)
    else:
        lap = _laplace_closed_form(r, beta, gamma, rho_j, alpha, annulus)
    return float(lap) if lap.ndim == 0 else lap


@functools.cache
def _outer_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Link-distance nodes, as fractions of the truncation radius, of
    the ``_OUTER_NODES``-point Gauss-Legendre rule followed by its
    embedded half-order rule, and the weights of each.

    With v = pi*rho_t*r^2 the coverage integral is the integral of
    exp(-v) L over v in [0, T]; the map v = T*s^4 turns it into a smooth
    integrand on s in [0, 1], flattening the v^(alpha/2) behaviour of L
    at r -> 0, and puts the nodes at r/r_max = s^2.  Built on first use.
    """
    t = _OUTER_TAIL_EXPONENT
    nodes, weights = [], []
    for n in (_OUTER_NODES, _OUTER_NODES // 2):
        x, w = gauss_legendre(n)
        s = 0.5 * (x + 1.0)
        nodes.append(s * s)
        weights.append(0.5 * w * 4.0 * t * s**3 * np.exp(-t * s**4))
    return np.concatenate(nodes), weights[0], weights[1]


def _coverage_direction(
    beta: float, gamma: float, params: NetworkParams, method: str,
) -> tuple[float, float]:
    if params.rho_j == 0.0 or beta == 0.0:
        return 1.0, 0.0
    rho_t = params.rho_t
    r_max = math.sqrt(_OUTER_TAIL_EXPONENT / (math.pi * rho_t))
    if method == "quadrature":
        return _coverage_direction_adaptive(beta, gamma, params, r_max)
    nodes, w_n, w_half = _outer_rule()
    lap = laplace_interference(
        r_max * nodes, beta, gamma, params.rho_j, params.alpha, params.annulus,
    )
    val = float(w_n @ lap[: w_n.size])
    err = abs(val - float(w_half @ lap[w_n.size:]))
    return min(max(val, 0.0), 1.0), err


def _coverage_direction_adaptive(
    beta: float, gamma: float, params: NetworkParams, r_max: float,
) -> tuple[float, float]:
    """The oracle's outer integral: adaptive ``quad`` of the quadrature
    Laplace transform against the typical-distance density."""
    from scipy import integrate

    rho_t = params.rho_t

    def integrand(r: float) -> float:
        if r <= 0.0:
            return 0.0
        lap = laplace_interference(
            r, beta, gamma, params.rho_j, params.alpha, params.annulus,
            method="quadrature",
        )
        return 2.0 * math.pi * rho_t * r * math.exp(-rho_t * math.pi * r * r) * lap

    val, err = integrate.quad(integrand, 0.0, r_max, epsabs=QUAD_ABS_TOL, limit=200)
    return min(max(val, 0.0), 1.0), err


def coverage_joint(params: NetworkParams, *, method: str = "closed_form") -> CoverageResult:
    """Joint coverage: product of the downlink and uplink marginals
    (the two directions use independent fading)."""
    _check_method(method)
    p_dl, err_dl = _coverage_direction(params.beta_dl, params.gamma_dl, params, method)
    p_ul, err_ul = _coverage_direction(params.beta_ul, params.gamma_ul, params, method)
    return CoverageResult(
        p_dl=p_dl,
        p_ul=p_ul,
        quadrature_error_estimate=max(err_dl, err_ul),
    )
