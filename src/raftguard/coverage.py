"""Coverage probabilities under annular jamming.

The jammer field is a PPP on an annulus around the receiver and the
desired link distance follows the typical-follower density, so the
coverage probability in each direction is a one-dimensional integral of
the interference Laplace transform against that density.  The Laplace
transform has a hypergeometric closed form for every annulus, including
one that starts at the receiver; an adaptive quadrature of its defining
radial integral is kept only as the oracle the closed form is checked
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate
from scipy.special import hyp2f1

from raftguard.channel import NetworkParams
from raftguard.geometry import AnnulusRegion

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
    for alpha in (2.5, 3.0, 4.0)
    for beta_db in (-30.0, -20.0, -10.0, 0.0)
    for z1 in (10.0, 50.0, 150.0)
    for r in (10.0, 100.0, 400.0)
)

# Truncation point of the outer integral: the typical-distance density
# beyond sqrt(30/(pi*rho_t)) carries exp(-30) < 1e-13 of mass.
_OUTER_TAIL_EXPONENT = 30.0


@dataclass(frozen=True)
class CoverageResult:
    """Joint downlink/uplink coverage evaluation.

    ``p_joint`` is always the product of the marginals; the Monte Carlo
    engine fills in the confidence half-widths, analytic evaluations
    fill in the quadrature error estimate.
    """

    p_dl: float
    p_ul: float
    p_joint: float
    quadrature_error_estimate: float = 0.0
    ci_dl: float | None = None
    ci_ul: float | None = None
    ci_joint: float | None = None
    n_trials: int | None = None

    def __post_init__(self) -> None:
        for name in ("p_dl", "p_ul", "p_joint"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} = {v} is not a probability")
        if abs(self.p_joint - self.p_dl * self.p_ul) > 1e-9:
            raise ValueError("p_joint must equal p_dl * p_ul")
        if not (math.isfinite(self.quadrature_error_estimate) and self.quadrature_error_estimate >= 0.0):
            raise ValueError("quadrature_error_estimate must be >= 0")
        for name in ("ci_dl", "ci_ul", "ci_joint"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be >= 0 when present")


def _u_kernel(z_lo: float, z_hi: float, m: float) -> float:
    """integral of du / (1 + u^m) over [z_lo, z_hi], m > 1.

    For very large upper limits the tail is mapped through
    w = u^(1-m) onto a finite interval; the integrand there,
    1 / ((m-1)(1 + w^(m/(m-1)))), stays bounded and smooth at w = 0 for
    every m > 1, so the adaptive rule keeps its accuracy as alpha -> 2.
    """
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
    r: float, beta: float, gamma: float, rho_j: float, alpha: float,
    annulus: AnnulusRegion,
) -> float:
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
    return math.exp(prefactor * bracket)


def _check_method(method: str) -> None:
    if method not in ("closed_form", "quadrature"):
        raise ValueError(f"unknown method {method!r}")


def laplace_interference(
    r: float,
    beta: float,
    gamma: float,
    rho_j: float,
    alpha: float,
    annulus: AnnulusRegion,
    *,
    method: str = "closed_form",
) -> float:
    """Laplace transform of the annular jammer interference, evaluated
    at the SIR-coverage exponent s = beta * r^alpha / P_tx.

    ``gamma`` is the jammer-to-transmitter power ratio.  ``method``
    selects "closed_form" (hypergeometric, valid for every annulus
    including inner radius 0) or "quadrature" (adaptive integration of
    the defining radial integral, kept only as the cross-check oracle).
    """
    _check_method(method)
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"r must be positive, got {r}")
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be >= 0 (linear), got {beta}")
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not (math.isfinite(rho_j) and rho_j >= 0.0):
        raise ValueError(f"rho_j must be >= 0, got {rho_j}")
    if not (math.isfinite(alpha) and alpha > 2.0):
        raise ValueError(f"alpha must be > 2, got {alpha}")
    if rho_j == 0.0 or beta == 0.0:
        return 1.0
    if method == "quadrature":
        return _laplace_quadrature(r, beta, gamma, rho_j, alpha, annulus)
    return _laplace_closed_form(r, beta, gamma, rho_j, alpha, annulus)


def _coverage_direction(
    beta: float, gamma: float, params: NetworkParams, method: str,
) -> tuple[float, float]:
    rho_t = params.rho_t
    r_max = math.sqrt(_OUTER_TAIL_EXPONENT / (math.pi * rho_t))

    def integrand(r: float) -> float:
        if r <= 0.0:
            return 0.0
        lap = laplace_interference(
            r, beta, gamma, params.rho_j, params.alpha, params.annulus,
            method=method,
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
        p_joint=p_dl * p_ul,
        quadrature_error_estimate=max(err_dl, err_ul),
    )
