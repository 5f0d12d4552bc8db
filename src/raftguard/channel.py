"""Radio link model: transmit powers, pathloss, Rayleigh-fading coverage.

All powers are configured in dBm and converted to linear milliwatts
internally; only power ratios ever matter to the results.  The network
is interference limited, so thermal noise is not modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from raftguard.geometry import AnnulusRegion, DiskRegion

__all__ = [
    "NetworkParams",
    "db_to_linear",
    "pathloss_db",
    "rayleigh_coverage",
    "two_way_coverage",
]

# Table of defaults: leader 30 dBm, follower 20 dBm, jammer 10 dBm,
# pathloss exponent 3, 15 expected followers in a 500 m disk.
_DEFAULT_RHO = 15.0 / (math.pi * 500.0 * 500.0)


def db_to_linear(x_db: float) -> float:
    """dB (or dBm) value to linear ratio (or mW)."""
    return 10.0 ** (x_db / 10.0)


def pathloss_db(distance, alpha: float):
    """Large-scale pathloss fingerprint 10*alpha*log10(d) in dB.

    Accepts scalars or arrays; distances must be strictly positive
    (d < 1 m legitimately gives a negative dB value).
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("distance must be > 0")
    out = 10.0 * alpha * np.log10(d)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class NetworkParams:
    """Static network configuration shared by the closed forms and the
    Monte Carlo engines."""

    p_leader_dbm: float = 30.0
    p_follower_dbm: float = 20.0
    p_jammer_dbm: float = 10.0
    alpha: float = 3.0
    beta_dl_db: float = -20.0
    beta_ul_db: float = -20.0
    rho_t: float = _DEFAULT_RHO
    rho_j: float = _DEFAULT_RHO
    disk: DiskRegion = field(default_factory=lambda: DiskRegion(500.0))
    annulus: AnnulusRegion = field(default_factory=lambda: AnnulusRegion(0.0, 300.0))

    def __post_init__(self) -> None:
        for name in ("p_leader_dbm", "p_follower_dbm", "p_jammer_dbm", "beta_dl_db", "beta_ul_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (math.isfinite(self.alpha) and self.alpha > 2.0):
            raise ValueError(f"alpha must be > 2 for the coverage integrals, got {self.alpha}")
        if not (math.isfinite(self.rho_t) and self.rho_t > 0.0):
            raise ValueError(f"rho_t must be positive, got {self.rho_t}")
        if not (math.isfinite(self.rho_j) and self.rho_j >= 0.0):
            raise ValueError(f"rho_j must be >= 0, got {self.rho_j}")

    # linear-scale accessors
    @property
    def beta_dl(self) -> float:
        return db_to_linear(self.beta_dl_db)

    @property
    def beta_ul(self) -> float:
        return db_to_linear(self.beta_ul_db)

    @property
    def gamma_dl(self) -> float:
        """Jammer-to-leader power ratio seen by the downlink."""
        return db_to_linear(self.p_jammer_dbm - self.p_leader_dbm)

    @property
    def gamma_ul(self) -> float:
        """Jammer-to-follower power ratio seen by the uplink."""
        return db_to_linear(self.p_jammer_dbm - self.p_follower_dbm)


def rayleigh_coverage(link, jammers, owner, beta_gamma, alpha: float) -> np.ndarray:
    """Exact probability, given the geometry, that a receiver passes the
    SIR test ``signal > beta * sum of interference`` under Rayleigh
    fading, at each of several thresholds.

    ``link`` holds one link distance r per jammer realisation (row).
    ``jammers`` holds jammer distances d_j in any order, and ``owner``
    the row each of them belongs to.  ``beta_gamma`` holds SIR
    thresholds times the jammer-to-transmitter power ratio, one per
    link type sharing the geometry (downlink and uplink, say).  With
    independent unit-mean exponential fading power on every link, and
    x_j = r^alpha d_j^-alpha, the probability is prod_j 1 / (1 + c x_j)
    at threshold c, evaluated as exp(-sum_j log1p(x_j c)) with each
    row's sum in ``jammers`` order.  A row with no jammer is covered with
    probability exactly 1 (interference-limited model, no noise), and
    one with a jammer at distance 0 with probability exactly 0.  Returns
    an array of shape ``(len(beta_gamma), len(link))``.
    """
    owner = np.asarray(owner, dtype=np.intp)
    gain = _gains(jammers, alpha)
    log_miss = np.empty((len(beta_gamma), len(link)))
    # x_j gathered once, then the gains' buffer holds x_j c for each
    # threshold in turn; take leaves the owner check to bincount, which
    # rejects a negative owner, and to the row-sized assignment, which
    # rejects one past the last row
    x = np.take(np.asarray(link, dtype=float) ** alpha, owner, mode="clip")
    x *= gain
    for b, c in enumerate(beta_gamma):
        np.multiply(x, c, out=gain)
        np.log1p(gain, out=gain)
        log_miss[b] = np.bincount(owner, weights=gain, minlength=len(link))
    return np.exp(np.negative(log_miss, out=log_miss), out=log_miss)


def two_way_coverage(nodes, rows: int, jammers, owner, c_dl: float, c_ul: float,
                     alpha: float) -> np.ndarray:
    """Probability that both the downlink and the uplink of a receiver
    pass, for receivers at ``nodes`` shared by each of ``rows`` jammer
    realisations; ``jammers`` and ``owner`` are as for
    ``rayleigh_coverage``, and ``c_dl`` and ``c_ul`` the two thresholds.

    With fading independent per direction this is prod_j 1 / ((1 + c_dl
    x_j)(1 + c_ul x_j)), x_j = r^alpha d_j^-alpha.  Each jammer's factor
    is 1 + (c_dl + c_ul) r^alpha g + c_ul c_dl r^2alpha g^2 in its gain g
    = d_j^-alpha, taken by Horner's rule in g so that x_j^2 is never
    formed, under one ``log1p``.  Returns an array of shape ``(rows,
    len(nodes))``.
    """
    owner = np.asarray(owner, dtype=np.intp)
    gain = _gains(jammers, alpha)
    log_miss = np.empty((rows, len(nodes)))
    terms = np.empty_like(gain)
    for i, near in enumerate(np.asarray(nodes, dtype=float) ** alpha):
        lin, top = (c_dl + c_ul) * near, c_ul * c_dl * near ** 2
        # with the coefficients finite, a product that overflows means a
        # top term past the largest double: coverage below the smallest
        # normal double, read as 0
        with np.errstate(over="ignore"):
            np.multiply(gain, top, out=terms)
            terms += lin
            terms *= gain
        np.log1p(terms, out=terms)
        log_miss[:, i] = np.bincount(owner, weights=terms, minlength=rows)
    return np.exp(np.negative(log_miss, out=log_miss), out=log_miss)


def _gains(jammers, alpha: float) -> np.ndarray:
    """Jammer path gains d_j^-alpha, infinite for a jammer at distance 0."""
    with np.errstate(divide="ignore"):
        return np.asarray(jammers, dtype=float) ** -alpha
