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
    fading.

    ``link`` holds link distances r, one row per jammer realisation (a
    row may hold several receivers that see the same jammers).
    ``jammers`` holds jammer distances d_j in any order, and ``owner``
    the row each of them belongs to.  ``beta_gamma`` is an SIR
    threshold times the jammer-to-transmitter power ratio, or an array
    of them, one per link type sharing the geometry (downlink and
    uplink, say).  With independent unit-mean exponential fading power
    on every link the probability is
    prod_j 1 / (1 + beta_gamma (r/d_j)^alpha), evaluated as
    exp(-sum_j log1p(beta_gamma (r/d_j)^alpha)) with each row's sum in
    ``jammers`` order.  A receiver with no jammer is covered with
    probability exactly 1 (interference-limited model, no noise).
    Returns an array of shape ``link.shape + beta_gamma.shape``.
    """
    r = np.asarray(link, dtype=float)
    bg = np.asarray(beta_gamma, dtype=float)
    owner = np.asarray(owner, dtype=np.intp)
    with np.errstate(divide="ignore"):
        gain = np.asarray(jammers, dtype=float) ** -alpha
    cols = r.reshape(r.shape[0], -1)
    log_miss = np.empty(cols.shape + (bg.size,))
    terms = np.empty_like(gain)
    # the gains and one jammer-sized buffer, reused for every receiver
    # column and threshold ("clip" keeps take from buffering; bincount
    # rejects owners out of range)
    for i in range(cols.shape[1]):
        near = cols[:, i] ** alpha
        for b, c in enumerate(bg.flat):
            np.take(near, owner, out=terms, mode="clip")
            terms *= gain
            terms *= c
            np.log1p(terms, out=terms)
            log_miss[:, i, b] = np.bincount(owner, weights=terms, minlength=cols.shape[0])
    covered = np.exp(np.negative(log_miss, out=log_miss), out=log_miss)
    return covered.reshape(r.shape + bg.shape)
