"""Pathloss-fingerprint authentication against impersonation.

The leader keeps one expected pathloss value (a fingerprint, in dB) per
enrolled follower.  An incoming measurement is matched to the nearest
fingerprint; the residual is compared to a threshold calibrated for a
target false-alarm rate.  This module holds the profile with both of
those rules, which the Monte Carlo counterpart in
``raftguard.montecarlo`` calls, and the closed-form error rates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from raftguard.channel import pathloss_db
from raftguard.geometry import DiskRegion, uniform_disk_points
from raftguard.specfun import q_function, q_inverse

__all__ = [
    "AuthProfile",
    "lq_db_to_sigma",
    "sample_fingerprints",
    "threshold_for_pfa",
    "p_fa_closed_form",
    "p_md_closed_form",
    "p_md_expected",
    "p_mc_closed_form",
    "roc_curve",
]

# Prior support for an unknown intruder fingerprint: pathloss at 1 m and
# at the deployment disk edge (500 m) under the default exponent 3.
DEFAULT_PSI_MIN = 0.0
DEFAULT_PSI_MAX = float(pathloss_db(500.0, 3.0))


def lq_db_to_sigma(lq_db: float) -> float:
    """Fingerprint noise std from link quality LQ = 1/sigma^2 (dB)."""
    if not math.isfinite(lq_db):
        raise ValueError(f"lq_db must be finite, got {lq_db}")
    return 10.0 ** (-lq_db / 20.0)


@dataclass(frozen=True)
class AuthProfile:
    """Leader-side authentication state: enrolled fingerprints, noise
    level, acceptance threshold, and the intruder prior support.
    Identities and intruders are weighted uniformly."""

    ground_truth: np.ndarray
    sigma: float
    epsilon: float
    psi_min: float = DEFAULT_PSI_MIN
    psi_max: float = DEFAULT_PSI_MAX

    def __post_init__(self) -> None:
        gt = np.array(self.ground_truth, dtype=float)
        if gt.ndim != 1 or gt.size == 0 or not np.all(np.isfinite(gt)):
            raise ValueError("ground_truth must be a non-empty 1-D finite array")
        # a read-only copy, so the sorted view cached for matching cannot go stale
        gt.flags.writeable = False
        object.__setattr__(self, "ground_truth", gt)
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if not (self.psi_min < self.psi_max):
            raise ValueError("psi_min must be below psi_max")
        if not math.isfinite(self.psi_max - self.psi_min):
            raise ValueError(f"prior support [{self.psi_min}, {self.psi_max}] has no finite width")

    @property
    def m(self) -> int:
        return int(self.ground_truth.size)

    @property
    def delta(self) -> float:
        return self.psi_max - self.psi_min

    def intruders(self, eve_pathlosses) -> np.ndarray:
        """Validated intruder fingerprints."""
        psi_e = np.atleast_1d(np.asarray(eve_pathlosses, dtype=float))
        if psi_e.ndim != 1 or psi_e.size == 0 or not np.all(np.isfinite(psi_e)):
            raise ValueError("eve_pathlosses must be a non-empty 1-D finite array")
        return psi_e

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # stable order, sorted fingerprints, and for each sorted position
        # the lowest index among fingerprints of the same value, which
        # the stable order puts at the first position holding it
        order = np.argsort(self.ground_truth, kind="stable")
        srt = self.ground_truth[order]
        return order, srt, order[np.searchsorted(srt, srt)]

    def nearest(self, z):
        """Maximum-likelihood identification: index of the fingerprint
        nearest each measurement in ``z``, the lowest index on ties.

        Only the sorted neighbours on either side of each measurement
        are compared, so memory is linear in the measurement and
        fingerprint counts.
        """
        z = np.asarray(z, dtype=float)
        _, srt, lowest = self._sorted
        above = np.searchsorted(srt, z)
        lo = np.maximum(above - 1, 0)
        hi = np.minimum(above, srt.size - 1)
        d_lo = np.abs(z - srt[lo])
        d_hi = np.abs(z - srt[hi])
        i_lo, i_hi = lowest[lo], lowest[hi]
        tie = np.minimum(i_lo, i_hi)
        return np.where(d_lo < d_hi, i_lo, np.where(d_hi < d_lo, i_hi, tie))[()]

    def accepts(self, z, index):
        """Threshold test against fingerprint ``index``: accept (H0) iff
        ``|z - Psi[index]| < epsilon``; the boundary itself rejects."""
        return np.abs(np.asarray(z, dtype=float) - self.ground_truth[index]) < self.epsilon


def sample_fingerprints(
    m: int,
    n_intruders: int,
    disk: DiskRegion,
    alpha: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Fingerprints for exactly m followers and n intruders placed
    uniformly on the disk (one PPP realization conditioned on counts)."""
    if m < 1 or n_intruders < 0:
        raise ValueError("need m >= 1 and n_intruders >= 0")
    followers = uniform_disk_points(m, disk, rng)
    intruders = uniform_disk_points(n_intruders, disk, rng)
    gt = pathloss_db(np.hypot(followers[:, 0], followers[:, 1]), alpha)
    eve = pathloss_db(np.hypot(intruders[:, 0], intruders[:, 1]), alpha)
    return gt, eve


def threshold_for_pfa(p_fa_target: float, sigma: float) -> float:
    """Acceptance threshold giving the target false-alarm rate:
    epsilon = sigma * Qinv(target / 2)."""
    if not (0.0 < p_fa_target < 1.0):
        raise ValueError(f"p_fa_target must be in (0, 1), got {p_fa_target}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    return sigma * q_inverse(p_fa_target / 2.0)


def p_fa_closed_form(epsilon: float, sigma: float) -> float:
    """False-alarm probability 2*Q(epsilon/sigma) of the threshold test."""
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    return min(1.0, 2.0 * q_function(epsilon / sigma))


def _clip_probability(value: float, what: str) -> float:
    if value < -1e-12 or value > 1.0 + 1e-12:
        warnings.warn(
            f"{what} = {value:.6g} fell outside [0, 1] and was clipped; "
            "the summed acceptance windows overlap or exceed the prior support",
            RuntimeWarning,
            stacklevel=3,
        )
    return float(min(1.0, max(0.0, value)))


def _window_sum(profile: AuthProfile, psi: np.ndarray, epsilon: float) -> np.ndarray:
    # for each psi_j, the sum over fingerprints of
    # P(psi_j + noise lands within epsilon of Psi_i)
    d = profile.ground_truth - psi[:, None]
    q = q_function(np.stack((d - epsilon, d + epsilon)) / profile.sigma)
    return (q[0] - q[1]).sum(axis=-1)


def p_md_closed_form(profile: AuthProfile, eve_pathlosses) -> float:
    """Missed-detection probability for known intruder fingerprints.

    Averages the per-fingerprint acceptance-window mass over the
    intruders and over the m claimable identities, i.e. the rate
    at which an intruder claiming a uniformly chosen identity passes
    that identity's threshold test.  Clipped into [0, 1] with a
    diagnostic if the window sum overruns.
    """
    psi_e = profile.intruders(eve_pathlosses)
    # a dot product with uniform weights, not a mean, whose pairwise sum
    # rounds differently in the last bits
    total = np.full(psi_e.size, 1.0 / psi_e.size) @ _window_sum(profile, psi_e, profile.epsilon)
    return _clip_probability(total / profile.m, "p_md_closed_form")


def _q_antiderivative(u: np.ndarray) -> np.ndarray:
    # d/du [u*Q(u) - phi(u)] = Q(u); the u*Q(u) product underflows
    # harmlessly for large positive u
    return u * q_function(u) - np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


def _window_mass(profile: AuthProfile, epsilon) -> np.ndarray:
    """Integral over the prior support of the summed acceptance
    windows, one per threshold in ``epsilon``, taken in closed form
    through the antiderivative of Q (an adaptive rule would step over
    windows narrow relative to the support)."""
    lo, hi = profile.psi_min, profile.psi_max
    sigma = profile.sigma
    g = profile.ground_truth
    eps = np.asarray(epsilon, dtype=float)[..., None]
    a = _q_antiderivative(np.stack((
        (g - eps - lo) / sigma,
        (g - eps - hi) / sigma,
        (g + eps - lo) / sigma,
        (g + eps - hi) / sigma,
    )))
    return (sigma * (a[0] - a[1] - a[2] + a[3])).sum(axis=-1)


def p_md_expected(profile: AuthProfile) -> float:
    """Missed-detection probability against an intruder whose
    fingerprint is uniform over the prior support, written as the
    plain integral of the summed acceptance windows (no per-identity
    averaging).  Clipped into [0, 1] with a diagnostic when the windows
    jointly exceed the support, which happens for large epsilon.
    """
    return _clip_probability(
        _window_mass(profile, profile.epsilon) / profile.delta, "p_md_expected"
    )


def p_mc_closed_form(profile: AuthProfile) -> float:
    """Misclassification probability of the nearest-fingerprint match:
    mass of the measurement falling outside the home cell, averaged
    over the identities.  Cells are bounded by midpoints between sorted
    fingerprints, closed at the ends by the prior support bounds;
    independent of epsilon."""
    _, srt, _ = profile._sorted
    mids = 0.5 * (srt[1:] + srt[:-1])
    lower = np.concatenate(([profile.psi_min], mids))
    upper = np.concatenate((mids, [profile.psi_max]))
    q = q_function(np.stack((lower - srt, upper - srt)) / profile.sigma)
    total = np.full(profile.m, 1.0 / profile.m) @ (1.0 - (q[0] - q[1]))
    return _clip_probability(total, "p_mc_closed_form")


def roc_curve(profile: AuthProfile, p_fa_grid) -> list[tuple[float, float, float]]:
    """Receiver operating characteristic of the intruder test.

    For each target false-alarm rate the threshold is recalibrated and
    the detection probability evaluated as 1 minus the expected
    missed-detection rate of the claimed-identity test (the acceptance
    window mass averaged over the m claimable identities as well as the
    uniform intruder fingerprint), which is the same acceptance model
    that makes the 2*Q false-alarm calibration exact.  Returns
    (p_fa, epsilon, p_d) triples.
    """
    grid = [float(p) for p in p_fa_grid]
    if not grid:
        raise ValueError("p_fa_grid must be non-empty")
    if any(not (0.0 < p < 1.0) for p in grid):
        raise ValueError("false-alarm targets must lie in (0, 1)")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("false-alarm targets must be strictly increasing")
    eps = [threshold_for_pfa(target, profile.sigma) for target in grid]
    mass = _window_mass(profile, eps) / (profile.m * profile.delta)
    out = []
    for target, e, w in zip(grid, eps, mass):
        miss = _clip_probability(w, "roc missed-detection")
        out.append((target, e, 1.0 - miss))
    return out
