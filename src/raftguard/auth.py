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

import numpy as np

from raftguard.channel import pathloss_db
from raftguard.geometry import DiskRegion, uniform_disk_points
from raftguard.specfun import q_function, q_inverse

__all__ = [
    "AuthProfile",
    "ErrorProbabilities",
    "lq_db_to_sigma",
    "sigma_to_lq_db",
    "sample_fingerprints",
    "threshold_for_pfa",
    "p_fa_closed_form",
    "p_md_closed_form",
    "p_md_expected",
    "p_mc_closed_form",
    "roc_curve",
    "error_probabilities",
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


def sigma_to_lq_db(sigma: float) -> float:
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    return -20.0 * math.log10(sigma)


def _validated_priors(priors, count: int, name: str) -> np.ndarray:
    if priors is None:
        return np.full(count, 1.0 / count)
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (count,):
        raise ValueError(f"{name} must have shape ({count},), got {priors.shape}")
    if np.any(priors < 0.0) or not np.all(np.isfinite(priors)):
        raise ValueError(f"{name} must be non-negative and finite")
    if abs(priors.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must sum to 1, got {priors.sum()}")
    return priors


@dataclass(frozen=True)
class AuthProfile:
    """Leader-side authentication state: enrolled fingerprints, noise
    level, acceptance threshold, and the intruder prior support."""

    ground_truth: np.ndarray
    sigma: float
    epsilon: float
    psi_min: float = DEFAULT_PSI_MIN
    psi_max: float = DEFAULT_PSI_MAX
    priors: np.ndarray | None = None
    eve_priors: np.ndarray | None = None

    def __post_init__(self) -> None:
        gt = np.asarray(self.ground_truth, dtype=float)
        if gt.ndim != 1 or gt.size == 0 or not np.all(np.isfinite(gt)):
            raise ValueError("ground_truth must be a non-empty 1-D finite array")
        object.__setattr__(self, "ground_truth", gt)
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if not (self.psi_min < self.psi_max):
            raise ValueError("psi_min must be below psi_max")
        if self.priors is not None:
            object.__setattr__(self, "priors", _validated_priors(self.priors, gt.size, "priors"))
        if self.eve_priors is not None:
            ep = np.asarray(self.eve_priors, dtype=float)
            object.__setattr__(self, "eve_priors", _validated_priors(ep, ep.size, "eve_priors"))

    @property
    def m(self) -> int:
        return int(self.ground_truth.size)

    @property
    def delta(self) -> float:
        return self.psi_max - self.psi_min

    def follower_priors(self) -> np.ndarray:
        return _validated_priors(self.priors, self.m, "priors")

    def intruders(self, eve_pathlosses) -> tuple[np.ndarray, np.ndarray]:
        """Validated intruder fingerprints and their priors."""
        psi_e = np.atleast_1d(np.asarray(eve_pathlosses, dtype=float))
        if psi_e.ndim != 1 or psi_e.size == 0 or not np.all(np.isfinite(psi_e)):
            raise ValueError("eve_pathlosses must be a non-empty 1-D finite array")
        return psi_e, _validated_priors(self.eve_priors, psi_e.size, "eve_priors")

    def nearest(self, z):
        """Maximum-likelihood identification: index of the fingerprint
        nearest each measurement in ``z``, the lowest index on ties."""
        z = np.asarray(z, dtype=float)
        return np.argmin(np.abs(z[..., None] - self.ground_truth), axis=-1)

    def accepts(self, z, index):
        """Threshold test against fingerprint ``index``: accept (H0) iff
        ``|z - Psi[index]| < epsilon``; the boundary itself rejects."""
        return np.abs(np.asarray(z, dtype=float) - self.ground_truth[index]) < self.epsilon


@dataclass(frozen=True)
class ErrorProbabilities:
    """Bundle of the four closed-form authentication error rates."""

    p_fa: float
    p_md: float
    p_md_expected: float
    p_mc: float

    def __post_init__(self) -> None:
        for name in ("p_fa", "p_md", "p_md_expected", "p_mc"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} = {v} is not a probability")


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
    eve = pathloss_db(np.hypot(intruders[:, 0], intruders[:, 1]), alpha) if n_intruders else np.empty(0)
    return np.atleast_1d(gt), np.atleast_1d(eve)


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


def _window_sum(profile: AuthProfile, psi: float, epsilon: float) -> float:
    # sum over fingerprints of P(psi + noise lands within epsilon of Psi_i)
    s = 0.0
    for g in profile.ground_truth:
        d = g - psi
        s += q_function((d - epsilon) / profile.sigma) - q_function((d + epsilon) / profile.sigma)
    return s


def p_md_closed_form(profile: AuthProfile, eve_pathlosses) -> float:
    """Missed-detection probability for known intruder fingerprints.

    Averages the per-fingerprint acceptance-window mass over the
    intruder prior and over the m claimable identities, i.e. the rate
    at which an intruder claiming a uniformly chosen identity passes
    that identity's threshold test.  Clipped into [0, 1] with a
    diagnostic if the window sum overruns.
    """
    psi_e, pi_j = profile.intruders(eve_pathlosses)
    total = 0.0
    for j, psi in enumerate(psi_e):
        total += pi_j[j] * _window_sum(profile, float(psi), profile.epsilon)
    return _clip_probability(total / profile.m, "p_md_closed_form")


def _q_antiderivative(u: float) -> float:
    # d/du [u*Q(u) - phi(u)] = Q(u); the u*Q(u) product underflows
    # harmlessly for large positive u
    return u * q_function(u) - math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


def _window_mass(profile: AuthProfile, epsilon: float) -> float:
    """Integral over the prior support of the summed acceptance
    windows, taken in closed form through the antiderivative of Q (an
    adaptive rule would step over windows narrow relative to the
    support)."""
    lo, hi = profile.psi_min, profile.psi_max
    sigma = profile.sigma
    total = 0.0
    for g in profile.ground_truth:
        total += sigma * (
            _q_antiderivative((g - epsilon - lo) / sigma)
            - _q_antiderivative((g - epsilon - hi) / sigma)
            - _q_antiderivative((g + epsilon - lo) / sigma)
            + _q_antiderivative((g + epsilon - hi) / sigma)
        )
    return total


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
    prior-weighted mass of the measurement falling outside the home
    cell.  Cells are bounded by midpoints between sorted fingerprints,
    closed at the ends by the prior support bounds; independent of
    epsilon."""
    order = np.argsort(profile.ground_truth, kind="stable")
    srt = profile.ground_truth[order]
    pri = profile.follower_priors()[order]
    mids = 0.5 * (srt[1:] + srt[:-1])
    lower = np.concatenate(([profile.psi_min], mids))
    upper = np.concatenate((mids, [profile.psi_max]))
    total = 0.0
    for g, lo, hi, w in zip(srt, lower, upper, pri):
        inside = q_function((lo - g) / profile.sigma) - q_function((hi - g) / profile.sigma)
        total += w * (1.0 - inside)
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
    out = []
    for target in grid:
        eps = threshold_for_pfa(target, profile.sigma)
        miss = _clip_probability(
            _window_mass(profile, eps) / (profile.m * profile.delta),
            "roc missed-detection",
        )
        out.append((target, eps, 1.0 - miss))
    return out


def error_probabilities(profile: AuthProfile, eve_pathlosses) -> ErrorProbabilities:
    """All four closed-form error rates for one profile and one fixed
    set of intruder fingerprints."""
    return ErrorProbabilities(
        p_fa=p_fa_closed_form(profile.epsilon, profile.sigma),
        p_md=p_md_closed_form(profile, eve_pathlosses),
        p_md_expected=p_md_expected(profile),
        p_mc=p_mc_closed_form(profile),
    )
