"""Monte Carlo engines: independent checks of the closed forms.

Every estimator draws through numpy Generators seeded from
``SeedSequence(master_seed, spawn_key=(chunk,))`` with a fixed chunk
size, and reduces integer tallies, so results are bit-identical for a
given (config, seed) no matter how the work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from raftguard.auth import AuthProfile
from raftguard.channel import NetworkParams, covered, sample_fading
from raftguard.coverage import CoverageMethod, CoverageResult
from raftguard.geometry import annulus_radii, disk_radii, link_distances
from raftguard.specfun import q_inverse

__all__ = [
    "TrialConfig",
    "ConsensusOutcome",
    "AuthSimResult",
    "estimate_coverage",
    "simulate_consensus",
    "simulate_auth",
]

CHUNK_SIZE = 4096
_Z95 = q_inverse(0.025)


@dataclass(frozen=True)
class TrialConfig:
    """One Monte Carlo run: network parameters, trial count, seed."""

    params: NetworkParams
    n_trials: int
    master_seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_trials, int) or self.n_trials < 1:
            raise ValueError(f"n_trials must be a positive integer, got {self.n_trials}")
        if not isinstance(self.master_seed, int) or self.master_seed < 0:
            raise ValueError(f"master_seed must be a non-negative integer, got {self.master_seed}")


@dataclass(frozen=True)
class ConsensusOutcome:
    """Estimated probability that a strict majority of followers hold a
    two-way (downlink and uplink) connection to the leader."""

    p_consensus: float
    ci_halfwidth: float
    n_trials: int
    mean_followers: float
    mean_successes: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_consensus <= 1.0):
            raise ValueError(f"p_consensus = {self.p_consensus} is not a probability")
        if not (math.isfinite(self.ci_halfwidth) and self.ci_halfwidth >= 0.0):
            raise ValueError("ci_halfwidth must be >= 0")
        if self.n_trials < 1:
            raise ValueError("n_trials must be positive")
        if self.mean_followers < 0.0 or self.mean_successes < 0.0:
            raise ValueError("mean counts cannot be negative")


def _chunks(n_trials: int, master_seed: int):
    """Yield (size, rng) per chunk of at most CHUNK_SIZE trials; chunk i
    draws from ``SeedSequence(master_seed, spawn_key=(i,))``."""
    full, rem = divmod(n_trials, CHUNK_SIZE)
    sizes = [CHUNK_SIZE] * full + ([rem] if rem else [])
    for index, size in enumerate(sizes):
        yield size, np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def _standard_error(p: float, n: int) -> float:
    """Binomial standard error sqrt(p(1-p)/n) of a rate p over n trials."""
    return math.sqrt(p * (1.0 - p) / n)


def estimate_coverage(config: TrialConfig) -> CoverageResult:
    """Empirical downlink/uplink coverage for the typical follower.

    Each trial draws one follower link distance, one annular jammer
    pattern shared by both directions, and independent unit-mean fading
    per direction and per interferer.  The joint estimate is the
    product of the two marginal rates, matching the analytic product
    form, so its half-width comes from error propagation rather than a
    direct tally.
    """
    p = config.params
    lam_j = p.rho_j * p.annulus.area
    n_dl = 0
    n_ul = 0
    for size, rng in _chunks(config.n_trials, config.master_seed):
        k = rng.poisson(lam_j, size)
        total = int(k.sum())
        d_jam = annulus_radii(p.annulus, total, rng)
        h_jam_dl = sample_fading(rng, total)
        h_jam_ul = sample_fading(rng, total)
        r = link_distances(p.rho_t, size, rng)
        h_dl = sample_fading(rng, size)
        h_ul = sample_fading(rng, size)

        trial = np.repeat(np.arange(size), k)
        with np.errstate(divide="ignore", invalid="ignore"):
            jam_gain = d_jam ** (-p.alpha)
            sig_gain = r ** (-p.alpha)
            ok_dl = covered(p.p_leader * h_dl * sig_gain, p.p_jammer * h_jam_dl * jam_gain,
                            trial, p.beta_dl)
            ok_ul = covered(p.p_follower * h_ul * sig_gain, p.p_jammer * h_jam_ul * jam_gain,
                            trial, p.beta_ul)
        n_dl += int(np.count_nonzero(ok_dl))
        n_ul += int(np.count_nonzero(ok_ul))

    n = config.n_trials
    p_dl = n_dl / n
    p_ul = n_ul / n
    se_dl = _standard_error(p_dl, n)
    se_ul = _standard_error(p_ul, n)
    ci_joint = _Z95 * math.sqrt((p_ul * se_dl) ** 2 + (p_dl * se_ul) ** 2)
    return CoverageResult(
        p_dl=p_dl,
        p_ul=p_ul,
        p_joint=p_dl * p_ul,
        method=CoverageMethod.MONTE_CARLO,
        ci_dl=_Z95 * se_dl,
        ci_ul=_Z95 * se_ul,
        ci_joint=ci_joint,
        n_trials=n,
    )


def simulate_consensus(config: TrialConfig) -> ConsensusOutcome:
    """Probability that strictly more than half of a random follower
    population stays two-way covered in one round.

    Followers form a binomial point process on the disk (Poisson count,
    uniform placement); jammer distances are drawn once per trial and
    shared by every receiver in it, while fading is fresh per link and
    per direction.  Rounds with zero followers fail, as do exact ties.
    """
    p = config.params
    lam_t = p.rho_t * p.disk.area
    lam_j = p.rho_j * p.annulus.area
    n_consensus = 0
    total_followers = 0
    total_successes = 0
    for size, rng in _chunks(config.n_trials, config.master_seed):
        m = rng.poisson(lam_t, size)
        k = rng.poisson(lam_j, size)
        m_total = int(m.sum())
        k_total = int(k.sum())
        r_f = disk_radii(p.disk, m_total, rng)
        d_jam = annulus_radii(p.annulus, k_total, rng)

        follower_trial = np.repeat(np.arange(size), m)
        k_per_follower = k[follower_trial]
        pair_total = int(k_per_follower.sum())
        h_pair_dl = sample_fading(rng, pair_total)
        h_pair_ul = sample_fading(rng, pair_total)
        h_sig_dl = sample_fading(rng, m_total)
        h_sig_ul = sample_fading(rng, m_total)

        pair_follower = np.repeat(np.arange(m_total), k_per_follower)
        pair_offsets = np.concatenate(([0], np.cumsum(k_per_follower)))[:-1]
        pair_rank = np.arange(pair_total) - np.repeat(pair_offsets, k_per_follower)
        jam_offsets = np.concatenate(([0], np.cumsum(k)))[:-1]
        pair_jammer = jam_offsets[follower_trial][pair_follower] + pair_rank

        with np.errstate(divide="ignore", invalid="ignore"):
            jam_power = p.p_jammer * d_jam ** (-p.alpha)
            sig_gain = r_f ** (-p.alpha)
            ok_dl = covered(p.p_leader * h_sig_dl * sig_gain, h_pair_dl * jam_power[pair_jammer],
                            pair_follower, p.beta_dl)
            ok_ul = covered(p.p_follower * h_sig_ul * sig_gain, h_pair_ul * jam_power[pair_jammer],
                            pair_follower, p.beta_ul)
        ok = ok_dl & ok_ul

        successes = np.bincount(follower_trial, weights=ok, minlength=size)
        n_consensus += int(np.count_nonzero(2 * successes > m))
        total_followers += m_total
        total_successes += int(ok.sum())

    n = config.n_trials
    return ConsensusOutcome(
        p_consensus=n_consensus / n,
        ci_halfwidth=_Z95 * _standard_error(n_consensus / n, n),
        n_trials=n,
        mean_followers=total_followers / n,
        mean_successes=total_successes / n,
    )


@dataclass(frozen=True)
class AuthSimResult:
    """Tallies from one authentication simulation.

    ``scenario`` is "legit" (enrolled transmitters) or "eve"
    (intruders).  Rates are exposed as properties and raise when asked
    of the wrong scenario, since a false-alarm rate of an intruder run
    would be meaningless.
    """

    scenario: str
    n_trials: int
    n_accepted: int
    n_wrong_index: int
    n_claimed_accepted: int | None = None

    def __post_init__(self) -> None:
        if self.scenario not in ("legit", "eve"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.n_trials < 1:
            raise ValueError("n_trials must be positive")
        for name in ("n_accepted", "n_wrong_index", "n_claimed_accepted"):
            v = getattr(self, name)
            if v is not None and not 0 <= v <= self.n_trials:
                raise ValueError(f"{name} = {v} outside [0, n_trials]")

    def _require(self, scenario: str, what: str) -> None:
        if self.scenario != scenario:
            raise ValueError(f"{what} is defined only for the {scenario!r} scenario")

    @property
    def p_fa(self) -> float:
        """Rejection rate of enrolled transmitters."""
        self._require("legit", "p_fa")
        return 1.0 - self.n_accepted / self.n_trials

    @property
    def p_md(self) -> float:
        """Acceptance rate of intruders under the nearest-fingerprint test."""
        self._require("eve", "p_md")
        return self.n_accepted / self.n_trials

    @property
    def p_md_claimed(self) -> float:
        """Acceptance rate of intruders that claim one uniformly chosen
        identity and are tested against that identity alone."""
        self._require("eve", "p_md_claimed")
        if self.n_claimed_accepted is None:
            raise ValueError("claimed-identity tally missing")
        return self.n_claimed_accepted / self.n_trials

    @property
    def p_mc(self) -> float:
        """Rate of nearest-fingerprint matches landing on a wrong index
        (unconditional on acceptance)."""
        self._require("legit", "p_mc")
        return self.n_wrong_index / self.n_trials


def simulate_auth(
    profile: AuthProfile,
    scenario: str,
    n_trials: int,
    master_seed: int,
    eve_pathlosses=None,
) -> AuthSimResult:
    """Run the threshold-plus-nearest-fingerprint test many times.

    "legit": each trial picks an enrolled identity from the profile
    priors, adds Gaussian noise to its fingerprint, and matches.
    "eve": each trial draws an intruder fingerprint, either from the
    fixed ``eve_pathlosses`` vector (picked by the intruder priors) or
    uniformly over the prior support when the vector is omitted; the
    intruder also claims one uniformly chosen identity, tallied
    separately against that identity's window alone.
    """
    if scenario not in ("legit", "eve"):
        raise ValueError(f"unknown scenario {scenario!r}")
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    if scenario == "legit" and eve_pathlosses is not None:
        raise ValueError("eve_pathlosses only applies to the 'eve' scenario")

    m = profile.m
    fixed_eves = None
    if scenario == "eve" and eve_pathlosses is not None:
        fixed_eves, eve_pri = profile.intruders(eve_pathlosses)

    n_accepted = 0
    n_wrong = 0
    n_claimed_accepted = 0
    for size, rng in _chunks(n_trials, master_seed):
        if scenario == "legit":
            ident = rng.choice(m, size=size, p=profile.follower_priors())
            truth = profile.ground_truth[ident]
        elif fixed_eves is not None:
            ident = rng.choice(fixed_eves.size, size=size, p=eve_pri)
            truth = fixed_eves[ident]
        else:
            truth = rng.uniform(profile.psi_min, profile.psi_max, size)
        z = truth + rng.normal(0.0, profile.sigma, size)
        claimed = rng.integers(0, m, size) if scenario == "eve" else None

        matched = profile.nearest(z)
        n_accepted += int(np.count_nonzero(profile.accepts(z, matched)))
        if scenario == "legit":
            n_wrong += int(np.count_nonzero(matched != ident))
        else:
            n_claimed_accepted += int(np.count_nonzero(profile.accepts(z, claimed)))

    return AuthSimResult(
        scenario=scenario,
        n_trials=n_trials,
        n_accepted=n_accepted,
        n_wrong_index=n_wrong,
        n_claimed_accepted=n_claimed_accepted if scenario == "eve" else None,
    )
