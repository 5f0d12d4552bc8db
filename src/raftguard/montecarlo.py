"""Monte Carlo engines: independent checks of the closed forms.

Every estimator draws through numpy Generators seeded from
``SeedSequence(master_seed, spawn_key=(chunk,))`` with a fixed chunk
size and reduces chunk by chunk in chunk order, so results are
bit-identical for a given (config, seed) on any number of threads or
processes.  The coverage engines are Rao-Blackwellised: they draw only
the geometry and average the exact Rayleigh-fading probability of
success given it (``channel.rayleigh_coverage`` per direction,
``channel.two_way_coverage`` for both); the authentication
engine tallies integer counts and reports their rates.

Each trial's jammers form a PPP of mean count lambda_j = rho_j * |annulus|.
A chunk of n trials draws them as one field: a single Poisson(n *
lambda_j) total, a uniformly drawn owning trial for each jammer, then
the jammers' annulus radii.  By the superposition (splitting) property
of the PPP the per-trial counts are then i.i.d. Poisson(lambda_j), the
same law as one draw per trial (Haenggi, Stochastic Geometry for
Wireless Networks, 2012).
"""

from __future__ import annotations

import contextvars
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import chndtr

from raftguard.auth import AuthProfile
from raftguard.channel import NetworkParams, rayleigh_coverage, two_way_coverage
from raftguard.geometry import annulus_radii, link_distances
from raftguard.specfun import gauss_legendre, q_inverse

__all__ = [
    "TrialConfig",
    "CoverageEstimate",
    "ConsensusOutcome",
    "LegitOutcome",
    "IntruderOutcome",
    "estimate_coverage",
    "simulate_consensus",
    "simulate_auth",
]

CHUNK_SIZE = 4096
_Z95 = q_inverse(0.025)


def _disk_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes, as fractions of the disk radius R, and weights of a 16-node
    Gauss-Legendre rule that averages a radial function over the disk.

    The disk's area element is pi R^2 du with u = (r/R)^2 on [0, 1], so
    weights summing to 1 average over the disk.  The map u = s^4
    (weight 4 s^3), the one the outer coverage rule uses, puts nodes at
    r/R = s^2 down to about 3e-5, where coverage confined near the leader
    lives.
    """
    x, w = gauss_legendre(16)
    s = 0.5 * (x + 1.0)
    return s * s, 2.0 * w * s**3


def _as_int(value, name: str, minimum: int, kind: str) -> int:
    """``value`` as a Python int, numpy integers included; a bool, a
    value that is not an integer, or one below ``minimum`` is rejected."""
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is None or index < minimum:
        raise ValueError(f"{name} must be a {kind} integer, got {value}")
    return index


def _check_run(n_trials, master_seed) -> tuple[int, int]:
    """The trial count and master seed as Python ints, checked."""
    return (_as_int(n_trials, "n_trials", 1, "positive"),
            _as_int(master_seed, "master_seed", 0, "non-negative"))


def _check_rates(outcome, *names: str, halfwidths: tuple[str, ...] = ()) -> None:
    """Reject a rate outside [0, 1], or a half-width below 0 or not finite."""
    for name in names:
        v = getattr(outcome, name)
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name} = {v} is not a probability")
    for name in halfwidths:
        v = getattr(outcome, name)
        if not (math.isfinite(v) and v >= 0.0):
            raise ValueError(f"{name} must be >= 0, got {v}")


@dataclass(frozen=True)
class TrialConfig:
    """One Monte Carlo run: network parameters, trial count, seed."""

    params: NetworkParams
    n_trials: int
    master_seed: int

    def __post_init__(self) -> None:
        n_trials, master_seed = _check_run(self.n_trials, self.master_seed)
        object.__setattr__(self, "n_trials", n_trials)
        object.__setattr__(self, "master_seed", master_seed)


@dataclass(frozen=True)
class ConsensusOutcome:
    """Estimated probability that a strict majority of followers hold a
    two-way (downlink and uplink) connection to the leader.

    ``ci_halfwidth`` is the 95 % sample-variance half-width over the
    per-trial conditional probabilities.  ``mean_followers`` is the
    expected follower count rho_t * |disk|, and ``mean_successes`` the
    trial average of the expected count of two-way covered followers,
    from a 16-node disk rule whose nodes crowd toward the leader, so
    that coverage confined near the leader is still resolved.  Two-way
    coverage at a node is the probability that both directions pass,
    from ``channel.two_way_coverage``.
    """

    p_consensus: float
    ci_halfwidth: float
    n_trials: int
    mean_followers: float
    mean_successes: float

    def __post_init__(self) -> None:
        _check_rates(self, "p_consensus", halfwidths=("ci_halfwidth",))
        if self.n_trials < 1:
            raise ValueError("n_trials must be positive")
        if self.mean_followers < 0.0 or self.mean_successes < 0.0:
            raise ValueError("mean counts cannot be negative")


def _chunks(n_trials: int, master_seed: int):
    """Yield (size, rng) per chunk of at most CHUNK_SIZE trials; chunk i
    draws from ``SeedSequence(master_seed, spawn_key=(i,))``."""
    for index, start in enumerate(range(0, n_trials, CHUNK_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))
        yield min(CHUNK_SIZE, n_trials - start), rng


def _threads() -> int:
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _workers(units: int) -> int:
    """The package's one pool size for ``units`` units of work: ``RAFTGUARD_WORKERS``
    if set, else 4, at most the usable CPUs and the units, at least 1."""
    env = os.environ.get("RAFTGUARD_WORKERS")
    try:
        requested = int(env) if env else 4
    except ValueError:
        raise ValueError(f"RAFTGUARD_WORKERS: expected an integer, got {env!r}") from None
    return max(1, min(requested, _threads(), units))


def _chunk_results(work, n_trials: int, master_seed: int):
    """Yield ``work(size, rng)`` per chunk, in order, from ``_workers`` threads
    in copies of the caller's context, at most 2 * threads chunks ahead."""
    threads = _workers(-(-n_trials // CHUNK_SIZE))
    pool, pending = ThreadPoolExecutor(threads), []
    try:
        for size, rng in _chunks(n_trials, master_seed):
            pending.append(pool.submit(contextvars.copy_context().run, work, size, rng))
            if len(pending) == 2 * threads:
                yield pending.pop(0).result()
        yield from (future.result() for future in pending)
    finally:
        pool.shutdown(cancel_futures=True)


def _jammers(p: NetworkParams, size: int, rng: np.random.Generator):
    """One chunk's jammer field: the trial owning each jammer and the
    jammer's distance from the leader, drawn as one PPP of mean count
    size * lambda_j whose points pick their trial uniformly."""
    owner = rng.integers(0, size, rng.poisson(p.rho_j * p.annulus.area * size))
    return owner, annulus_radii(p.annulus, owner.size, rng)


class _TrialMean:
    """Means, and the covariance of the means, of k per-trial quantities
    fed chunk by chunk as row-contiguous arrays of shape (k, trials).

    The means are plain sums over the count.  Co-moments are merged
    chunk by chunk (Chan, Golub and LeVeque) from values shifted by the
    first trial's, so each variance is a sum of squares: never
    negative, and exactly 0 when every value is equal.  One trial gives
    no spread estimate and a covariance of 0.
    """

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.shift = None
        self.shifted_mean = 0.0
        self.m2 = 0.0

    def add(self, values: np.ndarray) -> None:
        if self.shift is None:
            self.shift = values[:, :1].copy()
        dev = values - self.shift
        size = dev.shape[1]
        mean = dev.mean(axis=1, keepdims=True)
        n = self.n + size
        delta = mean - self.shifted_mean
        dev -= mean
        self.m2 = (self.m2 + np.einsum("in,jn->ij", dev, dev)
                   + (delta * delta.T) * (self.n * size / n))
        self.shifted_mean = self.shifted_mean + delta * (size / n)
        self.n = n
        self.total = self.total + values.sum(axis=1)

    @property
    def mean(self) -> np.ndarray:
        return self.total / self.n

    @property
    def covariance(self) -> np.ndarray:
        return self.m2 / ((self.n - 1) * self.n) if self.n > 1 else np.zeros_like(self.m2)


@dataclass(frozen=True)
class CoverageEstimate:
    """Simulated coverage: trial averages and their 95 % half-widths."""

    n_trials: int
    p_dl: float
    p_ul: float
    ci_dl: float
    ci_ul: float
    ci_joint: float

    def __post_init__(self) -> None:
        _check_rates(self, "p_dl", "p_ul", halfwidths=("ci_dl", "ci_ul", "ci_joint"))

    @property
    def p_joint(self) -> float:
        return self.p_dl * self.p_ul


def estimate_coverage(config: TrialConfig) -> CoverageEstimate:
    """Downlink/uplink coverage of the typical follower, averaged over
    simulated geometry.

    Each trial draws one annular jammer pattern shared by both
    directions and one follower link distance, then takes the exact
    Rayleigh-fading probability that each direction is covered given
    them, so no fading is drawn.  The marginals are trial averages with
    95 % sample-variance half-widths.  The joint estimate is the product
    of the two marginals, matching the analytic product form, so its
    half-width comes from error propagation, with the covariance of the
    two marginals, which share every trial's geometry.
    """
    p = config.params
    beta_gamma = (p.beta_dl * p.gamma_dl, p.beta_ul * p.gamma_ul)
    both = _TrialMean()
    for size, rng in _chunks(config.n_trials, config.master_seed):
        owner, d_jam = _jammers(p, size, rng)
        r = link_distances(p.rho_t, size, rng)
        both.add(rayleigh_coverage(r, d_jam, owner, beta_gamma, p.alpha))

    p_dl, p_ul = (float(x) for x in both.mean)
    (var_dl, cov), (_, var_ul) = both.covariance
    var_joint = (p_ul * p_ul * var_dl + p_dl * p_dl * var_ul
                 + 2.0 * p_dl * p_ul * cov)
    return CoverageEstimate(
        n_trials=config.n_trials,
        p_dl=p_dl,
        p_ul=p_ul,
        ci_dl=_Z95 * math.sqrt(var_dl),
        ci_ul=_Z95 * math.sqrt(var_ul),
        ci_joint=_Z95 * math.sqrt(max(var_joint, 0.0)),
    )


def simulate_consensus(config: TrialConfig) -> ConsensusOutcome:
    """Probability that strictly more than half of a random follower
    population stays two-way covered in one round.

    Followers form a PPP of intensity rho_t on the disk, and fading is
    Rayleigh, fresh per link and per direction.  Each trial draws only
    the jammer distances, shared by every follower.  Given them, each
    follower is covered independently, so the covered and uncovered
    followers are independent Poisson counts S and U with means
    Lambda_s = rho_t * integral over the disk of p_dl * p_ul and
    Lambda_u = rho_t * integral of (1 - p_dl * p_ul), integrated by a
    16-node Gauss-Legendre rule in s with (r/R)^2 = s^4; at each node
    ``two_way_coverage`` takes p_dl * p_ul with one ``log1p`` per jammer.
    A trial's value is P(S > U) = chndtr(2 Lambda_s, 2, 2 Lambda_u),
    which fails rounds with no follower and ties.  Chunks run on
    ``_workers`` threads; the bytes do not depend on the thread count.
    """
    p = config.params
    lam_t = p.rho_t * p.disk.area
    disk_r, disk_w = _disk_rule()
    node_r = p.disk.radius * disk_r

    def chunk(size, rng):
        owner, d_jam = _jammers(p, size, rng)
        two_way = two_way_coverage(node_r, size, d_jam, owner, p.beta_dl * p.gamma_dl,
                                   p.beta_ul * p.gamma_ul, p.alpha)
        lam_s = lam_t * (two_way * disk_w).sum(axis=1)
        lam_u = lam_t * ((1.0 - two_way) * disk_w).sum(axis=1)
        return chndtr(2.0 * lam_s, 2.0, 2.0 * lam_u), float(lam_s.sum())

    consensus, successes = _TrialMean(), 0.0
    for value, lam_s in _chunk_results(chunk, config.n_trials, config.master_seed):
        consensus.add(value[None])
        successes += lam_s
    return ConsensusOutcome(
        p_consensus=float(consensus.mean[0]),
        ci_halfwidth=_Z95 * math.sqrt(consensus.covariance[0, 0]),
        n_trials=config.n_trials,
        mean_followers=lam_t,
        mean_successes=successes / config.n_trials,
    )


@dataclass(frozen=True)
class LegitOutcome:
    """Authentication of enrolled transmitters: ``p_fa`` is the rate at
    which they are rejected, ``p_mc`` the rate at which the nearest
    fingerprint is another identity's (unconditional on acceptance)."""

    n_trials: int
    p_fa: float
    p_mc: float

    def __post_init__(self) -> None:
        _check_rates(self, "p_fa", "p_mc")


@dataclass(frozen=True)
class IntruderOutcome:
    """Authentication of intruders: ``p_md`` is the rate at which they
    pass the nearest-fingerprint test, ``p_md_claimed`` the rate at
    which they pass the window of one uniformly chosen identity they
    claim."""

    n_trials: int
    p_md: float
    p_md_claimed: float

    def __post_init__(self) -> None:
        _check_rates(self, "p_md", "p_md_claimed")


def simulate_auth(
    profile: AuthProfile,
    scenario: str,
    n_trials: int,
    master_seed: int,
    eve_pathlosses=None,
) -> LegitOutcome | IntruderOutcome:
    """Run the threshold-plus-nearest-fingerprint test many times.

    "legit": each trial picks an enrolled identity uniformly, adds
    Gaussian noise to its fingerprint, and matches; returns a
    ``LegitOutcome``.
    "eve": each trial draws an intruder fingerprint, either uniformly
    from the fixed ``eve_pathlosses`` vector or uniformly over the
    prior support when the vector is omitted; the intruder also claims
    one uniformly chosen identity, tallied separately against that
    identity's window alone; returns an ``IntruderOutcome``.
    """
    if scenario not in ("legit", "eve"):
        raise ValueError(f"unknown scenario {scenario!r}")
    n_trials, master_seed = _check_run(n_trials, master_seed)
    if scenario == "legit" and eve_pathlosses is not None:
        raise ValueError("eve_pathlosses only applies to the 'eve' scenario")

    m = profile.m
    pool = None
    if scenario == "legit":
        pool = profile.ground_truth
    elif eve_pathlosses is not None:
        pool = profile.intruders(eve_pathlosses)
    # uniform weights drawn through ``choice``, whose stream differs from
    # that of ``integers``
    weights = None if pool is None else np.full(pool.size, 1.0 / pool.size)

    n_accepted = 0
    n_wrong = 0
    n_claimed_accepted = 0
    for size, rng in _chunks(n_trials, master_seed):
        if pool is not None:
            ident = rng.choice(pool.size, size=size, p=weights)
            truth = pool[ident]
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

    if scenario == "legit":
        return LegitOutcome(n_trials, p_fa=1.0 - n_accepted / n_trials, p_mc=n_wrong / n_trials)
    return IntruderOutcome(n_trials, p_md=n_accepted / n_trials,
                           p_md_claimed=n_claimed_accepted / n_trials)
