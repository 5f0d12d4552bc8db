"""The consensus engine against a simulator that integrates nothing out.

``simulate_consensus`` takes the fading in closed form per link and the
followers as Poisson counts, with P(S > U) from ``chndtr``.  The
simulator below draws everything the model states instead: Poisson(λ_t)
followers uniform on the disk, the jammer PPP on the annulus, and an
Exp(1) fading power for each follower's signal and for each (follower,
jammer) interferer, drawn afresh per direction.  Jammer distances are
measured from the leader in both directions, so a follower's position
enters only through its distance from the leader.  A round passes when
strictly more followers hold both links than not (S > U), so a round
with no follower, or a tie, fails.  The simulator itself uses nothing of
``channel`` but ``NetworkParams``, and neither ``chndtr`` nor scipy.

Each point must satisfy |sim - engine| <= K * sqrt(SE_sim^2 + SE_engine^2)
with K = 4.5, as in ``test_coverage_standard_errors.py``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from raftguard.channel import NetworkParams
from raftguard.geometry import AnnulusRegion
from raftguard.montecarlo import TrialConfig, simulate_consensus
from raftguard.specfun import q_inverse

K = 4.5
Z95 = q_inverse(0.025)
ENGINE_SEED, SIMULATOR_SEED = 20260816, 20261019
BASE = NetworkParams(beta_dl_db=-20.0, beta_ul_db=-20.0)


def simulated_rounds(p: NetworkParams, n_trials: int, rng: np.random.Generator,
                     chunk: int = 2048) -> float:
    """Fraction of ``n_trials`` simulated rounds that reach consensus."""
    lam_t, lam_j = p.rho_t * p.disk.area, p.rho_j * p.annulus.area
    lo2, hi2 = p.annulus.inner ** 2, p.annulus.outer ** 2
    passed = 0
    for start in range(0, n_trials, chunk):
        size = min(chunk, n_trials - start)
        n_followers, n_jammers = rng.poisson(lam_t, size), rng.poisson(lam_j, size)
        trial = np.repeat(np.arange(size), n_followers)
        # r^alpha of followers uniform on the disk, d^-alpha of jammers
        # uniform on the annulus
        near = (p.disk.radius * np.sqrt(rng.random(trial.size))) ** p.alpha
        gain = (lo2 + (hi2 - lo2) * rng.random(n_jammers.sum())) ** (-0.5 * p.alpha)
        # every (follower, jammer) pair of the same trial
        per = n_jammers[trial]
        follower = np.repeat(np.arange(trial.size), per)
        first_jammer = (np.cumsum(n_jammers) - n_jammers)[trial]
        first_pair = np.cumsum(per) - per
        jammer = np.arange(per.sum()) - (first_pair - first_jammer)[follower]
        both = np.ones(trial.size, dtype=bool)
        for c in (p.beta_dl * p.gamma_dl, p.beta_ul * p.gamma_ul):
            interference = np.bincount(follower, rng.exponential(size=follower.size)
                                       * gain[jammer], trial.size)
            # signal h r^-alpha against beta * (jammer / transmitter power) * interference
            both &= rng.exponential(size=trial.size) > c * near * interference
        successes = np.bincount(trial, both, size)
        passed += int(np.count_nonzero(successes > n_followers - successes))
    return passed / n_trials


@pytest.mark.parametrize("params, n_sim", [
    pytest.param(BASE, 40_000, id="rho_j-x1"),
    pytest.param(replace(BASE, rho_j=4.0 * BASE.rho_j), 25_000, id="rho_j-x4"),
    pytest.param(replace(BASE, rho_j=4.0 * BASE.rho_j, annulus=AnnulusRegion(20.0, 120.0)),
                 25_000, id="band-20-120m-x4"),
    pytest.param(replace(BASE, alpha=4.0), 25_000, id="alpha-4"),
])
def test_consensus_engine_matches_a_simulator_that_integrates_nothing_out(params, n_sim):
    engine = simulate_consensus(TrialConfig(params, 50_000, ENGINE_SEED))
    sim = simulated_rounds(params, n_sim, np.random.default_rng(SIMULATOR_SEED))
    se = math.hypot(math.sqrt(sim * (1.0 - sim) / n_sim), engine.ci_halfwidth / Z95)
    assert 0.0 < sim < 1.0
    assert abs(sim - engine.p_consensus) <= K * se, (
        f"simulator {sim:.5f}, engine {engine.p_consensus:.5f}, "
        f"z {(sim - engine.p_consensus) / se:.2f}")
