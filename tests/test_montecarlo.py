import numpy as np
import pytest

from raftguard.auth import AuthProfile, lq_db_to_sigma, threshold_for_pfa
from raftguard.channel import NetworkParams
from raftguard.coverage import CoverageMethod, coverage_joint
from raftguard.montecarlo import (
    CHUNK_SIZE,
    AuthSimResult,
    ConsensusOutcome,
    TrialConfig,
    estimate_coverage,
    simulate_auth,
    simulate_consensus,
)


def params(**kw):
    kw.setdefault("beta_dl_db", -20.0)
    kw.setdefault("beta_ul_db", -20.0)
    return NetworkParams(**kw)


def profile(lq_db=10.0, target=0.1):
    gt = np.array([43.3, 57.6, 62.6, 70.7, 76.0])
    sigma = lq_db_to_sigma(lq_db)
    return AuthProfile(ground_truth=gt, sigma=sigma, epsilon=threshold_for_pfa(target, sigma))


# ------------------------------------------------------------- determinism


def test_coverage_estimate_is_reproducible():
    cfg = TrialConfig(params(), 3 * CHUNK_SIZE + 17, 123)
    a = estimate_coverage(cfg)
    b = estimate_coverage(cfg)
    assert (a.p_dl, a.p_ul, a.p_joint) == (b.p_dl, b.p_ul, b.p_joint)


def test_consensus_is_reproducible():
    cfg = TrialConfig(params(), CHUNK_SIZE + 1, 9)
    a = simulate_consensus(cfg)
    b = simulate_consensus(cfg)
    assert a == b


def test_auth_is_reproducible():
    p = profile()
    a = simulate_auth(p, "legit", 10000, 5)
    b = simulate_auth(p, "legit", 10000, 5)
    assert a == b


def test_seeds_change_the_draw():
    cfg1 = TrialConfig(params(), 20000, 1)
    cfg2 = TrialConfig(params(), 20000, 2)
    assert estimate_coverage(cfg1).p_dl != estimate_coverage(cfg2).p_dl


def test_short_runs_work():
    # fewer trials than one chunk
    res = estimate_coverage(TrialConfig(params(), 37, 0))
    assert res.n_trials == 37


# ------------------------------------------------------ frozen regressions


def test_coverage_regression():
    """Tallies pinned at seed 42; any change to the draw order or the
    chunk seeding discipline shows up here."""
    res = estimate_coverage(TrialConfig(params(), 100000, 42))
    assert res.p_dl == 0.99484
    assert res.p_ul == 0.97792
    assert res.p_joint == pytest.approx(0.9728739328, abs=1e-12)
    assert res.method is CoverageMethod.MONTE_CARLO


def test_consensus_regression():
    res = simulate_consensus(TrialConfig(params(), 20000, 7))
    assert res.p_consensus == 0.9058
    assert res.mean_followers == pytest.approx(15.0247, abs=1e-10)
    assert res.mean_successes == pytest.approx(12.668, abs=1e-10)


# --------------------------------------------------------- cross-checks


def test_coverage_estimate_tracks_analytics():
    p = params()
    mc = estimate_coverage(TrialConfig(p, 100000, 42))
    ana = coverage_joint(p)
    assert abs(mc.p_dl - ana.p_dl) <= 3.5 * mc.ci_dl / 1.96
    assert abs(mc.p_ul - ana.p_ul) <= 3.5 * mc.ci_ul / 1.96
    assert abs(mc.p_joint - ana.p_joint) <= 0.005


def test_coverage_without_jamming_is_certain():
    res = estimate_coverage(TrialConfig(params(rho_j=0.0), 5000, 2))
    assert res.p_dl == 1.0 and res.p_ul == 1.0 and res.p_joint == 1.0


def test_consensus_without_jamming_is_near_certain():
    # every follower succeeds, so consensus fails only in the
    # vanishingly rare zero-follower rounds
    res = simulate_consensus(TrialConfig(params(rho_j=0.0), 20000, 3))
    assert res.p_consensus == 1.0


def test_consensus_with_no_followers_always_fails():
    # intensity so small that every round draws zero followers
    res = simulate_consensus(TrialConfig(params(rho_t=1e-12), 2000, 4))
    assert res.p_consensus == 0.0
    assert res.mean_followers == 0.0


# -------------------------------------------------------------- validation


def test_trial_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(params(), 0, 1)
    with pytest.raises(ValueError):
        TrialConfig(params(), 100, -1)


def test_consensus_outcome_validation():
    with pytest.raises(ValueError):
        ConsensusOutcome(p_consensus=1.5, ci_halfwidth=0.0, n_trials=10,
                         mean_followers=1.0, mean_successes=1.0)


def test_auth_result_guards_scenario():
    res = simulate_auth(profile(), "legit", 2000, 8)
    with pytest.raises(ValueError):
        _ = res.p_md
    ev = simulate_auth(profile(), "eve", 2000, 8)
    with pytest.raises(ValueError):
        _ = ev.p_fa
    assert 0.0 <= ev.p_md <= 1.0
    assert 0.0 <= ev.p_md_claimed <= 1.0


def test_auth_rejects_bad_scenario():
    with pytest.raises(ValueError):
        simulate_auth(profile(), "replay", 100, 0)


def test_auth_rejects_eves_for_legit_runs():
    with pytest.raises(ValueError):
        simulate_auth(profile(), "legit", 100, 0, eve_pathlosses=[50.0])


def test_auth_result_count_bounds():
    with pytest.raises(ValueError):
        AuthSimResult(scenario="legit", n_trials=10, n_accepted=11,
                      n_wrong_index=0)
    with pytest.raises(ValueError):
        AuthSimResult(scenario="eve", n_trials=10, n_accepted=0,
                      n_wrong_index=0, n_claimed_accepted=11)


def test_auth_fixed_eves_respect_priors():
    # all prior mass on one intruder far from every fingerprint: the
    # nearest match never lands inside a window
    p = profile(lq_db=20.0)
    prior = np.array([1.0, 0.0])
    prof = AuthProfile(ground_truth=p.ground_truth, sigma=p.sigma,
                       epsilon=p.epsilon, eve_priors=prior)
    res = simulate_auth(prof, "eve", 5000, 6, eve_pathlosses=[10.0, 62.6])
    assert res.p_md == 0.0
