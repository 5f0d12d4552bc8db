import math

import numpy as np
import pytest

from raftguard.auth import (
    DEFAULT_PSI_MAX,
    AuthProfile,
    error_probabilities,
    lq_db_to_sigma,
    p_fa_closed_form,
    p_md_closed_form,
    p_md_expected,
    p_mc_closed_form,
    roc_curve,
    sample_fingerprints,
    sigma_to_lq_db,
    threshold_for_pfa,
)
from raftguard.geometry import DiskRegion
from raftguard.montecarlo import simulate_auth
from raftguard.specfun import q_function

# The realization every shipped experiment uses: five followers and five
# intruders drawn once at seed 28294, chosen so adjacent fingerprints sit
# more than two acceptance windows apart at LQ = 0 dB.
PROFILE_SEED = 28294


def shipped_realization():
    rng = np.random.default_rng(PROFILE_SEED)
    return sample_fingerprints(5, 5, DiskRegion(500.0), 3.0, rng)


def shipped_profile(lq_db, target=0.05):
    gt, _ = shipped_realization()
    sigma = lq_db_to_sigma(lq_db)
    return AuthProfile(ground_truth=gt, sigma=sigma, epsilon=threshold_for_pfa(target, sigma))


# -------------------------------------------------------------- conversions


def test_lq_zero_db_is_unit_sigma():
    assert lq_db_to_sigma(0.0) == 1.0


def test_lq_round_trip():
    for lq in (-10.0, 0.0, 7.5, 20.0, 30.0):
        assert sigma_to_lq_db(lq_db_to_sigma(lq)) == pytest.approx(lq, abs=1e-12)


def test_twenty_db_means_tenth():
    assert lq_db_to_sigma(20.0) == pytest.approx(0.1, rel=1e-12)


# ---------------------------------------------------------------- threshold


def test_threshold_round_trips_target():
    for target in (0.01, 0.05, 0.1, 0.3, 0.9):
        for sigma in (0.1, 1.0, 3.0):
            eps = threshold_for_pfa(target, sigma)
            assert p_fa_closed_form(eps, sigma) == pytest.approx(target, abs=1e-10)


def test_threshold_canonical_value():
    # Qinv(0.05) = 1.6449, the standard 5% upper tail point
    assert threshold_for_pfa(0.1, 1.0) == pytest.approx(1.6448536269514722, abs=1e-9)


def test_threshold_vanishes_as_target_approaches_one():
    assert threshold_for_pfa(0.999999, 1.0) == pytest.approx(0.0, abs=1e-5)


def test_threshold_domain():
    with pytest.raises(ValueError):
        threshold_for_pfa(0.0, 1.0)
    with pytest.raises(ValueError):
        threshold_for_pfa(1.0, 1.0)


def test_zero_threshold_always_alarms():
    assert p_fa_closed_form(0.0, 1.0) == 1.0


# ----------------------------------------------------------------- decision


def test_decide_boundary_rejects():
    prof = AuthProfile(ground_truth=np.array([10.0]), sigma=1.0, epsilon=1.0)
    assert not prof.accepts(11.0, 0)
    assert prof.accepts(10.999999, 0)
    assert prof.accepts(np.array([9.5, 9.0, 10.0]), np.zeros(3, dtype=int)).tolist() == [
        True, False, True]
    zero = AuthProfile(ground_truth=np.array([10.0]), sigma=1.0, epsilon=0.0)
    assert not zero.accepts(10.0, 0)


def test_ml_identify_prefers_lowest_index_on_ties():
    # maximum-likelihood identification is the nearest-fingerprint match
    prof = AuthProfile(ground_truth=np.array([10.0, 20.0]), sigma=1.0, epsilon=1.0)
    assert prof.nearest(15.0) == 0
    dup = AuthProfile(ground_truth=np.array([10.0, 10.0, 20.0]), sigma=1.0, epsilon=1.0)
    assert dup.nearest(np.array([10.0, 12.0, 19.0])).tolist() == [0, 0, 2]


def test_ml_identify_finds_nearest():
    prof = shipped_profile(10.0)
    g = prof.ground_truth
    for i, val in enumerate(g):
        assert prof.nearest(float(val) + 0.01) == i
    assert prof.nearest(g + 0.01).tolist() == list(range(g.size))
    assert prof.accepts(g + 0.01, np.arange(g.size)).all()


# ---------------------------------------------------------------- profiles


def test_profile_validation():
    with pytest.raises(ValueError):
        AuthProfile(ground_truth=np.empty(0), sigma=1.0, epsilon=1.0)
    with pytest.raises(ValueError):
        AuthProfile(ground_truth=np.array([1.0]), sigma=0.0, epsilon=1.0)
    with pytest.raises(ValueError):
        AuthProfile(ground_truth=np.array([1.0]), sigma=1.0, epsilon=-0.5)
    with pytest.raises(ValueError):
        AuthProfile(ground_truth=np.array([1.0]), sigma=1.0, epsilon=1.0,
                    psi_min=10.0, psi_max=10.0)
    with pytest.raises(ValueError):
        AuthProfile(ground_truth=np.array([1.0, 2.0]), sigma=1.0, epsilon=1.0,
                    priors=np.array([0.7, 0.7]))


def test_sample_fingerprints_deterministic():
    a, ea = shipped_realization()
    b, eb = shipped_realization()
    assert np.array_equal(a, b) and np.array_equal(ea, eb)
    assert a.shape == (5,) and ea.shape == (5,)


# ------------------------------------------------------------- closed forms


def test_single_node_missed_detection_hand_value():
    # one enrolled node, intruder sitting exactly on the fingerprint:
    # acceptance is just the two-sided noise window, 1 - 2Q(eps/sigma)
    prof = AuthProfile(ground_truth=np.array([50.0]), sigma=1.0, epsilon=1.959964)
    val = p_md_closed_form(prof, [50.0])
    assert val == pytest.approx(1.0 - 2.0 * q_function(1.959964), abs=1e-12)


def test_missed_detection_scales_with_claim_count():
    # an intruder far from all but one fingerprint: matching against m
    # uniformly claimed identities dilutes acceptance by 1/m
    one = AuthProfile(ground_truth=np.array([50.0]), sigma=0.5, epsilon=1.0)
    five = AuthProfile(
        ground_truth=np.array([50.0, 200.0, 300.0, 400.0, 500.0]), sigma=0.5, epsilon=1.0
    )
    assert p_md_closed_form(five, [50.0]) == pytest.approx(
        p_md_closed_form(one, [50.0]) / 5.0, rel=1e-9
    )


def test_expected_missed_detection_small_sigma_limit():
    # with vanishing noise each window contributes its full width, so the
    # uniform-intruder acceptance approaches m * 2 * eps / delta
    prof = AuthProfile(
        ground_truth=np.array([20.0, 35.0, 50.0, 65.0, 75.0]),
        sigma=1e-4, epsilon=0.01,
    )
    expect = 5 * 2 * 0.01 / prof.delta
    assert p_md_expected(prof) == pytest.approx(expect, rel=1e-6)


def test_misclassification_ignores_epsilon():
    gt, _ = shipped_realization()
    vals = {
        p_mc_closed_form(AuthProfile(ground_truth=gt, sigma=1.0, epsilon=e))
        for e in (0.0, 0.5, 1.0, 5.0)
    }
    assert len(vals) == 1


def test_single_node_misclassification_is_support_leakage():
    # the lone cell spans the whole support, so only noise escaping the
    # support bounds counts as a wrong decision
    prof = AuthProfile(ground_truth=np.array([3.0]), sigma=1.0, epsilon=1.0)
    expect = q_function(3.0) + q_function(DEFAULT_PSI_MAX - 3.0)
    assert p_mc_closed_form(prof) == pytest.approx(expect, abs=1e-15)


def test_misclassification_worsens_with_noise():
    gt, _ = shipped_realization()
    vals = [
        p_mc_closed_form(AuthProfile(ground_truth=gt, sigma=s, epsilon=1.0))
        for s in (0.25, 0.5, 1.0, 2.0, 4.0)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_overlapping_windows_clip_with_diagnostic():
    prof = AuthProfile(
        ground_truth=np.array([20.0, 35.0, 50.0, 65.0, 75.0]), sigma=1.0, epsilon=100.0
    )
    with pytest.warns(RuntimeWarning):
        assert p_md_expected(prof) == 1.0


def test_eve_priors_must_match_eve_count():
    prof = AuthProfile(ground_truth=np.array([50.0]), sigma=1.0, epsilon=1.0,
                       eve_priors=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        p_md_closed_form(prof, [40.0, 45.0, 55.0])


def test_error_probability_bundle_is_consistent():
    gt, eve = shipped_realization()
    prof = AuthProfile(ground_truth=gt, sigma=lq_db_to_sigma(10.0),
                       epsilon=threshold_for_pfa(0.05, lq_db_to_sigma(10.0)))
    bundle = error_probabilities(prof, eve)
    assert bundle.p_fa == pytest.approx(0.05, abs=1e-10)
    assert bundle.p_md == p_md_closed_form(prof, eve)
    assert bundle.p_md_expected == p_md_expected(prof)
    assert bundle.p_mc == p_mc_closed_form(prof)


# --------------------------------------------------------------------- ROC


def test_roc_is_monotone_and_recalibrates():
    prof = shipped_profile(10.0)
    pts = roc_curve(prof, [0.02, 0.05, 0.1, 0.2, 0.5])
    eps = [e for _, e, _ in pts]
    pds = [d for _, _, d in pts]
    assert all(b < a for a, b in zip(eps, eps[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(pds, pds[1:]))
    assert all(0.0 <= d <= 1.0 for d in pds)


def test_roc_headline_regression():
    # pinned on the shipped realization at LQ = 10 dB
    prof = shipped_profile(10.0)
    assert roc_curve(prof, [0.1])[0][2] == pytest.approx(0.9871519286483383, abs=1e-9)


def test_roc_grid_validation():
    prof = shipped_profile(10.0)
    with pytest.raises(ValueError):
        roc_curve(prof, [])
    with pytest.raises(ValueError):
        roc_curve(prof, [0.0, 0.5])
    with pytest.raises(ValueError):
        roc_curve(prof, [0.5, 0.2])


# ------------------------------------------------- closed form vs simulation


def test_claimed_identity_rate_matches_closed_form():
    gt, eve = shipped_realization()
    sigma = lq_db_to_sigma(10.0)
    prof = AuthProfile(ground_truth=gt, sigma=sigma,
                       epsilon=threshold_for_pfa(0.05, sigma))
    res = simulate_auth(prof, "eve", 50000, 314, eve_pathlosses=eve)
    cf = p_md_closed_form(prof, eve)
    se = math.sqrt(cf * (1.0 - cf) / 50000)
    assert abs(res.p_md_claimed - cf) <= 3.0 * se


def test_false_alarm_rate_matches_closed_form():
    prof = shipped_profile(10.0, target=0.1)
    res = simulate_auth(prof, "legit", 50000, 99)
    se = math.sqrt(0.1 * 0.9 / 50000)
    assert abs(res.p_fa - 0.1) <= 3.0 * se
