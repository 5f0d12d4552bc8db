import math
import tracemalloc

import numpy as np
import pytest

from raftguard import auth
from raftguard.auth import (
    DEFAULT_PSI_MAX,
    AuthProfile,
    count_accepted,
    lq_db_to_sigma,
    p_fa_closed_form,
    p_md_closed_form,
    p_md_expected,
    p_mc_closed_form,
    roc_curve,
    sample_fingerprints,
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
    # LQ = 1/sigma^2 in dB, so sigma = 10^(-LQ/20)
    assert lq_db_to_sigma(-10.0) == pytest.approx(math.sqrt(10.0), rel=1e-12)
    assert lq_db_to_sigma(30.0) == pytest.approx(10.0**-1.5, rel=1e-12)
    for lq in (-10.0, 0.0, 7.5, 20.0, 30.0):
        assert -20.0 * math.log10(lq_db_to_sigma(lq)) == pytest.approx(lq, abs=1e-12)


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
    assert count_accepted(prof.deviation(11.0, 0), prof.epsilon) == 0
    assert count_accepted(prof.deviation(10.999999, 0), prof.epsilon) == 1
    dev = prof.deviation(np.array([9.5, 9.0, 10.0]), np.zeros(3, dtype=int))
    assert [count_accepted(d, prof.epsilon) for d in dev] == [1, 0, 1]
    # a threshold on a deviation rejects it, the next double up accepts it
    assert count_accepted(dev, [1.0, np.nextafter(1.0, np.inf)]).tolist() == [2, 3]
    zero = AuthProfile(ground_truth=np.array([10.0]), sigma=1.0, epsilon=0.0)
    assert count_accepted(zero.deviation(10.0, 0), zero.epsilon) == 0


def test_count_accepted_counts_the_deviations_below_each_threshold():
    rng = np.random.default_rng(11)
    for size in (1, 7, 1000):
        dev = np.abs(rng.normal(0.0, 2.0, size))
        # thresholds on deviations, between them, and on either side;
        # epsilon = 0 rejects every deviation
        eps = np.concatenate(([0.0, 10.0 * dev.max()], rng.choice(dev, 5), 3.0 * rng.random(5)))
        got = count_accepted(dev, eps)
        assert got.tolist() == [np.count_nonzero(dev < e) for e in eps]
        assert got[0] == 0


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
    assert count_accepted(prof.deviation(g + 0.01, np.arange(g.size)), prof.epsilon) == g.size


def _argmin_nearest(gt, z):
    # brute force over the full measurement-by-fingerprint deviation matrix
    return np.argmin(np.abs(np.asarray(z, dtype=float)[..., None] - gt), axis=-1)


@pytest.mark.parametrize("m", [1, 2, 5, 64, 1000])
def test_nearest_matches_brute_force_argmin(m):
    rng = np.random.default_rng(m)
    for trial in range(10):
        if trial % 2:
            # continuous fingerprints, as sampled for a deployment
            gt, eve = sample_fingerprints(m, 0, DiskRegion(500.0), 3.0, rng)
            assert eve.shape == (0,) and eve.dtype == np.float64
        else:
            # a quarter-dB grid: duplicates are common and midpoints exact
            gt = 10.0 + 0.25 * rng.integers(0, 2 * m + 2, m)
        prof = AuthProfile(ground_truth=gt, sigma=1.0, epsilon=1.0)
        vals = np.unique(gt)
        z = np.concatenate((
            gt,
            0.5 * (vals[1:] + vals[:-1]),
            rng.uniform(gt.min() - 20.0, gt.max() + 20.0, 400),
            [gt.min() - 100.0, gt.max() + 100.0, -1e-300, 0.0],
        ))
        assert np.array_equal(prof.nearest(z), _argmin_nearest(gt, z))
        grid = z[: 2 * (z.size // 2)].reshape(2, -1)
        assert np.array_equal(prof.nearest(grid), _argmin_nearest(gt, grid))
        for v in z[::23]:
            expect = _argmin_nearest(gt, v)
            for arg in (float(v), np.float64(v), np.array(v)):
                got = prof.nearest(arg)
                assert np.ndim(got) == 0 and isinstance(got, np.integer)
                assert got == expect
            assert prof.nearest(np.array([v])).tolist() == [expect]


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
    # an infinite bound, or a width that overflows, would fail only when
    # sampled from or integrated over
    for psi_min, psi_max in ((0.0, math.inf), (-math.inf, 10.0), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="finite width"):
            AuthProfile(ground_truth=np.array([1.0]), sigma=1.0, epsilon=1.0,
                        psi_min=psi_min, psi_max=psi_max)


def test_profile_fingerprints_are_a_read_only_copy():
    gt = np.array([10.0, 20.0])
    prof = AuthProfile(ground_truth=gt, sigma=1.0, epsilon=1.0)
    gt[0] = 30.0
    assert prof.nearest(29.0) == 1
    with pytest.raises(ValueError):
        prof.ground_truth[0] = 30.0


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


def test_roc_holds_one_row_of_fingerprints():
    # the 49 shipped false-alarm targets at m = 1e5: one threshold at a
    # time holds a few m-sized rows, not a (targets x m) array (598 MiB)
    gt, _ = sample_fingerprints(100_000, 0, DiskRegion(500.0), 3.0,
                                np.random.default_rng(PROFILE_SEED))
    prof = AuthProfile(ground_truth=gt, sigma=lq_db_to_sigma(10.0), epsilon=1.0)
    grid = [0.02 * k for k in range(1, 50)]
    tracemalloc.start()
    try:
        pts = roc_curve(prof, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pts) == 49
    assert peak < 32 * 2**20


def test_roc_grid_validation():
    prof = shipped_profile(10.0)
    with pytest.raises(ValueError):
        roc_curve(prof, [])
    with pytest.raises(ValueError):
        roc_curve(prof, [0.0, 0.5])
    with pytest.raises(ValueError):
        roc_curve(prof, [0.5, 0.2])


# ------------------------------------- closed forms vs scalar-loop references


def _ref_clip(value):
    return min(1.0, max(0.0, value))


def _ref_p_md(prof, eve):
    total = 0.0
    for psi in eve:
        s = 0.0
        for g in prof.ground_truth:
            d = g - psi
            s += (q_function((d - prof.epsilon) / prof.sigma)
                  - q_function((d + prof.epsilon) / prof.sigma))
        total += s / len(eve)
    return _ref_clip(total / prof.m)


def _ref_window_mass(prof, eps):
    def anti(u):
        return u * q_function(u) - math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)

    lo, hi, sigma = prof.psi_min, prof.psi_max, prof.sigma
    total = 0.0
    for g in prof.ground_truth:
        total += sigma * (anti((g - eps - lo) / sigma) - anti((g - eps - hi) / sigma)
                          - anti((g + eps - lo) / sigma) + anti((g + eps - hi) / sigma))
    return total


def _ref_p_mc(prof):
    srt = sorted(prof.ground_truth)
    bounds = [prof.psi_min] + [0.5 * (a + b) for a, b in zip(srt, srt[1:])] + [prof.psi_max]
    total = 0.0
    for g, lo, hi in zip(srt, bounds, bounds[1:]):
        inside = q_function((lo - g) / prof.sigma) - q_function((hi - g) / prof.sigma)
        total += (1.0 - inside) / prof.m
    return _ref_clip(total)


def _closed_form_cases():
    gt5, eve5 = shipped_realization()
    gt1000, eve1000 = sample_fingerprints(1000, 20, DiskRegion(500.0), 3.0,
                                          np.random.default_rng(PROFILE_SEED))
    # thresholds small enough at m = 1000 that the summed windows stay
    # inside the support and p_md_expected is not clipped
    for gt, eve, epsilons in ((gt5, eve5, (1.0, 5.0)), (gt1000, eve1000, (0.005, 0.03))):
        for lq in (0.0, 10.0, 30.0):
            for eps in epsilons:
                prof = AuthProfile(ground_truth=gt, sigma=lq_db_to_sigma(lq), epsilon=eps)
                yield prof, eve


CLOSED_FORM_CASES = list(_closed_form_cases())


@pytest.mark.parametrize("prof, eve", CLOSED_FORM_CASES,
                         ids=[f"m{p.m}-sigma{p.sigma:.3g}-eps{p.epsilon:.3g}"
                              for p, _ in CLOSED_FORM_CASES])
def test_array_closed_forms_match_scalar_loops(prof, eve):
    assert p_md_closed_form(prof, eve) == pytest.approx(_ref_p_md(prof, eve), rel=1e-13)
    assert p_mc_closed_form(prof) == pytest.approx(_ref_p_mc(prof), rel=1e-13)
    assert p_md_expected(prof) == pytest.approx(
        _ref_clip(_ref_window_mass(prof, prof.epsilon) / prof.delta), rel=1e-13)


@pytest.mark.parametrize("m", [5, 1000])
def test_roc_matches_scalar_loop(m):
    gt, _ = sample_fingerprints(m, 0, DiskRegion(500.0), 3.0, np.random.default_rng(PROFILE_SEED))
    grid = [0.02, 0.1, 0.3, 0.7, 0.98]
    for lq in (0.0, 10.0, 30.0):
        prof = AuthProfile(ground_truth=gt, sigma=lq_db_to_sigma(lq), epsilon=1.0)
        pts = roc_curve(prof, grid)
        assert [p for p, _, _ in pts] == grid
        for target, (_, eps, p_d) in zip(grid, pts):
            assert eps == threshold_for_pfa(target, prof.sigma)
            miss = _ref_clip(_ref_window_mass(prof, eps) / (prof.m * prof.delta))
            assert p_d == pytest.approx(1.0 - miss, rel=1e-13)


def _dense_p_md(prof, eve):
    # every (intruder, fingerprint) window term in one array, each row
    # summed in index order
    psi = np.asarray(eve, dtype=float)
    d = prof.ground_truth - psi[:, None]
    q = q_function(np.stack((d - prof.epsilon, d + prof.epsilon)) / prof.sigma)
    total = np.full(psi.size, 1.0 / psi.size) @ (q[0] - q[1]).sum(axis=-1)
    return _ref_clip(total / prof.m)


def _window_cases():
    gt5, eve5 = shipped_realization()
    gt1000, eve1000 = sample_fingerprints(1000, 20, DiskRegion(500.0), 3.0,
                                          np.random.default_rng(PROFILE_SEED))
    # intruders below psi_min and above psi_max, and repeated fingerprints
    outside = [-40.0, -0.5, DEFAULT_PSI_MAX + 0.5, 200.0]
    yield "m1", gt5[:1], np.concatenate((eve5, outside)), (0.0, 1.0)
    yield "m5", gt5, np.concatenate((eve5, outside)), (0.0, 1.0, 6.0)
    yield "m5-repeated", np.concatenate((gt5[:3], gt5[:2])), np.concatenate((eve5, gt5)), (0.0, 1.0)
    yield "m1000", gt1000, np.concatenate((eve1000, outside)), (0.0, 0.03, 1.0)
    yield "m1000-repeated", np.round(gt1000, 1), np.concatenate((eve1000, gt1000[:5])), (0.0, 1.0)


WINDOW_CASES = list(_window_cases())


@pytest.mark.parametrize("gt, eve, epsilons", [c[1:] for c in WINDOW_CASES],
                         ids=[c[0] for c in WINDOW_CASES])
def test_missed_detection_is_bitwise_the_dense_window_sum(gt, eve, epsilons):
    # the window sum evaluates Q only between the saturation cuts; the
    # terms it skips are exact zeros, so the sum keeps every bit
    for lq in range(-10, 41, 2):
        for eps in epsilons:
            prof = AuthProfile(ground_truth=gt, sigma=lq_db_to_sigma(lq), epsilon=eps)
            assert p_md_closed_form(prof, eve).hex() == _dense_p_md(prof, eve).hex(), (lq, eps)


def test_missed_detection_keeps_every_term_next_to_the_cuts():
    # fingerprints a few ulp either side of both cuts and of both
    # saturation points, with sigma down to a hundredth of the intruder's
    # ulp: the rounding of d and of the cut bounds must not drop a term
    # that is not an exact zero
    sums = []
    for psi in (0.3, 77.7, 1e6):
        ulp = np.spacing(psi)
        for sigma in (0.01 * ulp, 0.3 * ulp, 3.0 * ulp, 1e4 * ulp):
            for eps in (0.0, 17.0 * ulp, 1e-3):
                edges = [psi + eps + x * sigma for x in (auth._Q_ZERO, 37.6)]
                edges += [psi - eps + x * sigma for x in (auth._Q_ONE, -8.2)]
                gt = np.concatenate([e + np.spacing(e) * np.arange(-60.0, 61.0) for e in edges])
                prof = AuthProfile(ground_truth=gt, sigma=sigma, epsilon=eps)
                got, dense = p_md_closed_form(prof, [psi]), _dense_p_md(prof, [psi])
                assert got.hex() == dense.hex(), (psi, sigma, eps)
                sums.append(got)
    # where sigma is far below the ulp, rounding leaves no term between
    # the saturation points; elsewhere the sums hold the terms next to them
    assert sum(v > 0.0 for v in sums) >= 24


def test_q_function_saturates_at_the_window_cuts():
    # the window sum takes every term past these cuts as an exact zero; a
    # scipy whose erfc rounds differently there fails here, not silently
    # in the sums
    assert q_function(auth._Q_ONE) == 1.0
    assert q_function(auth._Q_ZERO) == 0.0
    assert np.all(q_function(np.linspace(-60.0, auth._Q_ONE, 10001)) == 1.0)
    assert np.all(q_function(np.linspace(auth._Q_ZERO, 1e4, 10001)) == 0.0)


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


def test_acceptance_is_the_deviation_below_the_threshold():
    prof = AuthProfile(ground_truth=np.array([10.0, 20.0]), sigma=1.0, epsilon=1.5)
    z, index = np.array([9.0, 21.5, 18.0, 10.0]), np.array([0, 1, 1, 0])
    dev = prof.deviation(z, index)
    assert dev.tolist() == [1.0, 1.5, 2.0, 0.0]
    assert count_accepted(dev, prof.epsilon) == np.count_nonzero(dev < 1.5)
    assert [count_accepted(d, prof.epsilon) for d in dev] == [1, 0, 0, 1]
