"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test here is an end-to-end contract check and prints as a single
pass/fail line under ``pytest -v``.  Numbering fixes the order; the
names say what is guaranteed.  Gate 4 is expected to fail and is marked
strict-xfail: under this model's distance convention (jammer distances
measured from the receiving end of each link, leader at the origin)
pushing the jamming annulus outward helps BOTH directions, so the joint
coverage climbs monotonically instead of rising then falling.  The
assertions are kept faithful to the stated property rather than
weakened to match the implementation; see the test docstring.

Monte Carlo comparisons use frozen master seeds so the suite is
deterministic: a pass is a pass forever, and any future regression that
moves a rate by more than the pinned tolerance is a real change in
behaviour, not sampling noise.  Standard errors for rate comparisons
are computed from the closed-form rate (binomial null), which stays
meaningful when the empirical count is zero.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from raftguard import cli
from raftguard.auth import (
    DEFAULT_PSI_MAX,
    DEFAULT_PSI_MIN,
    AuthProfile,
    lq_db_to_sigma,
    p_fa_closed_form,
    p_md_closed_form,
    p_md_expected,
    p_mc_closed_form,
    roc_curve,
    sample_fingerprints,
    threshold_for_pfa,
)
from raftguard.channel import NetworkParams, db_to_linear
from raftguard.coverage import (
    ORACLE_GRID,
    ORACLE_GRID_GAMMA,
    ORACLE_GRID_RHO_J,
    coverage_joint,
    laplace_interference,
)
from raftguard.geometry import AnnulusRegion, DiskRegion
from raftguard.montecarlo import TrialConfig, estimate_coverage, simulate_auth

# Shipped default fingerprint realization: the same profile_seed the
# bundled auth/roc configs carry.  Five followers, five intruders, on
# the default 500 m disk with alpha = 3.
SHIPPED_PROFILE_SEED = 28294

LQ_GRID_DB = (0.0, 5.0, 10.0, 15.0, 20.0)


def shipped_realization():
    rng = np.random.default_rng(SHIPPED_PROFILE_SEED)
    return sample_fingerprints(5, 5, DiskRegion(500.0), 3.0, rng)


def shipped_profile(lq_db, pfa_target=0.05):
    gt, _ = shipped_realization()
    sigma = lq_db_to_sigma(lq_db)
    return AuthProfile(
        ground_truth=gt,
        sigma=sigma,
        epsilon=threshold_for_pfa(pfa_target, sigma),
        psi_min=DEFAULT_PSI_MIN,
        psi_max=DEFAULT_PSI_MAX,
    )


def table_params(beta_db, rho_j_multiple=1.0):
    """Default network with both link thresholds set to beta_db and the
    jammer intensity scaled relative to the transmitter intensity."""
    base = NetworkParams()
    return replace(
        base,
        beta_dl_db=float(beta_db),
        beta_ul_db=float(beta_db),
        rho_j=rho_j_multiple * base.rho_t,
    )


# --------------------------------------------------------------------
# Gate 1: the hypergeometric closed form and the adaptive-quadrature
# oracle are the same function on the published 180-point grid.
# --------------------------------------------------------------------

def test_gate_01_laplace_closed_form_matches_quadrature_oracle():
    worst = 0.0
    for alpha, beta_db, annulus, r in ORACLE_GRID:
        beta = db_to_linear(beta_db)
        closed = laplace_interference(
            r, beta, ORACLE_GRID_GAMMA, ORACLE_GRID_RHO_J, alpha, annulus,
            method="closed_form",
        )
        quad = laplace_interference(
            r, beta, ORACLE_GRID_GAMMA, ORACLE_GRID_RHO_J, alpha, annulus,
            method="quadrature",
        )
        worst = max(worst, abs(closed - quad))
    assert len(ORACLE_GRID) == 180
    assert worst <= 1e-8, f"worst closed-vs-quadrature gap {worst:.3e}"


# --------------------------------------------------------------------
# Gate 2: closed-form coverage tracks 1e5-trial Monte Carlo to within
# 0.02 absolute across the default-network threshold sweep at both
# jammer intensities.
# --------------------------------------------------------------------

def test_gate_02_coverage_closed_forms_track_monte_carlo():
    worst = 0.0
    seed = 5000
    for multiple in (1.0, 2.0):
        for beta_db in range(-30, 1, 5):
            p = table_params(beta_db, multiple)
            analytic = coverage_joint(p)
            est = estimate_coverage(
                TrialConfig(params=p, n_trials=100_000, master_seed=seed)
            )
            seed += 1
            for got, want in (
                (est.p_dl, analytic.p_dl),
                (est.p_ul, analytic.p_ul),
                (est.p_joint, analytic.p_joint),
            ):
                gap = abs(got - want)
                worst = max(worst, gap)
                assert gap <= 0.02, (
                    f"beta={beta_db} dB, rho_j={multiple}x: gap {gap:.4f}"
                )
    assert worst <= 0.02


# --------------------------------------------------------------------
# Gate 3: joint coverage strictly falls as the SIR threshold rises,
# and doubling the jammer intensity lowers it pointwise.
# --------------------------------------------------------------------

def test_gate_03_joint_coverage_falls_with_threshold_and_jammer_density():
    betas = range(-30, 1, 5)
    single = [coverage_joint(table_params(b, 1.0)).p_joint for b in betas]
    double = [coverage_joint(table_params(b, 2.0)).p_joint for b in betas]
    for prev, nxt in zip(single, single[1:]):
        assert nxt < prev
    for prev, nxt in zip(double, double[1:]):
        assert nxt < prev
    for lo, hi in zip(double, single):
        assert lo < hi


# --------------------------------------------------------------------
# Gate 4: sweeping a 50 m wide jamming band outward is claimed to first
# raise and then lower the joint coverage (uplink helped, downlink
# eventually hurt).  Under this model the claim does not hold: jammer
# distances are measured from each link's receiver, and the leader sits
# at the origin for both directions, so a more distant band weakens the
# interference on BOTH links and the joint curve climbs monotonically
# (zero sign changes in its finite differences, not exactly one).  The
# uplink half of the claim is true; the downlink half is not.  Marked
# strict-xfail rather than weakened.
# --------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason=(
        "with jammer distances taken from the receiver and the leader at "
        "the origin, moving the band outward helps both directions; the "
        "joint curve is monotone increasing, never rise-then-fall"
    ),
)
def test_gate_04_joint_coverage_rises_then_falls_with_jamming_distance():
    base = NetworkParams()
    z1_grid = list(range(0, 301, 20))
    p_dl, p_ul, p_joint = [], [], []
    for z1 in z1_grid:
        p = replace(base, annulus=AnnulusRegion(float(z1), float(z1 + 50)))
        res = coverage_joint(p)
        p_dl.append(res.p_dl)
        p_ul.append(res.p_ul)
        p_joint.append(res.p_joint)

    # uplink coverage never decreases as the band moves out
    for prev, nxt in zip(p_ul, p_ul[1:]):
        assert nxt >= prev - 1e-12

    # downlink coverage non-increasing once z1 >= 100 m
    tail = [v for z1, v in zip(z1_grid, p_dl) if z1 >= 100]
    for prev, nxt in zip(tail, tail[1:]):
        assert nxt <= prev + 1e-12

    # joint coverage rises then falls: exactly one sign change in the
    # finite differences at 20 m resolution
    diffs = [b - a for a, b in zip(p_joint, p_joint[1:])]
    signs = [math.copysign(1.0, d) for d in diffs if abs(d) > 1e-15]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert changes == 1
    assert signs[0] > 0 and signs[-1] < 0


# --------------------------------------------------------------------
# Gate 5: the empirical false-alarm rate of the threshold test obeys
# the exact law 2Q(eps/sigma), within 3 binomial standard errors at
# 1e5 trials, for thresholds calibrated to each target rate.
# --------------------------------------------------------------------

def test_gate_05_false_alarm_rate_follows_exact_law():
    gt, _ = shipped_realization()
    sigma = lq_db_to_sigma(10.0)
    for target in (0.01, 0.05, 0.1, 0.3):
        eps = threshold_for_pfa(target, sigma)
        law = p_fa_closed_form(eps, sigma)
        assert law == pytest.approx(target, abs=1e-12)
        profile = AuthProfile(
            ground_truth=gt, sigma=sigma, epsilon=eps,
            psi_min=DEFAULT_PSI_MIN, psi_max=DEFAULT_PSI_MAX,
        )
        sim = simulate_auth(profile, "legit", 100_000, master_seed=4321)
        se = math.sqrt(law * (1.0 - law) / 100_000)
        assert abs(sim.p_fa - law) <= 3.0 * se, (
            f"target {target}: empirical {sim.p_fa:.5f} vs law {law:.5f}"
        )


# --------------------------------------------------------------------
# Gate 6: the three detection-error closed forms each track their
# Monte Carlo estimator within 3 standard errors on the shipped
# five-follower/five-intruder realization across link qualities.
# --------------------------------------------------------------------

def test_gate_06_detection_error_closed_forms_track_simulation():
    _, eves = shipped_realization()
    n = 200_000
    for lq in LQ_GRID_DB:
        profile = shipped_profile(lq)
        lq_key = int(lq)
        checks = (
            # fixed intruders claiming a uniformly chosen identity
            (p_md_closed_form(profile, eves),
             simulate_auth(profile, "eve", n, 1000 + lq_key,
                           eve_pathlosses=eves).p_md_claimed),
            # intruder fingerprint uniform over the support, matched by
            # nearest enrolled fingerprint
            (p_md_expected(profile),
             simulate_auth(profile, "eve", n, 2000 + lq_key).p_md),
            # enrolled transmitters mis-mapped to a wrong identity
            (p_mc_closed_form(profile),
             simulate_auth(profile, "legit", n, 3000 + lq_key).p_mc),
        )
        for closed, simulated in checks:
            se = math.sqrt(closed * (1.0 - closed) / n)
            if se == 0.0:
                assert simulated == closed
            else:
                z = abs(simulated - closed) / se
                assert z <= 3.0, (
                    f"LQ={lq}: closed {closed:.6f}, sim {simulated:.6f}, z={z:.2f}"
                )


# --------------------------------------------------------------------
# Gate 7: on the shipped realization at 10 dB link quality the detector
# reaches at least 95% detection at a 0.1 false-alarm budget, and (the
# seed-independent form) detection at fixed false alarm never degrades
# as link quality improves.
# --------------------------------------------------------------------

def test_gate_07_headline_detection_rate_at_10db_link_quality():
    profile = shipped_profile(10.0)
    ((p_fa, _, p_d),) = roc_curve(profile, [0.1])
    assert p_fa == 0.1
    assert p_d >= 0.95, f"shipped realization reaches only {p_d:.4f}"

    # invariant across realizations: monotone in link quality
    for seed in range(6):
        rng = np.random.default_rng(seed)
        gt, _ = sample_fingerprints(5, 5, DiskRegion(500.0), 3.0, rng)
        previous = -1.0
        for lq in LQ_GRID_DB:
            sigma = lq_db_to_sigma(lq)
            prof = AuthProfile(
                ground_truth=gt, sigma=sigma,
                epsilon=threshold_for_pfa(0.1, sigma),
                psi_min=DEFAULT_PSI_MIN, psi_max=DEFAULT_PSI_MAX,
            )
            p_d = roc_curve(prof, [0.1])[0][2]
            assert p_d >= previous - 1e-12, (
                f"seed {seed}: detection fell from {previous:.6f} to "
                f"{p_d:.6f} at LQ={lq}"
            )
            previous = p_d


# --------------------------------------------------------------------
# Gate 8: degenerate limits come out exact.  No jammers means certain
# coverage; a zero acceptance window rejects everything; vanishing
# measurement noise makes false alarm and misclassification impossible
# at any finite trial count.
# --------------------------------------------------------------------

def test_gate_08_degenerate_limits_are_exact():
    # no jammers -> coverage 1 within 1e-8 analytically, exactly 1 in MC
    p = replace(NetworkParams(), rho_j=0.0)
    res = coverage_joint(p)
    assert abs(res.p_dl - 1.0) <= 1e-8
    assert abs(res.p_ul - 1.0) <= 1e-8
    assert abs(res.p_joint - 1.0) <= 1e-8
    est = estimate_coverage(TrialConfig(params=p, n_trials=20_000, master_seed=8))
    assert est.p_dl == 1.0 and est.p_ul == 1.0 and est.p_joint == 1.0

    # zero threshold -> every legitimate node rejected, every intruder too
    gt, eves = shipped_realization()
    sigma = lq_db_to_sigma(10.0)
    zero_eps = AuthProfile(
        ground_truth=gt, sigma=sigma, epsilon=0.0,
        psi_min=DEFAULT_PSI_MIN, psi_max=DEFAULT_PSI_MAX,
    )
    assert p_fa_closed_form(0.0, sigma) == 1.0
    assert p_md_closed_form(zero_eps, eves) == 0.0
    assert p_md_expected(zero_eps) == 0.0
    legit = simulate_auth(zero_eps, "legit", 5_000, master_seed=88)
    assert legit.p_fa == 1.0
    eve = simulate_auth(zero_eps, "eve", 5_000, master_seed=89, eve_pathlosses=eves)
    assert eve.p_md == 0.0 and eve.p_md_claimed == 0.0

    # vanishing noise -> empirical false alarm and misclassification are
    # zero at any finite trial count (window 0.5 dB, fingerprints well
    # separated)
    sharp = AuthProfile(
        ground_truth=gt, sigma=1e-15, epsilon=0.5,
        psi_min=DEFAULT_PSI_MIN, psi_max=DEFAULT_PSI_MAX,
    )
    run = simulate_auth(sharp, "legit", 2_000, master_seed=90)
    assert run.p_fa == 0.0
    assert run.p_mc == 0.0


# --------------------------------------------------------------------
# Gate 9: rerunning any experiment with the same config and seed writes
# byte-identical output, including under parallel execution.
# --------------------------------------------------------------------

def _run_cli(tmp_path, monkeypatch, name, config, workers):
    import json

    cfg = tmp_path / f"{name}.json"
    out = tmp_path / f"{name}_{workers}.csv"
    body = dict(config)
    body["output"] = {"path": str(out), "format": "csv"}
    cfg.write_text(json.dumps(body), encoding="utf-8")
    monkeypatch.setenv("RAFTGUARD_WORKERS", str(workers))
    assert cli.main(["--config", str(cfg)]) == 0
    return out.read_bytes()


def test_gate_09_reruns_are_byte_identical_including_parallel(tmp_path, monkeypatch):
    rho = 15.0 / (math.pi * 500.0**2)
    scenarios = {
        "cov": {
            "scenario": "coverage_vs_beta",
            "sweep": {"variable": "beta_db", "start": -30.0, "stop": -15.0, "step": 5.0},
            "params": {"rho_t": rho, "rho_j": rho},
            "n_trials": 2000,
            "master_seed": 11,
        },
        "auth": {
            "scenario": "auth_errors_vs_lq",
            "sweep": {"variable": "lq_db", "start": 0.0, "stop": 20.0, "step": 10.0},
            "params": {"rho_t": rho, "rho_j": rho},
            "auth": {"m": 5, "n_eves": 5, "profile_seed": SHIPPED_PROFILE_SEED},
            "n_trials": 2000,
            "master_seed": 12,
        },
        "roc": {
            "scenario": "roc",
            "sweep": {"variable": "p_fa", "start": 0.05, "stop": 0.15, "step": 0.05},
            "params": {"rho_t": rho, "rho_j": rho},
            "auth": {"m": 5, "n_eves": 5, "profile_seed": SHIPPED_PROFILE_SEED},
            "n_trials": 2000,
            "master_seed": 13,
        },
    }
    for name, config in scenarios.items():
        serial_a = _run_cli(tmp_path, monkeypatch, f"{name}_a", config, workers=1)
        serial_b = _run_cli(tmp_path, monkeypatch, f"{name}_b", config, workers=1)
        parallel = _run_cli(tmp_path, monkeypatch, f"{name}_p", config, workers=2)
        assert serial_a == serial_b, f"{name}: serial rerun differed"
        assert serial_a == parallel, f"{name}: parallel output differed"
        assert serial_a.endswith(b"\n")
