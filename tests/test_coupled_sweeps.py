"""The coupled sweeps: every scenario draws one Monte Carlo sample for
the whole sweep, seeded by point 0, and evaluates it at every threshold,
noise level or jamming band (common random numbers).

Each trial's outcome is then monotone in the swept variable where the
closed form is, so those simulated columns are monotone by
construction.  Each threshold or noise point is bitwise the one-point
engine call at its threshold or noise level with the shared seed, and
each band point the engine's call on that band and the sweep's hull.
"""

import pathlib
from dataclasses import replace

import numpy as np
import pytest

from raftguard import cli, montecarlo
from raftguard.auth import AuthProfile, lq_db_to_sigma, threshold_for_pfa
from raftguard.montecarlo import CHUNK_SIZE, TrialConfig, estimate_coverage, simulate_auth

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
COUPLED = ["auth_errors_vs_lq", "coverage_vs_beta", "coverage_vs_beta__dense_jammers",
           "coverage_vs_jam_area", "roc"]
# the engine calls of one sweep: one per coverage sweep, one per
# population (enrolled, intruders) for the auth sweeps
ENGINE_CALLS = {"auth_errors_vs_lq": ("simulate_auth", 2), "roc": ("simulate_auth", 1)}


def shipped(name, n_trials):
    return cli.load_config(str(CONFIGS / f"{name}.json"), {"n_trials": n_trials})


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_evaluate_makes_one_engine_call_per_sweep(name, monkeypatch):
    config = shipped(name, 200)
    engine, want = ENGINE_CALLS.get(config.scenario, ("estimate_coverage", 1))
    calls = []

    def counted(*args, **kwargs):
        calls.append(engine)
        return getattr(montecarlo, engine)(*args, **kwargs)

    monkeypatch.setattr(cli, engine, counted)
    assert len(cli.evaluate(config)) == config.sweep.count()
    assert len(calls) == want


@pytest.mark.parametrize("n_trials", [2000, 100_000])
@pytest.mark.parametrize("name", COUPLED)
def test_coupled_columns_are_monotone(name, n_trials):
    config = shipped(name, n_trials)
    rows = cli.evaluate(config)
    assert len(rows) == config.sweep.count()
    if config.scenario == "roc":
        # 48 steps up the false-alarm budget: detection never falls
        p_d = [r["p_d_mc"] for r in rows]
        assert len(p_d) == 49
        assert all(b >= a for a, b in zip(p_d, p_d[1:])), p_d
    elif config.scenario == "auth_errors_vs_lq":
        # 15 steps up the link quality: each measurement moves toward its
        # own fingerprint, so a trial matched to it stays matched
        p_mc = [r["p_mc_mc"] for r in rows]
        assert len(p_mc) == 16
        assert all(b <= a for a, b in zip(p_mc, p_mc[1:])), p_mc
    else:
        # 15 steps up the SIR threshold, or out to a wider band around
        # the same inner radius, each band's run of the field extending
        # the last: no coverage column rises
        assert len(rows) == 16
        for col in ("p_dl_mc", "p_ul_mc", "p_joint_mc"):
            p = [r[col] for r in rows]
            assert all(b <= a for a, b in zip(p, p[1:])), (col, p)


@pytest.mark.parametrize("name", COUPLED)
def test_each_coupled_point_is_the_one_threshold_call(name):
    # several chunks and a partial one, at the sweep's shared seed
    config = shipped(name, 3 * CHUNK_SIZE + 17)
    seed = cli._derive_seed(config.master_seed, 0)
    rows = cli.evaluate(config)
    for value, row in zip(config.sweep.values(), rows):
        if config.scenario == "auth_errors_vs_lq":
            profile, eve = cli._profile(config, config.auth.n_eves, lq_db_to_sigma(value),
                                        config.auth.epsilon_db)
            legit = simulate_auth(profile, "legit", config.n_trials,
                                  cli._derive_seed(config.master_seed, 0, 0))
            intruder = simulate_auth(profile, "eve", config.n_trials,
                                     cli._derive_seed(config.master_seed, 0, 1),
                                     eve_pathlosses=eve)
            want = {"p_fa_mc": legit.p_fa, "p_mc_mc": legit.p_mc,
                    "p_md_mc": intruder.p_md_claimed}
        elif config.scenario == "roc":
            sigma = lq_db_to_sigma(config.auth.lq_db)
            profile, _ = cli._profile(config, 0, sigma, threshold_for_pfa(value, sigma))
            one = simulate_auth(profile, "eve", config.n_trials, seed)
            want = {"p_d_mc": 1.0 - one.p_md_claimed}
        elif config.scenario == "coverage_vs_jam_area":
            # the one-band call on the sweep's hull [0, 300] m
            bands = [(0.0, 300.0), cli._jam_area_band(config.params, value)]
            one = estimate_coverage(TrialConfig(config.params, config.n_trials, seed),
                                    bands=bands)[1]
        else:
            point = replace(config.params, beta_dl_db=value, beta_ul_db=value)
            one = estimate_coverage(TrialConfig(point, config.n_trials, seed))
        if cli.columns_for(config.scenario) == cli.COVERAGE_COLUMNS:
            want = {"p_dl_mc": one.p_dl, "p_ul_mc": one.p_ul, "p_joint_mc": one.p_joint,
                    "ci_halfwidth": max(one.ci_dl, one.ci_ul, one.ci_joint)}
        assert {k: row[k].hex() for k in want} == {k: v.hex() for k, v in want.items()}, value


def hexed(outcome):
    return {k: v.hex() for k, v in vars(outcome).items() if isinstance(v, float)}


@pytest.mark.parametrize("scenario, eves", [("legit", None), ("eve", [50.0, 61.0, 75.0]),
                                            ("eve", None)], ids=["legit", "eve-fixed", "eve-uniform"])
def test_noise_sweep_is_the_one_sigma_run_at_each_sigma(scenario, eves):
    prof = AuthProfile(ground_truth=np.array([43.3, 57.6, 62.6, 62.9, 70.1]), sigma=0.3,
                       epsilon=1.0)
    sigmas = [3.0, prof.sigma, 1e-3, 0.7, prof.sigma]
    n = 3 * CHUNK_SIZE + 17
    sweep = simulate_auth(prof, scenario, n, 21, eve_pathlosses=eves, sigma=sigmas)
    assert len(sweep) == len(sigmas)
    for sigma, got in zip(sigmas, sweep):
        one = simulate_auth(replace(prof, sigma=sigma), scenario, n, 21, eve_pathlosses=eves)
        assert hexed(got) == hexed(one), sigma


@pytest.mark.parametrize("sigma, epsilon", [
    ([], None), ([[0.5]], None), ([0.5, float("nan")], None), ([float("inf")], None),
    ([0.0], None), ([0.5, -1.0], None), ([0.5, 1.0], [1.0, 2.0]), ([0.5], [1.0]), (0.5, None),
], ids=["empty", "2-D", "nan", "inf", "zero", "negative", "both-swept", "both-given", "scalar"])
def test_noise_sweep_rejects_bad_sigma(sigma, epsilon):
    prof = AuthProfile(ground_truth=np.array([43.3, 57.6]), sigma=0.3, epsilon=1.0)
    with pytest.raises(ValueError):
        simulate_auth(prof, "legit", 100, 0, sigma=sigma, epsilon=epsilon)
