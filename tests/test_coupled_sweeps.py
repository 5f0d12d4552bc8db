"""The coupled sweeps: ``roc`` and both ``coverage_vs_beta`` configs draw
one Monte Carlo sample for the whole sweep, seeded by point 0, and
evaluate it at every threshold (common random numbers).

Each trial's outcome is then monotone in the threshold, so the
simulated columns are monotone by construction, as their closed forms
are; and each point is bitwise the one-threshold engine call at its
threshold with the shared seed.
"""

import pathlib
from dataclasses import replace

import pytest

from raftguard import cli
from raftguard.auth import lq_db_to_sigma, threshold_for_pfa
from raftguard.montecarlo import CHUNK_SIZE, TrialConfig, estimate_coverage, simulate_auth

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
COUPLED = ["coverage_vs_beta", "coverage_vs_beta__dense_jammers", "roc"]


@pytest.fixture(autouse=True)
def serial_workers(monkeypatch):
    monkeypatch.setenv("RAFTGUARD_WORKERS", "1")


def shipped(name, n_trials):
    return cli.load_config(str(CONFIGS / f"{name}.json"), {"n_trials": n_trials})


def test_the_coupled_scenarios_are_the_threshold_sweeps():
    coupled = {name for name in COUPLED if cli.SCENARIOS[shipped(name, 1).scenario].coupled}
    assert coupled == set(COUPLED)
    assert [s for s, spec in cli.SCENARIOS.items() if spec.coupled] == ["coverage_vs_beta", "roc"]


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
    else:
        # 15 steps up the SIR threshold: no coverage column rises
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
        if config.scenario == "roc":
            sigma = lq_db_to_sigma(config.auth.lq_db)
            profile, _ = cli._profile(config, 0, sigma, threshold_for_pfa(value, sigma))
            one = simulate_auth(profile, "eve", config.n_trials, seed)
            want = {"p_d_mc": 1.0 - one.p_md_claimed}
        else:
            point = replace(config.params, beta_dl_db=value, beta_ul_db=value)
            one = estimate_coverage(TrialConfig(point, config.n_trials, seed))
            want = {"p_dl_mc": one.p_dl, "p_ul_mc": one.p_ul, "p_joint_mc": one.p_joint,
                    "ci_halfwidth": max(one.ci_dl, one.ci_ul, one.ci_joint)}
        assert {k: row[k].hex() for k in want} == {k: v.hex() for k, v in want.items()}, value
