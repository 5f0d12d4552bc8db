import itertools
import math
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import chndtr
from scipy.stats import norm, poisson

from raftguard import montecarlo
from raftguard.auth import (
    AuthProfile, count_accepted, lq_db_to_sigma, sample_fingerprints, threshold_for_pfa,
)
from raftguard.channel import NetworkParams, rayleigh_coverage_blocks
from raftguard.coverage import coverage_joint
from raftguard.geometry import AnnulusRegion, DiskRegion, annulus_radii, link_distances
from raftguard.montecarlo import (
    CHUNK_SIZE,
    ConsensusOutcome,
    CoverageEstimate,
    IntruderOutcome,
    LegitOutcome,
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


def one_block(link, jammers, owner, beta_gamma, alpha):
    """The coverage kernel's rows at one block of thresholds."""
    return next(rayleigh_coverage_blocks(link, jammers, owner, (beta_gamma,), alpha))


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


def test_chunks_are_not_listed_up_front():
    # a trial count past sys.maxsize chunks still yields its first chunk
    size, _ = next(montecarlo._chunks(10**30, 0))
    assert size == CHUNK_SIZE


# ------------------------------------------------- consensus thread pool


@pytest.fixture(autouse=True)
def default_workers(monkeypatch):
    # the thread-pool tests below assume the default rule unless they set
    # RAFTGUARD_WORKERS themselves
    monkeypatch.delenv("RAFTGUARD_WORKERS", raising=False)


@pytest.mark.parametrize("n_trials", [3 * CHUNK_SIZE + 17, 100],
                         ids=["chunks-past-threads", "one-chunk"])
def test_consensus_records_do_not_depend_on_the_thread_count(monkeypatch, n_trials):
    cfg = TrialConfig(params(rho_j=4.0 * NetworkParams().rho_j), n_trials, 3)
    records = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_threads", lambda: threads)
        records.append(simulate_consensus(cfg))
    one, two, three = records
    for field in ("p_consensus", "ci_halfwidth", "mean_followers", "mean_successes"):
        assert getattr(one, field) == getattr(two, field) == getattr(three, field), field


def look_ahead(monkeypatch, config):
    """The record of ``simulate_consensus(config)`` and the largest number
    of chunks drawn but not yet reduced."""
    drawn, consumed, ahead = [0], [0], []
    chunks, add = montecarlo._chunks, montecarlo._TrialMean.add

    def counting(n_trials, master_seed):
        for chunk in chunks(n_trials, master_seed):
            drawn[0] += 1
            yield chunk

    def consuming(self, values):
        ahead.append(drawn[0] - consumed[0])
        consumed[0] += 1
        add(self, values)

    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_chunks", counting)
        patch.setattr(montecarlo._TrialMean, "add", consuming)
        record = simulate_consensus(config)
    assert drawn[0] == consumed[0] == -(-config.n_trials // CHUNK_SIZE)
    return record, max(ahead)


def test_consensus_draws_at_most_two_chunks_per_thread_ahead(monkeypatch):
    threads, n_chunks = 2, 10
    monkeypatch.setattr(montecarlo, "_threads", lambda: threads)
    _, ahead = look_ahead(monkeypatch, TrialConfig(params(), n_chunks * CHUNK_SIZE, 4))
    # the look-ahead is used, and never exceeded
    assert ahead == 2 * threads


def test_consensus_threads_follow_the_worker_variable(monkeypatch):
    # RAFTGUARD_WORKERS=1 caps the pool at one thread on three usable CPUs,
    # with the same record bits as three threads
    cfg = TrialConfig(params(), 10 * CHUNK_SIZE, 4)
    monkeypatch.setattr(montecarlo, "_threads", lambda: 3)
    three, ahead = look_ahead(monkeypatch, cfg)
    assert ahead == 6
    monkeypatch.setenv("RAFTGUARD_WORKERS", "1")
    one, ahead = look_ahead(monkeypatch, cfg)
    assert ahead == 2
    assert [float.hex(x) for x in (one.p_consensus, one.ci_halfwidth, one.mean_successes)] == [
        float.hex(x) for x in (three.p_consensus, three.ci_halfwidth, three.mean_successes)]


def test_worker_count_is_clamped(monkeypatch):
    # the one pool-size rule, whose CPU count is _threads
    monkeypatch.setattr(montecarlo, "_threads", lambda: 8)
    monkeypatch.setenv("RAFTGUARD_WORKERS", "100000")
    assert montecarlo._workers(16) == 8
    assert montecarlo._workers(3) == 3
    monkeypatch.setenv("RAFTGUARD_WORKERS", "0")
    assert montecarlo._workers(16) == 1
    monkeypatch.delenv("RAFTGUARD_WORKERS")
    assert montecarlo._workers(16) == 4


def test_malformed_worker_variable_stops_the_consensus_engine(monkeypatch):
    monkeypatch.setenv("RAFTGUARD_WORKERS", "two")
    with pytest.raises(ValueError, match="RAFTGUARD_WORKERS: expected an integer, got 'two'"):
        simulate_consensus(TrialConfig(params(), 100, 1))


def test_a_failing_chunk_raises_in_the_caller_and_leaves_no_thread(monkeypatch):
    # the suite turns RuntimeWarning into an exception, here raised on a
    # pool thread by the third chunk
    threads, n_chunks = 3, 20
    calls = itertools.count(1)
    two_way = montecarlo.two_way_coverage

    def warning_on_third_call(*args):
        if next(calls) == 3:
            warnings.warn("third chunk", RuntimeWarning)
        return two_way(*args)

    monkeypatch.setattr(montecarlo, "_threads", lambda: threads)
    monkeypatch.setattr(montecarlo, "two_way_coverage", warning_on_third_call)
    before = threading.active_count()
    with pytest.raises(RuntimeWarning, match="third chunk"):
        simulate_consensus(TrialConfig(params(), n_chunks * CHUNK_SIZE, 5))
    assert threading.active_count() == before
    # the failing chunk is one of the first three, and no chunk is drawn
    # more than 2 * threads ahead of it
    assert next(calls) - 1 <= 2 + 2 * threads


def test_consensus_chunks_run_in_the_callers_numpy_error_state(monkeypatch):
    two_way = montecarlo.two_way_coverage

    def underflowing(*args):
        np.exp(np.array([-1000.0]))
        return two_way(*args)

    monkeypatch.setattr(montecarlo, "two_way_coverage", underflowing)
    with np.errstate(under="raise"), pytest.raises(FloatingPointError):
        simulate_consensus(TrialConfig(params(), 100, 1))


# ------------------------------------------------------ frozen regressions


def test_coverage_regression():
    """Estimates pinned at seed 42; any change to the draw order or the
    chunk seeding discipline shows up here."""
    res = estimate_coverage(TrialConfig(params(), 100000, 42))
    assert res.p_dl == pytest.approx(0.9949087921021167, abs=1e-14)
    assert res.p_ul == pytest.approx(0.9776732922340369, abs=1e-14)
    assert res.p_joint == pytest.approx(0.9726957542470653, abs=1e-14)
    assert res.ci_dl == pytest.approx(0.00026314061380330916, rel=1e-10)
    assert res.ci_ul == pytest.approx(0.0005474724804412978, rel=1e-10)
    assert res.ci_joint == pytest.approx(0.0007709094657247686, rel=1e-10)


def test_auth_regression():
    """Tallies pinned at fixed seeds on the shipped fingerprints at
    LQ 0 dB; any change to the identity, intruder or noise draws shows
    up here."""
    gt, eve = sample_fingerprints(5, 5, DiskRegion(500.0), 3.0, np.random.default_rng(28294))
    sigma = lq_db_to_sigma(0.0)
    prof = AuthProfile(ground_truth=gt, sigma=sigma, epsilon=threshold_for_pfa(0.1, sigma))
    n = 3 * CHUNK_SIZE + 17
    legit = simulate_auth(prof, "legit", n, 11)
    assert (legit.p_fa, legit.p_mc) == (1.0 - 11091 / n, 41 / n)
    fixed = simulate_auth(prof, "eve", n, 12, eve_pathlosses=eve)
    assert (fixed.p_md, fixed.p_md_claimed) == (7713 / n, 1555 / n)
    uniform = simulate_auth(prof, "eve", n, 13)
    assert (uniform.p_md, uniform.p_md_claimed) == (2468 / n, 459 / n)


def test_consensus_regression():
    res = simulate_consensus(TrialConfig(params(), 20000, 7))
    assert res.p_consensus == pytest.approx(0.9055775730299387, abs=1e-14)
    assert res.ci_halfwidth == pytest.approx(0.0034721773103846176, rel=1e-10)
    assert res.mean_followers == pytest.approx(15.0, abs=1e-12)
    assert res.mean_successes == pytest.approx(12.630250300076767, abs=1e-10)


# --------------------------------------------------------- cross-checks


def test_coverage_estimate_tracks_analytics():
    p = params()
    mc = estimate_coverage(TrialConfig(p, 100000, 42))
    ana = coverage_joint(p)
    assert abs(mc.p_dl - ana.p_dl) <= 3.5 * mc.ci_dl / 1.96
    assert abs(mc.p_ul - ana.p_ul) <= 3.5 * mc.ci_ul / 1.96
    assert abs(mc.p_joint - ana.p_joint) <= 0.005


@pytest.mark.parametrize("change", [
    {"alpha": 2.05},
    {"rho_j": 8.0 * NetworkParams().rho_j},
    {"beta_dl_db": 0.0, "beta_ul_db": 0.0, "annulus": AnnulusRegion(100.0, 150.0)},
], ids=["alpha_2.05", "rho_j_x8", "band_100_150_0db"])
def test_coverage_estimate_within_four_intervals_of_closed_form(change):
    p = replace(NetworkParams(), **change)
    mc = estimate_coverage(TrialConfig(p, 100000, 42))
    ana = coverage_joint(p)
    assert abs(mc.p_dl - ana.p_dl) <= 4.0 * mc.ci_dl
    assert abs(mc.p_ul - ana.p_ul) <= 4.0 * mc.ci_ul
    assert abs(mc.p_joint - ana.p_joint) <= 4.0 * mc.ci_joint


def test_coverage_without_jamming_is_certain():
    res = estimate_coverage(TrialConfig(params(rho_j=0.0), 5000, 2))
    assert res.p_dl == 1.0 and res.p_ul == 1.0 and res.p_joint == 1.0
    assert res.ci_dl == 0.0 and res.ci_ul == 0.0 and res.ci_joint == 0.0


def test_consensus_without_jamming_is_near_certain():
    # every follower is covered, so a round fails exactly when it has
    # no follower: P = 1 - exp(-lambda_t) in every trial, with no spread
    p = params(rho_j=0.0)
    res = simulate_consensus(TrialConfig(p, 20000, 3))
    assert res.p_consensus == pytest.approx(-math.expm1(-p.rho_t * p.disk.area), rel=1e-12)
    assert res.ci_halfwidth == 0.0


def test_consensus_with_no_followers_always_fails():
    # intensity so small that almost every round has no follower: a
    # round needs at least one, so P(consensus) <= 1 - exp(-lambda_t)
    p = params(rho_t=1e-12)
    res = simulate_consensus(TrialConfig(p, 2000, 4))
    lam_t = p.rho_t * p.disk.area
    assert res.p_consensus <= -math.expm1(-lam_t)
    assert res.mean_followers == lam_t


@pytest.mark.parametrize("multiple", [1.0, 2.0, 4.0, 8.0])
@pytest.mark.parametrize("beta_db", [-20.0, -10.0, 0.0])
def test_consensus_disk_rule_matches_adaptive_quadrature(multiple, beta_db):
    # A one-trial run draws its jammers as chunk 0 of the seed: a Poisson
    # total, an owning trial per jammer (all trial 0), then annulus
    # radii.  Given them, the expected covered count
    # Lambda_s = lambda_t * (mean two-way coverage over the disk) is
    # integrated here adaptively in u = (r/R)^2, and P(S > U) for the
    # Poisson counts S, U is checked against a direct sum.  The disk rule
    # must resolve Lambda_s also where a jammer near the leader confines
    # coverage to a small central disk (x8, 0 dB, seed 4: Lambda_s = 0.0169).
    base = NetworkParams()
    p = replace(base, rho_j=multiple * base.rho_j, beta_dl_db=beta_db, beta_ul_db=beta_db)
    lam_t = p.rho_t * p.disk.area
    for seed in range(12):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        owner = rng.integers(0, 1, rng.poisson(p.rho_j * p.annulus.area * 1))
        d_jam = annulus_radii(p.annulus, owner.size, rng)

        def two_way(u):
            x = (p.disk.radius ** 2 * u) ** (p.alpha / 2) * d_jam ** -p.alpha
            return float(np.prod(1.0 / (1.0 + p.beta_dl * p.gamma_dl * x))
                         * np.prod(1.0 / (1.0 + p.beta_ul * p.gamma_ul * x)))

        mean, _ = integrate.quad(two_way, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
        lam_s = lam_t * mean
        lam_u = lam_t - lam_s
        want = chndtr(2.0 * lam_s, 2.0, 2.0 * lam_u)
        u = np.arange(200)
        assert want == pytest.approx(np.sum(poisson.pmf(u, lam_u) * poisson.sf(u, lam_s)),
                                     abs=1e-13)
        got = simulate_consensus(TrialConfig(p, 1, seed))
        assert abs(got.p_consensus - want) <= 1e-5
        assert got.mean_successes == pytest.approx(lam_s, abs=2e-4)


def test_jammer_counts_per_trial_are_poisson():
    # one Poisson total per chunk split uniformly over its trials gives
    # i.i.d. Poisson(lambda_j) counts per trial, also in a short last chunk
    p = params(rho_j=2.0 * NetworkParams().rho_j)
    lam = p.rho_j * p.annulus.area
    n_trials = 7 * CHUNK_SIZE + 1234
    counts = []
    for size, rng in montecarlo._chunks(n_trials, 11):
        owner, d_jam = montecarlo._jammers(p, size, rng)
        assert d_jam.size == owner.size
        assert np.all((d_jam >= p.annulus.inner) & (d_jam < p.annulus.outer))
        counts.append(np.bincount(owner, minlength=size))
        assert counts[-1].size == size
    assert counts[-1].size == 1234
    for k in (np.concatenate(counts), counts[-1]):
        n = k.size
        p0 = math.exp(-lam)
        assert abs(k.mean() - lam) <= 4.0 * math.sqrt(lam / n)
        assert abs(k.var(ddof=1) - lam) <= 4.0 * math.sqrt((lam + 2.0 * lam * lam) / n)
        assert abs(np.mean(k == 0) - p0) <= 4.0 * math.sqrt(p0 * (1.0 - p0) / n)


def test_engines_draw_jammers_through_the_module_namespace(monkeypatch):
    # both engines reach annulus_radii as montecarlo.annulus_radii, where
    # the benchmark's trace hook counts jammers; with no jammer intensity
    # every chunk asks it for no jammer (the estimates are then exact:
    # see the two *_without_jamming_* tests)
    drawn = []

    def recording(region, n, rng):
        drawn.append(n)
        return annulus_radii(region, n, rng)

    monkeypatch.setattr(montecarlo, "annulus_radii", recording)
    empty = params(rho_j=0.0)
    estimate_coverage(TrialConfig(empty, CHUNK_SIZE + 5, 2))
    simulate_consensus(TrialConfig(empty, CHUNK_SIZE + 5, 2))
    assert drawn == [0, 0, 0, 0]
    estimate_coverage(TrialConfig(params(), 100, 2))
    assert drawn[-1] > 0


def test_coverage_intervals_match_sample_covariance():
    # the engine's draws, replayed chunk by chunk with a short last chunk;
    # the joint half-width includes the covariance of the two marginals
    p = params(rho_j=4.0 * NetworkParams().rho_j)
    n_trials = 2 * CHUNK_SIZE + 321
    values = []
    for size, rng in montecarlo._chunks(n_trials, 8):
        owner, d_jam = montecarlo._jammers(p, size, rng)
        r = link_distances(p.rho_t, size, rng)
        values.append(one_block(r, d_jam, owner,
                                (p.beta_dl * p.gamma_dl, p.beta_ul * p.gamma_ul),
                                p.alpha))
    values = np.concatenate(values, axis=1)
    cov = np.cov(values) / n_trials
    p_dl, p_ul = values.mean(axis=1)
    res = estimate_coverage(TrialConfig(p, n_trials, 8))
    z = norm.isf(0.025)
    assert cov[0, 1] > 0.0
    assert res.p_dl == pytest.approx(p_dl, rel=1e-12)
    assert res.p_ul == pytest.approx(p_ul, rel=1e-12)
    assert res.ci_dl == pytest.approx(z * math.sqrt(cov[0, 0]), rel=1e-12)
    assert res.ci_ul == pytest.approx(z * math.sqrt(cov[1, 1]), rel=1e-12)
    joint = p_ul**2 * cov[0, 0] + p_dl**2 * cov[1, 1] + 2.0 * p_dl * p_ul * cov[0, 1]
    assert res.ci_joint == pytest.approx(z * math.sqrt(joint), rel=1e-12)


def test_consensus_matches_a_replay_through_the_marginals():
    # the engine's draws, replayed chunk by chunk with a short last
    # chunk; each node's two-way coverage is here the product of the
    # downlink and uplink coverage, each taken on its own
    p = params(rho_j=4.0 * NetworkParams().rho_j)
    n_trials = 2 * CHUNK_SIZE + 321
    lam_t = p.rho_t * p.disk.area
    disk_r, disk_w = montecarlo._disk_rule()
    values, lam_s = [], []
    for size, rng in montecarlo._chunks(n_trials, 6):
        owner, d_jam = montecarlo._jammers(p, size, rng)
        dl, ul = np.stack([one_block(np.full(size, node), d_jam, owner,
                                     (p.beta_dl * p.gamma_dl, p.beta_ul * p.gamma_ul),
                                     p.alpha) for node in p.disk.radius * disk_r], axis=-1)
        lam_s.append(lam_t * (dl * ul) @ disk_w)
        values.append(chndtr(2.0 * lam_s[-1], 2.0, 2.0 * (lam_t - lam_s[-1])))
    assert values[-1].size == 321
    values, lam_s = np.concatenate(values), np.concatenate(lam_s)
    res = simulate_consensus(TrialConfig(p, n_trials, 6))
    assert 0.2 < res.p_consensus < 0.8
    assert res.p_consensus == pytest.approx(values.mean(), rel=1e-12)
    assert res.ci_halfwidth == pytest.approx(
        norm.isf(0.025) * values.std(ddof=1) / math.sqrt(n_trials), rel=1e-12)
    assert res.mean_successes == pytest.approx(lam_s.mean(), rel=1e-12)


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about half a second to import
    code = "import sys, raftguard; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


RUN_WITHOUT_INTEGRATE = """
import sys
import numpy as np
from raftguard import cli
from raftguard.auth import AuthProfile
from raftguard.channel import NetworkParams
from raftguard.coverage import coverage_joint
from raftguard.montecarlo import (
    TrialConfig, estimate_coverage, simulate_auth, simulate_consensus,
)

p = NetworkParams()
coverage_joint(p)
estimate_coverage(TrialConfig(p, 500, 1))
simulate_consensus(TrialConfig(p, 500, 2))
simulate_auth(AuthProfile(ground_truth=np.array([43.3, 57.6, 62.6]), sigma=0.3, epsilon=1.0),
              "legit", 500, 3)
assert cli.main(["--config", sys.argv[1], "--trials", "200", "--out", sys.argv[2]]) == 0
print(sorted(m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules))
coverage_joint(p, method="quadrature")
print("scipy.integrate" in sys.modules)
"""


def test_runs_do_not_load_scipy_integrate(tmp_path):
    # scipy.integrate drags in scipy.optimize, scipy.linalg and scipy.fft:
    # about 0.4 s and 25 MiB per process, so only the quadrature oracle loads it
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, RAFTGUARD_WORKERS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_INTEGRATE,
         str(root / "configs" / "coverage_vs_beta.json"), str(tmp_path / "sweep.csv")],
        capture_output=True, text=True, check=True, env=env,
    )
    lines = out.stdout.strip().splitlines()
    assert lines[-2] == "[]"
    assert lines[-1] == "True"
    assert (tmp_path / "sweep.csv").read_text().count("\n") == 17


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


def test_coverage_estimate_rejects_negative_ci():
    with pytest.raises(ValueError):
        CoverageEstimate(n_trials=10, p_dl=0.5, p_ul=0.5, ci_dl=-0.1, ci_ul=0.0, ci_joint=0.0)


def test_each_coverage_route_holds_only_what_it_measured():
    with pytest.raises(AttributeError):
        _ = coverage_joint(params()).ci_dl
    with pytest.raises(AttributeError):
        _ = estimate_coverage(TrialConfig(params(), 100, 1)).quadrature_error_estimate


def test_auth_result_guards_scenario():
    res = simulate_auth(profile(), "legit", 2000, 8)
    with pytest.raises(AttributeError):
        _ = res.p_md
    ev = simulate_auth(profile(), "eve", 2000, 8)
    with pytest.raises(AttributeError):
        _ = ev.p_fa
    assert 0.0 <= ev.p_md <= 1.0
    assert 0.0 <= ev.p_md_claimed <= 1.0


def test_auth_rejects_bad_scenario():
    with pytest.raises(ValueError):
        simulate_auth(profile(), "replay", 100, 0)


def test_auth_rejects_eves_for_legit_runs():
    with pytest.raises(ValueError):
        simulate_auth(profile(), "legit", 100, 0, eve_pathlosses=[50.0])


def test_auth_result_rate_bounds():
    with pytest.raises(ValueError):
        LegitOutcome(n_trials=10, p_fa=-0.1, p_mc=0.0)
    with pytest.raises(ValueError):
        LegitOutcome(n_trials=10, p_fa=0.0, p_mc=1.1)
    with pytest.raises(ValueError):
        IntruderOutcome(n_trials=10, p_md=1.1, p_md_claimed=0.0)
    with pytest.raises(ValueError):
        IntruderOutcome(n_trials=10, p_md=0.0, p_md_claimed=-0.1)


@pytest.mark.parametrize("n_trials, master_seed", [
    (100.0, 1), (100, 1.5), (0, 1), (100, -1), (True, 1), (100, False),
])
def test_auth_rejects_non_integer_run_arguments(n_trials, master_seed):
    # the same check as TrialConfig's, before any trial is drawn
    with pytest.raises(ValueError):
        simulate_auth(profile(), "legit", n_trials, master_seed)
    with pytest.raises(ValueError):
        TrialConfig(params(), n_trials, master_seed)


def test_run_arguments_accept_numpy_integers():
    cfg = TrialConfig(params(), np.int64(100), np.uint32(1))
    assert (type(cfg.n_trials), type(cfg.master_seed)) == (int, int)
    assert estimate_coverage(cfg) == estimate_coverage(TrialConfig(params(), 100, 1))
    res = simulate_auth(profile(), "legit", np.int64(100), np.int64(3))
    assert type(res.n_trials) is int
    assert res == simulate_auth(profile(), "legit", 100, 3)


# ------------------------------------------------------ threshold sweeps


def hex_fields(record):
    return {k: v.hex() if isinstance(v, float) else v for k, v in vars(record).items()}


def test_coverage_threshold_sweep_is_the_one_threshold_run_at_each_threshold():
    # one sample for every threshold: estimate k is bitwise the run with
    # both thresholds at beta_db[k] and the same seed
    betas = [-30.0, -20.0, -20.0, 0.0, -7.5]
    config = TrialConfig(params(rho_j=2.0 * NetworkParams().rho_j), 3 * CHUNK_SIZE + 17, 5)
    sweep = estimate_coverage(config, beta_db=betas)
    assert len(sweep) == len(betas)
    for beta, got in zip(betas, sweep):
        one = estimate_coverage(replace(config, params=replace(config.params, beta_dl_db=beta,
                                                               beta_ul_db=beta)))
        assert hex_fields(got) == hex_fields(one), beta


def test_coverage_threshold_sweep_needs_finite_thresholds():
    config = TrialConfig(params(), 100, 1)
    for bad in ([], [float("nan")], [-20.0, float("inf")], -20.0, [[-20.0]]):
        with pytest.raises(ValueError):
            estimate_coverage(config, beta_db=bad)


@pytest.mark.parametrize("scenario, eves", [("legit", None), ("eve", [50.0, 61.0, 75.0]),
                                            ("eve", None)], ids=["legit", "eve-fixed", "eve-uniform"])
def test_auth_threshold_sweep_is_the_one_threshold_run_at_each_threshold(scenario, eves):
    prof = profile()
    thresholds = [0.0, prof.epsilon, 0.05, 3.0, prof.epsilon]
    n = 3 * CHUNK_SIZE + 17
    sweep = simulate_auth(prof, scenario, n, 21, eve_pathlosses=eves, epsilon=thresholds)
    assert len(sweep) == len(thresholds)
    for eps, got in zip(thresholds, sweep):
        one = simulate_auth(replace(prof, epsilon=eps), scenario, n, 21, eve_pathlosses=eves)
        assert hex_fields(got) == hex_fields(one), eps


def test_auth_tally_rejects_the_boundary():
    # one fingerprint and noise too small to move a measurement: every
    # legitimate deviation is 0 and every intruder's |50 - 40| = 10, so a
    # threshold equal to the deviation rejects every trial, as
    # count_accepted does, and the next double up accepts them all
    prof = AuthProfile(ground_truth=np.array([40.0]), sigma=1e-300, epsilon=1.0)
    assert count_accepted(prof.deviation(40.0, 0), 0.0) == 0
    assert count_accepted(prof.deviation(50.0, 0), 10.0) == 0
    legit = simulate_auth(prof, "legit", 500, 1, epsilon=[0.0, 5e-324])
    assert [r.p_fa for r in legit] == [1.0, 0.0]
    eve = simulate_auth(prof, "eve", 500, 2, eve_pathlosses=[50.0],
                        epsilon=[10.0, np.nextafter(10.0, np.inf)])
    assert [(r.p_md, r.p_md_claimed) for r in eve] == [(0.0, 0.0), (1.0, 1.0)]


@pytest.mark.parametrize("bad", [[], [-0.5], [float("nan")], [[1.0]], [1.0, float("inf")], 1.0])
def test_auth_threshold_sweep_needs_finite_thresholds(bad):
    with pytest.raises(ValueError):
        simulate_auth(profile(), "eve", 100, 0, epsilon=bad)


# ----------------------------------------------------------- band sweeps

NESTED = [(0.0, z2) for z2 in range(0, 320, 20)]
SLIDING = [(z1, z1 + 50.0) for z1 in range(0, 320, 20)]


def test_band_sweep_is_the_kernel_on_each_band_run_of_one_field():
    # the engine's draws, replayed chunk by chunk with a short last chunk:
    # one field on the hull [20, 350] m, its radii sorted, and each band
    # the one-block kernel on its run [z1, z2) of that field
    p = params(rho_j=2.0 * NetworkParams().rho_j)
    bands = [(20.0, 70.0), (60.0, 60.0), (100.0, 350.0), (20.0, 350.0), (300.0, 350.0)]
    hull = replace(p, annulus=AnnulusRegion(20.0, 350.0))
    n_trials = 2 * CHUNK_SIZE + 321
    values = [[] for _ in bands]
    for size, rng in montecarlo._chunks(n_trials, 9):
        owner, d_jam = montecarlo._jammers(hull, size, rng)
        r = link_distances(p.rho_t, size, rng)
        d_jam.sort()
        for band, out in zip(bands, values):
            run = slice(*np.searchsorted(d_jam, band))
            out.append(one_block(r, d_jam[run], owner[run],
                                 (p.beta_dl * p.gamma_dl, p.beta_ul * p.gamma_ul),
                                 p.alpha))
    sweep = estimate_coverage(TrialConfig(p, n_trials, 9), bands=bands)
    assert len(sweep) == len(bands)
    z = norm.isf(0.025)
    for band, got, parts in zip(bands, sweep, values):
        trials = np.concatenate(parts, axis=1)
        cov = np.cov(trials) / n_trials
        assert [got.p_dl, got.p_ul] == pytest.approx(trials.mean(axis=1), rel=1e-12), band
        assert [got.ci_dl, got.ci_ul] == pytest.approx(
            z * np.sqrt(np.diag(cov)), rel=1e-12, abs=1e-300), band


@pytest.mark.parametrize("bands", [NESTED, SLIDING], ids=["nested", "sliding"])
def test_band_sweep_follows_the_void_law(bands):
    # at +300 dB a single jammer anywhere in the band drives coverage to
    # about 1e-14 or less, so each trial is covered exactly when its band
    # holds no jammer: probability exp(-rho_j |band|)
    p = params(beta_dl_db=300.0, beta_ul_db=300.0)
    sweep = estimate_coverage(TrialConfig(p, 20_000, 17), bands=bands)
    for (z1, z2), got in zip(bands, sweep):
        void = math.exp(-p.rho_j * math.pi * (z2 * z2 - z1 * z1))
        for p_mc, ci in ((got.p_dl, got.ci_dl), (got.p_ul, got.ci_ul)):
            se = ci / norm.isf(0.025)
            assert abs(p_mc - void) <= 4.5 * se if z1 < z2 else (p_mc, ci) == (1.0, 0.0), (z1, z2)


@pytest.mark.parametrize("bands", [NESTED, [(0.0, 100.0), (60.0, 60.0)], [(40.0, 40.0)]],
                         ids=["first", "inside-the-hull", "hull-of-no-area"])
def test_an_empty_band_is_certain_coverage(bands, monkeypatch):
    # an empty band reads an empty run of the field, so every trial of it
    # is covered with probability exactly 1 and the half-widths are 0
    drawn = []

    def recording(region, n, rng):
        drawn.append(n)
        return annulus_radii(region, n, rng)

    monkeypatch.setattr(montecarlo, "annulus_radii", recording)
    p = params(rho_j=4.0 * NetworkParams().rho_j)
    sweep = estimate_coverage(TrialConfig(p, CHUNK_SIZE + 5, 3), bands=bands)
    # one field per chunk, drawn on the hull
    assert len(drawn) == 2 and (sum(drawn) > 0) == any(z1 < z2 for z1, z2 in bands)
    for (z1, z2), got in zip(bands, sweep):
        if z1 == z2:
            assert (got.p_dl, got.p_ul, got.p_joint) == (1.0, 1.0, 1.0)
            assert (got.ci_dl, got.ci_ul, got.ci_joint) == (0.0, 0.0, 0.0)
        else:
            assert got.p_joint < 1.0


@pytest.mark.parametrize("bands, beta_db", [
    ([], None), ([(10.0, 5.0)], None), ([(-1.0, 5.0)], None), ([(0.0, float("inf"))], None),
    ([(float("nan"), 5.0)], None), ([(0.0, 5.0, 9.0)], None), ([0.0, 5.0], None),
    ([(0.0, 5.0)], [-20.0]), (5.0, None),
], ids=["empty", "inverted", "negative", "infinite", "nan", "triple", "flat", "both-swept",
        "scalar"])
def test_band_sweep_rejects_bad_bands(bands, beta_db):
    with pytest.raises(ValueError):
        estimate_coverage(TrialConfig(params(), 100, 1), beta_db=beta_db, bands=bands)


# ------------------------------------------- authentication in ascending runs


def _auth_in_draw_order(prof, scenario, n_trials, seed, eves, thresholds, sigmas):
    """simulate_auth's integer tallies with every trial matched in the
    order drawn: the engine's draws, ``nearest`` on each level's
    measurements as they come, and the strict threshold test written
    out, per level and threshold."""
    pool = prof.ground_truth if scenario == "legit" else (
        None if eves is None else np.asarray(eves, dtype=float))
    accepted = np.zeros((len(sigmas), len(thresholds)), dtype=np.int64)
    claimed_accepted = np.zeros_like(accepted)
    wrong = np.zeros(len(sigmas), dtype=np.int64)
    for index, start in enumerate(range(0, n_trials, CHUNK_SIZE)):
        size = min(CHUNK_SIZE, n_trials - start)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        if pool is not None:
            ident = rng.choice(pool.size, size=size, p=np.full(pool.size, 1.0 / pool.size))
            truth = pool[ident]
        else:
            truth = rng.uniform(prof.psi_min, prof.psi_max, size)
        g = rng.standard_normal(size)
        claimed = rng.integers(0, prof.m, size) if scenario == "eve" else None
        for k, s in enumerate(sigmas):
            z = truth + s * g
            matched = prof.nearest(z)
            for j, eps in enumerate(thresholds):
                accepted[k, j] += np.count_nonzero(np.abs(z - prof.ground_truth[matched]) < eps)
                if scenario == "eve":
                    claimed_accepted[k, j] += np.count_nonzero(
                        np.abs(z - prof.ground_truth[claimed]) < eps)
            if scenario == "legit":
                wrong[k] += np.count_nonzero(matched != ident)
    return accepted, claimed_accepted, wrong


def _tallies(outcome, n):
    """The integer counts behind an outcome's rates, checked to be exact."""
    if isinstance(outcome, LegitOutcome):
        counts = (round((1.0 - outcome.p_fa) * n), round(outcome.p_mc * n))
        assert outcome == LegitOutcome(n, p_fa=1.0 - counts[0] / n, p_mc=counts[1] / n)
    else:
        counts = (round(outcome.p_md * n), round(outcome.p_md_claimed * n))
        assert outcome == IntruderOutcome(n, p_md=counts[0] / n, p_md_claimed=counts[1] / n)
    return counts


def _duplicated_fingerprints(m):
    # m = 1000 rounded to 0.1 dB holds hundreds of repeated values; the
    # small profiles repeat values by hand, so the lowest-index tie rule
    # decides matches
    if m == 1000:
        gt, _ = sample_fingerprints(1000, 0, DiskRegion(500.0), 3.0, np.random.default_rng(28294))
        return np.round(gt, 1)
    return np.array({1: [57.6], 2: [50.0, 50.0], 5: [57.6, 50.0, 50.0, 43.3, 57.6]}[m])


@pytest.mark.parametrize("m", [1, 2, 5, 1000])
@pytest.mark.parametrize("scenario, eves", [
    ("legit", None), ("eve", [50.0, 61.0, 75.0, 61.0, -3.0, 120.0]), ("eve", None),
], ids=["legit", "eve-fixed", "eve-uniform"])
def test_auth_tallies_are_those_of_the_trials_in_draw_order(m, scenario, eves):
    # the engine reorders each chunk's trials before matching; every
    # tally must still be the count over the trials as drawn
    gt = _duplicated_fingerprints(m)
    assert np.unique(gt).size < gt.size or m == 1
    prof = AuthProfile(ground_truth=gt, sigma=0.3, epsilon=0.5)
    n = 3 * CHUNK_SIZE + 17
    calls = [({}, [prof.epsilon], [prof.sigma]),
             ({"sigma": [1.0, 0.3, 0.03, 3.0]}, [prof.epsilon], [1.0, 0.3, 0.03, 3.0]),
             ({"epsilon": [0.0, 0.05, 0.5, 4.0]}, [0.0, 0.05, 0.5, 4.0], [prof.sigma])]
    for seed, (sweep, thresholds, sigmas) in enumerate(calls, start=40):
        got = simulate_auth(prof, scenario, n, seed, eve_pathlosses=eves, **sweep)
        got = [got] if not sweep else got
        accepted, claimed_accepted, wrong = _auth_in_draw_order(
            prof, scenario, n, seed, eves, thresholds, sigmas)
        if scenario == "legit":
            expect = [(a, w) for a, w in zip(accepted.ravel().tolist(),
                                             np.repeat(wrong, len(thresholds)).tolist())]
        else:
            expect = list(zip(accepted.ravel().tolist(), claimed_accepted.ravel().tolist()))
        assert [_tallies(o, n) for o in got] == expect, sweep


@pytest.mark.parametrize("scenario, eves", [("legit", None), ("eve", [61.0, 50.0, 75.0, 61.0])],
                         ids=["legit", "eve-fixed"])
def test_auth_measurements_reach_nearest_in_ascending_runs(scenario, eves, monkeypatch):
    # with a pool, each chunk's trials come grouped by pool entry, in
    # ascending order of its value, with ascending noise inside a group:
    # at every noise level, one ascending run per pool entry at most
    seen = []
    nearest = AuthProfile.nearest

    def recording(self, z):
        seen.append(np.array(z))
        return nearest(self, z)

    monkeypatch.setattr(AuthProfile, "nearest", recording)
    prof = profile()
    pool_size = prof.m if eves is None else len(eves)
    simulate_auth(prof, scenario, 2 * CHUNK_SIZE + 5, 3, eve_pathlosses=eves,
                  sigma=[3.0, 0.3, 1e-3])
    assert len(seen) == 3 * 3
    for z in seen:
        assert np.count_nonzero(np.diff(z) < 0.0) <= pool_size - 1

