import tracemalloc

import numpy as np
import pytest

from raftguard.channel import (
    NetworkParams,
    db_to_linear,
    pathloss_db,
    rayleigh_coverage,
)
from raftguard.geometry import AnnulusRegion, DiskRegion


def test_db_round_trip():
    assert db_to_linear(30.0) == pytest.approx(1000.0, rel=1e-12)
    assert db_to_linear(-30.0) == pytest.approx(0.001, rel=1e-12)
    assert db_to_linear(0.0) == 1.0
    for x_db in (-30.0, 0.0, 16.2, 60.0):
        assert 10.0 * np.log10(db_to_linear(x_db)) == pytest.approx(x_db, abs=1e-12)


def test_pathloss_hand_values():
    # 10 * alpha * log10(d): one decade of distance adds 10*alpha dB
    assert pathloss_db(10.0, 3.0) == pytest.approx(30.0, abs=1e-12)
    assert pathloss_db(100.0, 3.0) == pytest.approx(60.0, abs=1e-12)
    assert pathloss_db(1.0, 4.0) == pytest.approx(0.0, abs=1e-12)


def test_pathloss_vectorized_and_validated():
    out = pathloss_db(np.array([10.0, 1000.0]), 2.0)
    assert out == pytest.approx([20.0, 60.0])
    with pytest.raises(ValueError):
        pathloss_db(0.0, 3.0)
    with pytest.raises(ValueError):
        pathloss_db(10.0, 0.0)


# ------------------------------------------------------------------ params


def test_default_power_ratios():
    p = NetworkParams()
    # jammer-to-leader and jammer-to-follower power ratios drive the
    # interference scale in the two directions
    assert p.gamma_dl == pytest.approx(0.01, rel=1e-12)
    assert p.gamma_ul == pytest.approx(0.1, rel=1e-12)
    assert db_to_linear(p.p_leader_dbm) == pytest.approx(1000.0, rel=1e-12)


def test_default_intensity_is_fifteen_nodes():
    p = NetworkParams()
    assert p.rho_t * p.disk.area == pytest.approx(15.0, rel=1e-12)


def test_alpha_must_exceed_two():
    with pytest.raises(ValueError):
        NetworkParams(alpha=2.0)


def test_threshold_conversion():
    p = NetworkParams(beta_dl_db=-20.0, beta_ul_db=0.0)
    assert p.beta_dl == pytest.approx(0.01, rel=1e-12)
    assert p.beta_ul == pytest.approx(1.0, rel=1e-12)


# --------------------------------------------------------------------- SIR


def hand_params():
    return NetworkParams(beta_dl_db=-20.0, beta_ul_db=-20.0)


def test_sir_hand_value_downlink():
    # leader 1000 mW at 10 m, one jammer 10 mW at 20 m: mean SIR
    # (1000/10^3) / (10/20^3) = 800, so under Rayleigh fading
    # P(SIR > beta) = 1 / (1 + beta/800)
    p = hand_params()
    for beta in (0.01, 1.0, 800.0, 1e6):
        got = rayleigh_coverage([10.0], [20.0], [0], beta * p.gamma_dl, p.alpha)
        assert got[0] == pytest.approx(1.0 / (1.0 + beta / 800.0), rel=1e-14)


def test_sir_hand_value_uplink():
    # follower transmits 100 mW: the uplink mean SIR is one tenth, 80
    p = hand_params()
    for beta in (0.01, 1.0, 80.0, 1e6):
        got = rayleigh_coverage([10.0], [20.0], [0], beta * p.gamma_ul, p.alpha)
        assert got[0] == pytest.approx(1.0 / (1.0 + beta / 80.0), rel=1e-14)


def test_sir_no_jammers_is_infinite():
    # row 1 owns no jammer: its SIR is infinite and it is covered with
    # probability exactly 1 at any threshold, while row 0 is jammed out
    p = hand_params()
    got = rayleigh_coverage([10.0, 400.0], [20.0], [0], 1e9 * p.gamma_dl, p.alpha)
    assert got[0] < 1e-6
    assert got[1] == 1.0
    assert rayleigh_coverage([10.0, 400.0], [], [], 1e9, p.alpha).tolist() == [1.0, 1.0]


def test_rayleigh_coverage_matches_fading_tally():
    # a fixed seeded jammer realisation and link distance; the tally
    # draws unit-mean exponential fading on every link and applies the
    # SIR test signal > beta * sum of interference directly
    p = NetworkParams(beta_dl_db=0.0, beta_ul_db=0.0)
    rng = np.random.default_rng(2024)
    d_jam = np.sqrt(50.0**2 + rng.random(6) * (300.0**2 - 50.0**2))
    r = 200.0
    n, chunk = 1_000_000, 250_000
    p_jammer = db_to_linear(p.p_jammer_dbm)
    for p_tx_dbm, beta, beta_gamma in ((p.p_leader_dbm, p.beta_dl, p.beta_dl * p.gamma_dl),
                                       (p.p_follower_dbm, p.beta_ul, p.beta_ul * p.gamma_ul)):
        exact = rayleigh_coverage([r], d_jam, np.zeros(d_jam.size, int), beta_gamma,
                                  p.alpha)[0]
        hits = 0
        for _ in range(n // chunk):
            signal = db_to_linear(p_tx_dbm) * rng.exponential(1.0, chunk) * r ** -p.alpha
            interference = (rng.exponential(1.0, (chunk, d_jam.size))
                            * (p_jammer * d_jam ** -p.alpha)).sum(axis=1)
            hits += int(np.count_nonzero(signal > beta * interference))
        se = np.sqrt(exact * (1.0 - exact) / n)
        assert 0.05 < exact < 0.95
        assert abs(hits / n - exact) <= 4.0 * se


def test_rayleigh_coverage_rows_share_their_jammers():
    # each column of a row sees that row's jammers, which need not be
    # grouped by row; a scalar threshold keeps the shape of the link
    # array and a vector of thresholds adds a trailing axis
    link = np.array([[10.0, 20.0], [30.0, 40.0], [50.0, 60.0]])
    d_jam = np.array([25.0, 45.0, 35.0])
    owner = np.array([0, 2, 0])
    both = rayleigh_coverage(link, d_jam, owner, (0.3, 2.0), 3.0)
    assert both.shape == link.shape + (2,)
    for b, beta_gamma in enumerate((0.3, 2.0)):
        want = np.ones_like(link)
        for j, d in zip(owner, d_jam):
            want[j] /= 1.0 + beta_gamma * (link[j] / d) ** 3.0
        got = rayleigh_coverage(link, d_jam, owner, beta_gamma, 3.0)
        assert got.shape == link.shape
        assert got == pytest.approx(want, rel=1e-14)
        assert both[..., b] == pytest.approx(want, rel=1e-14)
        assert got[1].tolist() == [1.0, 1.0]


def test_rayleigh_coverage_rejects_owners_out_of_range():
    for owner in ([1], [-1]):
        with pytest.raises(ValueError):
            rayleigh_coverage([10.0], [20.0], owner, 1.0, 3.0)


def test_rayleigh_coverage_holds_two_jammer_sized_arrays():
    # the jammer gains and one work buffer, reused for every receiver
    # column and threshold: no temporary per column or per threshold
    rng = np.random.default_rng(5)
    d_jam = 300.0 * np.sqrt(rng.random(200_000))
    owner = rng.integers(0, 512, d_jam.size)
    link = np.broadcast_to(np.linspace(30.0, 500.0, 16), (512, 16))
    tracemalloc.start()
    try:
        rayleigh_coverage(link, d_jam, owner, (0.1, 1.0), 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * d_jam.nbytes


def test_params_carry_regions():
    p = NetworkParams(disk=DiskRegion(250.0), annulus=AnnulusRegion(50.0, 100.0))
    assert p.disk.radius == 250.0
    assert p.annulus.inner == 50.0
