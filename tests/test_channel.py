import numpy as np
import pytest

from raftguard.channel import (
    NetworkParams,
    covered,
    db_to_linear,
    linear_to_db,
    pathloss_db,
    sample_fading,
)
from raftguard.geometry import AnnulusRegion, DiskRegion


def test_db_round_trip():
    for x in (0.001, 1.0, 42.0, 1e6):
        assert db_to_linear(linear_to_db(x)) == pytest.approx(x, rel=1e-12)


def test_linear_to_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        linear_to_db(0.0)


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


def test_fading_is_unit_mean_exponential():
    rng = np.random.default_rng(3)
    h = sample_fading(rng, 200000)
    assert h.mean() == pytest.approx(1.0, abs=0.01)
    assert h.min() >= 0.0


# ------------------------------------------------------------------ params


def test_default_power_ratios():
    p = NetworkParams()
    # jammer-to-leader and jammer-to-follower power ratios drive the
    # interference scale in the two directions
    assert p.gamma_dl == pytest.approx(0.01, rel=1e-12)
    assert p.gamma_ul == pytest.approx(0.1, rel=1e-12)
    assert p.p_leader == pytest.approx(1000.0, rel=1e-12)


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


def received(tx_power, distance, p):
    # unit fading, so received power is just power times distance^-alpha
    return tx_power * distance ** (-p.alpha)


def test_sir_hand_value_downlink():
    # leader 1000 mW at 10 m, one jammer 10 mW at 20 m, all fading 1:
    # signal 1000/10^3 = 1, interference 10/20^3 = 1.25e-3, SIR = 800
    p = hand_params()
    signal = np.array([received(p.p_leader, 10.0, p)])
    jam = np.array([received(p.p_jammer, 20.0, p)])
    assert covered(signal, jam, [0], 799.0)[0]
    assert not covered(signal, jam, [0], 801.0)[0]


def test_sir_hand_value_uplink():
    # follower transmits 100 mW: uplink SIR is one tenth of downlink
    p = hand_params()
    signal = np.array([received(p.p_follower, 10.0, p)])
    jam = np.array([received(p.p_jammer, 20.0, p)])
    assert covered(signal, jam, [0], 79.9)[0]
    assert not covered(signal, jam, [0], 80.1)[0]


def test_sir_no_jammers_is_infinite():
    # receiver 1 owns no interferer: its SIR is infinite and it is
    # covered at any threshold, while receiver 0 is jammed out
    p = hand_params()
    signal = np.array([received(p.p_leader, 10.0, p), received(p.p_leader, 400.0, p)])
    jam = np.array([received(p.p_jammer, 20.0, p)])
    assert covered(signal, jam, np.array([0]), 1e9).tolist() == [False, True]
    assert covered(signal, np.empty(0), np.empty(0, dtype=int), 1e9).tolist() == [True, True]


def test_params_carry_regions():
    p = NetworkParams(disk=DiskRegion(250.0), annulus=AnnulusRegion(50.0, 100.0))
    assert p.disk.radius == 250.0
    assert p.annulus.inner == 50.0
