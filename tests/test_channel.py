import tracemalloc

import numpy as np
import pytest

from raftguard.channel import (
    NetworkParams,
    db_to_linear,
    pathloss_db,
    rayleigh_coverage_blocks,
    two_way_coverage,
)
from raftguard.geometry import AnnulusRegion, DiskRegion


def one_block(link, jammers, owner, beta_gamma, alpha):
    """The coverage kernel's rows at one block of thresholds."""
    return next(rayleigh_coverage_blocks(link, jammers, owner, (beta_gamma,), alpha))


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
        got = one_block([10.0], [20.0], [0], (beta * p.gamma_dl,), p.alpha)
        assert got[0, 0] == pytest.approx(1.0 / (1.0 + beta / 800.0), rel=1e-14)


def test_sir_hand_value_uplink():
    # follower transmits 100 mW: the uplink mean SIR is one tenth, 80
    p = hand_params()
    for beta in (0.01, 1.0, 80.0, 1e6):
        got = one_block([10.0], [20.0], [0], (beta * p.gamma_ul,), p.alpha)
        assert got[0, 0] == pytest.approx(1.0 / (1.0 + beta / 80.0), rel=1e-14)


def test_sir_no_jammers_is_infinite():
    # row 1 owns no jammer: its SIR is infinite and it is covered with
    # probability exactly 1 at any threshold, while row 0 is jammed out
    p = hand_params()
    got = one_block([10.0, 400.0], [20.0], [0], (1e9 * p.gamma_dl,), p.alpha)[0]
    assert got[0] < 1e-6
    assert got[1] == 1.0
    assert one_block([10.0, 400.0], [], [], (1e9,), p.alpha).tolist() == [[1.0, 1.0]]


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
        exact = one_block([r], d_jam, np.zeros(d_jam.size, int), (beta_gamma,),
                          p.alpha)[0, 0]
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
    # each row sees its own jammers, which need not be grouped by row,
    # at every threshold; row 1 owns none and row 3 one on the receiver
    link = np.array([10.0, 30.0, 50.0, 70.0])
    d_jam = np.array([25.0, 45.0, 0.0, 35.0])
    owner = np.array([0, 2, 3, 0])
    both = one_block(link, d_jam, owner, (0.3, 2.0), 3.0)
    assert both.shape == (2, 4) and both.flags.c_contiguous
    for b, beta_gamma in enumerate((0.3, 2.0)):
        want = np.ones_like(link)
        for j, d in zip(owner, d_jam):
            if d > 0.0:
                want[j] /= 1.0 + beta_gamma * (link[j] / d) ** 3.0
        assert both[b, :3] == pytest.approx(want[:3], rel=1e-14)
        assert both[b, 1] == 1.0
        assert both[b, 3] == 0.0


def test_rayleigh_coverage_rejects_owners_out_of_range():
    for owner in ([1], [-1]):
        with pytest.raises(ValueError):
            one_block([10.0], [20.0], owner, (1.0,), 3.0)
        with pytest.raises(ValueError):
            two_way_coverage([10.0, 30.0], 1, [20.0], owner, 0.1, 1.0, 3.0)


def test_rayleigh_coverage_holds_two_jammer_sized_arrays():
    # the jammer gains and one work buffer, reused for every threshold
    # and node: no temporary per threshold or per node
    rng = np.random.default_rng(5)
    d_jam = 300.0 * np.sqrt(rng.random(200_000))
    owner = rng.integers(0, 512, d_jam.size)
    for kernel, args in ((one_block, (30.0 + 470.0 * rng.random(512), d_jam, owner,
                                      (0.1, 1.0), 3.0)),
                         (two_way_coverage, (np.linspace(30.0, 500.0, 16), 512, d_jam, owner,
                                             0.1, 1.0, 3.0))):
        tracemalloc.start()
        try:
            kernel(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * d_jam.nbytes, kernel.__name__


def test_rayleigh_coverage_blocks_are_the_kernel_per_block():
    # one gather for every block, each block bitwise the kernel at its
    # thresholds, and the jammer-sized buffers shared by all 16 blocks
    rng = np.random.default_rng(6)
    d_jam = 300.0 * np.sqrt(rng.random(200_000))
    owner = rng.integers(0, 512, d_jam.size)
    link = 30.0 + 470.0 * rng.random(512)
    blocks = [(1e-3 * 1.5**k, 1e-2 * 1.5**k) for k in range(16)]
    tracemalloc.start()
    try:
        got = [block.tobytes() for block in rayleigh_coverage_blocks(link, d_jam, owner, blocks, 3.0)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [one_block(link, d_jam, owner, b, 3.0).tobytes() for b in blocks]
    assert peak < 2.5 * d_jam.nbytes + 16 * 2 * link.nbytes


@pytest.mark.parametrize("block", [(1e-3, 1e-2), (1e-1,), (1e-3, 1e-2, 0.3)])
def test_rayleigh_coverage_blocks_cover_their_runs(block):
    # a block that names a run of jammers is bitwise the kernel on that
    # run alone; an empty run covers every row with probability exactly 1
    rng = np.random.default_rng(7)
    d_jam = np.sort(300.0 * np.sqrt(rng.random(5000)))
    owner = rng.integers(0, 512, d_jam.size)
    link = 30.0 + 470.0 * rng.random(512)
    runs = [slice(0, 5000), slice(1200, 3100), slice(2000, 2000), slice(4000, 5000)]
    tracemalloc.start()
    try:
        got = [rows.copy() for rows in rayleigh_coverage_blocks(link, d_jam, owner, [block] * 4,
                                                                3.0, runs)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the gains and x, whose buffers hold the terms of up to two thresholds
    extra = max(len(block) - 2, 0)
    assert peak < (2.5 + extra) * d_jam.nbytes + 4 * len(block) * link.nbytes
    for run, rows in zip(runs, got):
        want = one_block(link, d_jam[run], owner[run], block, 3.0)
        assert rows.tobytes() == want.tobytes(), run
    assert np.all(got[2] == 1.0)


def test_blocks_that_name_runs_share_their_thresholds():
    with pytest.raises(ValueError, match="share their thresholds"):
        list(rayleigh_coverage_blocks([10.0], [20.0, 30.0], [0, 0], [(0.1, 1.0), (0.1, 2.0)],
                                      3.0, [slice(0, 1), slice(1, 2)]))


def random_field(rng, rows, per_row):
    """Jammers of a random field over ``rows`` rows: about ``per_row``
    each, uniform on an annulus [5, 300] m, in no particular order."""
    owner = rng.integers(0, rows, rng.poisson(per_row * rows))
    return owner, np.sqrt(25.0 + rng.random(owner.size) * (300.0**2 - 25.0))


def marginal_product(nodes, rows, d_jam, owner, c_dl, c_ul, alpha):
    """Two-way coverage at shared nodes, from the per-row kernel's two
    marginals at each node."""
    return np.stack([one_block(np.full(rows, node), d_jam, owner, (c_dl, c_ul),
                               alpha).prod(axis=0) for node in nodes], axis=1)


def test_rayleigh_coverage_bits():
    # the shipped outputs depend on the multiplication order
    # (r^alpha d^-alpha) c, so the kernel must match it to the last bit
    rng = np.random.default_rng(0)
    owner, d_jam = random_field(rng, 300, 6.0)
    link = 500.0 * np.sqrt(rng.random(300))
    for alpha in (3.0, 3.7):
        want = np.exp(-np.stack([np.bincount(owner, np.log1p((link ** alpha)[owner]
                                                             * d_jam ** -alpha * c), 300)
                                 for c in (1e-4, 1e-3)]))
        got = one_block(link, d_jam, owner, (1e-4, 1e-3), alpha)
        assert got.tobytes() == want.tobytes()


def test_two_way_coverage_bits():
    # the same for Horner's rule in the gain g, in its order
    # (g (c_ul c_dl r^2alpha) + (c_dl + c_ul) r^alpha) g
    rng = np.random.default_rng(1)
    owner, d_jam = random_field(rng, 300, 6.0)
    nodes = np.geomspace(0.01, 500.0, 16)
    c_dl, c_ul = 1e-4, 1e-3
    for alpha in (3.0, 3.7):
        g = d_jam ** -alpha
        want = np.exp(-np.stack([np.bincount(owner, np.log1p(
            (g * (c_ul * c_dl * near ** 2) + (c_dl + c_ul) * near) * g), 300)
            for near in nodes ** alpha], axis=1))
        got = two_way_coverage(nodes, 300, d_jam, owner, c_dl, c_ul, alpha)
        assert got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(4))
def test_joint_coverage_is_the_product_of_the_marginals(seed):
    # the probability that both links pass equals the product of the
    # per-link probabilities, at the downlink and uplink thresholds of
    # beta = -20 and 0 dB
    rng = np.random.default_rng(seed)
    rows = 64
    owner, d_jam = random_field(rng, rows, 2.0 + 4.0 * seed)
    owner[owner == 3] = 4                   # row 3: no jammer
    d_jam[np.flatnonzero(owner == 5)[:1]] = 0.0   # row 5: a jammer on the receiver
    alpha = (2.05, 3.0, 3.7, 4.0)[seed]
    nodes = np.geomspace(0.01, 500.0, 16)
    for c_dl, c_ul in ((1e-4, 1e-3), (0.01, 0.1)):
        two_way = two_way_coverage(nodes, rows, d_jam, owner, c_dl, c_ul, alpha)
        assert two_way.shape == (rows, 16)
        assert two_way == pytest.approx(
            marginal_product(nodes, rows, d_jam, owner, c_dl, c_ul, alpha), rel=1e-13)
        assert two_way[3].tolist() == [1.0] * 16
        assert two_way[5].tolist() == [0.0] * 16


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_joint_coverage_never_squares_the_path_gain():
    # x = (r/d)^3 between 2.7e154 and 1.3e158, so x^2 overflows, while
    # c_dl c_ul x^2 does not: the exact two-way coverage is a normal
    # double, between about 1e-17 and 1e-9, and must not read as 0
    nodes = np.linspace(30.0, 500.0, 16)
    owner = np.array([0, 1])
    d_jam = np.array([1e-50, 200.0])
    assert np.all((nodes / d_jam[0]) ** 3 > 1e154)
    two_way = two_way_coverage(nodes, 2, d_jam, owner, 1e-150, 3e-150, 3.0)
    assert np.all((two_way[0] > 1e-18) & (two_way[0] < 1e-8))
    assert two_way == pytest.approx(
        marginal_product(nodes, 2, d_jam, owner, 1e-150, 3e-150, 3.0), rel=1e-13)
    # with the jammer at 1e-60 m and physical thresholds, c_dl c_ul x^2
    # overflows as well: the two-way coverage is then below the smallest
    # normal double, and reads as exactly 0
    d_jam[0] = 1e-60
    two_way = two_way_coverage(nodes, 2, d_jam, owner, 1e-4, 1e-3, 3.0)
    product = marginal_product(nodes, 2, d_jam, owner, 1e-4, 1e-3, 3.0)
    assert two_way[0].tolist() == [0.0] * 16
    assert np.all(product[0] < np.finfo(float).tiny)
    assert two_way[1] == pytest.approx(product[1], rel=1e-13)


def test_marginal_coverage_warns_on_overflow():
    # only the two-way products may overflow quietly: a link distance
    # whose r^alpha overflows is still reported on the per-row path
    with pytest.warns(RuntimeWarning, match="overflow"):
        one_block([1e200], [20.0], [0], (1.0,), 3.0)


def test_params_carry_regions():
    p = NetworkParams(disk=DiskRegion(250.0), annulus=AnnulusRegion(50.0, 100.0))
    assert p.disk.radius == 250.0
    assert p.annulus.inner == 50.0
