import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from raftguard.channel import NetworkParams, db_to_linear
from raftguard.coverage import (
    ORACLE_GRID,
    ORACLE_GRID_GAMMA,
    ORACLE_GRID_RHO_J,
    CoverageResult,
    coverage_joint,
    laplace_interference,
)
from raftguard.geometry import AnnulusRegion
from raftguard.specfun import gauss_legendre

RHO_J = 15.0 / (math.pi * 500.0**2)
ANNULUS = AnnulusRegion(0.0, 300.0)

# Laplace transform at r=100 m, beta=-20 dB, gamma=0.01, default jammer
# intensity, alpha=3, annulus (0, 300).  Pinned from the adaptive
# quadrature of the defining radial integral; a 5e6-trial Monte Carlo
# over jammer patterns and fading reproduced it to within 8e-6.
LAPLACE_REF = 0.996918587473064


def test_laplace_frozen_reference():
    val = laplace_interference(
        100.0, 0.01, 0.01, RHO_J, 3.0, ANNULUS, method="quadrature"
    )
    assert val == pytest.approx(LAPLACE_REF, abs=1e-10)


def test_oracle_grid_shape():
    assert len(ORACLE_GRID) == 180


def test_closed_form_matches_quadrature_on_grid():
    worst = 0.0
    for alpha, beta_db, annulus, r in ORACLE_GRID:
        beta = db_to_linear(beta_db)
        cf = laplace_interference(
            r, beta, ORACLE_GRID_GAMMA, ORACLE_GRID_RHO_J, alpha, annulus,
            method="closed_form",
        )
        quad = laplace_interference(
            r, beta, ORACLE_GRID_GAMMA, ORACLE_GRID_RHO_J, alpha, annulus,
            method="quadrature",
        )
        worst = max(worst, abs(cf - quad))
    assert worst <= 1e-8


def test_laplace_in_unit_interval():
    for alpha, beta_db, annulus, r in ORACLE_GRID[::7]:
        val = laplace_interference(
            r, db_to_linear(beta_db), 0.1, RHO_J, alpha, annulus
        )
        assert 0.0 < val <= 1.0


@pytest.mark.parametrize("which", ["beta", "rho_j", "r"])
def test_laplace_monotone_non_increasing(which):
    grids = {
        "beta": [(b, RHO_J, 100.0) for b in (1e-3, 1e-2, 1e-1, 1.0, 10.0)],
        "rho_j": [(0.01, s * RHO_J, 100.0) for s in (0.5, 1.0, 2.0, 4.0, 8.0)],
        "r": [(0.01, RHO_J, r) for r in (20.0, 50.0, 100.0, 200.0, 400.0)],
    }
    vals = [
        laplace_interference(r, beta, 0.01, rho, 3.0, AnnulusRegion(10.0, 60.0))
        for beta, rho, r in grids[which]
    ]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_laplace_trivial_limits():
    assert laplace_interference(100.0, 0.0, 0.01, RHO_J, 3.0, ANNULUS) == 1.0
    assert laplace_interference(100.0, 0.01, 0.01, 0.0, 3.0, ANNULUS) == 1.0


def test_closed_form_matches_quadrature_at_zero_inner_radius():
    # an annulus starting at the receiver takes the z1 -> 0 limit of the
    # inner hypergeometric term
    worst = 0.0
    for alpha in (2.5, 3.0, 4.0):
        for beta_db in (-30.0, -20.0, -10.0, 0.0):
            for outer in (50.0, 300.0):
                for r in (10.0, 100.0, 400.0):
                    args = (r, db_to_linear(beta_db), ORACLE_GRID_GAMMA,
                            ORACLE_GRID_RHO_J, alpha, AnnulusRegion(0.0, outer))
                    cf = laplace_interference(*args, method="closed_form")
                    quad = laplace_interference(*args, method="quadrature")
                    assert 0.0 < cf < 1.0
                    worst = max(worst, abs(cf - quad))
    assert worst <= 1e-8


# alpha -> 2, inner radius 0 and wide bands, which ORACLE_GRID does not
# reach: the quadrature oracle must hold there too, at the same bound
NEAR_TWO_GRID = tuple(
    (alpha, beta_db, AnnulusRegion(inner, inner + width), r)
    for alpha in (2.05, 2.2)
    for beta_db in (-30.0, -20.0, -10.0, 0.0)
    for inner in (0.0, 10.0, 150.0)
    for width in (50.0, 1000.0)
    for r in (10.0, 100.0, 400.0)
)


def test_quadrature_oracle_near_alpha_two():
    worst = 0.0
    for alpha, beta_db, annulus, r in NEAR_TWO_GRID:
        args = (r, db_to_linear(beta_db), ORACLE_GRID_GAMMA, ORACLE_GRID_RHO_J, alpha, annulus)
        cf = laplace_interference(*args, method="closed_form")
        quad = laplace_interference(*args, method="quadrature")
        worst = max(worst, abs(cf - quad))
    assert worst <= 1e-8


# alpha -> 2 edge, which ORACLE_GRID (alpha from 2.5 to 8) does not reach:
# (alpha, beta_db, gamma, annulus, r, L) with L the Laplace transform
# at jammer intensity RHO_J from 40-digit quadrature of the defining
# radial integral (mpmath).
NEAR_TWO_REFERENCES = [
    (2.01, 0.0, 0.1, (0.0, 300.0), 100.0, 0.76299291110075769),
    (2.01, 0.0, 0.1, (10.0, 60.0), 100.0, 0.91734713727751957),
    (2.05, 10.0, 0.01, (0.0, 300.0), 400.0, 0.15639843120063509),
    (2.01, -30.0, 0.01, (1.0, 1000.0), 10.0, 0.99999918045763443),
]


@pytest.mark.parametrize("alpha, beta_db, gamma, band, r, expected", NEAR_TWO_REFERENCES,
                         ids=["disk", "band", "alpha2.05", "wide_band"])
def test_closed_form_near_alpha_two(alpha, beta_db, gamma, band, r, expected):
    val = laplace_interference(r, db_to_linear(beta_db), gamma, RHO_J, alpha, AnnulusRegion(*band))
    assert val == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("call", [
    lambda: laplace_interference(100.0, 0.0, 0.01, RHO_J, 3.0, ANNULUS, method="bogus"),
    lambda: laplace_interference(100.0, 0.01, 0.01, 0.0, 3.0, ANNULUS, method="bogus"),
    lambda: coverage_joint(NetworkParams(rho_j=0.0), method="bogus"),
    lambda: coverage_joint(NetworkParams(), method="auto"),
], ids=["laplace_beta0", "laplace_rho0", "joint", "joint_auto"])
def test_unknown_method_rejected_before_shortcuts(call):
    with pytest.raises(ValueError, match="unknown method"):
        call()


def test_laplace_rejects_bad_arguments():
    with pytest.raises(ValueError):
        laplace_interference(0.0, 0.01, 0.01, RHO_J, 3.0, ANNULUS)
    with pytest.raises(ValueError):
        laplace_interference(100.0, -0.01, 0.01, RHO_J, 3.0, ANNULUS)
    with pytest.raises(ValueError):
        laplace_interference(100.0, 0.01, 0.01, RHO_J, 2.0, ANNULUS)


# ---------------------------------------------------------------- coverage


def default_params(**kw):
    kw.setdefault("beta_dl_db", -20.0)
    kw.setdefault("beta_ul_db", -20.0)
    return NetworkParams(**kw)


def test_coverage_frozen_references():
    """Regression values pinned from an independent composition of the
    quadrature Laplace route with the typical-distance density."""
    res = coverage_joint(default_params())
    assert res.p_dl == pytest.approx(0.9949296786701333, abs=1e-6)
    assert res.p_ul == pytest.approx(0.9774667596210966, abs=1e-6)
    assert res.p_joint == pytest.approx(0.972510689060554, abs=1e-6)


def test_coverage_joint_is_product():
    res = coverage_joint(default_params(beta_dl_db=0.0, beta_ul_db=0.0))
    assert res.p_joint == res.p_dl * res.p_ul


def test_coverage_methods_agree():
    p = default_params(annulus=AnnulusRegion(50.0, 150.0))
    closed = coverage_joint(p, method="closed_form")
    quad = coverage_joint(p, method="quadrature")
    assert closed.p_joint == pytest.approx(quad.p_joint, abs=1e-6)


def test_coverage_without_jammers_is_one():
    res = coverage_joint(default_params(rho_j=0.0))
    assert res.p_dl == pytest.approx(1.0, abs=1e-8)
    assert res.p_ul == pytest.approx(1.0, abs=1e-8)
    assert res.p_joint == pytest.approx(1.0, abs=1e-8)


def test_coverage_decreases_with_threshold():
    vals = [coverage_joint(default_params(beta_dl_db=b, beta_ul_db=b)).p_joint
            for b in (-30.0, -25.0, -20.0, -15.0, -10.0, -5.0, 0.0)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_coverage_decreases_with_jammer_power():
    # raising jammer power scales the interference term up
    base = default_params()
    vals = [
        coverage_joint(NetworkParams(p_jammer_dbm=pj, beta_dl_db=-20.0, beta_ul_db=-20.0)).p_ul
        for pj in (0.0, 5.0, 10.0, 15.0, 20.0)
    ]
    assert coverage_joint(base).p_ul == vals[2]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_coverage_decreases_with_jammer_intensity():
    lo = coverage_joint(default_params()).p_joint
    hi = coverage_joint(default_params(rho_j=2.0 * RHO_J)).p_joint
    assert hi < lo


def _adaptive_direction(beta, gamma, p):
    """The closed-form coverage integral over the link distance r,
    truncated where the typical-distance density has exp(-30) of its
    mass left, by adaptive quadrature in r."""
    r_max = math.sqrt(30.0 / (math.pi * p.rho_t))

    def integrand(r):
        if r <= 0.0:
            return 0.0
        lap = laplace_interference(r, beta, gamma, p.rho_j, p.alpha, p.annulus)
        return 2.0 * math.pi * p.rho_t * r * math.exp(-math.pi * p.rho_t * r * r) * lap

    val, _ = integrate.quad(integrand, 0.0, r_max, epsabs=1e-13, epsrel=1e-13, limit=500)
    return val


@pytest.mark.parametrize("n", [16, 48, 96])
def test_gauss_legendre_matches_numpy(n):
    x, w = gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    order = np.argsort(x)
    assert np.abs(x[order] - ref_x).max() <= 1e-15
    assert np.abs(w[order] - ref_w).max() <= 1e-14


@pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0, 5.0])
def test_outer_rule_matches_adaptive_integral(alpha):
    # bands at and away from the receiver, dense jammers and both leader
    # powers: the fixed outer rule must match the adaptive integral of
    # the same integrand, and its error estimate must not understate a
    # gap that matters
    base = NetworkParams()
    for beta_db in (-30.0, -20.0, -10.0, 0.0, 10.0):
        for band in ((0.0, 5.0), (0.0, 300.0), (5.0, 10.0), (20.0, 70.0), (250.0, 300.0)):
            for rho_scale in (1.0, 8.0):
                for p_leader_dbm in (20.0, 30.0):
                    p = replace(base, alpha=alpha, beta_dl_db=beta_db, beta_ul_db=beta_db,
                                annulus=AnnulusRegion(*band), rho_j=rho_scale * base.rho_j,
                                p_leader_dbm=p_leader_dbm)
                    res = coverage_joint(p)
                    gap = max(abs(res.p_dl - _adaptive_direction(p.beta_dl, p.gamma_dl, p)),
                              abs(res.p_ul - _adaptive_direction(p.beta_ul, p.gamma_ul, p)))
                    assert gap <= 1e-10, (beta_db, band, rho_scale, p_leader_dbm)
                    est = res.quadrature_error_estimate
                    assert est >= gap or est <= 1e-10, (beta_db, band, rho_scale, p_leader_dbm)


def test_dl_beats_ul_at_equal_threshold():
    # the leader transmits stronger, so downlink tolerates more jamming
    res = coverage_joint(default_params())
    assert res.p_dl > res.p_ul


# ------------------------------------------------------------------ result


def test_result_rejects_out_of_range():
    with pytest.raises(ValueError):
        CoverageResult(p_dl=1.2, p_ul=0.9, quadrature_error_estimate=0.0)
    with pytest.raises(ValueError):
        CoverageResult(p_dl=0.5, p_ul=0.5, quadrature_error_estimate=-1e-9)
