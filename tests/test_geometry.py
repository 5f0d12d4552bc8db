import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from raftguard.geometry import (
    AnnulusRegion,
    DiskRegion,
    annulus_radii,
    disk_radii,
    link_distances,
    uniform_disk_points,
)

RHO = 15.0 / (math.pi * 500.0**2)


# ------------------------------------------------------------------ regions


def test_disk_area():
    assert DiskRegion(500.0).area == pytest.approx(math.pi * 250000.0, rel=1e-12)


def test_annulus_area():
    assert AnnulusRegion(100.0, 200.0).area == pytest.approx(math.pi * 30000.0, rel=1e-12)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
def test_disk_rejects_bad_radius(radius):
    with pytest.raises(ValueError):
        DiskRegion(radius)


@pytest.mark.parametrize("inner,outer", [(200.0, 100.0), (-1.0, 50.0), (math.nan, 50.0),
                                         (0.0, math.nan), (0.0, math.inf)])
def test_annulus_rejects_bad_bounds(inner, outer):
    with pytest.raises(ValueError, match="0 <= inner <= outer"):
        AnnulusRegion(inner, outer)


@pytest.mark.parametrize("z", [0.0, 100.0])
def test_annulus_of_equal_radii_is_an_empty_band(z):
    band = AnnulusRegion(z, z)
    assert band.area == 0.0
    assert annulus_radii(band, 0, np.random.default_rng(1)).size == 0


def test_annulus_allows_zero_inner():
    assert AnnulusRegion(0.0, 300.0).inner == 0.0


# ------------------------------------------------------------- radial draws


def test_disk_radii_distribution():
    """Uniform placement on a disk has CDF (r/R)^2 in the radius."""
    rng = np.random.default_rng(5)
    r = disk_radii(DiskRegion(500.0), 40000, rng)
    assert r.min() >= 0.0 and r.max() <= 500.0
    ks = stats.kstest(r, lambda x: (x / 500.0) ** 2)
    assert ks.pvalue > 1e-3


def test_annulus_radii_distribution():
    rng = np.random.default_rng(6)
    region = AnnulusRegion(100.0, 300.0)
    r = annulus_radii(region, 40000, rng)
    assert r.min() >= 100.0 and r.max() <= 300.0
    ks = stats.kstest(r, lambda x: (x**2 - 100.0**2) / (300.0**2 - 100.0**2))
    assert ks.pvalue > 1e-3


def test_annulus_radii_draws_into_one_array():
    rng = np.random.default_rng(6)
    tracemalloc.start()
    try:
        r = annulus_radii(AnnulusRegion(100.0, 300.0), 200_000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * r.nbytes


def test_link_distances_distribution():
    # typical-follower distance: CDF 1 - exp(-pi*rho*r^2)
    rng = np.random.default_rng(7)
    r = link_distances(RHO, 40000, rng)
    ks = stats.kstest(r, lambda x: 1.0 - np.exp(-math.pi * RHO * x**2))
    assert ks.pvalue > 1e-3


def test_zero_count_draws_are_empty():
    rng = np.random.default_rng(0)
    assert disk_radii(DiskRegion(500.0), 0, rng).shape == (0,)
    assert annulus_radii(AnnulusRegion(0.0, 300.0), 0, rng).shape == (0,)


# ------------------------------------------------------------ disk points


def test_uniform_disk_points_shape_and_radius():
    rng = np.random.default_rng(13)
    pts = uniform_disk_points(250, DiskRegion(100.0), rng)
    assert pts.shape == (250, 2)
    assert np.hypot(pts[:, 0], pts[:, 1]).max() <= 100.0
