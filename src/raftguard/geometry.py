"""Regions and radial samplers for the network model.

The leader sits at the origin.  Followers live in a disk around it,
jammers in an annulus, both as homogeneous PPPs.  Radial sampling uses
inverse-CDF transforms so that area elements are uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiskRegion",
    "AnnulusRegion",
    "uniform_disk_points",
    "disk_radii",
    "annulus_radii",
    "link_distances",
]


@dataclass(frozen=True)
class DiskRegion:
    """Disk of given radius centered on the origin."""

    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"disk radius must be positive and finite, got {self.radius}")

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius


@dataclass(frozen=True)
class AnnulusRegion:
    """Annulus z1 <= r < z2 centered on the origin (z1 may be 0)."""

    inner: float
    outer: float

    def __post_init__(self) -> None:
        ok = (
            math.isfinite(self.inner)
            and math.isfinite(self.outer)
            and 0.0 <= self.inner < self.outer
        )
        if not ok:
            raise ValueError(
                f"annulus needs 0 <= inner < outer, got ({self.inner}, {self.outer})"
            )

    @property
    def area(self) -> float:
        return math.pi * (self.outer * self.outer - self.inner * self.inner)


def disk_radii(region: DiskRegion, n: int, rng: np.random.Generator) -> np.ndarray:
    """Radii of n points uniform over the disk (sqrt transform)."""
    return region.radius * np.sqrt(rng.random(n))


def annulus_radii(region: AnnulusRegion, n: int, rng: np.random.Generator) -> np.ndarray:
    """Radii of n points uniform over the annulus."""
    lo2 = region.inner * region.inner
    hi2 = region.outer * region.outer
    r2 = rng.random(n)
    r2 *= hi2 - lo2
    r2 += lo2
    return np.sqrt(r2, out=r2)


def uniform_disk_points(n: int, region: DiskRegion, rng: np.random.Generator) -> np.ndarray:
    """Exactly n points uniform on the disk (a PPP conditioned on count)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    r = disk_radii(region, n, rng)
    theta = rng.uniform(0.0, 2.0 * math.pi, r.size)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def link_distances(rho_t: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Distances of the typical follower from the leader, density
    2*pi*rho_t*r*exp(-pi*rho_t*r^2), i.e. Rayleigh with sigma^2 = 1/(2*pi*rho_t)."""
    if not (math.isfinite(rho_t) and rho_t > 0.0):
        raise ValueError(f"rho_t must be positive and finite, got {rho_t}")
    return rng.rayleigh(scale=1.0 / math.sqrt(2.0 * math.pi * rho_t), size=n)
