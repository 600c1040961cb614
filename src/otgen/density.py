"""Probability densities over data space.

Two families cover the workloads here: a 2-D density around a mean
stress-strain curve (uniform in strain over the observed range, Gaussian
in stress about the interpolated mean) and an isotropic Gaussian in a
reduced coordinate space. Both sample reproducibly from explicit seeds.
Each writes its formula once, in `pdf_and_grad`, which returns the value
and its gradient in x: `pdf` reads the value, `pdf_t` makes a tape node of
both, and the training loss's density term calls it directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import rng

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _points(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


def _pdf_node(density, x) -> ad.Tensor:
    """A density's values at tape points x [n, dim] as one tape node, with
    the gradient of `density.pdf_and_grad` as its backward."""
    x = ad.constant(x)
    rho, grad = density.pdf_and_grad(x.value)
    return ad.node(rho, (x,), lambda g: g[:, None] * grad)


@dataclass(frozen=True)
class CurveSnapshot:
    """One observed curve: operating condition plus (strain, stress) points."""

    condition_raw: float
    points: np.ndarray  # [n, 2] strain, stress

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be [n, 2] (strain, stress)")
        if pts.shape[0] < 4:
            raise ValueError("a curve needs at least 4 points")
        if np.any(np.diff(pts[:, 0]) <= 0):
            raise ValueError("strains must be strictly increasing")

    @property
    def strains(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def stresses(self) -> np.ndarray:
        return self.points[:, 1]


class GaussianCurveDensity:
    """Uniform-in-strain, Gaussian-in-stress density about a mean curve.

    rho(strain, stress) = 1/(hi-lo) * N(stress; mean(strain), sigma^2) for
    strain inside [lo, hi], the span of the strain grid, and 0 outside,
    where mean(.) interpolates the stored mean curve linearly.
    """

    def __init__(self, strain_grid, mean_stress, sigma_stress):
        self.strain_grid = np.asarray(strain_grid, dtype=np.float64)
        self.mean_stress = np.asarray(mean_stress, dtype=np.float64)
        if self.strain_grid.ndim != 1 or self.strain_grid.size < 2:
            raise ValueError("a strain grid needs at least 2 points")
        if self.strain_grid.shape != self.mean_stress.shape:
            raise ValueError("grid/mean length mismatch")
        if not (np.all(np.isfinite(self.strain_grid))
                and np.all(np.isfinite(self.mean_stress))):
            raise ValueError("mean curve must be finite")
        if np.any(np.diff(self.strain_grid) <= 0):
            raise ValueError("strain grid must be strictly increasing")
        if not 0 < sigma_stress < np.inf:
            raise ValueError("sigma_stress must be positive and finite")
        self.sigma_stress = float(sigma_stress)
        self.strain_range = (float(self.strain_grid[0]), float(self.strain_grid[-1]))
        self._slopes = np.diff(self.mean_stress) / np.diff(self.strain_grid)

    @property
    def dim(self) -> int:
        return 2

    def mean_at(self, strain):
        return np.interp(strain, self.strain_grid, self.mean_stress)

    def pdf_and_grad(self, x):
        """(rho [n], d rho / dx [n, 2]) at points x [n, 2], as float64 arrays.

        Outside the strain range both are zero.
        """
        x = _points(x)
        lo, hi = self.strain_range
        strain, stress = x[:, 0], x[:, 1]
        grid = self.strain_grid
        # segment j holds strain in [grid[j], grid[j + 1]), the ends clamped
        seg = np.searchsorted(grid[1:-1], strain, side="right")
        z = (stress - np.interp(strain, grid, self.mean_stress)) \
            * (1.0 / self.sigma_stress)
        inside = ((strain >= lo) & (strain <= hi)).astype(np.float64)
        rho = np.exp(z * z * -0.5) * (_INV_SQRT_2PI / self.sigma_stress)
        rho *= inside / (hi - lo)
        # dz/dstress = 1 / sigma and dz/dstrain = -slope / sigma
        dz = rho * z * (-1.0 / self.sigma_stress)
        return rho, np.column_stack([-dz * self._slopes[seg], dz])

    def pdf(self, x) -> np.ndarray:
        return self.pdf_and_grad(x)[0]

    def pdf_t(self, x: ad.Tensor) -> ad.Tensor:
        return _pdf_node(self, x)

    def sample(self, n, seed) -> np.ndarray:
        """n points: strain uniform on the range, stress about the mean."""
        if n < 1:
            raise ValueError("need n >= 1 samples")
        lo, hi = self.strain_range
        gen = rng.stream(seed, 0x5A)
        strain = lo + (hi - lo) * rng.uniform(gen, n)
        stress = self.mean_at(strain) + self.sigma_stress * rng.normal(gen, n)
        return np.column_stack([strain, stress])

    def mean_curve(self) -> np.ndarray:
        return np.column_stack([self.strain_grid, self.mean_stress])


class ReducedGaussianDensity:
    """Isotropic Gaussian in reduced coordinates."""

    def __init__(self, mean, sigma):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        if self.mean.ndim != 1 or self.mean.size < 1:
            raise ValueError("mean must be a vector")
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("mean must be finite")
        if not 0 < sigma < np.inf:
            raise ValueError("sigma must be positive and finite")
        self.sigma = float(sigma)

    @property
    def dim(self) -> int:
        return self.mean.size

    def pdf_and_grad(self, x):
        """(rho [n], d rho / dx [n, dim]) at points x [n, dim], as float64
        arrays."""
        z = (_points(x) - self.mean) * (1.0 / self.sigma)
        rho = np.exp((z * z).sum(axis=-1) * -0.5) \
            * (_INV_SQRT_2PI / self.sigma) ** self.dim
        return rho, z * (rho * (-1.0 / self.sigma))[:, None]

    def pdf(self, x) -> np.ndarray:
        return self.pdf_and_grad(x)[0]

    def pdf_t(self, x: ad.Tensor) -> ad.Tensor:
        return _pdf_node(self, x)

    def sample(self, n, seed) -> np.ndarray:
        if n < 1:
            raise ValueError("need n >= 1 samples")
        gen = rng.stream(seed, 0x5B)
        return self.mean + self.sigma * rng.normal(gen, (n, self.dim))


def field_to_samples(field_mean, sigma, n, seed) -> np.ndarray:
    """n noisy replicas of a field vector: mean + sigma * z, z ~ N(0, I)."""
    mean = np.atleast_1d(np.asarray(field_mean, dtype=np.float64))
    if mean.size < 1:
        raise ValueError("field mean must be non-empty")
    if n < 1:
        raise ValueError("need n >= 1 samples")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    gen = rng.stream(seed, 0x5C)
    return mean + sigma * rng.normal(gen, (n, mean.size))
