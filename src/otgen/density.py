"""Probability densities over data space.

Two families cover the workloads here: a 2-D density around a mean
stress-strain curve (uniform in strain over the observed range, Gaussian
in stress about the interpolated mean) and an isotropic Gaussian in a
reduced coordinate space. Both evaluate pointwise, sample reproducibly
from explicit seeds, and can be queried with tape tensors so training
losses can differentiate through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import rng

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


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
    strain inside [lo, hi] and 0 outside, where mean(.) interpolates the
    stored mean curve linearly.
    """

    def __init__(self, strain_grid, mean_stress, sigma_stress, strain_range=None):
        self.strain_grid = np.asarray(strain_grid, dtype=np.float64)
        self.mean_stress = np.asarray(mean_stress, dtype=np.float64)
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
        if strain_range is None:
            strain_range = (self.strain_grid[0], self.strain_grid[-1])
        self.strain_range = (float(strain_range[0]), float(strain_range[1]))
        if not np.all(np.isfinite(self.strain_range)):
            raise ValueError("strain range must be finite")
        if self.strain_range[0] >= self.strain_range[1]:
            raise ValueError("empty strain range")

    @property
    def dim(self) -> int:
        return 2

    def mean_at(self, strain):
        return np.interp(strain, self.strain_grid, self.mean_stress)

    def pdf_t(self, x: ad.Tensor) -> ad.Tensor:
        """Density at tape points x [n, 2]; differentiable in x.

        Outside the strain range the value (and its gradient) is zero.
        """
        lo, hi = self.strain_range
        strain = ad.getitem(x, (slice(None), 0))
        stress = ad.getitem(x, (slice(None), 1))
        mean = ad.interp_query(self.strain_grid, self.mean_stress, strain)
        z = ad.mul(ad.sub(stress, mean), 1.0 / self.sigma_stress)
        gauss = ad.mul(ad.exp(ad.mul(ad.square(z), -0.5)),
                       _INV_SQRT_2PI / self.sigma_stress)
        inside = ((strain.value >= lo) & (strain.value <= hi)).astype(np.float64)
        return ad.mul(gauss, ad.Tensor(inside / (hi - lo)))

    def pdf(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        with ad.no_grad():
            return self.pdf_t(ad.constant(x)).value

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

    def pdf_t(self, x: ad.Tensor) -> ad.Tensor:
        d = self.dim
        norm = (_INV_SQRT_2PI / self.sigma) ** d
        z = ad.mul(ad.sub(x, ad.Tensor(self.mean)), 1.0 / self.sigma)
        q = ad.tsum(ad.square(z), axis=-1)
        return ad.mul(ad.exp(ad.mul(q, -0.5)), norm)

    def pdf(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        with ad.no_grad():
            return self.pdf_t(ad.constant(x)).value

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
