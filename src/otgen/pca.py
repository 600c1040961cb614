"""Principal component reduction for high-dimensional field samples.

Numpy only; `otgen.dataio` reads and writes basis documents.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PcaBasis:
    """Centered orthonormal basis: components are rows of shape [d, D]."""

    data_mean: np.ndarray
    components: np.ndarray
    singular_values: np.ndarray
    explained_variance_ratio: np.ndarray

    @property
    def d(self) -> int:
        return self.components.shape[0]

    @property
    def D(self) -> int:
        return self.components.shape[1]


def _fix_signs(components: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude entry is positive.

    Ties on magnitude resolve to the earliest index, making serialized
    bases reproducible across BLAS builds.
    """
    out = components.copy()
    for k in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[k])))
        if out[k, j] < 0:
            out[k] = -out[k]
    return out


def fit_pca(samples, d: int | float) -> PcaBasis:
    """Top principal directions of the centered sample matrix [n, D].

    An integer d keeps d components. A fraction 0 < d < 1 keeps the fewest
    whose explained-variance ratios sum to at least d, and one when every
    row is the same.
    """
    X = np.asarray(samples, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("samples must be [n, D]")
    n, D = X.shape
    fraction = 0 < d < 1
    if not fraction and (d < 1 or d > min(n, D)):
        raise ValueError(f"d must satisfy 1 <= d <= min(n, D) = {min(n, D)}")
    mean = X.mean(axis=0)
    Xc = X - mean
    _, s, vt = np.linalg.svd(Xc, full_matrices=False)
    total = float((s * s).sum())
    ratios = (s * s) / total if total else np.zeros(len(s))
    if fraction:
        d = 1 if total == 0.0 else min(
            int(np.searchsorted(np.cumsum(ratios), d) + 1), len(s))
    if n <= d:
        raise ValueError("need more samples than retained dimensions")
    if total == 0.0:
        warnings.warn("degenerate sample set: all rows identical")
    elif (rank := int(np.sum(s > s[0] * 1e-12))) < d:
        warnings.warn(f"sample rank {rank} below requested d={d}; "
                      "trailing components span an arbitrary complement")
    return PcaBasis(
        data_mean=mean,
        components=_fix_signs(vt[:d]),
        singular_values=s[:d].copy(),
        explained_variance_ratio=ratios[:d],
    )


def project(basis: PcaBasis, x) -> np.ndarray:
    """Reduced coordinates components @ (x - mean); x is [D] or [n, D]."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != basis.D:
        raise ValueError("dimension mismatch with basis")
    return (x - basis.data_mean) @ basis.components.T


def reconstruct(basis: PcaBasis, coeffs) -> np.ndarray:
    """Back to data space: mean + coeffs @ components; coeffs [d] or [n, d]."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape[-1] != basis.d:
        raise ValueError("coefficient dimension mismatch with basis")
    return basis.data_mean + coeffs @ basis.components


def subspace_residual(basis: PcaBasis, x) -> float:
    """Relative distance of x from the fitted affine subspace."""
    x = np.asarray(x, dtype=np.float64)
    back = reconstruct(basis, project(basis, x))
    denom = np.linalg.norm(x - basis.data_mean)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(x - back) / denom)

