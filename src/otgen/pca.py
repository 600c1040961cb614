"""Principal component reduction for high-dimensional field samples."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .nn import WEIGHT_FORMAT_VERSION, _arr_in, _arr_out


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


def fit_pca(samples, d: int) -> PcaBasis:
    """Top-d principal directions of the centered sample matrix [n, D]."""
    X = np.asarray(samples, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("samples must be [n, D]")
    n, D = X.shape
    if d < 1 or d > min(n, D):
        raise ValueError(f"d must satisfy 1 <= d <= min(n, D) = {min(n, D)}")
    if n <= d:
        raise ValueError("need more samples than retained dimensions")
    mean = X.mean(axis=0)
    Xc = X - mean
    _, s, vt = np.linalg.svd(Xc, full_matrices=False)
    total = float((s * s).sum())
    if total == 0.0:
        warnings.warn("degenerate sample set: all rows identical")
        ratios = np.zeros(d)
    else:
        ratios = (s[:d] * s[:d]) / total
    rank = int(np.sum(s > s[0] * 1e-12)) if s.size and s[0] > 0 else 0
    if rank < d:
        warnings.warn(f"sample rank {rank} below requested d={d}; "
                      "trailing components span an arbitrary complement")
    return PcaBasis(
        data_mean=mean,
        components=_fix_signs(vt[:d]),
        singular_values=s[:d].copy(),
        explained_variance_ratio=ratios,
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


def basis_to_dict(basis: PcaBasis) -> dict:
    return {
        "version": WEIGHT_FORMAT_VERSION,
        "shape": list(basis.components.shape),
        "data_mean": _arr_out(basis.data_mean),
        "components": _arr_out(basis.components),
        "singular_values": _arr_out(basis.singular_values),
        "explained_variance_ratio": _arr_out(basis.explained_variance_ratio),
    }


def basis_from_dict(doc: dict) -> PcaBasis:
    d, D = doc["shape"]
    return PcaBasis(
        data_mean=_arr_in(doc["data_mean"], (D,)),
        components=_arr_in(doc["components"], (d, D)),
        singular_values=_arr_in(doc["singular_values"]),
        explained_variance_ratio=_arr_in(doc["explained_variance_ratio"]),
    )
