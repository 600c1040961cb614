"""The regression baseline: PCA plus Gaussian-process regression.

Training data, one row of values per operating condition (a curve on a
common strain grid, or a field), is reduced by `pca.fit_pca`; each
reduced coordinate is regressed against the condition with a zero-mean
GP under a squared-exponential kernel. Prediction at a new condition
reconstructs the values from the posterior coordinate means and
propagates their variances pointwise. `fit_predict_baseline` is the one
entry point for curves and fields alike.

GP hyperparameters come from a fixed 20x20x20 log-spaced grid scored by
log-marginal likelihood (Rasmussen & Williams 2006, ch. 5). The grid is
evaluated in stacked LAPACK passes, one batched Cholesky factorisation
and solve per length scale, which gives bit for bit the scores of
factoring each candidate on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pca import fit_pca, project, reconstruct


# -- Gaussian process regression ---------------------------------------------

@dataclass
class GprModel:
    """Zero-mean GP posterior over one coefficient vs condition.

    Inputs are standardized internally; `alpha` caches (K + noise I)^-1 y.
    """

    train_inputs: np.ndarray
    length_scale: float
    signal_variance: float
    noise_variance: float
    input_shift: float
    input_scale: float
    alpha: np.ndarray
    chol: np.ndarray


def _sq_exp(a, b, length_scale, signal_variance):
    d = a[:, None] - b[None, :]
    return signal_variance * np.exp(-0.5 * (d / length_scale) ** 2)


def _grid_log_marginals(Ts, a, ls_grid, sv_grid, nv_grid):
    """Log-marginal likelihood of `a` at every grid triple: [ls, sv, nv].

    Each length scale is one stacked pass over its sv x nv candidates: the
    kernels K0(ls, sv) + nv I are factored by one batched Cholesky call and
    solved by one batched solve, so memory stays at len(sv) * len(nv)
    n x n matrices per pass. Scores where a factorisation produced
    non-finite values are -inf.
    """
    n = len(Ts)
    nv_eye = nv_grid[:, None, None] * np.eye(n)
    out = np.empty((len(ls_grid), len(sv_grid), len(nv_grid)))
    for i, ls in enumerate(ls_grid):
        K0 = np.stack([_sq_exp(Ts, Ts, ls, sv) for sv in sv_grid])
        L = np.linalg.cholesky(K0[:, None] + nv_eye)
        z = np.linalg.solve(L, a[:, None])[..., 0]
        quad = np.vecdot(z, z)
        logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)),
                              axis=-1)
        out[i] = -0.5 * quad - 0.5 * logdet - 0.5 * n * np.log(2.0 * np.pi)
    return np.where(np.isnan(out), -np.inf, out)


def gpr_fit(T, a, hyper=None) -> GprModel:
    """Condition a zero-mean GP on (T, a) pairs.

    `hyper`, when given, fixes (length_scale, signal_variance,
    noise_variance) in standardized input units. Otherwise the triple is
    chosen by log-marginal-likelihood over a log-spaced 20x20x20 grid,
    which is deterministic and needs no external optimizer; the grid is
    scored in stacked LAPACK passes (`_grid_log_marginals`) and the first
    maximum in ls -> sv -> nv order wins. Non-finite conditions or targets
    raise ValueError.
    """
    T = np.asarray(T, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if T.ndim != 1 or T.shape != a.shape or T.size < 1:
        raise ValueError("T and a must be equal-length vectors")
    if not np.all(np.isfinite(T)):
        raise ValueError("conditions must be finite")
    if not np.all(np.isfinite(a)):
        raise ValueError("targets must be finite")
    shift = float(T.mean())
    scale = float(T.std()) if T.size > 1 and T.std() > 0 else 1.0
    Ts = (T - shift) / scale
    if len(np.unique(Ts)) != len(Ts):
        raise ValueError("conditions must be distinct")

    if hyper is not None:
        ls, sv, nv = (float(h) for h in hyper)
        if min(ls, sv) <= 0 or nv < 0:
            raise ValueError("hyperparameters must be positive")
    else:
        a_var = float(a.var()) if a.size > 1 else max(float(a[0]) ** 2, 1e-12)
        a_var = max(a_var, 1e-12)
        ls_grid = np.logspace(-1.0, 1.3, 20)
        sv_grid = a_var * np.logspace(-1.0, 1.5, 20)
        nv_grid = a_var * np.logspace(-8.0, -0.5, 20)
        # every grid kernel is sv R + nv I with nv / sv >= 3e-10, so it
        # factors without jitter; a failed factorisation raises LinAlgError
        lml = _grid_log_marginals(Ts, a, ls_grid, sv_grid, nv_grid)
        i, j, k = np.unravel_index(np.argmax(lml), lml.shape)
        if lml[i, j, k] == -np.inf:
            raise np.linalg.LinAlgError("no stable hyperparameter choice found")
        ls, sv, nv = ls_grid[i], sv_grid[j], nv_grid[k]

    L = np.linalg.cholesky(_sq_exp(Ts, Ts, ls, sv) + nv * np.eye(len(Ts)))
    z = np.linalg.solve(L, a)
    alpha = np.linalg.solve(L.T, z)
    return GprModel(
        train_inputs=Ts, length_scale=float(ls), signal_variance=float(sv),
        noise_variance=float(nv), input_shift=shift, input_scale=scale,
        alpha=alpha, chol=L,
    )


def gpr_predict(model: GprModel, T_star) -> tuple[float, float]:
    """Posterior predictive (mean, variance including noise) at the one
    condition T_star; a query of any other size raises ValueError."""
    T_star = np.asarray(T_star, dtype=np.float64).reshape(1)
    if not np.isfinite(T_star[0]):
        raise ValueError(f"query condition must be finite; got {T_star}")
    # far from the data the scaled distance overflows and k* is exactly 0
    with np.errstate(over="ignore"):
        ts = (T_star - model.input_shift) / model.input_scale
        k_star = _sq_exp(ts, model.train_inputs, model.length_scale,
                         model.signal_variance)
    mean = k_star @ model.alpha
    v = np.linalg.solve(model.chol, k_star.T)
    var = model.signal_variance - np.einsum("ij,ij->j", v, v) + model.noise_variance
    var = np.maximum(var, 0.0)
    return float(mean[0]), float(var[0])


def fit_predict_baseline(values, conditions, target, basis=None):
    """Baseline prediction at condition `target`: (mean, pointwise std).

    `values` is [n_T, m], one row per training condition. Each coordinate
    of `basis`, by default the PCA of `values` that keeps 99 % of the
    variance, gets its own GP over the condition. Coordinate posteriors
    are treated as independent, so variances propagate through the
    squared components.
    """
    if basis is None:
        basis = fit_pca(values, 0.99)
    coeffs = project(basis, values)
    mean, var = np.empty(basis.d), np.empty(basis.d)
    for k in range(basis.d):
        mean[k], var[k] = gpr_predict(gpr_fit(conditions, coeffs[:, k]), target)
    return reconstruct(basis, mean), np.sqrt(var @ basis.components ** 2)
