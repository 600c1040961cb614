"""Shared rigged models for tests: analytic displacement/force stubs."""

import numpy as np

from otgen import autodiff as ad
from otgen.density import ReducedGaussianDensity
from otgen.transport import (ConditionNormalizer, Snapshot, SnapshotDataset,
                             TrainConfig, TransportModel)


class RiggedField:
    """Displacement protocol stub computing u = fn(X, t) on constants.

    `jet` takes its derivatives by central differences of the closed form,
    exact up to rounding for maps at most quadratic in each input.
    """

    H = 1e-3

    def __init__(self, dim, fn):
        self.dim = dim
        self.fn = fn

    def _u(self, X, t):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        tcol = np.broadcast_to(np.asarray(t, dtype=np.float64).reshape(-1, 1),
                               (X.shape[0], 1))
        return self.fn(X, tcol)

    def u(self, X, t):
        return ad.constant(self._u(X, t))

    def jet(self, X, t, wrt="space", laplacian=False):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        t = np.asarray(t, dtype=np.float64)
        h = self.H
        u0 = self._u(X, t)
        steps = h * np.eye(X.shape[1])
        if wrt == "space":
            jac = np.stack([(self._u(X + e, t) - self._u(X - e, t)) / (2 * h)
                            for e in steps], axis=-1)
            return ad.constant(u0), ad.constant(jac)
        d2u = (self._u(X, t + h) - 2 * u0 + self._u(X, t - h)) / h**2
        out = [ad.constant(u0), ad.constant(d2u)]
        if laplacian:
            out.append(ad.constant(sum(
                (self._u(X + e, t) - 2 * u0 + self._u(X - e, t)) / h**2
                for e in steps)))
        return tuple(out)

    def u_values(self, X, t):
        return self.u(X, t).value

    def parameters(self):
        return []


class RiggedForce:
    """Body-force protocol stub computing F_b = fn(x, t) (zero by default)."""

    def __init__(self, dim, fn=None):
        self.dim = dim
        self.fn = fn or (lambda x, t: np.zeros_like(x))

    def force(self, x, t, dropout_seed=None):
        tcol = np.broadcast_to(np.asarray(t, dtype=np.float64).reshape(-1, 1),
                               (x.value.shape[0], 1))
        return ad.constant(self.fn(x.value, tcol))

    def parameters(self):
        return []


class NanDensity(ReducedGaussianDensity):
    """A Gaussian whose density evaluates to NaN everywhere."""

    def pdf_and_grad(self, x):
        rho, grad = super().pdf_and_grad(x)
        return rho * np.nan, grad


def rigged_transport_model(dim, u_fn, f_fn=None, reference=None, **cfg_kw):
    """A model of the two stubs; its reference density defaults to a
    centred Gaussian of std 0.3."""
    cfg_kw.setdefault("n_samples", 64)
    cfg_kw.setdefault("n_samples_pde", 16)
    cfg_kw.setdefault("n_collocation", 7)
    cfg = TrainConfig(**cfg_kw)
    if reference is None:
        reference = ReducedGaussianDensity(np.zeros(dim), 0.3)
    return TransportModel(RiggedField(dim, u_fn), RiggedForce(dim, f_fn),
                          ConditionNormalizer("linear", 0.0, 1.0), cfg,
                          reference)


def make_translation_model_and_data(shift=0.3, sigma=0.1):
    model = rigged_transport_model(
        1, lambda X, t: shift * t * np.ones_like(X))
    snaps = []
    for t in (0.0, 0.5, 1.0):
        snaps.append(Snapshot(
            t, ReducedGaussianDensity([shift * t], sigma),
            shift * t * np.ones((1, 1))))
    return model, SnapshotDataset(snaps)
