"""Shared rigged models for tests: analytic displacement/force stubs, and
documents in the formats written before float arrays became base64."""

import base64

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

    def pdf_t(self, x):
        return ad.mul(super().pdf_t(x), np.nan)


def rigged_transport_model(dim, u_fn, f_fn=None, **cfg_kw):
    cfg_kw.setdefault("n_samples", 64)
    cfg_kw.setdefault("n_samples_pde", 16)
    cfg_kw.setdefault("n_collocation", 7)
    cfg = TrainConfig(**cfg_kw)
    return TransportModel(RiggedField(dim, u_fn), RiggedForce(dim, f_fn),
                          ConditionNormalizer("linear", 0.0, 1.0), cfg)


def make_translation_model_and_data(shift=0.3, sigma=0.1):
    model = rigged_transport_model(
        1, lambda X, t: shift * t * np.ones_like(X))
    snaps = []
    for t in (0.0, 0.5, 1.0):
        snaps.append(Snapshot(
            t, ReducedGaussianDensity([shift * t], sigma),
            (np.zeros((1, 1)), shift * t * np.ones((1, 1)))))
    return model, SnapshotDataset(snaps)


# keys whose values are float arrays in model and weight documents
ARRAY_KEYS = frozenset({
    "weight", "bias", "spectral_weights", "output_scales", "offset", "scale",
    "strain_grid", "mean_stress", "mean", "data_mean", "components",
    "singular_values", "explained_variance_ratio"})


def as_text_arrays(doc):
    """`doc` as weight version 1 wrote it: every base64 float array a list
    of numbers, every nested weight document at version 1."""
    if isinstance(doc, list):
        return [as_text_arrays(v) for v in doc]
    if not isinstance(doc, dict):
        return doc
    out = {k: (np.frombuffer(base64.b64decode(v), "<f8").tolist()
               if k in ARRAY_KEYS and isinstance(v, str) else as_text_arrays(v))
           for k, v in doc.items()}
    if {"layers", "spectral_weights", "components"} & out.keys():
        out["version"] = 1
    return out


def legacy_model_document(doc, version):
    """A format-3 model document rewritten as format `version` (1 or 2).

    Format 1 also kept the scaler under `preprocessing` and, like format 2
    before exact input derivatives, the finite-difference step in its config.
    """
    old = as_text_arrays(doc)
    old["version"] = version
    if version == 1:
        old["preprocessing"] = {"scaler": old.pop("scaler")}
        old["config"]["fd_step"] = 0.001
    return old
