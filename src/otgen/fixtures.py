"""Synthetic benchmark families with known extrapolation targets.

Both families index an analytic data generator by a dimensionless
condition tau in [0, 1]: training files cover several tau values and a
ground-truth file holds the exact answer at the held-out tau = 1.

curves: stress(strain; tau) = (a + b*tau + d*tau^2) * (1 - exp(-c*strain))
fields: v(tau) = base + tau * mode1 + tau^2 * mode2    in R^D

The quadratic coefficients (d, mode2) default to benchmarks that are
nonlinear in tau, so extrapolating to tau = 1 exercises more than a linear
trend; set d = 0 for the purely linear curve family.
"""

from __future__ import annotations

import inspect
from pathlib import Path

import numpy as np

from . import dataio, rng
from .density import CurveSnapshot
from .transport import check_number

def curve_family(tau, a=40.0, b=10.0, c=8.0, d=15.0, strain_max=0.5, n_points=40):
    """Exact mean curve of the synthetic family at condition tau."""
    strains = np.linspace(0.0, strain_max, n_points)
    stresses = (a + b * tau + d * tau**2) * (1.0 - np.exp(-c * strains))
    return np.column_stack([strains, stresses])


def field_family(tau, D=500, base_scale=1.0, mode_scale=0.6, seed=0):
    """Exact field vector of the synthetic family at condition tau.

    The base and the two modes are smooth deterministic patterns over the
    component index; `seed` offsets their phases so different fixtures are
    not colinear.
    """
    idx = np.linspace(0.0, 1.0, D)
    gen = rng.stream(seed, 0xF1E1D)
    phases = rng.uniform(gen, 3) * 2 * np.pi
    base = base_scale * (np.sin(2 * np.pi * idx + phases[0])
                         + 0.5 * np.cos(5 * np.pi * idx))
    mode1 = mode_scale * np.exp(-0.5 * ((idx - 0.35) / 0.12) ** 2) \
        * np.cos(3 * np.pi * idx + phases[1])
    mode2 = mode_scale * np.exp(-0.5 * ((idx - 0.7) / 0.18) ** 2) \
        * np.sin(4 * np.pi * idx + phases[2])
    return base + tau * mode1 + tau**2 * mode2


# the params a fixture defaults to: its family's keyword defaults but `seed`
CURVE_DEFAULTS, FIELD_DEFAULTS = (
    {k: p.default for k, p in inspect.signature(family).parameters.items()
     if k not in ("tau", "seed")} for family in (curve_family, field_family))


def _family_params(kind, params) -> dict:
    """The defaults of family `kind` updated by `params`; ValueError if bad."""
    defaults = {"curves": CURVE_DEFAULTS, "fields": FIELD_DEFAULTS}.get(kind)
    if defaults is None:
        raise ValueError(f"unknown fixture kind {kind!r}")
    if not isinstance(params, dict):
        raise ValueError(f"{kind} params must be an object; got {params!r}")
    for key, value in params.items():
        if key not in defaults:
            raise ValueError(f"unknown {kind} param {key!r}; known: "
                             f"{', '.join(defaults)}")
        count = isinstance(defaults[key], int)  # n_points, D
        check_number(f"{kind} param {key!r}", value, count,
                     1 if count else None)
    return {**defaults, **params}


def synth_fixture(kind, out_dir, seed=0, taus=None, params=None):
    """Write a synthetic dataset plus its analytic held-out target.

    Returns a dict of written paths: train, target, meta. `taus` defaults
    to five training conditions 0, 0.2, ..., 0.8; the target is at 1.
    """
    target_tau = 1.0
    p = _family_params(kind, {} if params is None else params)
    if taus is None:
        taus = [0.0, 0.2, 0.4, 0.6, 0.8]
    for t in taus:
        check_number("tau", t)
    taus = [float(t) for t in taus]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if kind == "curves":
        train_path = out / "curves_train.csv"
        target_path = out / "curves_target.csv"
        snaps = [CurveSnapshot(t, curve_family(t, **p)) for t in taus]
        dataio.write_curves(train_path, snaps)
        dataio.write_curves(target_path,
                            [CurveSnapshot(target_tau, curve_family(target_tau, **p))])
    else:
        train_path = out / "fields_train.csv"
        target_path = out / "fields_target.csv"
        rows = np.stack([field_family(t, seed=seed, **p) for t in taus])
        dataio.write_fields(train_path, taus, rows)
        dataio.write_fields(target_path, [target_tau],
                            field_family(target_tau, seed=seed, **p)[None, :])
    meta_path = out / "fixture_meta.json"
    dataio.write_json(meta_path, {"kind": kind, "seed": seed, "taus": taus,
                                  "target_tau": target_tau, "params": p})
    return {"train": str(train_path), "target": str(target_path),
            "meta": str(meta_path)}
