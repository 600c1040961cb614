"""CSV ingestion and versioned JSON persistence.

Curve files carry `condition,strain,stress` rows (many conditions per
file); field files carry one row per condition: `condition,v1..vD`.

Model documents (format 3) hold everything generation needs: both network
weights, the pseudo-time normalizer, the output scaler, the reference
density, the optional PCA basis, and the training history. A reloaded
model therefore generates exactly what the in-memory one does. Every float
array is the base64 of its little-endian float64 bytes (`nn._arr_out`), so
round trips are bit-exact; scalars, the config and the loss history are
plain JSON numbers. Format 1 and 2 documents, whose arrays are lists of
numbers, are still read (format 1 kept the scaler in a free-form
`preprocessing` entry). A malformed document raises `DataFormatError`.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import asdict

import numpy as np

from . import nn
from .density import CurveSnapshot, GaussianCurveDensity, ReducedGaussianDensity
from .nn import DataFormatError
from .pca import basis_from_dict, basis_to_dict
from .transport import (AffineScaler, BodyForceField, ConditionNormalizer,
                        DisplacementField, TrainConfig, TransportModel)

MODEL_FORMAT_VERSION = 3
_MODEL_VERSIONS = (1, 2, MODEL_FORMAT_VERSION)


def ingest_curves(path) -> list[CurveSnapshot]:
    """Parse a curve CSV into one snapshot per condition.

    Rows are grouped by condition and sorted by strain; duplicate strains
    within a condition are averaged with a warning. Errors carry the
    offending line number.
    """
    groups: dict[float, list] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file")
        cols = [c.strip().lower() for c in header]
        for name in ("condition", "strain", "stress"):
            if name not in cols:
                raise DataFormatError(f"{path}: missing column {name!r}")
        ic, ia, io = cols.index("condition"), cols.index("strain"), cols.index("stress")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                cond, strain, stress = _finite(float(row[ic]), float(row[ia]),
                                               float(row[io]))
            except (ValueError, IndexError) as e:
                raise DataFormatError(
                    f"{path}:{lineno}: bad row {row!r}: {e}") from e
            groups.setdefault(cond, []).append((strain, stress))
    if not groups:
        raise DataFormatError(f"{path}: no data rows")
    snapshots = []
    for cond in sorted(groups):
        pts = sorted(groups[cond])
        dedup = []
        i = 0
        merged = False
        while i < len(pts):
            j = i
            while j + 1 < len(pts) and pts[j + 1][0] == pts[i][0]:
                j += 1
            if j > i:
                merged = True
                stress = float(np.mean([p[1] for p in pts[i:j + 1]]))
            else:
                stress = pts[i][1]
            dedup.append((pts[i][0], stress))
            i = j + 1
        if merged:
            warnings.warn(f"{path}: duplicate strains at condition {cond} "
                          "averaged")
        if len(dedup) < 4:
            raise DataFormatError(
                f"{path}: condition {cond} has fewer than 4 points")
        snapshots.append(CurveSnapshot(cond, np.array(dedup)))
    return snapshots


def write_curves(path, snapshots: list[CurveSnapshot]):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["condition", "strain", "stress"])
        for snap in snapshots:
            for strain, stress in snap.points:
                w.writerow([_fmt(snap.condition_raw), _fmt(strain), _fmt(stress)])


def ingest_fields(path):
    """Parse a field CSV: one row per condition, columns condition,v1..vD.

    Returns (conditions [n], fields [n, D]).
    """
    conditions = []
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file")
        cols = [c.strip().lower() for c in header]
        if cols[0] != "condition":
            raise DataFormatError(f"{path}: first column must be 'condition'")
        width = len(cols) - 1
        if width < 1:
            raise DataFormatError(f"{path}: no value columns")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != width + 1:
                raise DataFormatError(f"{path}:{lineno}: expected {width + 1} "
                                      f"columns, got {len(row)}")
            try:
                cond, *values = _finite(*(float(v) for v in row))
            except ValueError as e:
                raise DataFormatError(f"{path}:{lineno}: bad row: {e}") from e
            conditions.append(cond)
            rows.append(values)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    order = np.argsort(conditions, kind="stable")
    return (np.asarray(conditions, dtype=np.float64)[order],
            np.asarray(rows, dtype=np.float64)[order])


def write_fields(path, conditions, fields):
    fields = np.atleast_2d(np.asarray(fields, dtype=np.float64))
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["condition"] + [f"v{j + 1}" for j in range(fields.shape[1])])
        for cond, row in zip(np.atleast_1d(conditions), fields):
            w.writerow([_fmt(cond)] + [_fmt(v) for v in row])


def _finite(*values):
    """`values`, or ValueError if one is NaN or infinite."""
    if not all(math.isfinite(v) for v in values):
        raise ValueError("non-finite value")
    return values


def _fmt(x) -> str:
    return f"{float(x):.17g}"


# -- density and model documents ------------------------------------------------

def density_to_dict(dens) -> dict:
    if isinstance(dens, GaussianCurveDensity):
        return {
            "kind": "gaussian_curve",
            "strain_grid": nn._arr_out(dens.strain_grid),
            "mean_stress": nn._arr_out(dens.mean_stress),
            "sigma_stress": dens.sigma_stress,
            "strain_range": list(dens.strain_range),
        }
    if isinstance(dens, ReducedGaussianDensity):
        return {
            "kind": "reduced_gaussian",
            "mean": nn._arr_out(dens.mean),
            "sigma": dens.sigma,
        }
    raise TypeError(f"cannot serialize density of type {type(dens).__name__}")


def density_from_dict(doc: dict):
    if doc["kind"] == "gaussian_curve":
        lo, hi = doc["strain_range"]
        return GaussianCurveDensity(nn._arr_in(doc["strain_grid"]),
                                    nn._arr_in(doc["mean_stress"]),
                                    float(doc["sigma_stress"]),
                                    (float(lo), float(hi)))
    if doc["kind"] == "reduced_gaussian":
        return ReducedGaussianDensity(nn._arr_in(doc["mean"]),
                                      float(doc["sigma"]))
    raise DataFormatError(f"unknown density kind {doc.get('kind')!r}")


def model_to_dict(model: TransportModel) -> dict:
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "displacement": {
            "dim": model.displacement.dim,
            "net": nn.mlp_to_dict(model.displacement.net),
            "embedding": nn.embedding_to_dict(model.displacement.embedding),
            "output_scales": nn._arr_out(model.displacement.output_scales.value),
        },
        "body_force": {
            "dim": model.body_force.dim,
            "net": nn.mlp_to_dict(model.body_force.net),
        },
        "normalizer": {
            "mode": model.normalizer.mode,
            "raw_min": float(model.normalizer.raw_min),
            "raw_max": float(model.normalizer.raw_max),
            "unit": model.normalizer.unit,
        },
        "scaler": ({"offset": nn._arr_out(model.scaler.offset),
                    "scale": nn._arr_out(model.scaler.scale)}
                   if model.scaler is not None else None),
        "config": asdict(model.config),
        "loss_history": [[float(v) for v in row] for row in model.loss_history],
        "dropped_fraction": float(model.dropped_fraction),
        "reference_density": (density_to_dict(model.reference_density)
                              if model.reference_density is not None else None),
        "pca_basis": (basis_to_dict(model.pca_basis)
                      if model.pca_basis is not None else None),
        "trained": model.trained,
    }
    return doc


def model_from_dict(doc: dict) -> TransportModel:
    """The model a document of format 1, 2 or 3 describes.

    Raises DataFormatError for an unknown version and for a malformed
    document: a missing key, a value of the wrong type, invalid base64, or
    an array whose size does not fit its declared shape.
    """
    with nn.format_errors("model document"):
        return _model_from_dict(doc)


def _model_from_dict(doc: dict) -> TransportModel:
    if doc.get("version") not in _MODEL_VERSIONS:
        raise DataFormatError(f"unsupported model version {doc.get('version')}")
    if doc["version"] == 1:
        doc = dict(doc, scaler=(doc.get("preprocessing") or {}).get("scaler"))
    ddoc = doc["displacement"]
    dim = ddoc["dim"]
    disp = DisplacementField(
        dim, nn.mlp_from_dict(ddoc["net"]),
        embedding=nn.embedding_from_dict(ddoc["embedding"]),
        output_scales=nn._arr_in(ddoc["output_scales"], (dim,)))
    body = BodyForceField(doc["body_force"]["dim"],
                          nn.mlp_from_dict(doc["body_force"]["net"]))
    ndoc = doc["normalizer"]
    normalizer = ConditionNormalizer(ndoc["mode"], float(ndoc["raw_min"]),
                                     float(ndoc["raw_max"]), ndoc["unit"])
    model = TransportModel(
        disp, body, normalizer, TrainConfig.from_dict(doc["config"]),
        loss_history=[tuple(float(v) for v in row)
                      for row in doc["loss_history"]],
        dropped_fraction=float(doc["dropped_fraction"]),
        trained=bool(doc["trained"]),
    )
    if doc.get("reference_density") is not None:
        model.reference_density = density_from_dict(doc["reference_density"])
    if doc.get("pca_basis") is not None:
        model.pca_basis = basis_from_dict(doc["pca_basis"])
    if doc.get("scaler") is not None:
        model.scaler = AffineScaler(nn._arr_in(doc["scaler"]["offset"]),
                                    nn._arr_in(doc["scaler"]["scale"]))
    return model


def save_model(model: TransportModel, path):
    text = json.dumps(model_to_dict(model), sort_keys=True)
    with open(path, "w") as f:
        f.write(text)


def load_model(path) -> TransportModel:
    with open(path) as f:
        return model_from_dict(json.load(f))
