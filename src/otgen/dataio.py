"""The formats of otgen's data files, outputs and saved documents.

No other module encodes or decodes them; the rest pass arrays and objects.
CSV: curve files carry `condition,strain,stress` rows (many conditions per
file), field files one `condition,v1..vD` row per condition, and discrete
distributions (`otgen ot-discrete`) `x1,..,xk,mass` rows.

JSON: reports are sorted, one-space-indented (`pretty_json`). A model
document (format 4) holds everything generation needs: the networks
(each stamped weight version 2), the pseudo-time normalizer, the output
scaler, the reference density, the optional PCA basis and the training
history, so a reloaded model generates exactly what the in-memory one
does. Every float array goes through one codec, `_arr_out`/`_arr_in`: the
base64 of its little-endian float64 bytes, so round trips are bit-exact.
The reader takes exactly what the writer writes (model format 4, weight
version 2, every key, a non-empty loss history); anything else raises
`DataFormatError`.
"""

from __future__ import annotations

import base64
import csv
import itertools
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .density import CurveSnapshot, GaussianCurveDensity, ReducedGaussianDensity
from .discrete import DiscreteDistribution
from .nn import FourierFeatureEmbedding, Layer, Mlp
from .pca import PcaBasis
from .transport import (AffineScaler, BodyForceField, ConditionNormalizer,
                        DisplacementField, TrainConfig, TransportModel)

WEIGHT_FORMAT_VERSION = 2
MODEL_FORMAT_VERSION = 4


class DataFormatError(ValueError):
    """Malformed input data file or saved document."""


@contextmanager
def format_errors(what: str, path=None):
    """Re-raise an error from reading the document `what` as DataFormatError.

    Covers the lookup, type and value errors of a malformed document: a
    missing key, a value of the wrong type, a document that is not an
    object, invalid base64, or an array whose size does not fit its shape.
    Given the document's file `path`, every such error names it, a
    DataFormatError raised inside too.
    """
    where = what if path is None else f"{what} {path}"
    try:
        yield
    except DataFormatError as e:
        if path is None:
            raise
        raise DataFormatError(f"malformed {where}: {e}") from e
    except (AttributeError, LookupError, TypeError, ValueError) as e:
        raise DataFormatError(
            f"malformed {where}: {type(e).__name__}: {e}") from e


def _arr_out(a) -> str:
    """Base64 text of the little-endian float64 bytes of `a`, in C order."""
    raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def _arr_in(v, shape=(-1,)) -> np.ndarray:
    """A writable native float64 array of `shape` read from `_arr_out` text.

    Raises TypeError for any value that is not text and ValueError for
    invalid base64 or a size that does not fit `shape`.
    """
    if not isinstance(v, str):
        raise TypeError(f"expected base64 array text, got {type(v).__name__}")
    # invalid base64 raises binascii.Error, a ValueError
    raw = base64.b64decode(v, validate=True)
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


# -- CSV files -------------------------------------------------------------------

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
        dedup = []
        for strain, same in itertools.groupby(sorted(groups[cond]),
                                              key=lambda p: p[0]):
            stresses = [p[1] for p in same]
            dedup.append((strain, stresses[0] if len(stresses) == 1
                          else float(np.mean(stresses))))
        if len(dedup) < len(groups[cond]):
            warnings.warn(f"{path}: duplicate strains at condition {cond} "
                          "averaged")
        if len(dedup) < 4:
            raise DataFormatError(
                f"{path}: condition {cond} has fewer than 4 points")
        snapshots.append(CurveSnapshot(cond, np.array(dedup)))
    return snapshots


def write_curves(path, snapshots: list[CurveSnapshot]):
    _write_csv(path, ["condition", "strain", "stress"],
               ([_fmt(snap.condition_raw), _fmt(strain), _fmt(stress)]
                for snap in snapshots for strain, stress in snap.points))


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
    _write_csv(path, ["condition"] + [f"v{j + 1}" for j in range(fields.shape[1])],
               ([_fmt(cond)] + [_fmt(v) for v in row]
                for cond, row in zip(np.atleast_1d(conditions), fields)))


def ingest_distribution(path) -> DiscreteDistribution:
    """Points and masses of a CSV of `x1,..,xk,mass` rows, k >= 1.

    The first row may be a header; blank rows and `#` comments are skipped.
    Every row must have the width of the first numeric row.
    """
    rows = []
    first = True
    with open(path, newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row or not row[0].strip() or row[0].lstrip().startswith("#"):
                continue
            may_be_header, first = first, False
            try:
                values = [float(v) for v in row]
            except ValueError as e:
                if may_be_header:
                    continue
                raise DataFormatError(f"{path}:{lineno}: bad row {row!r}") from e
            width = len(rows[0]) if rows else len(values)
            if len(values) != width:
                raise DataFormatError(f"{path}:{lineno}: expected {width} "
                                      f"columns, got {len(values)}")
            if width < 2:
                raise DataFormatError(f"{path}:{lineno}: a row needs at least "
                                      "one coordinate and a mass")
            rows.append(values)
    if not rows:
        raise DataFormatError(f"{path}: no numeric rows")
    arr = np.asarray(rows)
    return DiscreteDistribution(arr[:, :-1], arr[:, -1])


def write_loss_history(path, history):
    """One row per epoch: the total loss, its three terms, the dropped fraction."""
    _write_csv(path, ["epoch", "total", "density", "boundary", "dynamics",
                      "dropped_fraction"],
               ([i] + [_fmt(v) for v in row] for i, row in enumerate(history)))


def write_table(path, header, rows):
    """A CSV of `header` and numeric `rows`, values to 12 significant digits."""
    # Python floats format faster than numpy scalars, to the same text
    rows = np.asarray(list(rows), dtype=np.float64).tolist()
    _write_csv(path, header, ([f"{v:.12g}" for v in row] for row in rows))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _finite(*values):
    """`values`, or ValueError if one is NaN or infinite."""
    if not all(math.isfinite(v) for v in values):
        raise ValueError("non-finite value")
    return values


def _fmt(x) -> str:
    return f"{float(x):.17g}"


# -- JSON documents ---------------------------------------------------------------

def pretty_json(doc) -> str:
    """`doc` as sorted, one-space-indented JSON: reports and diagnostics."""
    return json.dumps(doc, sort_keys=True, indent=1)


def write_json(path, doc):
    """Write `doc` as sorted, compact JSON: model and fixture documents."""
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def read_json(path, what: str):
    """The `what` document in file `path`; DataFormatError if not JSON."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise DataFormatError(f"{path}: {what} is not JSON: {e}") from e


def mlp_to_dict(net: Mlp) -> dict:
    return {
        "version": WEIGHT_FORMAT_VERSION,
        "layers": [
            {
                "shape": list(layer.weight.value.shape),
                "activation": layer.activation,
                "activation_param": float(layer.activation_param),
                "dropout": float(layer.dropout),
                "weight": _arr_out(layer.weight.value),
                "bias": _arr_out(layer.bias.value),
            }
            for layer in net.layers
        ],
    }


def _check_version(doc: dict, what: str, version: int):
    if doc["version"] != version:
        raise DataFormatError(f"unsupported {what} version {doc['version']!r}; "
                              f"this reader reads version {version}")


def _mlp_from_dict(doc: dict) -> Mlp:
    _check_version(doc, "weight format", WEIGHT_FORMAT_VERSION)
    layers = []
    for layer_doc in doc["layers"]:
        out_dim, in_dim = layer_doc["shape"]
        w = _arr_in(layer_doc["weight"], (out_dim, in_dim))
        b = _arr_in(layer_doc["bias"], (out_dim,))
        layers.append(Layer(
            weight=ad.parameter(w), bias=ad.parameter(b),
            activation=layer_doc["activation"],
            activation_param=float(layer_doc["activation_param"]),
            dropout=float(layer_doc["dropout"]),
        ))
    return Mlp(layers)


def basis_to_dict(basis: PcaBasis) -> dict:
    return {
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


def density_to_dict(dens) -> dict:
    if isinstance(dens, GaussianCurveDensity):
        return {
            "kind": "gaussian_curve",
            "strain_grid": _arr_out(dens.strain_grid),
            "mean_stress": _arr_out(dens.mean_stress),
            "sigma_stress": dens.sigma_stress,
        }
    if isinstance(dens, ReducedGaussianDensity):
        return {
            "kind": "reduced_gaussian",
            "mean": _arr_out(dens.mean),
            "sigma": dens.sigma,
        }
    raise TypeError(f"cannot serialize density of type {type(dens).__name__}")


def density_from_dict(doc: dict):
    if doc["kind"] == "gaussian_curve":
        return GaussianCurveDensity(_arr_in(doc["strain_grid"]),
                                    _arr_in(doc["mean_stress"]),
                                    float(doc["sigma_stress"]))
    if doc["kind"] == "reduced_gaussian":
        return ReducedGaussianDensity(_arr_in(doc["mean"]),
                                      float(doc["sigma"]))
    raise DataFormatError(f"unknown density kind {doc.get('kind')!r}")


def _check_trained(loss_history):
    """DataFormatError unless the loss history has an epoch: the writer
    refuses exactly the untrained models the reader refuses."""
    if not loss_history:
        raise DataFormatError("empty loss history: model never trained")


def model_to_dict(model: TransportModel) -> dict:
    """The format-4 document of a trained model (see `_check_trained`)."""
    _check_trained(model.loss_history)
    emb = model.displacement.embedding
    return {
        "version": MODEL_FORMAT_VERSION,
        "displacement": {
            "net": mlp_to_dict(model.displacement.net),
            "embedding": None if emb is None else {
                "shape": list(emb.spectral_weights.value.shape),
                "spectral_weights": _arr_out(emb.spectral_weights.value),
                "scale": float(emb.scale.value),
            },
            "output_scales": _arr_out(model.displacement.output_scales.value),
        },
        "body_force": {
            "net": mlp_to_dict(model.body_force.net),
        },
        "normalizer": {
            "mode": model.normalizer.mode,
            "raw_min": float(model.normalizer.raw_min),
            "raw_max": float(model.normalizer.raw_max),
            "unit": model.normalizer.unit,
        },
        "scaler": ({"offset": _arr_out(model.scaler.offset),
                    "scale": _arr_out(model.scaler.scale)}
                   if model.scaler is not None else None),
        "config": asdict(model.config),
        "loss_history": [[float(v) for v in row] for row in model.loss_history],
        "reference_density": density_to_dict(model.reference_density),
        "pca_basis": (basis_to_dict(model.pca_basis)
                      if model.pca_basis is not None else None),
    }


def model_from_dict(doc: dict, path=None) -> TransportModel:
    """The trained model a document of format 4 describes.

    Raises DataFormatError for an unknown version, an empty loss history
    and a malformed document (see `format_errors`), naming the document's
    file `path` if given.
    """
    with format_errors("model document", path):
        _check_version(doc, "model", MODEL_FORMAT_VERSION)
        _check_trained(doc["loss_history"])
        ddoc = doc["displacement"]
        net = _mlp_from_dict(ddoc["net"])
        edoc = ddoc["embedding"]
        emb = None if edoc is None else FourierFeatureEmbedding(
            _arr_in(edoc["spectral_weights"], edoc["shape"]),
            scale=float(edoc["scale"]))
        disp = DisplacementField(
            net, embedding=emb,
            output_scales=_arr_in(ddoc["output_scales"], (net.out_dim,)))
        body = BodyForceField(_mlp_from_dict(doc["body_force"]["net"]))
        ndoc = doc["normalizer"]
        normalizer = ConditionNormalizer(ndoc["mode"], float(ndoc["raw_min"]),
                                         float(ndoc["raw_max"]), ndoc["unit"])
        model = TransportModel(
            disp, body, normalizer, TrainConfig.from_dict(doc["config"]),
            density_from_dict(doc["reference_density"]),
            loss_history=[tuple(float(v) for v in row)
                          for row in doc["loss_history"]],
        )
        if doc["pca_basis"] is not None:
            model.pca_basis = basis_from_dict(doc["pca_basis"])
        if doc["scaler"] is not None:
            model.scaler = AffineScaler(_arr_in(doc["scaler"]["offset"]),
                                        _arr_in(doc["scaler"]["scale"]))
        return model


def save_model(model: TransportModel, path):
    write_json(path, model_to_dict(model))


def load_model(path) -> TransportModel:
    return model_from_dict(read_json(path, "model document"), path)
