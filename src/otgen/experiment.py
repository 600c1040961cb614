"""End-to-end experiment pipeline: ingest, train, generate, compare.

A run is fully described by a RunConfig (JSON-serializable); every random
choice derives from its seed, so two runs with the same config produce
bit-identical reports. Wall-clock goes to a separate meta file to keep the
report deterministic. One pipeline serves both tasks: a small task object
(`CurveTask`, `FieldTask`) supplies what differs between curves and fields,
and `otgen generate` picks the same object for a saved model.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import dataio, fpca_gpr, svgplot
from .density import (CurveSnapshot, GaussianCurveDensity,
                      ReducedGaussianDensity, field_to_samples)
from .pca import fit_pca, project, subspace_residual
from .transport import (AffineScaler, ConditionNormalizer, Snapshot,
                        SnapshotDataset, TrainConfig, check_config_numbers,
                        generate_density, generate_mean, nrmse, train)


class StageError(RuntimeError):
    """Pipeline failure wrapped with the stage name."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunConfig:
    """Everything needed to reproduce one experiment.

    task            "curves" or "fields"
    data            training CSV path
    target_raw      condition to generate at (mapped to pseudo-time 1 when
                    it is the largest condition)
    reference       optional CSV with the held-out truth for scoring
    time_mode       "linear" or "log10" condition normalization
    unit            condition unit tag, kept in run_meta.json and the saved
                    model's normalizer
    sigma_frac      stress noise scale as a fraction of each snapshot's
                    stress range (curves)
    reduced_sigma   isotropic density std in normalized reduced space (fields)
    field_sigma_frac  field-space noise (fraction of pooled value range)
                    used to synthesize PCA fitting samples (fields)
    pca_d           retained reduced dimensions (fields)
    pca_samples     noisy samples per snapshot for the PCA fit (fields)
    grid_points     common strain grid size (curves)
    boundary_anchors  matched anchor count along the mean curve (curves);
                    2 means endpoints only
    mean_anchor     use snapshot means as matched anchor pairs (fields)
    train           TrainConfig for the transport networks
    baseline        also fit the mode-regression baseline and report it
    gen_samples     particle count for generation
    plots           write SVG overlays
    """

    task: str
    data: str
    target_raw: float
    reference: str | None = None
    time_mode: str = "linear"
    unit: str = "dimensionless"
    sigma_frac: float = 0.02
    reduced_sigma: float = 0.05
    field_sigma_frac: float = 0.02
    pca_d: int = 6
    pca_samples: int = 64
    grid_points: int = 50
    boundary_anchors: int = 2
    mean_anchor: bool = True
    train: TrainConfig = field(default_factory=TrainConfig)
    baseline: bool = False
    gen_samples: int = 2048
    plots: bool = False
    out_dir: str = "runs/out"
    seed: int = 0

    def __post_init__(self):
        if self.task not in ("curves", "fields"):
            raise ValueError("task must be 'curves' or 'fields'")
        check_config_numbers(self, dict(
            pca_d=1, pca_samples=1, grid_points=2, boundary_anchors=2,
            gen_samples=1))

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        return cls(**dict(doc, train=TrainConfig.from_dict(doc.get("train", {}))))


@dataclass
class ExperimentReport:
    task: str
    seed: int
    target_raw: float
    training_nrmse: dict
    target_nrmse: float | None
    dropped_j_fraction: float
    loss_first: float
    loss_best: float
    loss_last: float
    epochs_run: int
    baseline_nrmse: float | None = None
    pca_target_residual: float | None = None
    untrained: bool = False

    def to_dict(self) -> dict:
        doc = asdict(self)
        for key, val in doc.items():
            if isinstance(val, float) and not np.isfinite(val):
                raise ValueError(f"non-finite report field {key}")
        return doc


@contextmanager
def _stage(name):
    """Wrap an ordinary failure inside the block as a StageError.

    KeyboardInterrupt and SystemExit are not `Exception`s and pass through.
    """
    try:
        yield
    except StageError:
        raise
    except Exception as e:
        raise StageError(name, e) from e


def _build_normalizer(config: RunConfig, conditions) -> ConditionNormalizer:
    raw_min = float(np.min(conditions))
    raw_max = float(max(np.max(conditions), config.target_raw))
    return ConditionNormalizer(config.time_mode, raw_min, raw_max, config.unit)


def _anchor_indices(m, count):
    return np.unique(np.linspace(0, m - 1, count).round().astype(int))


def common_grid(snapshots, points):
    """Strains spanning the range every curve covers, and each curve on them."""
    if points < 2:
        raise ValueError(f"a strain grid needs at least 2 points, not {points}")
    lo = max(s.strains[0] for s in snapshots)
    hi = min(s.strains[-1] for s in snapshots)
    if hi <= lo:
        raise ValueError("curves share no common strain range")
    grid = np.linspace(lo, hi, points)
    return grid, np.stack([np.interp(grid, s.strains, s.stresses)
                           for s in snapshots])


def prepare_curve_dataset(config: RunConfig, snapshots):
    """Resample curves to a common grid, normalize, build densities."""
    grid, means = common_grid(snapshots, config.grid_points)
    scaler = AffineScaler.from_bounds([grid[0], means.min()],
                                      [grid[-1], means.max()])
    # each curve [m, 2] in training coordinates; the strain column is shared
    curves_n = [scaler.forward(np.column_stack([grid, mean])) for mean in means]
    grid_n = curves_n[0][:, 0]
    anchors = _anchor_indices(len(grid), config.boundary_anchors)
    normalizer = _build_normalizer(config, [s.condition_raw for s in snapshots])
    snaps = []
    for snap, curve_n in zip(snapshots, curves_n):
        mean_n = curve_n[:, 1]
        span = float(mean_n.max() - mean_n.min())
        sigma = max(config.sigma_frac * span, 1e-4)
        dens = GaussianCurveDensity(grid_n, mean_n, sigma,
                                    strain_range=(grid_n[0], grid_n[-1]))
        t = normalizer.normalize(snap.condition_raw)
        snaps.append(Snapshot(t, dens, (curves_n[0][anchors], curve_n[anchors])))
    return SnapshotDataset(snaps), normalizer, scaler, grid, means


def prepare_field_dataset(config: RunConfig, conditions, fields, seed):
    """Noise-augment fields, fit PCA, normalize reduced coordinates."""
    value_range = float(fields.max() - fields.min())
    sigma_f = max(config.field_sigma_frac * value_range, 1e-9)
    sample_blocks = [
        field_to_samples(fields[i], sigma_f, config.pca_samples,
                         seed=(seed * 7919 + i))
        for i in range(len(fields))
    ]
    pooled = np.vstack(sample_blocks)
    basis = fit_pca(pooled, config.pca_d)
    coeffs = project(basis, fields)          # snapshot means, reduced
    pooled_c = project(basis, pooled)
    scaler = AffineScaler.from_bounds(pooled_c.min(axis=0), pooled_c.max(axis=0))
    normalizer = _build_normalizer(config, conditions)
    snaps = []
    mu0 = scaler.forward(coeffs[0])
    for cond, mu in zip(conditions, coeffs):
        t = normalizer.normalize(cond)
        mu_n = scaler.forward(mu)
        dens = ReducedGaussianDensity(mu_n, config.reduced_sigma)
        pairs = (mu0[None, :], mu_n[None, :]) if config.mean_anchor else None
        snaps.append(Snapshot(t, dens, pairs))
    return SnapshotDataset(snaps), normalizer, scaler, basis


class CurveTask:
    """Stress-strain curves, compared as stresses on a common strain grid."""

    def __init__(self, grid=None):
        self.grid = grid

    def ingest(self, config):
        self.snapshots = dataio.ingest_curves(config.data)
        self.conditions = [s.condition_raw for s in self.snapshots]

    def prepare(self, config):
        """(dataset, normalizer, scaler, PCA basis); sets grid and truths."""
        dataset, normalizer, scaler, self.grid, self.truths = \
            prepare_curve_dataset(config, self.snapshots)
        return dataset, normalizer, scaler, None

    def values(self, curve):
        """A curve [m, 2] as stresses on the grid: the form scores compare."""
        return np.interp(self.grid, curve[:, 0], curve[:, 1])

    def read_reference(self, path):
        return self.values(dataio.ingest_curves(path)[0].points)

    def write(self, path, condition, curve):
        dataio.write_curves(path, [CurveSnapshot(condition, curve)])

    def baseline(self, target_raw):
        mean, _ = fpca_gpr.fit_predict_baseline(self.truths, self.conditions,
                                                target_raw)
        return np.column_stack([self.grid, mean])

    def plot(self, path, series, title):
        svgplot.plot_curves([(label, np.column_stack([self.grid, v]))
                             for label, v in series], path, title=title)


class FieldTask:
    """Fields of D values per condition, trained in PCA coordinates."""

    def ingest(self, config):
        self.conditions, self.truths = dataio.ingest_fields(config.data)

    def prepare(self, config):
        """(dataset, normalizer, scaler, PCA basis)."""
        dataset, normalizer, scaler, self.basis = prepare_field_dataset(
            config, self.conditions, self.truths, config.seed)
        return dataset, normalizer, scaler, self.basis

    def values(self, field):
        return field

    def read_reference(self, path):
        return dataio.ingest_fields(path)[1][0]

    def write(self, path, condition, field):
        dataio.write_fields(path, [condition], field[None, :])

    def baseline(self, target_raw):
        """The baseline in the training basis, so it compares like for like."""
        mean, _ = fpca_gpr.fit_predict_baseline(self.truths, self.conditions,
                                                target_raw, self.basis)
        return mean

    def plot(self, path, series, title):
        idx = np.arange(len(series[0][1]), dtype=float)
        svgplot.plot_curves([(label, np.column_stack([idx, v]))
                             for label, v in series], path,
                            xlabel="component", ylabel="value", title=title)


TASKS = {"curves": CurveTask, "fields": FieldTask}


def task_for_model(model):
    """The task object of a trained model, told by its reference density."""
    if isinstance(model.reference_density, GaussianCurveDensity):
        curve = model.to_data_units(model.reference_density.mean_curve())
        return CurveTask(grid=curve[:, 0])
    return FieldTask()


def fit_model(config: RunConfig):
    """Ingest, prepare and train the model of one run: (task, model).

    The model carries its output scaler and PCA basis, so it is what
    `run_experiment` saves as `model.json`.
    """
    if not Path(config.data).exists():
        raise StageError("ingest", FileNotFoundError(config.data))
    task = TASKS[config.task]()

    with _stage("ingest"):
        task.ingest(config)
        if config.time_mode == "linear" \
                and np.max(task.conditions) > config.target_raw:
            warnings.warn("target condition lies inside the training range")

    with _stage("prepare"):
        dataset, normalizer, scaler, basis = task.prepare(config)

    with _stage("train"):
        model = train(dataset, replace(config.train, seed=config.seed),
                      normalizer=normalizer)
        model.scaler, model.pca_basis = scaler, basis
    return task, model


def run_experiment(config: RunConfig):
    """Ingest, prepare, train, generate, score and emit one run.

    Returns (ExperimentReport, model, artifact paths).
    """
    if config.reference and not Path(config.reference).exists():
        raise StageError("ingest", FileNotFoundError(config.reference))
    t_start = time.perf_counter()
    task, model = fit_model(config)
    normalizer, basis = model.normalizer, model.pca_basis
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    artifacts = {"model": str(out / "model.json"),
                 "report": str(out / "report.json")}
    if not model.trained:
        # zero-epoch runs persist the initial model but skip generation
        with _stage("emit"):
            dataio.save_model(model, out / "model.json")
            report = _report(config, model, training_nrmse={},
                             target_nrmse=None, dropped_j_fraction=0.0)
            _write_report(out, report)
        _write_meta(out, config, time.perf_counter() - t_start)
        return report, model, artifacts

    n, seed = config.gen_samples, config.seed
    with _stage("generate"):
        t_target = normalizer.normalize(config.target_raw)
        cloud = generate_density(model, t_target, n=n, seed=seed)
        generated = generate_mean(model, t_target, cloud=cloud)

    with _stage("score"):
        training_nrmse = {}
        for cond, truth in zip(task.conditions, task.truths):
            fit = generate_mean(model, normalizer.normalize(cond), n=n, seed=seed)
            training_nrmse[str(cond)] = nrmse(task.values(fit), truth)
        ref = task.read_reference(config.reference) if config.reference else None
        target_nrmse = pca_resid = baseline_nrmse = None
        if ref is not None:
            target_nrmse = nrmse(task.values(generated), ref)
            if basis is not None:
                pca_resid = subspace_residual(basis, ref)
        if config.baseline:
            base = task.baseline(config.target_raw)
            task.write(out / "baseline_pred.csv", config.target_raw, base)
            if ref is not None:
                baseline_nrmse = nrmse(task.values(base), ref)

    with _stage("emit"):
        task.write(out / "generated.csv", config.target_raw, generated)
        dataio.save_model(model, out / "model.json")
        dataio.write_loss_history(out / "loss_history.csv", model.loss_history)
        report = _report(config, model, training_nrmse=training_nrmse,
                         target_nrmse=target_nrmse,
                         dropped_j_fraction=cloud.dropped_fraction,
                         baseline_nrmse=baseline_nrmse,
                         pca_target_residual=pca_resid)
        _write_report(out, report)
        artifacts["generated"] = str(out / "generated.csv")
        if config.plots:
            series = [(f"train {c:g}", v)
                      for c, v in zip(task.conditions, task.truths)]
            series.append((f"generated {config.target_raw:g}",
                           task.values(generated)))
            if ref is not None:
                series.append(("reference", ref))
            plot = out / f"{config.task}.svg"
            task.plot(plot, series, "generated vs training data")
            artifacts["plots"] = [str(plot)]
    _write_meta(out, config, time.perf_counter() - t_start)
    return report, model, artifacts


def _report(config, model, **scores) -> ExperimentReport:
    totals = [h[0] for h in model.loss_history] or [-1.0]
    return ExperimentReport(
        task=config.task, seed=config.seed, target_raw=config.target_raw,
        loss_first=totals[0], loss_best=min(totals), loss_last=totals[-1],
        epochs_run=len(model.loss_history), untrained=not model.trained,
        **scores)


def _write_report(out, report: ExperimentReport):
    (out / "report.json").write_text(dataio.pretty_json(report.to_dict()))


def _write_meta(out, config, wall_clock):
    # wall-clock lives outside report.json so reports stay bit-reproducible
    (out / "run_meta.json").write_text(dataio.pretty_json(
        {"config": asdict(config), "wall_clock_s": wall_clock}))
