"""Learned time-indexed transport of probability densities.

An operating condition (temperature, log strain rate, impact speed) is
normalized to a pseudo-time t in [0, 1]; any other time (beyond TIME_TOL)
or NaN given to a network raises ValueError. A displacement network u(X, t)
moves points of the reference (t = 0) distribution; a body-force network
F_b(x, t) models the acceleration field those trajectories obey. Training
minimizes three terms:

  density match   mean_i || rho0(X)/J_i - rho_i(X + u(X, t_i)) ||^2
  boundary match  mean_i || bX + u(bX, t_i) - bx_i ||^2
  dynamics        mean_j || d2u/dt2(X, t'_j) - G lap_X u - F_b(X + u, t'_j) ||^2

with J_i = det(I + du/dX) the volume change of the map at t_i, so the
first term enforces Lagrangian mass conservation of the transported
density. Input derivatives are exact: `DisplacementField.jet` pushes the
value together with tangent (and second-order) streams through every layer
in one Taylor-mode pass, recorded on the tape so parameter gradients flow
through them. Generation pushes reference samples through the trained map
and reweights densities by 1/J.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import nn
from . import rng
from .density import GaussianCurveDensity
from .pca import reconstruct

TIME_TOL = 1e-12  # rounding slack of the pseudo-time range [0, 1]

# a particle whose volume change J is at most this counts as folded (J <= 0)
J_MIN = 1e-12

# rows per jet evaluation when generating: bounds the working set of the
# stacked streams (1 + dim of them) for large particle counts; the cloud's
# jet runs in float32, so one block of a 48-wide, d = 6 field net peaks at
# about 10 MB
JET_BLOCK_ROWS = 2048

# numpy's overflow warnings are off: the finite checks report a blow-up once
_QUIET = np.errstate(over="ignore", invalid="ignore", divide="ignore")


class TrainingDivergence(RuntimeError):
    """Loss became non-finite during training."""


# -- pseudo-time ---------------------------------------------------------------

@dataclass(frozen=True)
class ConditionNormalizer:
    """Affine (or log10-affine) map from raw condition to t in [0, 1]."""

    mode: str  # "linear" | "log10"
    raw_min: float
    raw_max: float
    unit: str = "dimensionless"

    def __post_init__(self):
        if self.mode not in ("linear", "log10"):
            raise ValueError("mode must be 'linear' or 'log10'")
        if not self.raw_min < self.raw_max:
            raise ValueError("raw_min must be below raw_max")
        if self.mode == "log10" and self.raw_min <= 0:
            raise ValueError("log10 mode needs raw_min > 0")

    def normalize(self, raw: float) -> float:
        if not self.raw_min <= raw <= self.raw_max:
            raise ValueError(f"condition {raw} outside [{self.raw_min}, {self.raw_max}]")
        if self.mode == "linear":
            return (raw - self.raw_min) / (self.raw_max - self.raw_min)
        return ((math.log10(raw) - math.log10(self.raw_min))
                / (math.log10(self.raw_max) - math.log10(self.raw_min)))


@dataclass
class AffineScaler:
    """Per-dimension affine map of data coordinates onto roughly [0, 1]."""

    offset: np.ndarray
    scale: np.ndarray

    @classmethod
    def from_bounds(cls, lo, hi):
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        scale = np.where(hi > lo, hi - lo, 1.0)
        return cls(lo, scale)

    def forward(self, x):
        return (np.asarray(x, dtype=np.float64) - self.offset) / self.scale

    def inverse(self, y):
        return np.asarray(y, dtype=np.float64) * self.scale + self.offset


# -- network fields -------------------------------------------------------------

class DisplacementField:
    """u(X, t): spectral-feature MLP with per-dimension output scaling.

    The final layer starts near zero and the learnable scales start at one,
    so the initial map is close to the identity.
    """

    def __init__(self, net: nn.Mlp, embedding=None, output_scales=None):
        self.dim = net.out_dim
        self.net = net
        self.embedding = embedding
        if output_scales is None:
            output_scales = np.ones(self.dim)
        self.output_scales = ad.parameter(np.asarray(output_scales, dtype=np.float64))
        in_dim = embedding.in_dim if embedding is not None else net.in_dim
        if in_dim != self.dim + 1:
            raise ValueError("field input must be data dim + 1 (time)")

    def parameters(self) -> list[ad.Tensor]:
        ps = list(self.net.parameters())
        if self.embedding is not None:
            ps.extend(self.embedding.parameters())
        ps.append(self.output_scales)
        return ps

    def u(self, X, t) -> ad.Tensor:
        """Displacement at points X [n, dim] and time(s) t (scalar or [n])."""
        out = nn.forward(self.net, self.embedding, _inputs(X, t))
        return ad.mul(out, self.output_scales)

    def jet(self, X, t, wrt="space", laplacian=False):
        """u and exact input derivatives from one Taylor-mode pass.

        wrt="space": (u [n, dim], du/dX [n, dim, dim]) with
        du/dX[i, a, b] = du_a/dX_b at row i.
        wrt="time": (u, d2u/dt2), and the Laplacian sum_b d2u/dX_b^2 as a
        third entry when `laplacian` is set. All entries are tape tensors.
        """
        inp = _inputs(X, t)
        n, dim = inp.shape[0], self.dim
        if wrt == "space":
            dirs, second = list(range(dim)), 0
        elif wrt == "time":
            dirs = [dim] + (list(range(dim)) if laplacian else [])
            second = len(dirs)
        else:
            raise ValueError("wrt must be 'space' or 'time'")
        k = len(dirs)
        V = np.zeros((1 + k + second, n, dim + 1), dtype=inp.dtype)
        V[0] = inp
        for j, col in enumerate(dirs):
            V[1 + j, :, col] = 1.0
        out = ad.mul(nn.forward(self.net, self.embedding, V, second=second),
                     self.output_scales)
        u = out[0]
        if wrt == "space":
            return u, ad.stack_last([out[1 + j] for j in range(k)])
        d2u = out[1 + k]
        if not laplacian:
            return u, d2u
        return u, d2u, ad.tsum(out[2 + k:], axis=0)

    def u_values(self, X, t) -> np.ndarray:
        with ad.no_grad():
            return self.u(X, t).value


def _inputs(X, t) -> np.ndarray:
    """Network input rows [X, t] for points X [n, dim] (or [dim]), float32
    when X is float32 and float64 otherwise; the networks follow suit."""
    X = np.atleast_2d(ad.as_array(X))
    tcol = np.broadcast_to(_pseudo_time(t).reshape(-1, 1), (X.shape[0], 1))
    return np.concatenate([X, tcol], axis=1, dtype=X.dtype)


def _pseudo_time(t) -> np.ndarray:
    """t as an array; ValueError unless every entry is in [0, 1], not NaN."""
    t = np.asarray(t, dtype=np.float64)
    if not np.all((t >= -TIME_TOL) & (t <= 1.0 + TIME_TOL)):
        raise ValueError(f"pseudo-time must be finite and in [0, 1]; got {t}")
    return t


class BodyForceField:
    """F_b(x, t) network; dropout is active only under a dropout seed."""

    def __init__(self, net: nn.Mlp):
        self.dim = net.out_dim
        self.net = net
        if net.in_dim != self.dim + 1:
            raise ValueError("body-force network must map dim+1 -> dim")

    def parameters(self) -> list[ad.Tensor]:
        return self.net.parameters()

    def force(self, x: ad.Tensor, t, dropout_seed=None) -> ad.Tensor:
        """F_b at points x [n, dim], in the dtype of x."""
        tcol = np.broadcast_to(_pseudo_time(t).reshape(-1, 1),
                               (x.value.shape[0], 1))
        inp = ad.concat([x, ad.constant(tcol.astype(x.value.dtype))], axis=-1)
        return self.net.forward(inp, dropout_seed)


def make_displacement_field(dim, hidden, fourier_m, activation,
                            activation_param, final_std=1e-3,
                            seed=0) -> DisplacementField:
    in_dim = dim + 1
    if fourier_m > 0:
        gen = rng.stream(seed, 0x20)
        emb = nn.FourierFeatureEmbedding(rng.normal(gen, (fourier_m, in_dim)), scale=1.0)
        first = emb.out_dim
    else:
        emb = None
        first = in_dim
    net = nn.init_mlp([first, *hidden, dim], activation, seed=seed + 1,
                      activation_param=activation_param, final_std=final_std)
    return DisplacementField(net, embedding=emb)


def make_body_force_field(dim, hidden, activation, activation_param, dropout,
                          seed=0) -> BodyForceField:
    net = nn.init_mlp([dim + 1, *hidden, dim], activation, seed=seed + 2,
                      dropout=dropout, activation_param=activation_param)
    return BodyForceField(net)


# -- dataset --------------------------------------------------------------------

@dataclass(frozen=True)
class Snapshot:
    """Observed state: pseudo-time, density model, optional anchors.

    `anchors` [m, dim] are this snapshot's boundary points bx_i. The
    reference snapshot's anchors are the points bX the map moves onto them.
    """

    t_norm: float
    density: object
    anchors: np.ndarray | None = None


class SnapshotDataset:
    def __init__(self, snapshots: list[Snapshot]):
        if len(snapshots) < 2:
            raise ValueError("transport needs at least two distinct pseudo-times")
        for s in snapshots:
            _pseudo_time(s.t_norm)
        snaps = sorted(snapshots, key=lambda s: s.t_norm)
        ts = [s.t_norm for s in snaps]
        if len(set(ts)) != len(ts):
            raise ValueError("pseudo-times must be distinct")
        if ts[0] > TIME_TOL:
            raise ValueError("a reference snapshot at t = 0 is required")
        shape0, dim = np.shape(snaps[0].anchors), snaps[0].density.dim
        for s in (s for s in snaps if s.anchors is not None):
            if np.shape(s.anchors) != shape0 or shape0[1:] != (dim,):
                raise ValueError(f"anchors at t = {s.t_norm} must be [m, {dim}] like "
                                 f"the reference's {shape0}; got {np.shape(s.anchors)}")
            if not shape0[0]:
                raise ValueError(f"anchors at t = {s.t_norm} have no rows")
            if not np.all(np.isfinite(s.anchors)):
                raise ValueError(f"non-finite anchors at t = {s.t_norm}")
        self.snapshots = snaps

    @property
    def reference(self) -> Snapshot:
        return self.snapshots[0]

    @property
    def dim(self) -> int:
        return self.reference.density.dim

    def __len__(self):
        return len(self.snapshots)


# -- config and model -----------------------------------------------------------

def check_number(name, value, count=False, least=None):
    """ValueError naming `name` unless `value` is a finite number (an integer
    if `count`) of at least `least`, when given; a bool is never a number."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral if count else numbers.Real)
            and abs(value) <= sys.float_info.max
            and (least is None or value >= least)):
        raise ValueError(f"{name} must be "
                         f"{'an integer' if count else 'a finite number'}"
                         f"{'' if least is None else f' >= {least}'}"
                         f"; got {value!r}")


def check_config_numbers(config, least: dict):
    """`check_number` on each int (a count) and float field of `config`."""
    for f in fields(config):
        if f.type in ("int", "float"):
            check_number(f.name, getattr(config, f.name), f.type == "int",
                         least.get(f.name))


@dataclass
class TrainConfig:
    """Training hyperparameters, at least one epoch; architecture knobs
    default to the large nets."""

    w1: float = 1.0
    w2: float = 1.0
    w3: float = 1.0
    epochs: int = 2000
    n_samples: int = 2048          # density-match batch per snapshot per epoch
    n_collocation: int = 21        # interior times for the dynamics term
    n_samples_pde: int = 128       # sample batch for the dynamics term
    learning_rate: float = 1e-3
    shear_modulus: float = 0.0
    seed: int = 0
    auto_rescale_weights: bool = False
    dnn_hidden: tuple = (256, 256, 256)
    dnn_fourier_m: int = 32
    dnn_activation: str = "softplus"
    dnn_activation_param: float = 10.0
    fnn_hidden: tuple = (300,) * 7
    fnn_activation: str = "selu"
    fnn_activation_param: float = 0.0
    fnn_dropout: float = 0.1

    def __post_init__(self):
        check_config_numbers(self, dict(
            epochs=1, n_samples=1, n_collocation=2, n_samples_pde=1,
            dnn_fourier_m=0, shear_modulus=0.0))
        if min(self.w1, self.w2, self.w3) < 0 or self.w1 + self.w2 + self.w3 <= 0:
            raise ValueError("loss weights must be nonnegative with positive sum")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        for key in ("dnn_activation", "fnn_activation"):
            if getattr(self, key) not in nn.ACTIVATIONS:
                raise ValueError(f"{key} must be one of {nn.ACTIVATIONS}")
        for key in ("dnn_hidden", "fnn_hidden"):
            for width in getattr(self, key):
                check_number(f"{key} width", width, True, 1)
        if not 0.0 <= self.fnn_dropout < 1.0:
            raise ValueError("fnn_dropout must be in [0, 1)")

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """The config of a document written from `asdict` (lists for tuples)."""
        doc = dict(doc)
        for key in ("dnn_hidden", "fnn_hidden"):
            if key in doc:
                doc[key] = tuple(doc[key])
        return cls(**doc)


@dataclass
class TransportModel:
    displacement: DisplacementField
    body_force: BodyForceField
    normalizer: ConditionNormalizer
    config: TrainConfig
    reference_density: object  # the t = 0 density generation samples
    loss_history: list = field(default_factory=list)
    pca_basis: object = None
    scaler: AffineScaler | None = None

    def parameters(self) -> list[ad.Tensor]:
        return self.displacement.parameters() + self.body_force.parameters()

    def to_data_units(self, y) -> np.ndarray:
        """Map training coordinates to data units.

        The scaler's inverse undoes the training normalization; with a PCA
        basis attached the reduced coordinates are then reconstructed to
        full fields. Without either, y comes back unchanged.
        """
        if self.scaler is not None:
            y = self.scaler.inverse(y)
        if self.pca_basis is not None:
            y = reconstruct(self.pca_basis, y)
        return y


def init_model(dataset: SnapshotDataset, normalizer: ConditionNormalizer,
               config: TrainConfig) -> TransportModel:
    dim = dataset.dim
    disp = make_displacement_field(
        dim, hidden=tuple(config.dnn_hidden), fourier_m=config.dnn_fourier_m,
        activation=config.dnn_activation,
        activation_param=config.dnn_activation_param, seed=config.seed)
    body = make_body_force_field(
        dim, hidden=tuple(config.fnn_hidden), activation=config.fnn_activation,
        activation_param=config.fnn_activation_param,
        dropout=config.fnn_dropout, seed=config.seed)
    return TransportModel(disp, body, normalizer, config, dataset.reference.density)


# -- kinematics -----------------------------------------------------------------

def spatial_jacobian_t(fieldo: DisplacementField, X, t) -> ad.Tensor:
    """du/dX, exact: tape tensor [n, dim, dim]."""
    return fieldo.jet(X, t)[1]


def _jet_values(fieldo: DisplacementField, X, t):
    """(u, du/dX) as float64 arrays, evaluated in blocks of JET_BLOCK_ROWS
    rows. The networks run in the dtype of X: float32 rows give a float32
    pass (the output scales return it to float64), anything else float64."""
    X = np.atleast_2d(ad.as_array(X))
    t = np.broadcast_to(np.asarray(t, dtype=np.float64).reshape(-1), len(X))
    parts = []
    with ad.no_grad():
        for lo in range(0, len(X), JET_BLOCK_ROWS):
            hi = lo + JET_BLOCK_ROWS
            parts.append([v.value for v in fieldo.jet(X[lo:hi], t[lo:hi])])
    return tuple(np.concatenate(p) for p in zip(*parts))


def eom_residual_t(model: TransportModel, X, t, dropout_seed=None) -> ad.Tensor:
    """Equation-of-motion residual d2u/dt2 - G lap(u) - F_b(X+u, t) on tape.

    Both networks run in the dtype of X (float32 or float64); the residual
    is float64 either way.
    """
    X = np.atleast_2d(ad.as_array(X))
    G = model.config.shear_modulus
    u0, r, *lap = model.displacement.jet(X, t, "time", laplacian=G != 0.0)
    if lap:
        r = ad.sub(r, ad.mul(lap[0], G))
    mapped = ad.add(ad.constant(X), u0)
    fb = model.body_force.force(ad.cast(mapped, X.dtype), t, dropout_seed)
    return ad.sub(r, fb)


# -- loss -----------------------------------------------------------------------

@dataclass
class LossResult:
    total: float
    l1: float
    l2: float
    l3: float
    dropped_fraction: float  # of the density term's samples, J <= 0
    tape: ad.Tensor | None = None
    terms: tuple = ()  # the (L1, L2, L3) tape tensors `tape` sums


def compute_loss(model: TransportModel, dataset: SnapshotDataset,
                 config: TrainConfig | None = None, epoch_seed: int = 0,
                 train_mode: bool = False) -> LossResult:
    """Three-term training loss for one Monte-Carlo batch.

    Batches are drawn from the reference density with streams keyed by
    (config.seed, epoch_seed), so a (config, epoch) pair always sees the
    same batch. Samples where the map degenerates (J <= 0) are excluded
    from the density term and counted. In `train_mode` the dynamics term
    applies dropout, and both networks take float32 rows for the density
    and dynamics jets; everything outside the networks stays float64.

    Each term is one mean over rows stacked across snapshots or collocation
    times; only the snapshot densities run per snapshot, and the anchors of
    every anchored snapshot take one float64 displacement pass.
    """
    config = config or model.config
    net_dtype = np.float32 if train_mode else np.float64
    fieldo = model.displacement
    ref = dataset.reference.density
    n_snap = len(dataset)
    dim = dataset.dim
    n = config.n_samples

    X = ref.sample(n, seed=_combine(config.seed, epoch_seed, 1))
    rho0 = ref.pdf(X)

    # all snapshots share the batch; stack them so the density term is a
    # single wide jet pass
    Xs = np.tile(X, (n_snap, 1))
    ts = np.repeat([s.t_norm for s in dataset.snapshots], n)
    u0, jac = fieldo.jet(Xs.astype(net_dtype, copy=False), ts)
    eye = np.eye(dim)
    F_raw = ad.add(jac, eye)
    J = ad.det(F_raw)
    mask = (J.value > J_MIN).astype(np.float64)
    dropped = int(len(mask) - mask.sum())
    if dropped:
        # swap degenerate rows for the identity so det/inv stay finite;
        # the mask removes their contribution
        m3 = mask[:, None, None]
        J = ad.det(ad.add(ad.mul(F_raw, ad.Tensor(m3)),
                          ad.Tensor((1.0 - m3) * eye)))
    mapped = ad.add(ad.constant(Xs), u0)
    ratio = ad.div(ad.Tensor(np.tile(rho0, n_snap)), J)

    # L1 is the mean over snapshots of each snapshot's mean over its kept
    # rows: one mean over all rows, each kept row of snapshot i weighing
    # n / kept_i and each dropped row 0
    kept = mask.reshape(n_snap, n).sum(axis=1)
    if not kept.all():
        raise TrainingDivergence("every sample was dropped from the density term")
    rho = ad.concat(
        [s.density.pdf_t(ad.getitem(mapped, slice(i * n, (i + 1) * n)))
         for i, s in enumerate(dataset.snapshots)], axis=0)
    L1 = ad.stable_mean(ad.mul(ad.square(ad.sub(ratio, rho)),
                               ad.Tensor(mask * np.repeat(n / kept, n))))

    # L2 is the sum over anchored snapshots of their mean over anchors,
    # divided by all n_snap: every anchored snapshot has the reference's
    # anchor count, so that is one mean over the reference anchors tiled
    # over the anchored times, scaled by the anchored share
    anchored = [s for s in dataset.snapshots if s.anchors is not None]
    if anchored:
        src_b = dataset.reference.anchors
        bX = np.tile(src_b, (len(anchored), 1))
        ub = fieldo.u(bX, np.repeat([s.t_norm for s in anchored], len(src_b)))
        bdiff = ad.sub(ad.add(ad.constant(bX), ub),
                       ad.Tensor(np.concatenate([s.anchors for s in anchored])))
        L2 = ad.mul(ad.stable_mean(ad.tsum(ad.square(bdiff), axis=-1)),
                    len(anchored) / n_snap)
    else:
        L2 = ad.constant(0.0)

    # dynamics term: stack every collocation time over one sample batch;
    # its global mean equals the mean over times of per-time means
    X3 = ref.sample(config.n_samples_pde, seed=_combine(config.seed, epoch_seed, 2))
    t_coll = np.linspace(0.0, 1.0, config.n_collocation + 2)[1:-1]
    X3s = np.tile(X3, (len(t_coll), 1))
    t3s = np.repeat(t_coll, config.n_samples_pde)
    r = eom_residual_t(model, X3s.astype(net_dtype, copy=False), t3s,
                       _combine(config.seed, epoch_seed, 3)
                       if train_mode else None)
    L3 = ad.stable_mean(ad.tsum(ad.square(r), axis=-1))
    return _weighted_loss((L1, L2, L3), config, dropped / len(mask))


def _weighted_loss(terms, config: TrainConfig,
                   dropped_fraction: float) -> LossResult:
    """w1 L1 + w2 L2 + w3 L3 over the term tensors, checked to be finite."""
    L1, L2, L3 = terms
    total = ad.add(ad.add(ad.mul(L1, config.w1), ad.mul(L2, config.w2)),
                   ad.mul(L3, config.w3))
    if not np.isfinite(total.value):
        raise TrainingDivergence("non-finite loss")
    return LossResult(
        total=float(total.value), l1=float(L1.value), l2=float(L2.value),
        l3=float(L3.value), dropped_fraction=dropped_fraction,
        tape=total, terms=terms)


def _rescale_weights(res: LossResult, config: TrainConfig):
    """(config, loss) with each weight divided by its epoch-0 term value.

    The loss is rebuilt on `res`'s own term tensors: the same batch under
    the new weights, without tracing the networks a second time.
    """
    cfg = replace(
        config,
        w1=config.w1 / max(res.l1, 1e-12),
        w2=config.w2 / max(res.l2, 1e-12) if res.l2 > 0 else config.w2,
        w3=config.w3 / max(res.l3, 1e-12),
    )
    return cfg, _weighted_loss(res.terms, cfg, res.dropped_fraction)


def loss(model, dataset, config=None, epoch_seed=0) -> LossResult:
    """Loss values only: nothing is recorded, so `tape` has no parents."""
    with ad.no_grad():
        return compute_loss(model, dataset, config, epoch_seed)


def _combine(*parts: int) -> int:
    out = 0
    for p in parts:
        out = (out * 1_000_003 + int(p)) % (2**63)
    return out


# -- training ---------------------------------------------------------------------

@_QUIET
def train(dataset: SnapshotDataset, config: TrainConfig,
          normalizer: ConditionNormalizer | None = None) -> TransportModel:
    """Adam descent on the three-term loss; returns the best checkpoint.

    A fresh Monte-Carlo batch is drawn each epoch from seeds derived from
    (config.seed, epoch), making runs bit-reproducible. The parameters with
    the lowest recorded training loss are restored at the end; divergence
    aborts early with the last good checkpoint. The loss history holds at
    least one epoch: a first epoch that diverges raises TrainingDivergence.

    One tape is alive at a time (see `autodiff.one_tape_alive`). Once an
    epoch's backward has run, the loss drops its tape and the tape's nodes
    are queued. Each layer of the next epoch's tape frees the queued nodes
    through the matching old layer before it computes; what is left of the
    old tape goes after the next backward.
    """
    if normalizer is None:
        normalizer = ConditionNormalizer("linear", 0.0, 1.0)
    model = init_model(dataset, normalizer, config)
    params = model.parameters()
    state = nn.AdamState.for_params(params, lr=config.learning_rate)
    cfg = config
    # the best checkpoint's (loss, dropped fraction) and parameter values;
    # epoch 0 sets them: a non-finite loss raises
    best = (np.inf, 0.0)
    best_values = [np.empty_like(p.value) for p in params]
    history = []
    with ad.one_tape_alive():
        for epoch in range(config.epochs):
            for p in params:
                p.zero_grad()
            try:
                res = compute_loss(model, dataset, cfg, epoch_seed=epoch,
                                   train_mode=True)
                if epoch == 0 and config.auto_rescale_weights:
                    cfg, res = _rescale_weights(res, config)
            except (TrainingDivergence, FloatingPointError) as e:
                # a network output that overflows is divergence too
                if not history:
                    raise TrainingDivergence(
                        f"training diverged at epoch {epoch}, before any "
                        f"checkpoint: {e}") from e
                warnings.warn(f"training diverged at epoch {epoch}; "
                              "restoring best checkpoint")
                break
            res.tape.backward()
            history.append((res.total, res.l1, res.l2, res.l3,
                            res.dropped_fraction))
            if res.total < best[0]:
                best = (res.total, res.dropped_fraction)
                for b, p in zip(best_values, params):
                    np.copyto(b, p.value)
            res.tape, res.terms = None, ()  # the queue holds them now
            ad.release_recorded()
            try:
                nn.adam_step_tensors(params, state)
            except FloatingPointError:
                warnings.warn(f"non-finite gradient at epoch {epoch}; "
                              "restoring best checkpoint")
                break
    for p, v in zip(params, best_values):
        p.value = v
    model.loss_history = history
    model.config = cfg
    if best[1] > 0.01:
        warnings.warn(
            f"returned checkpoint degenerated on {best[1]:.1%} of density "
            "samples (J <= 0); treat the model as suspect")
    return model


# -- generation --------------------------------------------------------------------

@dataclass
class ParticleCloudDensity:
    """Push-forward of the reference density as a weighted particle cloud:
    the mapped points X + u of the particles with J > J_MIN. Weights are
    uniform over them and sum to one.
    """

    points: np.ndarray
    weights: np.ndarray
    dropped_fraction: float = 0.0

    def mean(self) -> np.ndarray:
        return self.weights @ self.points


@_QUIET
def generate_density(model: TransportModel, t_target_norm, n=2048,
                     seed=0) -> ParticleCloudDensity:
    """Transported density at pseudo-time t as a weighted particle cloud.

    The displacement's space jet takes float32 rows, like training's; the
    rest is float64: F = I + du/dX, det J, the J > 0 mask and the points
    X + u, with X the float64 sample. ValueError if the map folds (J <= 0)
    at every particle.
    """
    X = model.reference_density.sample(n, seed)
    u0, jac = _jet_values(model.displacement, X.astype(np.float32),
                          t_target_norm)
    F = jac + np.eye(X.shape[1])
    J = np.linalg.det(F)
    keep = J > J_MIN
    if not keep.any():
        raise ValueError(
            f"the map folds (J <= 0) at all {n} particles at t = "
            f"{t_target_norm}")
    dropped_fraction = 1.0 - keep.mean()
    if dropped_fraction > 0:
        warnings.warn(f"dropped {dropped_fraction:.2%} of samples with J <= 0")
    pts = (X + u0)[keep]
    w = np.full(len(pts), 1.0 / len(pts))
    return ParticleCloudDensity(pts, w, float(dropped_fraction))


@_QUIET
def generate_mean(model: TransportModel, t_target_norm, n=2048, seed=0,
                  cloud: ParticleCloudDensity | None = None):
    """Mean of the transported density at pseudo-time t, in data units.

    For a curve reference the conditional mean stress along strain is the
    mapped mean curve, returned as [m, 2] sorted by strain. Otherwise it is
    the weighted mean of the particle cloud at t: `cloud` when the caller
    already generated one there, else one drawn with n and seed. Either
    mean is mapped by `TransportModel.to_data_units`, so a field model with
    a PCA basis returns the reconstructed field.
    """
    ref = model.reference_density
    if isinstance(ref, GaussianCurveDensity):
        P = ref.mean_curve()
        mapped = P + model.displacement.u_values(P, t_target_norm)
        mean = mapped[np.argsort(mapped[:, 0], kind="stable")]
    else:
        if cloud is None:
            cloud = generate_density(model, t_target_norm, n=n, seed=seed)
        mean = cloud.mean()
    return model.to_data_units(mean)


def nrmse(pred, target) -> float:
    """Root-mean-square error over the target's value range."""
    pred = np.asarray(pred, dtype=np.float64).ravel()
    target = np.asarray(target, dtype=np.float64).ravel()
    if pred.shape != target.shape:
        raise ValueError("length mismatch")
    rng_t = float(target.max() - target.min())
    if rng_t == 0.0:
        raise ValueError("target is constant; NRMSE undefined")
    return float(np.sqrt(np.mean((pred - target) ** 2)) / rng_t)
