"""Dense neural networks on the autodiff tape.

Provides multilayer perceptrons with SELU / softplus / leaky-ReLU
activations and per-layer dropout, a sinusoidal feature embedding with
learnable spectral weights, the Adam optimizer, and a versioned JSON
weight format. Each layer and the embedding is one tape node
(`autodiff.dense`, `autodiff.sincos_features`) that also accepts a
Taylor-mode jet, which is how `otgen.transport` gets exact input
derivatives of the displacement field.

Every float array in a saved document, here and in `otgen.dataio` and
`otgen.pca`, goes through one codec, `_arr_out`/`_arr_in`: the base64 of
its little-endian float64 bytes, so round trips are bit-exact and cost no
per-float Python work.
"""

from __future__ import annotations

import base64
import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import rng

ACTIVATIONS = ("linear", "selu", "softplus", "leaky_relu")
# softplus beta and leaky-ReLU slope when a layer's activation_param is 0
_DEFAULT_PARAM = {"softplus": 1.0, "leaky_relu": 0.01}

WEIGHT_FORMAT_VERSION = 2
# version 1 wrote float arrays as lists of numbers; `_arr_in` reads both
_WEIGHT_VERSIONS = (1, WEIGHT_FORMAT_VERSION)


class DataFormatError(ValueError):
    """Malformed input data file or saved document."""


@dataclass
class Layer:
    """One dense layer: weight [out, in], bias [out]."""

    weight: ad.Tensor
    bias: ad.Tensor
    activation: str = "linear"
    activation_param: float = 0.0  # softplus beta or leaky-relu slope
    dropout: float = 0.0

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")


class Mlp:
    """Dense feed-forward network over tape tensors.

    Evaluation mode is a pure deterministic function of the input; training
    mode applies inverted dropout with masks drawn from the call seed.
    """

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("Mlp needs at least one layer")
        for a, b in zip(layers[:-1], layers[1:]):
            if a.weight.value.shape[0] != b.weight.value.shape[1]:
                raise ValueError("layer dimensions do not chain")
        self.layers = layers

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.value.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.value.shape[0]

    def parameters(self) -> list[ad.Tensor]:
        out = []
        for layer in self.layers:
            out.extend([layer.weight, layer.bias])
        return out

    def forward(self, x, mode="eval", seed=0, second=0):
        """Apply the network to `x`: a batch [n, in] or [in], or a jet.

        A jet [S, n, in] carries tangent and `second` second-order streams
        through every layer (layout in `autodiff`); dropout masks are drawn
        per value and shared by all streams. Raises if the result stops
        being finite, which signals exploded weights rather than a
        recoverable condition.
        """
        h = ad.constant(x)
        if h.value.shape[-1] != self.in_dim:
            raise ValueError(
                f"input dim {h.value.shape[-1]} != network dim {self.in_dim}"
            )
        for i, layer in enumerate(self.layers):
            param = (layer.activation_param
                     or _DEFAULT_PARAM.get(layer.activation, 0.0))
            h = ad.dense(h, layer.weight, layer.bias, layer.activation, param,
                         second)
            if layer.dropout > 0.0 and mode == "train":
                gen = rng.stream(seed, i, 0xD0)
                shape = h.value.shape[1:] if h.value.ndim == 3 else h.value.shape
                keep = rng.uniform(gen, shape) >= layer.dropout
                mask = keep.astype(np.float64) / (1.0 - layer.dropout)
                h = ad.mul(h, ad.Tensor(mask))
        if not np.all(np.isfinite(h.value)):
            raise FloatingPointError("non-finite network output")
        return h


class FourierFeatureEmbedding:
    """Sinusoidal input features with learnable spectral weights.

    Maps v to [sin(s*Bv), cos(s*Bv), v] where B [m, in] and the scalar
    scale s are trainable; the output width is 2m + in.
    """

    def __init__(self, spectral_weights: np.ndarray, scale: float = 1.0):
        w = np.asarray(spectral_weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError("spectral weights must be [m, in]")
        self.spectral_weights = ad.parameter(w)
        self.scale = ad.parameter(np.float64(scale))

    @property
    def in_dim(self) -> int:
        return self.spectral_weights.value.shape[1]

    @property
    def out_dim(self) -> int:
        m = self.spectral_weights.value.shape[0]
        return 2 * m + self.in_dim

    def parameters(self) -> list[ad.Tensor]:
        return [self.spectral_weights, self.scale]

    def apply(self, x, second=0):
        """Features of a batch [n, in] or of a jet [S, n, in] (see `autodiff`)."""
        return ad.sincos_features(x, self.spectral_weights, self.scale, second)


def forward(net: Mlp, embedding, x, mode="eval", seed=0, second=0):
    """Network forward pass with an optional feature embedding in front."""
    if embedding is not None:
        x = embedding.apply(x, second)
    return net.forward(x, mode=mode, seed=seed, second=second)


# -- construction ----------------------------------------------------------

def init_mlp(sizes, activations, seed, dropout=0.0, activation_param=0.0,
             final_std=None) -> Mlp:
    """Build an Mlp with fan-in-scaled normal weights.

    `sizes` is [in, h1, ..., out]; `activations` applies to all but the
    final layer (final layer is linear). `final_std`, when given, draws the
    last weight matrix from N(0, final_std^2) with zero bias so the initial
    output is near zero. Dropout attaches to hidden layers only.
    """
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    layers = []
    n_layers = len(sizes) - 1
    for i in range(n_layers):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        gen = rng.stream(seed, i, 0x11)
        last = i == n_layers - 1
        if last and final_std is not None:
            w = rng.normal(gen, (fan_out, fan_in)) * final_std
            b = np.zeros(fan_out)
        else:
            w = rng.normal(gen, (fan_out, fan_in)) / np.sqrt(fan_in)
            b = np.zeros(fan_out)
        layers.append(Layer(
            weight=ad.parameter(w),
            bias=ad.parameter(b),
            activation="linear" if last else activations,
            activation_param=activation_param,
            dropout=0.0 if last else dropout,
        ))
    return Mlp(layers)


# -- gradients ---------------------------------------------------------------

def param_grad(loss_fn, params: list[ad.Tensor]) -> list[np.ndarray]:
    """Reverse-mode gradient of a scalar loss w.r.t. `params`.

    `loss_fn` must return a scalar Tensor built from recorded primitives;
    anything else means an unrecorded computation leaked into the graph.
    """
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    if not isinstance(loss, ad.Tensor):
        raise TypeError("loss_fn must return a Tensor built on the tape")
    loss.backward()
    return [np.zeros_like(p.value) if p.grad is None else p.grad.copy()
            for p in params]


# -- Adam --------------------------------------------------------------------

@dataclass
class AdamState:
    """Adam moments and hyperparameters (moments start at zero)."""

    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)
    step_count: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        return cls(
            first_moment=[np.zeros_like(np.asarray(p)) for p in params],
            second_moment=[np.zeros_like(np.asarray(p)) for p in params],
            step_count=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps,
        )


def adam_step(params, grads, state: AdamState):
    """One bias-corrected Adam update; returns (new_params, state).

    `params` and `grads` are parallel lists of arrays. The state is
    advanced in place and returned for convenience.
    """
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient component")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    new_params = []
    for i, (p, g) in enumerate(zip(params, grads)):
        m = state.first_moment[i] = state.beta1 * state.first_moment[i] + (1 - state.beta1) * g
        v = state.second_moment[i] = state.beta2 * state.second_moment[i] + (1 - state.beta2) * g * g
        new_params.append(p - state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps))
    return new_params, state


def adam_step_tensors(tensors: list[ad.Tensor], state: AdamState):
    """In-place Adam update for tape parameters using their .grad fields."""
    grads = [np.zeros_like(p.value) if p.grad is None else p.grad for p in tensors]
    new_values, _ = adam_step([p.value for p in tensors], grads, state)
    for p, v in zip(tensors, new_values):
        p.value = v
    return state


# -- serialization -------------------------------------------------------------

def _arr_out(a) -> str:
    """Base64 text of the little-endian float64 bytes of `a`, in C order."""
    raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def _arr_in(v, shape=(-1,)) -> np.ndarray:
    """A writable native float64 array of `shape` read from a document.

    `v` is `_arr_out` text or, in documents written before it, a list of
    numbers. Raises TypeError for any other value and ValueError for
    invalid base64 or a size that does not fit `shape`.
    """
    if isinstance(v, str):
        # invalid base64 raises binascii.Error, a ValueError
        raw = base64.b64decode(v, validate=True)
        a = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    elif isinstance(v, list):
        a = np.array(v, dtype=np.float64)
    else:
        raise TypeError(f"expected an array, got {type(v).__name__}")
    return a.reshape(shape)


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


@contextmanager
def format_errors(what: str):
    """Re-raise an error from reading the document `what` as DataFormatError.

    Covers the lookup, type and value errors of a malformed document: a
    missing key, a value of the wrong type, a document that is not an
    object, invalid base64, or an array whose size does not fit its shape.
    """
    try:
        yield
    except DataFormatError:
        raise
    except (AttributeError, LookupError, TypeError, ValueError) as e:
        raise DataFormatError(
            f"malformed {what}: {type(e).__name__}: {e}") from e


def mlp_from_dict(doc: dict) -> Mlp:
    """The network a weight document of version 1 or 2 describes.

    Raises DataFormatError for an unknown version and for a malformed
    document (see `format_errors`).
    """
    with format_errors("weight document"):
        return _mlp_from_dict(doc)


def _mlp_from_dict(doc: dict) -> Mlp:
    if doc.get("version") not in _WEIGHT_VERSIONS:
        raise DataFormatError(
            f"unsupported weight format version {doc.get('version')}")
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


def embedding_to_dict(emb: FourierFeatureEmbedding | None) -> dict | None:
    if emb is None:
        return None
    return {
        "version": WEIGHT_FORMAT_VERSION,
        "shape": list(emb.spectral_weights.value.shape),
        "spectral_weights": _arr_out(emb.spectral_weights.value),
        "scale": float(emb.scale.value),
    }


def embedding_from_dict(doc: dict | None) -> FourierFeatureEmbedding | None:
    if doc is None:
        return None
    m, d = doc["shape"]
    w = _arr_in(doc["spectral_weights"], (m, d))
    return FourierFeatureEmbedding(w, scale=float(doc["scale"]))


def save_mlp(net: Mlp, path):
    text = json.dumps(mlp_to_dict(net))
    with open(path, "w") as f:
        f.write(text)


def load_mlp(path) -> Mlp:
    with open(path) as f:
        return mlp_from_dict(json.load(f))
