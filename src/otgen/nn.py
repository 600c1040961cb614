"""Dense neural networks on the autodiff tape.

Provides multilayer perceptrons with SELU / softplus / leaky-ReLU
activations and per-layer dropout, a sinusoidal feature embedding with
learnable spectral weights, and the Adam optimizer. Each layer and the
embedding is one tape node (`autodiff.dense`, `autodiff.sincos_features`)
that also accepts a Taylor-mode jet, which is how `otgen.transport` gets
exact input derivatives of the displacement field. Weight documents are
read and written by `otgen.dataio`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import rng

ACTIVATIONS = ("linear", "selu", "softplus", "leaky_relu")
# softplus beta and leaky-ReLU slope when a layer's activation_param is 0
_DEFAULT_PARAM = {"softplus": 1.0, "leaky_relu": 0.01}

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

    Without a dropout seed a pass is a pure function of the input; with one
    it applies inverted dropout with masks drawn from that seed.
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

    def forward(self, x, dropout_seed=None, second=0):
        """Apply the network to `x`: a batch [n, in] or [in], or a jet.

        A jet [S, n, in] carries tangent and `second` second-order streams
        through every layer (layout in `autodiff`). With `dropout_seed`, the
        dropout masks are drawn per value and shared by all streams: each
        layer gets the keep bits u >= p and the scale 1 / (1 - p) in the
        dtype of its input, which give the bits of the float mask
        keep / (1 - p) at one byte per entry. Raises
        if the result stops being finite, which signals exploded weights
        rather than a recoverable condition.
        """
        h = ad.constant(x)
        if h.value.shape[-1] != self.in_dim:
            raise ValueError(
                f"input dim {h.value.shape[-1]} != network dim {self.in_dim}"
            )
        for i, layer in enumerate(self.layers):
            param = (layer.activation_param
                     or _DEFAULT_PARAM.get(layer.activation, 0.0))
            keep, scale = None, 1.0
            if layer.dropout > 0.0 and dropout_seed is not None:
                gen = rng.stream(dropout_seed, i, 0xD0)
                rows = (h.value.shape[1:-1] if h.value.ndim == 3
                        else h.value.shape[:-1])
                u = rng.uniform(gen, rows + (layer.weight.value.shape[0],))
                keep = u >= layer.dropout
                dtype = h.value.dtype.type
                scale = dtype(1) / dtype(1.0 - layer.dropout)
            h = ad.dense(h, layer.weight, layer.bias, layer.activation, param,
                         second, keep, scale)
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


def forward(net: Mlp, embedding, x, second=0):
    """Dropout-free pass through `embedding` (when given), then `net`."""
    if embedding is not None:
        x = embedding.apply(x, second)
    return net.forward(x, second=second)


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

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moments (zero at the start), step count and learning rate."""

    first_moment: list
    second_moment: list
    lr: float
    step_count: int = 0

    @classmethod
    def for_params(cls, params: list[ad.Tensor], lr):
        return cls([np.zeros_like(p.value) for p in params],
                   [np.zeros_like(p.value) for p in params], lr)


def adam_step_tensors(params: list[ad.Tensor], state: AdamState):
    """One bias-corrected Adam update of `params` from their .grad, in place.

    A missing gradient counts as zero. Raises FloatingPointError, before
    any parameter or moment changes, when a gradient is not finite.
    """
    grads = [np.zeros_like(p.value) if p.grad is None else p.grad
             for p in params]
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient component")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for i, (p, g) in enumerate(zip(params, grads)):
        m = state.first_moment[i] = (ADAM_BETA1 * state.first_moment[i]
                                     + (1 - ADAM_BETA1) * g)
        v = state.second_moment[i] = (ADAM_BETA2 * state.second_moment[i]
                                      + (1 - ADAM_BETA2) * g * g)
        p.value = p.value - state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
