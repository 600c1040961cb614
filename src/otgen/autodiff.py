"""Reverse-mode automatic differentiation on numpy arrays.

A `Tensor` wraps an ndarray and records the operations that produced it,
forming an expression tape. Calling :meth:`Tensor.backward` on a scalar
walks the tape in reverse topological order and accumulates gradients
into every tensor created with ``requires_grad=True``. Only those leaves
keep a `.grad` afterwards: an interior node's gradient is released as
soon as its own backward has read it, and each node keeps only the
arrays its backward reads. A node owns the gradient its backward is
handed, since `Tensor._accumulate` copies every gradient it does not own,
so a backward may consume that gradient in place; it never writes into
what its node keeps, and a tape's backward can run again.

A tensor holds float64, or float32 when it is given a float32 array;
anything else becomes float64. Elementwise primitives follow numpy's
promotion, so a float32 operand meets a float64 one in float64. The fused
`dense` and `sincos_features` nodes compute in the dtype of their input
`h` and cast the weights to it, so a float64 input keeps full 64-bit
arithmetic while a float32 one runs the layer, its jets and its backward
in float32. Each tensor sums its gradients in its own dtype: a float64
parameter collects float64 gradients from float32 layers. Recording can be
suspended with :func:`no_grad` for cheap evaluation-only passes; the
forward values are identical either way, so replaying a graph reproduces
its value bit-exactly.

A primitive is its forward value plus one vector-Jacobian product (VJP)
per parent, and `_node` builds every such tape node. The fused `dense`
and `sincos_features` nodes keep their own backward: one inner gradient,
formed inside the node's own gradient, feeds each parent that takes one,
and the products made from it are handed over without a copy; per-parent
VJPs would compute it once per parent. Of a jet's pre-activation streams
such a node keeps the tangents, and its value stream, which no backward
reads, holds the last activation derivative in place of a separate array.

A tape's arrays are freed when the last reference to its nodes goes,
except in a training loop run under :func:`one_tape_alive`. There, once an
epoch's backward has run, :func:`release_recorded` queues the nodes that
epoch's tape recorded, and each fused layer of the next epoch's tape first
frees the queued nodes up to and including the matching old layer: their
values and the arrays their backward would have read. Every new layer thus
takes over blocks of the size its predecessor just gave back. One tape is
alive at a time, and the heap is not trimmed and faulted in again each
epoch, as it is when each tape is dropped whole after its backward.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import deque
from contextlib import contextmanager

import numpy as np

_STATE = threading.local()  # recording is per-thread: graphs stay confined


def _grad_enabled() -> bool:
    return getattr(_STATE, "grad_enabled", True)


@contextmanager
def no_grad():
    """Suspend tape recording inside the context (current thread only)."""
    prior = _grad_enabled()
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = prior


@contextmanager
def one_tape_alive():
    """Free each tape layer by layer as the next one is recorded.

    Inside the context (current thread only), every recorded node is
    logged in creation order, in layers that each end at a fused `dense`
    or `sincos_features` node. Once `release_recorded` has queued a tape's
    layers, each fused node of the next tape first frees the oldest queued
    layer. Nothing is logged or freed once the context exits.
    """
    _STATE.recorded, _STATE.release = [[]], deque()
    try:
        yield
    finally:
        del _STATE.recorded, _STATE.release


def release_recorded():
    """Queue the layers recorded since the last call for release by the
    next tape; layers still queued from before go now. Call it once the
    tape's backward has run, holding no node of that tape."""
    _STATE.release = deque(_STATE.recorded)
    _STATE.recorded = [[]]


def _record(node, fused=False):
    """`node`, logged under `one_tape_alive`; a fused node ends a layer."""
    layers = getattr(_STATE, "recorded", None)
    if layers is not None:
        layers[-1].append(node)
        if fused:
            layers.append([])
    return node


def _release_next_layer():
    """Free the oldest queued layer of the last tape, if any: each node's
    value, the arrays its backward would have read and its parents."""
    queue = getattr(_STATE, "release", None)
    if queue:
        for node in queue.popleft():
            node.value = node._backward = None
            node._parents = ()


def as_array(x) -> np.ndarray:
    """`x` as a float32 array if it is one, else as a float64 array."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


class Tensor:
    """Node of the expression tape: a float64 (or float32) array plus
    backward closure; its gradient has the dtype of its value."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad=False, parents=(), backward=None):
        self.value = as_array(value)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = parents
        self._backward = backward

    def _accumulate(self, g, owned=False):
        """Add `g`, an array of this tensor's shape, to the gradient.

        `owned` says `g` is a fresh array that no other node can reach; a
        first gradient of this tensor's dtype then takes it over without a
        copy. Any other `g` is copied, or cast to this tensor's dtype.
        """
        if self.grad is None:
            dtype = self.value.dtype
            self.grad = (g if owned and g.dtype == dtype
                         else np.array(g, dtype=dtype))
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse-accumulate d(self)/d(leaf) for every recorded leaf.

        Leaves keep their `.grad`; every interior node, this one included,
        has its `.grad` set to None once its backward has run. That
        gradient is the node's own (see `_accumulate`), so its backward may
        overwrite it.
        """
        if self.value.ndim != 0:
            raise ValueError("backward() requires a scalar tensor")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.value))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    def __getitem__(self, idx):
        return getitem(self, idx)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, grad={self.requires_grad})"


def parameter(value) -> Tensor:
    """A leaf tensor that collects gradients."""
    return Tensor(value, requires_grad=True)


def constant(value) -> Tensor:
    """A tape tensor holding `value`; a Tensor passes through unchanged."""
    return value if isinstance(value, Tensor) else Tensor(value)


def _recording(parents) -> bool:
    """Whether a node over `parents` goes on the tape."""
    return _grad_enabled() and any(p.requires_grad or p._parents
                                   for p in parents)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum `grad` over the leading axes broadcasting added to `shape`; an
    inner axis broadcast from size 1 is not summed, and reshape raises."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    return grad.reshape(shape)


def _node(out, parents, *vjps):
    """A tensor of value `out`, on the tape when `_recording(parents)`.

    `vjps[i]` maps the output gradient to the gradient of `parents[i]`
    before unbroadcasting; it runs only for a parent on the tape.
    """
    if not _recording(parents):
        return Tensor(out)

    def backward(g):
        for p, vjp in zip(parents, vjps):
            if p.requires_grad or p._parents:
                p._accumulate(_unbroadcast(vjp(g), p.value.shape))

    return _record(Tensor(out, parents=parents, backward=backward))


# -- elementwise arithmetic ---------------------------------------------

def add(a, b):
    a, b = constant(a), constant(b)
    return _node(a.value + b.value, (a, b), lambda g: g, lambda g: g)


def sub(a, b):
    a, b = constant(a), constant(b)
    return _node(a.value - b.value, (a, b), lambda g: g, lambda g: -g)


def mul(a, b):
    a, b = constant(a), constant(b)
    return _node(a.value * b.value, (a, b),
                 lambda g: g * b.value, lambda g: g * a.value)


def div(a, b):
    a, b = constant(a), constant(b)
    return _node(a.value / b.value, (a, b), lambda g: g / b.value,
                 lambda g: -g * a.value / b.value**2)


def square(a):
    a = constant(a)
    return _node(a.value * a.value, (a,), lambda g: g * 2.0 * a.value)


def exp(a):
    a = constant(a)
    out = np.exp(a.value)
    return _node(out, (a,), lambda g: g * out)


def sin(a):
    a = constant(a)
    return _node(np.sin(a.value), (a,), lambda g: g * np.cos(a.value))


def cos(a):
    a = constant(a)
    return _node(np.cos(a.value), (a,), lambda g: -g * np.sin(a.value))


# -- linear algebra -----------------------------------------------------

def matmul(a, b):
    a, b = constant(a), constant(b)
    return _node(a.value @ b.value, (a, b),
                 lambda g: g @ np.swapaxes(b.value, -1, -2),
                 lambda g: np.swapaxes(a.value, -1, -2) @ g)


def det(a):
    """Determinant over the trailing two axes.

    Gradient uses d det(A) = det(A) * A^{-T}, so the matrices must be
    invertible wherever a gradient is requested.
    """
    a = constant(a)
    out = np.linalg.det(a.value)
    return _node(out, (a,), lambda g: g[..., None, None] * out[..., None, None]
                 * np.swapaxes(np.linalg.inv(a.value), -1, -2))


# -- dtype and shape manipulation -------------------------------------------

def cast(a, dtype):
    """`a` in `dtype`; the gradient returns in `a`'s own dtype."""
    a = constant(a)
    if a.value.dtype == dtype:
        return a
    return _node(a.value.astype(dtype), (a,), lambda g: g)  # cast on accumulate


def concat(parts, axis=-1):
    parts = tuple(constant(p) for p in parts)
    out = np.concatenate([p.value for p in parts], axis=axis)
    edges = np.cumsum([0] + [p.value.shape[axis] for p in parts])
    lead = (slice(None),) * (axis % out.ndim)
    return _node(out, parts, *(lambda g, s=lead + (slice(lo, hi),): g[s]
                               for lo, hi in zip(edges[:-1], edges[1:])))


def stack_last(parts):
    """Stack equal-shaped tensors along a new trailing axis."""
    parts = tuple(constant(p) for p in parts)
    return _node(np.stack([p.value for p in parts], axis=-1), parts,
                 *(lambda g, j=j: g[..., j] for j in range(len(parts))))


def getitem(a, idx):
    """`a[idx]` for ints and slices only (TypeError else): no position repeats."""
    a = constant(a)
    if not all(isinstance(i, (slice, int))
               for i in (idx if isinstance(idx, tuple) else (idx,))):
        raise TypeError(f"getitem takes ints and slices, not {idx!r}")

    def vjp(g):
        full = np.zeros_like(a.value)
        full[idx] += g
        return full

    return _node(a.value[idx], (a,), vjp)


# -- reductions -----------------------------------------------------------

def tsum(a, axis=None):
    a = constant(a)
    return _node(a.value.sum(axis=axis), (a,), lambda g: np.broadcast_to(
        g if axis is None else np.expand_dims(g, axis), a.value.shape).copy())


def stable_mean(a):
    """Mean of a 1-D tensor via compensated (exact) summation.

    The forward value is independent of element order, so losses built on
    it agree bit-for-bit under sample permutations.
    """
    a = constant(a)
    if a.value.ndim != 1:
        raise ValueError("stable_mean expects a 1-D tensor")
    n = a.value.shape[0]
    return _node(np.float64(math.fsum(a.value.tolist()) / n), (a,),
                 lambda g: np.full_like(a.value, g / n))


# -- activations ----------------------------------------------------------

SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805


def _softplus_derivs(x, beta, order):
    """[softplus(x), its first, ..., order-th derivative] (overflow-safe).

    The sign branches are taken by arithmetic with the 0/1 mask [z < 0]
    rather than masked selects, with the same bits: s + [z < 0](1 - 2s) is
    exactly 1 - s for s in [1/2, 1], and w - 2[z < 0]w exactly -w.
    """
    z = beta * x
    ez = np.abs(z)
    np.negative(ez, out=ez)
    np.exp(ez, out=ez)
    value = np.maximum(z, 0.0)
    value += np.log1p(ez)
    value /= beta
    d = [value]
    if order >= 1:
        neg = z < 0.0
        s = ez + 1.0
        np.divide(1.0, s, out=s)
        sig = s * 2.0
        np.subtract(1.0, sig, out=sig)
        sig *= neg
        sig += s
        d.append(sig)
    if order >= 2:
        # sig (1 - sig) = ez s^2 and 1 - 2 sig = +-(ez - 1) s, free of the
        # cancellation in 1 - sig when |z| is large
        q = ez * s
        q *= s
        d.append(beta * q)
    if order >= 3:
        w = ez - 1.0
        flip = neg * w
        flip *= 2.0
        np.subtract(w, flip, out=flip)
        third = beta * beta * q
        third *= flip
        third *= s
        d.append(third)
    return d


def _selu_derivs(x, order):
    """[selu(x), its first, ..., order-th derivative], free of masked selects.

    With ae = alpha exp(min(x, 0)), exactly alpha for x > 0, the forms
    lambda (max(x, 0) + (ae - alpha)), lambda (ae + [x > 0](1 - alpha)) and
    lambda ae [x <= 0] equal the branchwise ones bit for bit: 1 - alpha is
    exact, and alpha + (1 - alpha) rounds to exactly 1.
    """
    ae = np.minimum(x, 0.0)
    np.exp(ae, out=ae)
    ae *= SELU_ALPHA
    value = np.maximum(x, 0.0)
    value += ae - SELU_ALPHA
    value *= SELU_LAMBDA
    d = [value]
    if order >= 1:
        slope = np.multiply(x > 0.0, 1.0 - SELU_ALPHA, dtype=x.dtype)
        slope += ae
        slope *= SELU_LAMBDA
        d.append(slope)
    if order >= 2:
        ae *= x <= 0.0
        ae *= SELU_LAMBDA
        d.append(ae)
    if order >= 3:
        d.append(ae)
    return d


def _leaky_relu_derivs(x, slope, order):
    d = [np.where(x >= 0.0, x, slope * x)]
    if order >= 1:
        d.append(np.where(x >= 0.0, x.dtype.type(1.0), x.dtype.type(slope)))
    return d + [0.0] * (order - 1)


def _linear_derivs(x, order):
    return [x, 1.0, 0.0, 0.0][:order + 1]


def _activation_derivs(activation, x, param, order):
    """Activation value and derivatives up to `order` (at most 3) at x."""
    if activation == "softplus":
        return _softplus_derivs(x, param, order)
    if activation == "selu":
        return _selu_derivs(x, order)
    if activation == "leaky_relu":
        return _leaky_relu_derivs(x, param, order)
    if activation == "linear":
        return _linear_derivs(x, order)
    raise ValueError(f"unknown activation {activation!r}")


def selu(a):
    a = constant(a)
    out, deriv = _selu_derivs(a.value, 1)
    return _node(out, (a,), lambda g: g * deriv)


def softplus(a, beta=1.0):
    """Overflow-safe softplus log(1 + exp(beta*x)) / beta."""
    a = constant(a)
    out, sig = _softplus_derivs(a.value, beta, 1)
    return _node(out, (a,), lambda g: g * sig)


# -- Taylor-mode jets -------------------------------------------------------
#
# A jet is a stream-stacked array [S, n, width]: stream 0 holds values,
# streams 1..K first-order tangents (directional derivatives), and the last
# `second` streams second derivatives along tangents 1..second. Pushing a
# jet through an elementwise map with derivatives d = [f, f', f'', ...]
# taken at the value stream z0 gives
#   value    f(z0)
#   tangent  f'(z0) z_k
#   second   f''(z0) z_k^2 + f'(z0) z_kk
# so every derivative is exact and f is evaluated once per layer.

def _jet_order(streams, second, recording):
    """Highest derivative of f a jet forward (and backward) pass needs."""
    order = (streams > 1) + (second > 0)
    return order + 1 if recording else order


def _jet_forward(d, z, second):
    if z.shape[0] == 1:  # the value stream alone: no copy
        return d[0][None]
    k = z.shape[0] - 1 - second
    out = np.empty_like(z)
    out[0] = d[0]
    if k:
        np.multiply(d[1], z[1:1 + k], out=out[1:1 + k])
    if second:
        np.multiply(d[1], z[1 + k:], out=out[1 + k:])
        out[1 + k:] += d[2] * np.square(z[1:1 + second])
    return out


def _jet_backward(d, z, g, second):
    """Gradient of sum(g * _jet_forward(d, z, second)) with respect to z,
    formed inside `g`, which it overwrites and returns.

    Reads d[1:] only, and `z` only for a jet: one stream may pass None.
    The terms that read the tangent and second-order streams of `g` are
    formed before `g` is multiplied by f'.
    """
    k = g.shape[0] - 1 - second
    g0 = []  # the terms added to the value stream, in order
    if k:
        g0.append(d[2] * np.einsum("snm,snm->nm", g[1:1 + k], z[1:1 + k]))
    if second:
        zk, g2 = z[1:1 + second], g[1 + k:]
        g0.append(np.einsum("snm,snm->nm", g2, d[3] * np.square(zk)
                            + d[2] * z[1 + k:]))
        gk = 2.0 * d[2] * g2 * zk
    g *= d[1]
    for term in g0:
        g[0] += term
    if second:
        g[1:1 + second] += gk
    return g


def _hold_in_value_stream(d, z):
    """Move the last derivative array in `d` of `z`'s dtype into the value
    stream z[0], which a backward never reads, and return `z`.

    Every entry of `d` that is that array becomes the view z[0], so the
    array itself is freed. Scalar derivatives stay as they are, and so does
    an array of another dtype (a numpy float64 softplus beta on a float32
    jet), which z[0] would round.
    """
    held = [x for x in d if isinstance(x, np.ndarray) and x.dtype == z.dtype]
    if held:
        z[0] = last = held[-1]
        d[:] = [z[0] if x is last else x for x in d]
    return z


def _streams(x):
    """A batch [n, w] (or one row [w]) as a one-stream jet [1, n, w]."""
    return x if x.ndim == 3 else x.reshape(1, -1, x.shape[-1])


def _stream_matmul(h, w_t):
    """Apply one matrix to every stream with a single [S*n, in] product."""
    out = h.reshape(-1, h.shape[-1]) @ w_t
    return out.reshape(h.shape[:-1] + (w_t.shape[-1],))


def dense(h, weight, bias, activation="linear", param=0.0, second=0,
          keep=None, scale=1.0):
    """One dense layer activation(h W^T + b) as a single tape node.

    `h` is a batch [n, in] or [in], or a jet [S, n, in] (layout above) whose
    last `second` streams are second-order; the bias enters the value
    stream only. `param` is the softplus beta or the leaky-ReLU slope.
    `keep` (bools [n, out] or [out]), when given, multiplies every stream
    of the output in place, and then `scale` does: inverted dropout with
    the float mask keep / (1 - p), bit for bit, from 1-byte bits.

    The node keeps only what its backward reads: the activation
    derivatives, not its value; the input; and for a jet the pre-activation
    streams, whose value stream, unread by the backward, holds the last
    derivative array. It keeps no cast of the weight: the backward casts
    the weight's array again, and raises RuntimeError if that array was
    replaced since the forward (Adam replaces a parameter's array once the
    backward has run, and never writes into it). The backward works inside
    the gradient it is handed, which the node owns (see `Tensor.backward`):
    the keep bits, the scale and f' multiply it in place.

    The layer computes in the dtype of `h`, float32 or float64, with the
    weight and bias cast to it; their gradients are summed in float64 when
    they are float64 (see `Tensor._accumulate`).
    """
    _release_next_layer()
    h, weight, bias = constant(h), constant(weight), constant(bias)
    parents = (h, weight, bias)
    H = _streams(h.value)
    z = _stream_matmul(H, weight.value.astype(H.dtype, copy=False).T)
    z[0] += bias.value.astype(H.dtype, copy=False)
    recording = _recording(parents)
    d = _activation_derivs(activation, z[0], param,
                           _jet_order(len(z), second, recording))
    out = _jet_forward(d, z, second).reshape(h.value.shape[:-1]
                                             + (z.shape[-1],))
    if keep is not None:
        out *= keep
        out *= scale
    if not recording:
        return Tensor(out)
    d[0] = None
    tangents = _hold_in_value_stream(d, z) if len(z) > 1 else None
    weight_ref = weakref.ref(weight.value)  # the array the forward read

    def backward(g):
        if weight.value is not weight_ref():
            raise RuntimeError("a dense weight was replaced after its forward")
        if keep is not None:
            g *= keep
            g *= scale
        gz = _jet_backward(d, tangents, _streams(g), second)
        flat = gz.reshape(-1, gz.shape[-1])
        if h.requires_grad or h._parents:
            h._accumulate((flat @ weight.value.astype(H.dtype, copy=False))
                          .reshape(h.value.shape), owned=True)
        if weight.requires_grad or weight._parents:
            weight._accumulate(flat.T @ H.reshape(-1, H.shape[-1]), owned=True)
        if bias.requires_grad or bias._parents:
            bias._accumulate(gz[0].sum(axis=0, dtype=bias.value.dtype),
                             owned=True)

    return _record(Tensor(out, parents=parents, backward=backward), True)


def sincos_features(v, weights, scale, second=0):
    """[sin(s v B^T), cos(s v B^T), v] as a single tape node.

    `v` is a batch [n, in] or a jet [S, n, in]; `weights` B is [m, in] and
    `scale` s a scalar. Output width is 2m + in. Like `dense`, the node
    computes in the dtype of `v`. `v` is input data, never on the tape:
    no gradient flows into it, and a `v` on the tape raises TypeError.
    """
    _release_next_layer()
    v, weights, scale = constant(v), constant(weights), constant(scale)
    if v.requires_grad or v._parents:
        raise TypeError("sincos_features takes no gradient into v")
    parents = (v, weights, scale)
    V = _streams(v.value)
    B = weights.value.astype(V.dtype, copy=False)
    s = scale.value.astype(V.dtype, copy=False)
    p = _stream_matmul(V, B.T)
    y = p * s
    recording = _recording(parents)
    order = _jet_order(len(y), second, recording)
    sn, cs = np.sin(y[0]), np.cos(y[0])
    d_sin = [sn, cs, -sn, -cs][:order + 1]
    d_cos = [cs, -sn, -cs, sn][:order + 1]
    m = y.shape[-1]
    out = np.concatenate([_jet_forward(d_sin, y, second),
                          _jet_forward(d_cos, y, second), V], axis=-1)
    out = out.reshape(v.value.shape[:-1] + (out.shape[-1],))
    if not recording:
        return Tensor(out)
    d_sin[0] = d_cos[0] = None
    tangents = _hold_in_value_stream(d_sin, y) if len(y) > 1 else None

    def backward(g):
        g = _streams(g)
        gy = (_jet_backward(d_sin, tangents, g[..., :m], second)
              + _jet_backward(d_cos, tangents, g[..., m:2 * m], second))
        if weights.requires_grad or weights._parents:
            weights._accumulate(s * (gy.reshape(-1, m).T
                                     @ V.reshape(-1, V.shape[-1])), owned=True)
        if scale.requires_grad or scale._parents:
            scale._accumulate(np.sum(gy * p, dtype=scale.value.dtype))

    return _record(Tensor(out, parents=parents, backward=backward), True)


# -- interpolation ---------------------------------------------------------

def interp_query(grid, values, q):
    """Piecewise-linear interpolation, differentiable in the query points.

    `grid` (increasing) and `values` are fixed arrays; `q` may be a tensor.
    Queries are clamped to the grid ends (zero slope outside), matching
    np.interp.
    """
    grid = np.asarray(grid, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    q = constant(q)
    out = np.interp(q.value, grid, values)
    seg = np.clip(np.searchsorted(grid, q.value, side="right") - 1, 0, len(grid) - 2)
    slopes = (values[seg + 1] - values[seg]) / (grid[seg + 1] - grid[seg])
    inside = (q.value >= grid[0]) & (q.value <= grid[-1])
    dq = np.where(inside, slopes, 0.0)
    return _node(out, (q,), lambda g: g * dq)
