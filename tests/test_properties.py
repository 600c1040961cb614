"""Cross-module randomized property checks."""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otgen import autodiff as ad
from otgen import rng
from otgen.density import ReducedGaussianDensity
from otgen.discrete import (DiscreteDistribution, push_forward, solve_monge,
                            solve_monge_time_dependent, trajectory_cost)
from otgen.fpca_gpr import gpr_fit, gpr_predict
from otgen.transport import Snapshot, SnapshotDataset, loss

seeds = st.integers(min_value=0, max_value=10**9)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeds)
def test_pushforward_equals_target_for_solved_maps(seed):
    gen = rng.stream(seed, 0xA1)
    n = int(gen.integers(2, 6))
    mu = DiscreteDistribution.uniform(rng.normal(gen, (n, 2)))
    nu = DiscreteDistribution.uniform(rng.normal(gen, (n, 2)) + 1.0)
    tmap, _ = solve_monge(mu, nu)
    pushed = push_forward(tmap, mu, nu)
    np.testing.assert_allclose(pushed.points, nu.points, atol=1e-12)
    np.testing.assert_allclose(pushed.masses, nu.masses, atol=1e-12)
    assert pushed.masses.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeds)
def test_trajectory_cost_equals_static_cost(seed):
    gen = rng.stream(seed, 0xA2)
    n = int(gen.integers(2, 8))
    dim = int(gen.integers(1, 3))
    mu = DiscreteDistribution.uniform(rng.normal(gen, (n, dim)))
    nu = DiscreteDistribution.uniform(rng.normal(gen, (n, dim)) + 0.5)
    _, static_cost = solve_monge(mu, nu)
    traj = solve_monge_time_dependent(mu, nu)
    assert trajectory_cost(traj, mu) == pytest.approx(static_cost, abs=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeds)
def test_gpr_posterior_variance_bounded_by_prior(seed):
    gen = rng.stream(seed, 0xA3)
    n = int(gen.integers(2, 8))
    T = np.cumsum(0.3 + rng.uniform(gen, n))
    a = rng.normal(gen, n)
    s2 = 0.5 + 2.0 * rng.uniform(gen, 1)[0]
    n2 = 0.01 + 0.5 * rng.uniform(gen, 1)[0]
    model = gpr_fit(T, a, hyper=(1.0, s2, n2))
    q = float(T.min() - 3 + rng.uniform(gen, 1)[0] * (T.max() - T.min() + 6))
    _, var = gpr_predict(model, q)
    assert var <= s2 + n2 + 1e-9
    assert var >= 0.0


class PermutedDensity:
    """Wraps a density, permuting each sample batch; pdf passes through."""

    def __init__(self, inner, perm_seed):
        self.inner = inner
        self.perm_seed = perm_seed

    @property
    def dim(self):
        return self.inner.dim

    def sample(self, n, seed):
        x = self.inner.sample(n, seed)
        return x[rng.stream(self.perm_seed, n).permutation(n)]

    def pdf(self, x):
        return self.inner.pdf(x)

    def pdf_t(self, x):
        return self.inner.pdf_t(x)


@pytest.mark.parametrize("perm_seed", range(10))
def test_loss_invariant_under_batch_permutation(perm_seed):
    # compensated reductions make the loss independent of sample order
    from tests_support_rigs import make_translation_model_and_data
    model, ds_plain = make_translation_model_and_data()
    base = loss(model, ds_plain, model.config, epoch_seed=5)

    snaps = [Snapshot(s.t_norm, PermutedDensity(s.density, perm_seed)
                      if i == 0 else s.density, s.anchors)
             for i, s in enumerate(ds_plain.snapshots)]
    ds_perm = SnapshotDataset(snaps)
    permuted = loss(model, ds_perm, model.config, epoch_seed=5)
    assert permuted.total == pytest.approx(base.total, abs=1e-12)
    assert permuted.l1 == pytest.approx(base.l1, abs=1e-12)


def test_zero_dynamics_iff_affine_in_time():
    # with no elastic term and zero body force, the dynamics term vanishes
    # exactly when the displacement is affine in t along each trajectory
    from tests_support_rigs import rigged_transport_model
    affine = rigged_transport_model(1, lambda X, t: 0.4 * t * (X + 1.0))
    curved = rigged_transport_model(1, lambda X, t: 0.4 * t**2 * (X + 1.0))
    dens = ReducedGaussianDensity([0.0], 0.2)
    ds = SnapshotDataset([Snapshot(0.0, dens), Snapshot(1.0, dens)])
    res_affine = loss(affine, ds, affine.config)
    res_curved = loss(curved, ds, curved.config)
    assert res_affine.l3 < 1e-10
    assert res_curved.l3 > 1e-4


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeds)
def test_stable_mean_order_free(seed):
    gen = rng.stream(seed, 0xA4)
    n = int(gen.integers(2, 500))
    vals = rng.normal(gen, n) * 10.0 ** int(gen.integers(-3, 6))
    perm = gen.permutation(n)
    a = float(ad.stable_mean(ad.constant(vals)).value)
    b = float(ad.stable_mean(ad.constant(vals[perm])).value)
    assert a == b


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeds)
def test_forward_eval_bit_reproducible(seed):
    from otgen.nn import init_mlp
    gen = rng.stream(seed, 0xA5)
    net = init_mlp([3, 8, 2], "selu", seed=seed % 1000, dropout=0.2)
    x = rng.normal(gen, (4, 3))
    a = net.forward(x).value
    b = net.forward(x).value
    np.testing.assert_array_equal(a, b)


# -- float32 layers against float64 ones ------------------------------------
#
# A float32 input runs `dense` and `sincos_features` in float32 (the training
# passes); a float64 input keeps full precision. Every float32 jet stream and
# every gradient (into h, W and b; into B and the scale, as `sincos_features`
# takes no gradient into its input) must match the float64
# result within F32_RTOL of the largest float64 entry of that array, or of 1
# when every entry is smaller: about 840 float32 roundings. The floor is
# there because an activation's float32 derivatives are exact to about 1e-7
# in absolute, not relative, terms; softplus' slope far in its left tail is
# 1 - s with s rounded near 1.

F32_RTOL = 1e-4
ACTIVATION_DRAWS = [("softplus", 10.0), ("selu", 0.0), ("leaky_relu", 0.01),
                    ("linear", 0.0)]


def _close_to_float64(a32, a64):
    scale = max(np.abs(a64).max(), 1.0)
    np.testing.assert_allclose(a32, a64, rtol=F32_RTOL, atol=F32_RTOL * scale)


def _jet_input(gen, k, second, n, width):
    """A batch [n, width] when k = 0, else a jet of 1 + k + second streams."""
    if k == 0:
        return rng.normal(gen, (n, width))
    return rng.normal(gen, (1 + k + second, n, width))


def _gradients_in_both_dtypes(layer, h64, params64, out_weights,
                              h_on_tape=True):
    """(outputs, gradients) of sum(out_weights * layer(h, *params)) for a
    float32 and a float64 h; the parameters are float64 leaves each time.
    The gradients start with h's when `h_on_tape`, else h is a constant."""
    results = []
    for dtype in (np.float32, np.float64):
        h = (ad.parameter if h_on_tape else ad.constant)(h64.astype(dtype))
        params = [ad.parameter(p) for p in params64]
        out = layer(h, *params)
        assert out.value.dtype == dtype
        ad.tsum(ad.mul(out, out_weights)).backward()
        assert all(p.grad.dtype == np.float64 for p in params)
        grads = [p.grad for p in params]
        if h_on_tape:
            assert h.grad.dtype == dtype
            grads.insert(0, h.grad)
        else:
            assert h.grad is None
        results.append((out.value, grads))
    return results


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(ACTIVATION_DRAWS), st.integers(0, 3), st.data(),
       st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.booleans(), seeds)
def test_float32_dense_matches_float64(act, k, data, n, width_in, width_out,
                                       masked, seed):
    activation, param = act
    second = data.draw(st.integers(0, k))
    gen = rng.stream(seed, 0xA6)
    h64 = _jet_input(gen, k, second, n, width_in)
    W, b = rng.normal(gen, (width_out, width_in)), rng.normal(gen, width_out)
    out_weights = rng.normal(gen, h64.shape[:-1] + (width_out,))
    keep = rng.uniform(gen, (n, width_out)) >= 0.3 if masked else None

    def layer(h, weight, bias):
        dtype = h.value.dtype.type
        return ad.dense(h, weight, bias, activation, param, second, keep,
                        dtype(1) / dtype(0.7))

    (o32, g32), (o64, g64) = _gradients_in_both_dtypes(layer, h64, [W, b],
                                                       out_weights)
    _close_to_float64(o32, o64)
    for a, b_ in zip(g32, g64):
        _close_to_float64(a, b_)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.data(), st.integers(1, 4), st.integers(1, 3),
       st.integers(1, 4), seeds)
def test_float32_sincos_features_match_float64(k, data, n, width_in, m, seed):
    second = data.draw(st.integers(0, k))
    gen = rng.stream(seed, 0xA7)
    v64 = _jet_input(gen, k, second, n, width_in)
    B = rng.normal(gen, (m, width_in))
    scale = np.float64(0.5 + rng.uniform(gen, 1)[0])
    out_weights = rng.normal(gen, v64.shape[:-1] + (2 * m + width_in,))

    def layer(v, weights, s):
        return ad.sincos_features(v, weights, s, second)

    (o32, g32), (o64, g64) = _gradients_in_both_dtypes(
        layer, v64, [B, scale], out_weights, h_on_tape=False)
    _close_to_float64(o32, o64)
    for a, b_ in zip(g32, g64):
        _close_to_float64(a, b_)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(ACTIVATION_DRAWS), st.sampled_from([np.float32,
                                                           np.float64]),
       st.integers(0, 2), st.data(), st.booleans(), st.integers(1, 4),
       st.integers(1, 4), st.integers(1, 4), st.floats(0.01, 0.99), seeds)
def test_dense_keep_bits_are_the_float_mask(act, dtype, k, data, recording,
                                            n, width_in, width_out, p, seed):
    # inverted dropout from keep bits and one scale equals a `mul` node by
    # the float mask keep / (1 - p) bit for bit: the value, and the
    # gradients into h, W and b
    activation, param = act
    second = data.draw(st.integers(0, min(k, 1)))
    gen = rng.stream(seed, 0xA8)
    h0 = _jet_input(gen, k, second, n, width_in).astype(dtype)
    W, b = rng.normal(gen, (width_out, width_in)), rng.normal(gen, width_out)
    keep = rng.uniform(gen, (n, width_out)) >= p
    out_weights = rng.normal(gen, h0.shape[:-1] + (width_out,))
    runs = []
    for folded in (True, False):
        h, w, bias = ad.parameter(h0), ad.parameter(W), ad.parameter(b)
        with nullcontext() if recording else ad.no_grad():
            if folded:
                out = ad.dense(h, w, bias, activation, param, second, keep,
                               dtype(1) / dtype(1 - p))
            else:
                out = ad.mul(ad.dense(h, w, bias, activation, param, second),
                             ad.Tensor(keep.astype(dtype) / (1 - p)))
        assert out.value.dtype == dtype
        if recording:
            ad.tsum(ad.mul(out, out_weights)).backward()
        runs.append([out.value] + ([h.grad, w.grad, bias.grad]
                                   if recording else []))
    for a, b_ in zip(*runs):
        assert a.dtype == b_.dtype and a.tobytes() == b_.tobytes()
