"""Cross-module randomized property checks."""

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


@settings(max_examples=100, deadline=None)
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


@settings(max_examples=100, deadline=None)
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


@settings(max_examples=100, deadline=None)
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
                      if i == 0 else s.density, s.boundary_pairs)
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


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_stable_mean_order_free(seed):
    gen = rng.stream(seed, 0xA4)
    n = int(gen.integers(2, 500))
    vals = rng.normal(gen, n) * 10.0 ** int(gen.integers(-3, 6))
    perm = gen.permutation(n)
    a = float(ad.stable_mean(ad.constant(vals)).value)
    b = float(ad.stable_mean(ad.constant(vals[perm])).value)
    assert a == b


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_forward_eval_bit_reproducible(seed):
    from otgen.nn import init_mlp
    gen = rng.stream(seed, 0xA5)
    net = init_mlp([3, 8, 2], "selu", seed=seed % 1000, dropout=0.2)
    x = rng.normal(gen, (4, 3))
    a = net.forward(x).value
    b = net.forward(x).value
    np.testing.assert_array_equal(a, b)
