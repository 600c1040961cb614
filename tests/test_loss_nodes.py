"""Oracles for the fused loss nodes after the networks.

Each node's VJP must match central differences of its value along a random
direction, which for a random cotangent g is the dot-product test
<g, J v> = <J^T g, v>. Every check runs in float64.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otgen import autodiff as ad
from otgen import rng, transport
from otgen.density import GaussianCurveDensity, ReducedGaussianDensity
from otgen.transport import (ConditionNormalizer, LossResult, Snapshot,
                             SnapshotDataset, TrainConfig, TransportModel,
                             compute_loss)
from tests_support_rigs import rigged_transport_model

seeds = st.integers(min_value=0, max_value=10**9)
H = 1e-6


def vjp_and_jvp(fn, inputs, g, v):
    """(<J^T g, v> from the node's backward, <g, J v> from central
    differences of its value) for the node `fn(*tensors)` at `inputs`; an
    input the node does not read has no gradient and adds 0."""
    params = [ad.parameter(x) for x in inputs]
    out = fn(*params)
    ad.tsum(ad.mul(out, ad.constant(g))).backward()
    back = sum(float(np.sum(p.grad * d)) for p, d in zip(params, v)
               if p.grad is not None)
    with ad.no_grad():
        ahead = fn(*(ad.constant(x + H * d) for x, d in zip(inputs, v)))
        behind = fn(*(ad.constant(x - H * d) for x, d in zip(inputs, v)))
    return back, float(np.sum(g * (ahead.value - behind.value) / (2 * H)))


def density_batch(gen, d, n_snap, n, curve):
    """Snapshot densities and a batch X [n, d] with rho0, and u0 and du/dX
    rows stacked by snapshot; a curve batch maps every third row outside
    the strain range."""
    if curve:
        grid = np.linspace(0.0, 1.0, 6)
        densities = [GaussianCurveDensity(grid, rng.normal(gen, 6), 0.4)
                     for _ in range(n_snap)]
        X = np.column_stack([rng.uniform(gen, n), 0.3 * rng.normal(gen, n)])
    else:
        densities = [ReducedGaussianDensity(0.2 * rng.normal(gen, d), 0.5)
                     for _ in range(n_snap)]
        X = 0.3 * rng.normal(gen, (n, d))
    u0 = 0.1 * rng.normal(gen, (n_snap * n, d))
    if curve:
        u0[2::3, 0] = -X[np.arange(2, n_snap * n, 3) % n, 0] - 0.5
    jac = 0.05 * rng.normal(gen, (n_snap * n, d, d))
    rho0 = 0.5 + rng.uniform(gen, n)
    return densities, X, rho0, u0, jac


@pytest.mark.parametrize("d", [1, 2, 3, 6])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(2, 6), st.booleans(), st.booleans(),
       seeds)
def test_density_term_node(d, n_snap, n, curve, fold, seed):
    # L1 against a numpy oracle, its folded-row count, and its VJP into
    # u0 and du/dX (the 2 x 2 adjugate for d = 2, inv otherwise)
    curve = curve and d == 2
    gen = rng.stream(seed, 0xB1)
    densities, X, rho0, u0, jac = density_batch(gen, d, n_snap, n, curve)
    folded = np.zeros(n_snap * n, dtype=bool)
    if fold:
        # F = diag(-1, 1, ...) + noise has J near -1 in every dimension,
        # and every other folded row has F = 0, so J = 0 and no inverse;
        # the first row of each snapshot stays kept
        folded[1::2] = np.arange(1, n_snap * n, 2) % n != 0
        jac[folded, 0, 0] -= 2.0
        jac[folded & (np.arange(n_snap * n) % 4 == 3)] = -np.eye(d)

    F = jac + np.eye(d)
    J = np.linalg.det(F)
    assert np.all(J[~folded] > 0.2) and np.all(J[folded] < 1e-12)
    terms = []
    for i, dens in enumerate(densities):
        rows = slice(i * n, (i + 1) * n)
        kept = ~folded[rows]
        rho = dens.pdf(X + u0[rows])
        terms.append(np.mean((rho0[kept] / J[rows][kept] - rho[kept]) ** 2))

    def node(u, j):
        return transport._density_term(u, j, X, rho0, densities)[0]

    with ad.no_grad():
        L1, dropped = transport._density_term(ad.constant(u0),
                                              ad.constant(jac), X, rho0,
                                              densities)
    assert dropped == folded.sum()
    assert L1.value == pytest.approx(np.mean(terms), rel=1e-12)
    # a folded row takes no gradient; the direction leaves it alone, as
    # a step would move J = 0 across J_MIN
    u, j = ad.parameter(u0), ad.parameter(jac)
    node(u, j).backward()
    assert not u.grad[folded].any() and not j.grad[folded].any()
    v = [rng.normal(gen, u0.shape), rng.normal(gen, jac.shape)]
    v[0][folded], v[1][folded] = 0.0, 0.0
    back, fd = vjp_and_jvp(node, [u0, jac], np.float64(1.5), v)
    assert back == pytest.approx(fd, rel=1e-5, abs=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3, 6])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.booleans(), seeds)
def test_density_pdf_node(d, n, curve, seed):
    # pdf_t is a node over pdf_and_grad: its value is pdf's, and its VJP
    # matches central differences of pdf, outside the strain range too
    curve = curve and d == 2
    gen = rng.stream(seed, 0xB2)
    (dens,), X, _, u0, _ = density_batch(gen, d, 1, n, curve)
    x = X + u0
    g = rng.normal(gen, n)
    np.testing.assert_array_equal(dens.pdf_t(ad.constant(x)).value,
                                  dens.pdf(x))
    back, fd = vjp_and_jvp(dens.pdf_t, [x], g, [rng.normal(gen, x.shape)])
    assert back == pytest.approx(fd, rel=1e-5, abs=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 6), st.floats(0.1, 3.0), seeds)
def test_mean_square_and_weighted_total_nodes(m, d, scale, seed):
    # L2 and L3 are scale * mean_rows ||v + c||^2 over one tape tensor v;
    # the total is w1 L1 + w2 L2 + w3 L3 over the three term nodes
    gen = rng.stream(seed, 0xB3)
    v0, c = rng.normal(gen, (m, d)), rng.normal(gen, (m, d))

    def node(v):
        return transport._mean_square(v, v.value + c, scale)

    with ad.no_grad():
        value = node(ad.constant(v0)).value
    assert value == pytest.approx(
        scale * np.mean(np.sum((v0 + c) ** 2, axis=-1)), rel=1e-12)
    back, fd = vjp_and_jvp(node, [v0], np.float64(0.7),
                           [rng.normal(gen, v0.shape)])
    assert back == pytest.approx(fd, rel=1e-6, abs=1e-12)

    cfg = TrainConfig(w1=0.5, w2=scale, w3=2.0)
    terms = rng.uniform(gen, 3)

    def total(*ts):
        return transport._weighted_loss(ts, cfg, 0.0).tape

    back, fd = vjp_and_jvp(total, list(terms), np.float64(1.0),
                           list(rng.normal(gen, 3)))
    assert back == pytest.approx(fd, rel=1e-6, abs=1e-12)


class TapeField:
    """A displacement stub whose time jet hands out given tape tensors and
    records whether the Laplacian was asked for."""

    def __init__(self, dim, u0, d2u, lap):
        self.dim, self.u0, self.d2u, self.lap = dim, u0, d2u, lap
        self.asked = []

    def jet(self, X, t, wrt="space", laplacian=False):
        assert wrt == "time"
        self.asked.append(laplacian)
        return (self.u0, self.d2u) + ((self.lap,) if laplacian else ())

    def parameters(self):
        return []


class LinearForce:
    """F_b(x) = s x + f with f a tape tensor."""

    def __init__(self, dim, s, f):
        self.dim, self.s, self.f = dim, s, f

    def force(self, x, t, dropout_seed=None):
        return ad.add(ad.mul(x, self.s), self.f)

    def parameters(self):
        return []


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([0.0, 1.0, 0.3, 2.5]), st.integers(1, 6),
       st.integers(1, 3), seeds)
def test_residual_node(G, n, d, seed):
    # r = d2u/dt2 - G lap u - F_b(X + u) is one node over the time jet's
    # d2u/dt2, lap u (asked for only when G != 0) and F_b
    gen = rng.stream(seed, 0xB4)
    X = rng.normal(gen, (n, d))
    inputs = [rng.normal(gen, (n, d)) for _ in range(4)]  # u0 d2u lap f
    s = 0.5 + rng.uniform(gen, 1)[0]
    asked = []

    def residual(u0, d2u, lap, f):
        field = TapeField(d, u0, d2u, lap)
        model = TransportModel(field, LinearForce(d, s, f),
                               ConditionNormalizer("linear", 0.0, 1.0),
                               TrainConfig(shear_modulus=G), None)
        r = transport.eom_residual_t(model, X, 0.5)
        asked.extend(field.asked)
        return r

    u0, d2u, lap, f = inputs
    with ad.no_grad():
        r = residual(*map(ad.constant, inputs)).value
    assert asked == [G != 0.0]
    expected = d2u - G * lap - (s * (X + u0) + f) if G else \
        d2u - (s * (X + u0) + f)
    np.testing.assert_allclose(r, expected, rtol=1e-13, atol=1e-13)
    g = rng.normal(gen, (n, d))
    v = [rng.normal(gen, (n, d)) for _ in range(4)]
    back, fd = vjp_and_jvp(residual, inputs, g, v)
    exact = float(np.sum(g * (v[1] - G * v[2] - s * v[0] - v[3])))
    assert back == pytest.approx(exact, rel=1e-12, abs=1e-12)
    assert fd == pytest.approx(exact, rel=1e-6, abs=1e-9)


# -- auto-rescaled weights and the dynamics batch --------------------------------

def epoch0(l1, l2, l3):
    terms = tuple(ad.constant(np.float64(x)) for x in (l1, l2, l3))
    return LossResult(l1 + l2 + l3, l1, l2, l3, 0.0, terms=terms)


@pytest.mark.parametrize("terms,divisors", [
    ((0.5, 0.25, 4.0), (0.5, 0.25, 4.0)),
    ((1e-20, 0.0, 1e-13), (1e-12, None, 1e-12)),
    ((2.0, 3e-15, 1.0), (2.0, 1e-12, 1.0)),
])
def test_rescale_divides_by_floored_epoch0_terms(terms, divisors):
    # each weight is divided by its epoch-0 term floored at 1e-12; an L2 of
    # 0 (no anchors) keeps w2
    cfg = TrainConfig(w1=1.5, w2=2.0, w3=0.5, auto_rescale_weights=True)
    rescaled, res = transport._rescale_weights(epoch0(*terms), cfg)
    weights = (cfg.w1, cfg.w2, cfg.w3)
    expected = tuple(w if div is None else w / div
                     for w, div in zip(weights, divisors))
    assert (rescaled.w1, rescaled.w2, rescaled.w3) == expected
    assert res.total == (terms[0] * expected[0] + terms[1] * expected[1]
                         + terms[2] * expected[2])


def test_dynamics_batch_is_the_collocation_grid(monkeypatch):
    # n_collocation = 3 interior times 1/4, 1/2, 3/4, each over one batch of
    # n_samples_pde reference samples from stream key 2; dropout from key 3
    # in train mode only
    model = rigged_transport_model(2, lambda X, t: 0.1 * t * X,
                                   n_collocation=3, n_samples_pde=5, seed=9)
    ref = model.reference_density
    ds = SnapshotDataset([Snapshot(0.0, ref), Snapshot(1.0, ref)])
    calls, real = [], transport.eom_residual_t

    def recorded(model, X, t, dropout_seed=None):
        calls.append((X.copy(), np.array(t), dropout_seed))
        return real(model, X, t, dropout_seed)

    monkeypatch.setattr(transport, "eom_residual_t", recorded)
    compute_loss(model, ds, epoch_seed=4)
    compute_loss(model, ds, epoch_seed=4, train_mode=True)
    X3 = ref.sample(5, seed=transport._combine(9, 4, 2))
    for (X, t, dropout_seed), dtype in zip(calls, (np.float64, np.float32)):
        np.testing.assert_array_equal(t, [0.25] * 5 + [0.5] * 5 + [0.75] * 5)
        np.testing.assert_array_equal(X, np.tile(X3, (3, 1)).astype(dtype))
    assert [c[2] for c in calls] == [None, transport._combine(9, 4, 3)]
