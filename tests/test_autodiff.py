import math

import numpy as np
import pytest

from otgen import autodiff as ad
from otgen import rng


def fd_grad(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def test_add_mul_chain_matches_fd():
    w = ad.parameter([1.5, -2.0, 0.5])

    def build():
        y = ad.mul(w, w)         # w^2
        z = ad.add(y, ad.mul(w, 3.0))
        return ad.tsum(z)

    loss = build()
    loss.backward()
    expected = fd_grad(lambda v: float((v * v + 3 * v).sum()), w.value.copy())
    np.testing.assert_allclose(w.grad, expected, rtol=1e-8)


# primitive applied to parameters of these shapes; parts of different sizes
# make a per-part VJP that bound its slice late read the wrong part
_FD_CASES = {
    "sub": (ad.sub, [(3, 2), (3, 2)]),
    "div": (ad.div, [(3, 2), (3, 2)]),
    "mul-row-broadcast": (ad.mul, [(3,), (4, 3)]),
    "sub-row-broadcast": (ad.sub, [(4, 3), (3,)]),
    "div-row-broadcast": (ad.div, [(3,), (4, 3)]),
    "concat-axis0": (lambda *p: ad.concat(p, axis=0), [(2, 3), (1, 3), (3, 3)]),
    "concat-last": (lambda *p: ad.concat(p, axis=-1), [(2, 1), (2, 3), (2, 2)]),
    "stack_last": (lambda *p: ad.stack_last(p), [(2, 3), (2, 3), (2, 3)]),
    "tsum-axis1": (lambda a: ad.tsum(a, axis=1), [(3, 4)]),
    "stable_mean": (ad.stable_mean, [(5,)]),
}


@pytest.mark.parametrize("case", sorted(_FD_CASES))
def test_primitive_gradients_match_central_differences(case):
    op, shapes = _FD_CASES[case]
    gen = rng.stream(31)
    # in [0.5, 1.5]: away from the zero a divisor must avoid
    xs = [0.5 + rng.uniform(gen, shape) for shape in shapes]
    params = [ad.parameter(x.copy()) for x in xs]
    out = op(*params)
    r = rng.normal(gen, out.value.shape)
    ad.tsum(ad.mul(out, r)).backward()
    for i, p in enumerate(params):
        def loss(v, i=i):
            args = [v if j == i else x for j, x in enumerate(xs)]
            return float(np.sum(op(*map(ad.constant, args)).value * r))
        expected = fd_grad(loss, xs[i].copy())
        np.testing.assert_allclose(p.grad, expected, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div, ad.matmul])
def test_constant_parent_of_binary_node_gets_no_gradient(op):
    w = ad.parameter(np.full((2, 2), 2.0))
    c = ad.constant(np.full((2, 2), 3.0))
    ad.tsum(ad.add(op(w, c), op(c, w))).backward()
    assert w.grad is not None and c.grad is None


def test_matmul_gradient():
    gen = rng.stream(7)
    A = ad.parameter(rng.normal(gen, (3, 4)))
    x = rng.normal(gen, (5, 3))

    def loss_value(Av):
        return float(((x @ Av) ** 2).sum())

    out = ad.matmul(ad.constant(x), A)
    ad.tsum(ad.square(out)).backward()
    expected = fd_grad(loss_value, A.value.copy())
    np.testing.assert_allclose(A.grad, expected, rtol=1e-6, atol=1e-9)


def test_broadcast_add_unbroadcasts():
    b = ad.parameter(np.array([1.0, 2.0]))
    x = ad.constant(np.zeros((5, 2)))
    ad.tsum(ad.add(x, b)).backward()
    np.testing.assert_array_equal(b.grad, np.full(2, 5.0))


@pytest.mark.parametrize("op", [ad.add, ad.mul])
def test_inner_axis_broadcast_raises_on_backward(op):
    # only leading axes are summed back; a (4, 1) parent broadcast against
    # (4, 3) is refused rather than summed
    col = ad.parameter(np.ones((4, 1)))
    out = op(col, ad.constant(np.ones((4, 3))))
    assert out.value.shape == (4, 3)
    with pytest.raises(ValueError):
        ad.tsum(out).backward()


def test_det_gradient_matches_fd():
    gen = rng.stream(3)
    A = ad.parameter(np.eye(3) + 0.2 * rng.normal(gen, (3, 3)))
    ad.det(A).backward()
    expected = fd_grad(lambda v: float(np.linalg.det(v)), A.value.copy())
    np.testing.assert_allclose(A.grad, expected, rtol=1e-6, atol=1e-9)


def test_batched_det():
    gen = rng.stream(4)
    mats = np.eye(2) + 0.1 * rng.normal(gen, (6, 2, 2))
    A = ad.parameter(mats)
    ad.tsum(ad.det(A)).backward()
    expected = fd_grad(lambda v: float(np.linalg.det(v).sum()), mats.copy())
    np.testing.assert_allclose(A.grad, expected, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("fn,ref,dref", [
    (ad.sin, np.sin, np.cos),
    (ad.cos, np.cos, lambda x: -np.sin(x)),
    (ad.exp, np.exp, np.exp),
])
def test_unary_ops(fn, ref, dref):
    x = ad.parameter(np.linspace(-2, 2, 9))
    ad.tsum(fn(x)).backward()
    np.testing.assert_allclose(x.grad, dref(x.value), rtol=1e-12)


def test_softplus_values_and_overflow_safety():
    x = ad.constant(np.array([0.0, 500.0, -500.0, 1.0]))
    y = ad.softplus(x, beta=10.0)
    assert y.value[0] == pytest.approx(math.log(2.0) / 10.0)
    assert y.value[1] == pytest.approx(500.0)     # linear regime
    assert y.value[2] == pytest.approx(0.0, abs=1e-300)
    assert np.all(np.isfinite(y.value))


def test_softplus_large_beta_approaches_relu():
    x = np.linspace(-3, 3, 31)
    y = ad.softplus(ad.constant(x), beta=500.0).value
    np.testing.assert_allclose(y, np.maximum(x, 0.0), atol=1e-2)


def test_selu_zero_and_grad():
    x = ad.parameter(np.array([0.0, 1.0, -1.0]))
    y = ad.selu(x)
    assert y.value[0] == 0.0
    ad.tsum(y).backward()
    lam, alpha = ad.SELU_LAMBDA, ad.SELU_ALPHA
    np.testing.assert_allclose(
        x.grad, [lam * alpha, lam, lam * alpha * np.exp(-1.0)], rtol=1e-12)


def test_leaky_relu():
    # the activation is reached through the dense node only
    x = ad.parameter(np.array([[-2.0, 0.0, 3.0]]))
    y = ad.dense(x, np.eye(3), np.zeros(3), "leaky_relu", 0.1)
    np.testing.assert_allclose(y.value, [[-0.2, 0.0, 3.0]])
    ad.tsum(y).backward()
    np.testing.assert_allclose(x.grad, [[0.1, 1.0, 1.0]])


def test_stable_mean_is_permutation_invariant():
    gen = rng.stream(11)
    vals = rng.normal(gen, 2048) * 1e6
    a = float(ad.stable_mean(ad.constant(vals)).value)
    b = float(ad.stable_mean(ad.constant(vals[::-1].copy())).value)
    perm = rng.stream(12).permutation(2048)
    c = float(ad.stable_mean(ad.constant(vals[perm])).value)
    assert a == b == c


def test_gradient_of_sum_is_sum_of_gradients():
    w = ad.parameter(np.array([1.0, 2.0]))
    l1 = ad.tsum(ad.square(w))
    l2 = ad.tsum(ad.mul(w, 3.0))
    ad.add(l1, l2).backward()
    g_joint = w.grad.copy()
    w.zero_grad()
    ad.tsum(ad.square(w)).backward()
    g1 = w.grad.copy()
    w.zero_grad()
    ad.tsum(ad.mul(w, 3.0)).backward()
    g2 = w.grad.copy()
    np.testing.assert_allclose(g_joint, g1 + g2, rtol=1e-15)


def test_replay_reproduces_value_bit_exactly():
    gen = rng.stream(21)
    w = ad.parameter(rng.normal(gen, (4, 4)))
    x = rng.normal(gen, (7, 4))

    def build():
        h = ad.matmul(ad.constant(x), w)
        return ad.stable_mean(ad.tsum(ad.square(ad.selu(h)), axis=-1))

    assert float(build().value) == float(build().value)


def test_interp_query_gradient():
    grid = np.array([0.0, 1.0, 3.0])
    vals = np.array([0.0, 2.0, 1.0])
    q = ad.parameter(np.array([0.5, 2.0, -1.0, 4.0]))
    y = ad.interp_query(grid, vals, q)
    np.testing.assert_allclose(y.value, [1.0, 1.5, 0.0, 1.0])
    ad.tsum(y).backward()
    np.testing.assert_allclose(q.grad, [2.0, -0.5, 0.0, 0.0])


def test_no_grad_suppresses_graph():
    w = ad.parameter(np.ones(3))
    with ad.no_grad():
        y = ad.tsum(ad.square(w))
    assert y._parents == ()
    with pytest.raises(ValueError):
        ad.constant(np.ones(2)).backward()  # non-scalar


def test_getitem_gradient():
    w = ad.parameter(np.arange(6, dtype=float).reshape(2, 3))
    ad.tsum(ad.getitem(w, (slice(None), 1))).backward()
    expected = np.zeros((2, 3))
    expected[:, 1] = 1.0
    np.testing.assert_array_equal(w.grad, expected)


@pytest.mark.parametrize("idx", [[0, 0], (slice(None), np.array([1, 1])),
                                 np.array([True, False])],
                         ids=["list", "array-in-tuple", "mask"])
def test_getitem_refuses_an_index_that_could_repeat(idx):
    w = ad.parameter(np.arange(6, dtype=float).reshape(2, 3))
    with pytest.raises(TypeError, match="ints and slices"):
        ad.getitem(w, idx)


# -- fused dense layer and feature embedding ---------------------------------

@pytest.mark.parametrize("activation,param,act", [
    ("linear", 0.0, lambda z: z),
    ("softplus", 3.0, lambda z: ad.softplus(z, beta=3.0)),
    ("selu", 0.0, ad.selu),
    ("leaky_relu", 0.1,
     lambda z: ad.mul(z, np.where(z.value >= 0.0, 1.0, 0.1))),
])
def test_dense_one_stream_is_matmul_bias_activation(activation, param, act):
    gen = rng.stream(12)
    x = rng.normal(gen, (6, 4))
    W = rng.normal(gen, (5, 4))
    b = rng.normal(gen, 5)
    r = rng.normal(gen, (6, 5))
    w1, b1 = ad.parameter(W), ad.parameter(b)
    fused = ad.dense(x, w1, b1, activation, param)
    w2, b2 = ad.parameter(W.T), ad.parameter(b)
    composed = act(ad.add(ad.matmul(ad.constant(x), w2), b2))
    np.testing.assert_array_equal(fused.value, composed.value)
    ad.tsum(ad.mul(fused, r)).backward()
    ad.tsum(ad.mul(composed, r)).backward()
    np.testing.assert_array_equal(w1.grad, w2.grad.T)
    np.testing.assert_array_equal(b1.grad, b2.grad)


def test_sincos_features_one_stream_is_composition():
    gen = rng.stream(13)
    x = rng.normal(gen, (6, 3))
    B = rng.normal(gen, (4, 3))
    r = rng.normal(gen, (6, 11))
    b1, s1 = ad.parameter(B), ad.parameter(np.float64(1.3))
    fused = ad.sincos_features(x, b1, s1)
    b2, s2 = ad.parameter(B.T), ad.parameter(np.float64(1.3))
    z = ad.mul(ad.matmul(ad.constant(x), b2), s2)
    composed = ad.concat([ad.sin(z), ad.cos(z), ad.constant(x)], axis=-1)
    np.testing.assert_array_equal(fused.value, composed.value)
    ad.tsum(ad.mul(fused, r)).backward()
    ad.tsum(ad.mul(composed, r)).backward()
    np.testing.assert_allclose(b1.grad, b2.grad.T, rtol=1e-13)
    np.testing.assert_allclose(s1.grad, s2.grad, rtol=1e-13)


@pytest.mark.parametrize("on_tape", [ad.parameter, lambda x: ad.mul(
    ad.parameter(np.ones_like(x)), x)], ids=["leaf", "interior"])
def test_sincos_features_refuses_an_input_on_the_tape(on_tape):
    # no gradient flows into v, so a v that would need one is refused
    x = np.ones((2, 3))
    with pytest.raises(TypeError, match="no gradient into v"):
        ad.sincos_features(on_tape(x), ad.parameter(np.ones((4, 3))),
                           ad.parameter(np.float64(1.0)))


def test_dense_jet_skips_tape_under_no_grad():
    w = ad.parameter(np.ones((2, 3)))
    with ad.no_grad():
        out = ad.dense(np.zeros((3, 4, 3)), w, ad.parameter(np.zeros(2)),
                       "softplus", 1.0, second=1)
    assert out.value.shape == (3, 4, 2) and out._parents == ()


def _training_loss():
    """A small model and its train-mode loss on the tape (dropout, jets)."""
    from otgen.density import ReducedGaussianDensity
    from otgen.transport import (ConditionNormalizer, Snapshot,
                                 SnapshotDataset, TrainConfig, compute_loss,
                                 init_model)
    ds = SnapshotDataset([
        Snapshot(t, ReducedGaussianDensity([0.4 * t, -0.2 * t], 0.1),
                 np.array([[0.4 * t, -0.2 * t]]))
        for t in (0.0, 0.5, 1.0)])
    cfg = TrainConfig(n_samples=32, n_samples_pde=8, n_collocation=4,
                      shear_modulus=0.3, dnn_hidden=(8, 8), dnn_fourier_m=2,
                      fnn_hidden=(8, 8), seed=4)
    model = init_model(ds, ConditionNormalizer("linear", 0.0, 1.0), cfg)
    return model, compute_loss(model, ds, cfg, epoch_seed=1,
                               train_mode=True).tape


def _training_loss_gradients():
    model, tape = _training_loss()
    tape.backward()
    return [p.grad for p in model.parameters()]


def test_gradients_handed_over_without_copy_are_unchanged(monkeypatch):
    # the loss gradient through jets, dense layers and the embedding is bit
    # for bit what it was when every first gradient was copied
    owned = _training_loss_gradients()
    copy_all = ad.Tensor._accumulate
    monkeypatch.setattr(ad.Tensor, "_accumulate",
                        lambda self, g, owned=False: copy_all(self, g))
    copied = _training_loss_gradients()
    for a, b in zip(owned, copied):
        np.testing.assert_array_equal(a, b)


def test_parents_of_one_node_never_share_a_gradient_buffer(monkeypatch):
    # backward releases interior gradients, so each buffer is kept here as
    # it is accumulated
    buffers = {}
    accumulate = ad.Tensor._accumulate

    def observed(self, g, owned=False):
        accumulate(self, g, owned)
        buffers[id(self)] = self.grad

    monkeypatch.setattr(ad.Tensor, "_accumulate", observed)
    x = ad.parameter(np.ones((3, 2)))
    w = ad.parameter(np.full((4, 2), 0.5))
    b = ad.parameter(np.zeros(4))
    h = ad.dense(x, w, b, "softplus", 1.0)
    c = ad.parameter(np.ones((3, 4)))
    ad.tsum(ad.add(h, c)).backward()
    assert not np.shares_memory(buffers[id(h)], buffers[id(c)])
    a, b2 = ad.parameter(np.ones(3)), ad.parameter(np.ones(3))
    ad.tsum(ad.add(a, b2)).backward()
    assert not np.shares_memory(buffers[id(a)], buffers[id(b2)])


def test_backward_leaves_gradients_on_leaves_only():
    model, tape = _training_loss()
    tape.backward()
    assert all(p.grad is not None for p in model.parameters())
    seen, stack, interior = {id(tape)}, [tape], 0
    while stack:
        node = stack.pop()
        if node._parents:
            interior += 1
            assert node.grad is None
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    assert interior > 50


def test_train_mode_tape_is_float32_and_leaf_gradients_float64():
    # train mode runs both networks on float32 rows; every parameter is a
    # float64 leaf that sums its gradients in float64
    model, tape = _training_loss()
    dtypes, seen, stack = set(), {id(tape)}, [tape]
    while stack:
        node = stack.pop()
        dtypes.add(node.value.dtype)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    assert dtypes == {np.dtype(np.float32), np.dtype(np.float64)}
    assert tape.value.dtype == np.float64
    tape.backward()
    for p in model.parameters():
        assert p.value.dtype == p.grad.dtype == np.float64


def _dense_mask_case(second):
    """Inputs of a dense node: an [n, in] batch, or a jet with tangents."""
    gen = rng.stream(17)
    streams = 1 if second is None else 3 + second
    x = rng.normal(gen, (5, 4) if second is None else (streams, 5, 4))
    W, b = rng.normal(gen, (6, 4)), rng.normal(gen, 6)
    keep = rng.uniform(gen, (5, 6)) >= 0.3
    r = rng.normal(gen, x.shape[:-1] + (6,))
    return x, W, b, keep, r, second or 0


@pytest.mark.parametrize("second", [None, 0, 2], ids=["batch", "jet",
                                                      "jet-second-order"])
@pytest.mark.parametrize("activation,param", [("softplus", 10.0),
                                              ("selu", 0.0)])
def test_dense_mask_is_the_mul_node_it_replaced(second, activation, param):
    x, W, b, keep, r, second = _dense_mask_case(second)
    runs = []
    for fold in (True, False):
        h, w, bias = ad.parameter(x), ad.parameter(W), ad.parameter(b)
        if fold:
            out = ad.dense(h, w, bias, activation, param, second, keep,
                           1.0 / 0.7)
        else:
            out = ad.mul(ad.dense(h, w, bias, activation, param, second),
                         ad.Tensor(keep / 0.7))
        ad.tsum(ad.mul(out, r)).backward()
        runs.append([out.value, h.grad, w.grad, bias.grad])
    for folded, composed in zip(*runs):
        assert _same_bytes(folded, composed)


def test_dense_output_read_twice_matches_central_differences():
    # y feeds a second layer and the sum y + z: its gradient sums the two,
    # and every layer's backward then works inside its own gradient, the
    # keep bits and the second-order streams included
    gen = rng.stream(23)
    args = [rng.normal(gen, (4, 3, 4)),  # value, 2 tangents, 1 second-order
            rng.normal(gen, (4, 4)), rng.normal(gen, 4),
            rng.normal(gen, (4, 4)), rng.normal(gen, 4)]
    keep = rng.uniform(gen, (3, 4)) >= 0.3
    r = rng.normal(gen, (4, 3, 4))

    def loss(x, w1, b1, w2, b2):
        y = ad.dense(x, w1, b1, "softplus", 2.0, second=1)
        z = ad.dense(y, w2, b2, "selu", 0.0, 1, keep, 1.0 / 0.7)
        return ad.tsum(ad.mul(ad.add(y, z), r))

    params = [ad.parameter(a) for a in args]
    loss(*params).backward()
    for i, p in enumerate(params):
        def at(v, i=i):
            with ad.no_grad():
                return float(loss(*args[:i], v, *args[i + 1:]).value)
        np.testing.assert_allclose(p.grad, fd_grad(at, args[i].copy()),
                                   rtol=1e-6, atol=1e-8)


def test_dense_backward_refuses_a_weight_replaced_after_its_forward():
    # the node reads its weight's array again in the backward
    w = ad.parameter(np.ones((2, 3)))
    out = ad.dense(ad.parameter(np.ones((4, 3))), w, np.zeros(2), "selu")
    w.value = w.value + 1.0
    with pytest.raises(RuntimeError, match="replaced after its forward"):
        ad.tsum(out).backward()


# -- activation helpers against their branchwise forms -----------------------

def _softplus_derivs_where(x, beta, order):
    """The masked-select softplus helper the arithmetic one replaced."""
    z = beta * x
    ez = np.exp(-np.abs(z))
    d = [(np.maximum(z, 0.0) + np.log1p(ez)) / beta]
    if order >= 1:
        s = 1.0 / (1.0 + ez)
        d.append(np.where(z >= 0.0, s, 1.0 - s))
    if order >= 2:
        q = ez * s * s
        d.append(beta * q)
    if order >= 3:
        d.append(beta * beta * q * np.where(z >= 0.0, ez - 1.0, 1.0 - ez) * s)
    return d


def _selu_derivs_where(x, order):
    """The masked-select SELU helper the arithmetic one replaced."""
    pos = x > 0.0
    expx = ad.SELU_ALPHA * np.exp(np.minimum(x, 0.0))
    d = [ad.SELU_LAMBDA * np.where(pos, x, expx - ad.SELU_ALPHA)]
    if order >= 1:
        d.append(ad.SELU_LAMBDA * np.where(pos, 1.0, expx))
    if order >= 2:
        d.append(ad.SELU_LAMBDA * np.where(pos, 0.0, expx))
    if order >= 3:
        d.append(d[2])
    return d


def _edge_inputs():
    special = [0.0, 5e-324, 2.2e-308, 1e308, np.inf, 37.0]
    x = [s * sign for s in special for sign in (1.0, -1.0)]
    x += [709.0, -745.0, np.nan, -np.nan]
    gen = rng.stream(41)
    for scale in (1e-3, 1e-1, 1.0, 10.0, 800.0):
        x.extend(scale * rng.normal(gen, 200))
    return np.array(x)


def _same_bytes(a, b):
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("beta", [0.3, 1.0, 10.0])
def test_softplus_derivs_match_branchwise_form_bit_for_bit(order, beta):
    x = _edge_inputs()
    with np.errstate(all="ignore"):
        got = ad._softplus_derivs(x, beta, order)
        want = _softplus_derivs_where(x, beta, order)
    assert len(got) == len(want) == order + 1
    for k, (g, w) in enumerate(zip(got, want)):
        assert _same_bytes(g, w), f"derivative {k}"


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_selu_derivs_match_branchwise_form_bit_for_bit(order):
    x = _edge_inputs()
    with np.errstate(all="ignore"):
        got = ad._selu_derivs(x, order)
        want = _selu_derivs_where(x, order)
    assert len(got) == len(want) == order + 1
    for k, (g, w) in enumerate(zip(got, want)):
        assert _same_bytes(g, w), f"derivative {k}"
