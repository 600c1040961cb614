import json
import re

import numpy as np
import pytest

from otgen import autodiff as ad
from otgen import dataio, nn, rng
from otgen.density import ReducedGaussianDensity
from otgen.transport import (ConditionNormalizer, DisplacementField, Snapshot,
                             SnapshotDataset, TrainConfig, init_model,
                             make_displacement_field, spatial_jacobian_t)


def make_linear(W, b, activation="linear", activation_param=0.0, dropout=0.0):
    return nn.Layer(ad.parameter(np.asarray(W, dtype=float)),
                    ad.parameter(np.asarray(b, dtype=float)),
                    activation, activation_param, dropout)


def test_identity_layer_passthrough():
    net = nn.Mlp([make_linear(np.eye(3), np.zeros(3))])
    x = np.array([[0.5, -1.0, 2.0]])
    np.testing.assert_array_equal(net.forward(x).value, x)


def test_two_layer_matches_hand_matrix_product():
    W1 = np.array([[1.0, 2.0], [0.0, -1.0]])
    b1 = np.array([0.5, 0.0])
    W2 = np.array([[3.0, 1.0]])
    b2 = np.array([-2.0])
    net = nn.Mlp([make_linear(W1, b1), make_linear(W2, b2)])
    x = np.array([[1.0, 1.0]])
    # hand computation: h = W1 x + b1 = [3.5, -1]; y = W2 h + b2 = 10.5 - 1 - 2
    np.testing.assert_allclose(net.forward(x).value, [[7.5]])


def test_near_zero_init_output():
    net = nn.init_mlp([3, 32, 32, 2], "softplus", seed=5,
                      activation_param=10.0, final_std=1e-3)
    gen = rng.stream(9)
    x = rng.normal(gen, (20, 3))
    y = net.forward(x).value
    norms = np.linalg.norm(y, axis=1)
    xnorms = np.linalg.norm(x, axis=1)
    assert np.all(norms <= 1e-2 * xnorms + 1e-3)


def test_dimension_mismatch_raises():
    net = nn.Mlp([make_linear(np.eye(2), np.zeros(2))])
    with pytest.raises(ValueError):
        net.forward(np.ones((1, 3)))


def test_nonfinite_output_raises():
    net = nn.Mlp([make_linear(np.full((2, 2), 1e308), np.zeros(2))])
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        net.forward(np.full((1, 2), 1e308))


def test_eval_forward_is_deterministic():
    net = nn.init_mlp([2, 16, 2], "selu", seed=1, dropout=0.3)
    x = rng.normal(rng.stream(2), (5, 2))
    a = net.forward(x).value
    b = net.forward(x).value
    np.testing.assert_array_equal(a, b)


def test_dropout_train_mode_seeded_and_rescaled():
    net = nn.init_mlp([2, 64, 2], "selu", seed=1, dropout=0.5)
    x = rng.normal(rng.stream(3), (4, 2))
    a = net.forward(x, dropout_seed=7).value
    b = net.forward(x, dropout_seed=7).value
    c = net.forward(x, dropout_seed=8).value
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dropout_expectation_matches_eval():
    # E over masks of the dropout layer output equals the eval output
    W = np.eye(8)
    layer = make_linear(W, np.zeros(8), dropout=0.25)
    net = nn.Mlp([layer])
    x = np.ones((1, 8))
    eval_out = net.forward(x).value
    acc = np.zeros_like(eval_out)
    n = 4000
    for s in range(n):
        acc += net.forward(x, dropout_seed=s).value
    np.testing.assert_allclose(acc / n, eval_out, atol=0.05)


def test_fourier_embedding_structure():
    gen = rng.stream(4)
    B = rng.normal(gen, (5, 3))
    emb = nn.FourierFeatureEmbedding(B, scale=1.3)
    x = rng.normal(gen, (6, 3))
    out = emb.apply(ad.constant(x)).value
    assert out.shape == (6, 2 * 5 + 3)
    z = 1.3 * (x @ B.T)
    np.testing.assert_allclose(out[:, :5], np.sin(z), rtol=1e-12)
    np.testing.assert_allclose(out[:, 5:10], np.cos(z), rtol=1e-12)
    np.testing.assert_array_equal(out[:, 10:], x)


# -- parameter gradients ---------------------------------------------------

def flat_params(net):
    return np.concatenate([p.value.ravel() for p in net.parameters()])


def set_flat_params(net, vec):
    i = 0
    for p in net.parameters():
        n = p.value.size
        p.value = vec[i:i + n].reshape(p.value.shape).copy()
        i += n


def numeric_grad(net, loss_value, h=1e-5):
    base = flat_params(net)
    g = np.zeros_like(base)
    for i in range(base.size):
        v = base.copy()
        v[i] = base[i] + h
        set_flat_params(net, v)
        fp = loss_value()
        v[i] = base[i] - h
        set_flat_params(net, v)
        fm = loss_value()
        g[i] = (fp - fm) / (2 * h)
    set_flat_params(net, base)
    return g


def test_param_grad_quadratic_loss_equals_params():
    net = nn.init_mlp([2, 3, 1], "softplus", seed=3, activation_param=2.0)
    params = net.parameters()

    def loss_fn():
        terms = [ad.tsum(ad.square(p)) for p in params]
        total = terms[0]
        for t in terms[1:]:
            total = ad.add(total, t)
        return ad.mul(total, 0.5)

    grads = nn.param_grad(loss_fn, params)
    for p, g in zip(params, grads):
        np.testing.assert_allclose(g, p.value, rtol=1e-14)


def test_param_grad_constant_loss_is_zero():
    net = nn.init_mlp([2, 3, 1], "selu", seed=3)
    grads = nn.param_grad(lambda: ad.constant(4.0), net.parameters())
    for g in grads:
        assert np.all(g == 0.0)


def test_param_grad_rejects_untaped_loss():
    net = nn.init_mlp([2, 3, 1], "selu", seed=3)
    with pytest.raises(TypeError):
        nn.param_grad(lambda: 1.0, net.parameters())


@pytest.mark.parametrize("seed", range(4))
def test_param_grad_matches_fd_on_random_net(seed):
    net = nn.init_mlp([2, 6, 5, 3], "softplus", seed=seed, activation_param=3.0)
    gen = rng.stream(100 + seed)
    x = rng.normal(gen, (4, 2))
    y = rng.normal(gen, (4, 3))

    def loss_fn():
        out = net.forward(x)
        return ad.stable_mean(ad.tsum(ad.square(ad.sub(out, ad.constant(y))), axis=-1))

    def loss_value():
        with ad.no_grad():
            return float(loss_fn().value)

    grads = np.concatenate([g.ravel() for g in nn.param_grad(loss_fn, net.parameters())])
    fd = numeric_grad(net, loss_value)
    scale = np.maximum(np.abs(fd), 1e-6 * np.abs(fd).max())
    assert np.max(np.abs(grads - fd) / scale) < 1e-4


# -- input derivatives (exact jets of a displacement field) ------------------

JET_NETS = [(act, par, m) for act, par in (("softplus", 10.0), ("selu", 0.0),
                                           ("leaky_relu", 0.1), ("linear", 0.0))
            for m in (0, 3)]


def jet_field(activation, param, fourier_m, dim=2, seed=1):
    return make_displacement_field(dim, hidden=(8, 8), fourier_m=fourier_m,
                                   activation=activation,
                                   activation_param=param, final_std=0.5,
                                   seed=seed)


def test_input_derivs_linear_spatial_exact():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    W = np.hstack([A, np.zeros((2, 1))])  # u = A X, no time dependence
    field = DisplacementField(nn.Mlp([make_linear(W, np.zeros(2))]))
    gen = rng.stream(6)
    X = rng.normal(gen, (5, 2))
    jac = spatial_jacobian_t(field, X, 0.2)
    _, d2u = field.jet(X, 0.2, "time")
    np.testing.assert_array_equal(jac.value, np.tile(A, (5, 1, 1)))
    np.testing.assert_array_equal(d2u.value, 0.0)


@pytest.mark.parametrize("activation,param,fourier_m", JET_NETS)
def test_jet_matches_central_difference_oracles(activation, param, fourier_m):
    field = jet_field(activation, param, fourier_m)
    # seeded points whose pre-activations keep clear of the SELU and
    # leaky-ReLU kinks, where a difference quotient is no oracle
    X = rng.normal(rng.stream(3), (5, 2)) * 0.5
    t = np.linspace(0.1, 0.9, 5)
    u_of = field.u_values
    u, jac = field.jet(X, t)
    u2, d2u, lap = field.jet(X, t, "time", laplacian=True)
    np.testing.assert_array_equal(u.value, u_of(X, t))
    np.testing.assert_array_equal(u2.value, u.value)

    h, eye = 1e-5, np.eye(2)
    fd_jac = np.stack([(u_of(X + h * e, t) - u_of(X - h * e, t)) / (2 * h)
                       for e in eye], axis=-1)
    np.testing.assert_allclose(jac.value, fd_jac, atol=1e-8)

    h = 1e-3

    def five_point(f):  # d2/ds2 f(s) at s = 0
        return (-f(-2 * h) + 16 * f(-h) - 30 * f(0.0) + 16 * f(h)
                - f(2 * h)) / (12 * h * h)

    fd_d2u = five_point(lambda s: u_of(X, t + s))
    fd_lap = sum(five_point(lambda s, e=e: u_of(X + s * e, t)) for e in eye)
    np.testing.assert_allclose(d2u.value, fd_d2u, atol=1e-6)
    np.testing.assert_allclose(lap.value, fd_lap, atol=1e-6)


def test_gradients_flow_through_input_derivs():
    net = nn.init_mlp([2, 6, 1], "softplus", seed=13, activation_param=4.0)
    field = DisplacementField(net)
    X = np.array([[0.3]])

    def loss_fn():
        _, d2u = field.jet(X, 0.5, "time")
        return ad.tsum(ad.square(d2u))

    grads = nn.param_grad(loss_fn, net.parameters())
    assert any(np.linalg.norm(g) > 0 for g in grads)


@pytest.mark.parametrize("activation,param,fourier_m", JET_NETS[:6])
def test_jet_parameter_gradients_match_fd(activation, param, fourier_m):
    field = jet_field(activation, param, fourier_m, seed=3)
    X = rng.normal(rng.stream(4), (4, 2)) * 0.5
    t = np.linspace(0.2, 0.8, 4)

    def loss_fn():
        u, jac = field.jet(X, t)
        _, d2u, lap = field.jet(X, t, "time", laplacian=True)
        terms = [ad.tsum(ad.square(v)) for v in (u, jac, d2u, lap)]
        return ad.add(ad.add(terms[0], terms[1]), ad.add(terms[2], terms[3]))

    def loss_value():
        with ad.no_grad():
            return float(loss_fn().value)

    params = field.parameters()
    grads = np.concatenate([g.ravel() for g in nn.param_grad(loss_fn, params)])
    base = [p.value.copy() for p in params]
    fd = []
    h = 1e-6
    for p, b in zip(params, base):
        for idx in np.ndindex(b.shape):
            v = b.copy()
            v[idx] += h
            p.value = v
            fp = loss_value()
            v[idx] -= 2 * h
            p.value = v
            fm = loss_value()
            p.value = b
            fd.append((fp - fm) / (2 * h))
    fd = np.array(fd)
    scale = np.maximum(np.abs(fd), 1e-6 * np.abs(fd).max())
    assert np.max(np.abs(grads - fd) / scale) < 1e-4


# -- Adam -------------------------------------------------------------------

def adam_params(*values):
    """Parameters holding `values`, each with a zero gradient."""
    params = [ad.parameter(np.array(v, dtype=float)) for v in values]
    for p in params:
        p.grad = np.zeros_like(p.value)
    return params


def test_adam_zero_gradient_keeps_params():
    (p,) = adam_params([1.0, -2.0])
    st = nn.AdamState.for_params([p], lr=1e-3)
    nn.adam_step_tensors([p], st)
    np.testing.assert_array_equal(p.value, [1.0, -2.0])
    assert st.step_count == 1


def test_adam_first_step_matches_hand_formula():
    (p,) = adam_params([0.0])
    p.grad = np.array([0.25])
    nn.adam_step_tensors([p], nn.AdamState.for_params([p], lr=1e-3))
    # hand: m=0.1g/0.1=g after bias correction; v=0.001g^2/0.001=g^2
    # update = -lr * g / (|g| + eps)
    expected = -1e-3 * 0.25 / (np.sqrt(0.25**2) + 1e-8)
    np.testing.assert_allclose(p.value, [expected], rtol=1e-12)


def test_adam_constant_gradient_monotone():
    (p,) = adam_params([0.0])
    st = nn.AdamState.for_params([p], lr=1e-3)
    vals = [0.0]
    for _ in range(10):
        p.grad = np.array([1.0])
        nn.adam_step_tensors([p], st)
        vals.append(float(p.value[0]))
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_adam_rejects_nonfinite_gradient():
    # the finite gradient comes first: nothing may move before the check
    params = adam_params([0.5, -1.0], [0.0])
    params[0].grad = np.array([1.0, 2.0])
    params[1].grad = np.array([np.nan])
    st = nn.AdamState.for_params(params, lr=1e-3)
    with pytest.raises(FloatingPointError):
        nn.adam_step_tensors(params, st)
    np.testing.assert_array_equal(params[0].value, [0.5, -1.0])
    np.testing.assert_array_equal(params[1].value, [0.0])
    assert st.step_count == 0
    assert not np.any(st.first_moment[0]) and not np.any(st.second_moment[0])


# -- serialization -----------------------------------------------------------

def test_weight_roundtrip_bit_exact():
    # the network codec of the model document
    net = nn.init_mlp([3, 7, 2], "softplus", seed=42, activation_param=10.0,
                      dropout=0.1, final_std=1e-3)
    doc = json.loads(json.dumps(dataio.mlp_to_dict(net)))
    assert doc["version"] == 2
    loaded = dataio._mlp_from_dict(doc)
    for a, b in zip(net.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(a.value, b.value)
    for a, b in zip(net.layers, loaded.layers):
        assert ((a.activation, a.activation_param, a.dropout)
                == (b.activation, b.activation_param, b.dropout))
    # re-encoding what was read reproduces the document
    assert dataio.mlp_to_dict(loaded) == doc


def test_weight_version_1_document_is_rejected(tmp_path):
    # version 1 held arrays as lists of numbers; a model document whose
    # network is stamped version 1 is refused by name
    model = init_model(
        SnapshotDataset([Snapshot(0.0, ReducedGaussianDensity([0.0], 0.1)),
                         Snapshot(1.0, ReducedGaussianDensity([0.5], 0.1))]),
        ConditionNormalizer("linear", 0.0, 1.0),
        TrainConfig(dnn_hidden=(4,), dnn_fourier_m=2, fnn_hidden=(4,)))
    model.loss_history = [(1.0, 0.5, 0.25, 0.25, 0.0)]
    doc = dataio.model_to_dict(model)
    net = doc["displacement"]["net"]
    for layer in net["layers"]:
        for key in ("weight", "bias"):
            layer[key] = dataio._arr_in(layer[key]).tolist()
    net["version"] = 1
    path = tmp_path / "model_v1_weights.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(dataio.DataFormatError,
                       match=f"malformed model document {re.escape(str(path))}: "
                             "unsupported weight format version 1; this "
                             "reader reads version 2"):
        dataio.load_model(path)


def _bits(a):
    return np.ascontiguousarray(a, dtype="<f8").view("<u8")


@pytest.mark.parametrize("a", [
    np.array([-0.0, 0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan,
              np.finfo(np.float64).max, -np.finfo(np.float64).max,
              np.finfo(np.float64).tiny, 1.0 / 3.0]),
    np.arange(24.0).reshape(4, 6)[:, ::2] / 7.0,
    (np.arange(6.0).reshape(2, 3) / 3.0).astype(">f8"),
    np.zeros((0, 3)),
], ids=["special-values", "non-contiguous", "big-endian", "empty"])
def test_array_codec_bit_exact(a):
    back = dataio._arr_in(dataio._arr_out(a), a.shape)
    assert back.dtype == np.float64 and back.dtype.isnative
    assert back.flags.writeable and back.shape == a.shape
    np.testing.assert_array_equal(_bits(back), _bits(a))


@pytest.mark.parametrize("v, shape, err", [
    ("not*base64", (-1,), ValueError),
    ("AAAA", (-1,), ValueError),
    ("AAAAAAAAAAA=", (2,), ValueError),
    (3.5, (1,), TypeError),
    (None, (-1,), TypeError),
    ([0.5, 1.5], (2,), TypeError),
])
def test_array_codec_rejects_malformed(v, shape, err):
    with pytest.raises(err):
        dataio._arr_in(v, shape)

