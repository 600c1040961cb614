import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from otgen import autodiff as ad
from otgen import rng, transport
from otgen.density import GaussianCurveDensity, ReducedGaussianDensity
from otgen.transport import (ConditionNormalizer, Snapshot, SnapshotDataset,
                             TrainConfig, TrainingDivergence, _jet_values,
                             compute_loss, eom_residual_t, generate_density,
                             generate_mean, init_model, loss, nrmse, train)
from tests_support_rigs import NanDensity, rigged_transport_model


class TestConditionNormalizer:
    def test_endpoints(self):
        n = ConditionNormalizer("linear", -25.0, 150.0, unit="degC")
        assert n.normalize(-25.0) == 0.0
        assert n.normalize(150.0) == 1.0

    def test_linear_hand_value(self):
        # temperatures -25..150: t(22) = (22+25)/175
        n = ConditionNormalizer("linear", -25.0, 150.0, unit="degC")
        assert n.normalize(22.0) == pytest.approx(47.0 / 175.0, rel=1e-15)

    def test_log10_hand_value(self):
        # strain rates 4e-4..8: t(0.04) = (log10(0.04)-log10(4e-4))/(log10(8)-log10(4e-4))
        n = ConditionNormalizer("log10", 4e-4, 8.0, unit="1/s")
        expected = (np.log10(0.04) - np.log10(4e-4)) / (np.log10(8.0) - np.log10(4e-4))
        assert n.normalize(0.04) == pytest.approx(expected, rel=1e-14)

    def test_out_of_range_raises(self):
        n = ConditionNormalizer("linear", 0.0, 1.0)
        with pytest.raises(ValueError):
            n.normalize(1.5)

    def test_log10_needs_positive_min(self):
        with pytest.raises(ValueError):
            ConditionNormalizer("log10", 0.0, 1.0)


def deformation_gradients(model, X, t):
    """F = I + du/dX of the jet that generate_density evaluates; [n, d, d]."""
    jac = _jet_values(model.displacement, X, t)[1]
    return jac + np.eye(jac.shape[-1])


def eom_residuals(model, X, t):
    with ad.no_grad():
        return eom_residual_t(model, X, t).value


class TestKinematics:
    def test_untrained_field_near_identity(self):
        model = init_model(
            SnapshotDataset([
                Snapshot(0.0, ReducedGaussianDensity([0.0, 0.0], 0.1)),
                Snapshot(1.0, ReducedGaussianDensity([1.0, 0.0], 0.1)),
            ]),
            ConditionNormalizer("linear", 0.0, 1.0),
            TrainConfig(dnn_hidden=(32, 32), dnn_fourier_m=4, fnn_hidden=(16,)),
        )
        F = deformation_gradients(model, np.array([0.2, -0.1]), 0.5)[0]
        assert np.linalg.norm(F - np.eye(2)) < 1e-2

    def test_linear_rig_gradient(self):
        model = rigged_transport_model(2, lambda X, t: 0.5 * X)
        F = deformation_gradients(model, np.array([0.3, 0.4]), 0.7)
        np.testing.assert_allclose(F, [1.5 * np.eye(2)], atol=1e-8)
        # a non-symmetric map pins the orientation F[i, j] = dx_i / dX_j
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        model = rigged_transport_model(2, lambda X, t: X @ A.T)
        X = rng.normal(rng.stream(6), (5, 2))
        F = deformation_gradients(model, X, 0.2)
        np.testing.assert_allclose(F, np.tile(np.eye(2) + A, (5, 1, 1)),
                                   atol=1e-8)

    def test_det_f_matches_fd_oracle(self):
        model = init_model(
            SnapshotDataset([
                Snapshot(0.0, ReducedGaussianDensity([0.0, 0.0], 0.1)),
                Snapshot(1.0, ReducedGaussianDensity([0.5, 0.5], 0.1)),
            ]),
            ConditionNormalizer("linear", 0.0, 1.0),
            TrainConfig(dnn_hidden=(16, 16), dnn_fourier_m=3, fnn_hidden=(8,), seed=3),
        )
        # make the map nontrivial
        for p in model.displacement.net.parameters():
            p.value = p.value + 0.05
        X = np.array([0.1, 0.2])
        t = 0.4
        F = deformation_gradients(model, X, t)[0]
        h = 1e-5
        fd = np.zeros((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            up = model.displacement.u_values(X + e, t)[0]
            um = model.displacement.u_values(X - e, t)[0]
            fd[:, j] = (up - um) / (2 * h)
        np.testing.assert_allclose(F, np.eye(2) + fd, atol=1e-6)


class TestEomResidual:
    def test_quadratic_time_rig_zero_residual(self):
        c = np.array([0.7, -0.3])
        model = rigged_transport_model(2, lambda X, t: 0.5 * t**2 * c,
                                       lambda x, t: np.broadcast_to(c, x.shape).copy())
        X = rng.normal(rng.stream(1), (5, 2)) * 0.1
        r = eom_residuals(model, X, 0.5)
        np.testing.assert_allclose(r, 0.0, atol=1e-6)

    def test_fnn_matching_d2u_zero_residual(self):
        # u linear in t: d2u/dt2 = 0 and F_b = 0 gives zero residual
        model = rigged_transport_model(1, lambda X, t: 0.2 * t * np.ones_like(X))
        r = eom_residuals(model, np.zeros((3, 1)), 0.5)
        np.testing.assert_allclose(r, 0.0, atol=1e-9)

    def test_matches_five_point_stencil_oracle(self):
        for G in (0.0, 0.3):
            model = init_model(
                SnapshotDataset([
                    Snapshot(0.0, ReducedGaussianDensity([0.0, 0.0], 0.1)),
                    Snapshot(1.0, ReducedGaussianDensity([0.4, 0.1], 0.1)),
                ]),
                ConditionNormalizer("linear", 0.0, 1.0),
                TrainConfig(dnn_hidden=(16, 16), dnn_fourier_m=3,
                            fnn_hidden=(8,), shear_modulus=G, seed=5),
            )
            for p in model.displacement.net.parameters():
                p.value = p.value + 0.1
            X = np.array([[0.2, -0.1]])
            t, h = 0.5, 1e-3
            u_of = lambda Xv, tv: model.displacement.u_values(Xv, tv)[0]

            def second(dX, dt):  # five-point d2/ds2 of u(X + s dX, t + s dt)
                return (-u_of(X - 2 * h * dX, t - 2 * h * dt)
                        + 16 * u_of(X - h * dX, t - h * dt) - 30 * u_of(X, t)
                        + 16 * u_of(X + h * dX, t + h * dt)
                        - u_of(X + 2 * h * dX, t + 2 * h * dt)) / (12 * h * h)

            d2u = second(np.zeros(2), 1.0)
            lap = second(np.eye(2)[0], 0.0) + second(np.eye(2)[1], 0.0)
            r = eom_residuals(model, X, t)
            fb = model.body_force.net.forward(
                np.concatenate([X + model.displacement.u_values(X, t), [[t]]],
                               axis=1)).value
            np.testing.assert_allclose(r[0], d2u - G * lap - fb[0], atol=1e-6)

    @pytest.mark.parametrize("kind", ["curve", "field"])
    def test_pseudo_time_rule(self, kind):
        # one rule wherever a pseudo-time enters: [0, 1], NaN rejected
        if kind == "curve":
            grid = np.linspace(0.0, 1.0, 6)
            ref = GaussianCurveDensity(grid, 2.0 * grid, sigma_stress=0.05)
        else:
            ref = ReducedGaussianDensity([0.0, 0.0], 0.1)
        model = init_model(
            SnapshotDataset([Snapshot(0.0, ref), Snapshot(1.0, ref)]),
            ConditionNormalizer("linear", 0.0, 1.0),
            TrainConfig(dnn_hidden=(4,), dnn_fourier_m=2, fnn_hidden=(4,)))
        field, X = model.displacement, np.zeros((3, 2))
        calls = [
            lambda t: field.u(X, t),
            lambda t: field.jet(X, t),
            lambda t: field.jet(X, t, "time", laplacian=True),
            lambda t: field.u_values(X, t),
            lambda t: generate_density(model, t, n=16),
            lambda t: generate_mean(model, t, n=16),
        ]
        message = r"pseudo-time must be finite and in \[0, 1\]; got"
        for call in calls:
            for t in (0.0, 1.0):
                call(t)
            for t in (-0.05, 1.05, np.nan):
                with pytest.raises(ValueError, match=message):
                    call(t)
        with pytest.raises(ValueError, match=message):
            SnapshotDataset([Snapshot(0.0, ref), Snapshot(1.05, ref)])


def identity_dataset(dim=1, sigma=0.1):
    dens = ReducedGaussianDensity(np.zeros(dim), sigma)
    anchors = np.zeros((1, dim))
    return SnapshotDataset([
        Snapshot(0.0, dens, anchors),
        Snapshot(0.5, ReducedGaussianDensity(np.zeros(dim), sigma), anchors),
        Snapshot(1.0, ReducedGaussianDensity(np.zeros(dim), sigma), anchors),
    ])


class TestLoss:
    def test_identity_transport_zero_loss(self):
        model = rigged_transport_model(1, lambda X, t: np.zeros_like(X))
        res = loss(model, identity_dataset(), model.config)
        assert res.total == 0.0 and res.l1 == 0.0
        assert res.l2 == 0.0 and res.l3 == 0.0

    def test_affine_pushforward_l1_tiny(self):
        # closed-form affine image of a 1D Gaussian: x = aX + b scales the
        # density by 1/a and shifts the mean
        a, b, m0, s0 = 1.5, 0.3, 0.2, 0.1
        ref = ReducedGaussianDensity([m0], s0)
        tgt = ReducedGaussianDensity([a * m0 + b], a * s0)
        ds = SnapshotDataset([Snapshot(0.0, ref), Snapshot(1.0, tgt)])
        model = rigged_transport_model(
            1, lambda X, t: t * ((a - 1.0) * X + b),
            w2=0.0, w3=0.0, n_samples=512)
        res = loss(model, ds, model.config)
        assert res.l1 < 1e-6
        assert res.l2 == 0.0  # no snapshot has anchors
        assert res.total == pytest.approx(res.l1)

    def test_total_is_weighted_sum(self):
        gen = rng.stream(9)
        model = rigged_transport_model(
            1, lambda X, t: 0.1 * t * (X + 1.0),
            lambda x, t: 0.05 * np.ones_like(x),
            w1=0.7, w2=2.0, w3=3.5, n_collocation=21)
        ds = identity_dataset()
        res = loss(model, ds, model.config)
        assert res.total == pytest.approx(
            0.7 * res.l1 + 2.0 * res.l2 + 3.5 * res.l3, rel=1e-12)

    def test_loss_invariant_under_snapshot_permutation(self):
        # dataset construction sorts snapshots, so feeding them in any order
        # produces identical sums; sample order inside a batch is fixed by
        # the seed, and the stable reductions keep them bitwise equal
        dens0 = ReducedGaussianDensity([0.0], 0.1)
        d1 = ReducedGaussianDensity([0.2], 0.1)
        d2 = ReducedGaussianDensity([0.5], 0.1)
        model = rigged_transport_model(
            1, lambda X, t: 0.3 * t * np.ones_like(X), n_collocation=21)
        ds_a = SnapshotDataset([Snapshot(0.0, dens0), Snapshot(0.5, d1),
                                Snapshot(1.0, d2)])
        ds_b = SnapshotDataset([Snapshot(1.0, d2), Snapshot(0.0, dens0),
                                Snapshot(0.5, d1)])
        ra = loss(model, ds_a, model.config, epoch_seed=3)
        rb = loss(model, ds_b, model.config, epoch_seed=3)
        assert ra.total == rb.total

    def test_degenerate_jacobian_dropped_and_counted(self):
        # x = X - 2 t X^2 has J = 1 - 4 t X: folds for X > 1/(4t), so part
        # of each batch drops while the rest carries the term
        ds = identity_dataset(sigma=0.5)
        model = rigged_transport_model(1, lambda X, t: -2.0 * t * X**2)
        res = loss(model, ds, model.config)
        assert 0 < res.dropped_fraction < 1
        assert np.isfinite(res.total)

    def test_folded_rows_leave_the_density_term(self, monkeypatch):
        # x_1 = X_1 - 2 t X_1^2 (x_2 = X_2) has J = 1 - 4 t X_1: at sigma
        # 0.5 the rows with X_1 > 1 / (4 t) fold, none at t = 0, about a
        # sixth at t = 0.5 and a third at t = 1. A folded row's F is
        # swapped for the 2 x 2 identity, and each snapshot's mean runs over
        # its kept rows alone.
        fold = np.array([1.0, 0.0])
        ds = identity_dataset(dim=2, sigma=0.5)
        model = rigged_transport_model(
            2, lambda X, t: -2.0 * t * X[:, :1]**2 * fold)
        dets, det = [], ad.det

        def recorded(a):
            dets.append(det(a))
            return dets[-1]

        monkeypatch.setattr(ad, "det", recorded)
        res = loss(model, ds, model.config)
        assert len(dets) == 2  # the map's J, then J of the swapped rows
        n, ref = model.config.n_samples, ds.reference.density
        X = ref.sample(n, seed=transport._combine(model.config.seed, 0, 1))
        terms, dropped = [], 0
        for i, snap in enumerate(ds.snapshots):
            J = 1.0 - 4.0 * snap.t_norm * X[:, 0]
            kept = J > transport.J_MIN
            swapped = dets[-1].value[i * n:(i + 1) * n]
            np.testing.assert_allclose(swapped[kept], J[kept], atol=1e-12)
            assert np.all(swapped[~kept] == 1.0)
            x = X - 2.0 * snap.t_norm * X[:, :1]**2 * fold
            sq = (ref.pdf(X) / J - snap.density.pdf(x))**2
            terms.append(sq[kept].mean())
            dropped += n - kept.sum()
        assert 0 < dropped < n
        assert res.dropped_fraction == dropped / (3 * n)
        assert res.l1 == pytest.approx(np.mean(terms), rel=1e-9)

    @pytest.mark.parametrize("times", [(0.0, 1.0), (0.0, 0.5, 1.0)])
    def test_l1_is_the_mean_of_per_snapshot_kept_means(self, times):
        # x = X - 2 t X^2 folds where X > 1 / (4 t): none at t = 0, about 5 %
        # of the N(0, 0.3^2) batch at t = 0.5 and 20 % at t = 1, so each
        # snapshot's mean runs over its own count of kept rows
        model = rigged_transport_model(1, lambda X, t: -2.0 * t * X**2)
        ref = model.reference_density
        ds = SnapshotDataset([Snapshot(t, ReducedGaussianDensity([0.1 * t], 0.3))
                              for t in times])
        res = loss(model, ds, model.config)
        n = model.config.n_samples
        X = ref.sample(n, seed=transport._combine(model.config.seed, 0, 1))
        terms, kept_counts = [], []
        for snap in ds.snapshots:
            J = 1.0 - 4.0 * snap.t_norm * X[:, 0]
            kept = J > transport.J_MIN
            x = X - 2.0 * snap.t_norm * X**2
            sq = (ref.pdf(X) / J - snap.density.pdf(x))**2
            terms.append(sq[kept].mean())
            kept_counts.append(kept.sum())
        assert len(set(kept_counts)) == len(times)
        assert res.l1 == pytest.approx(np.mean(terms), rel=1e-12)

    def test_l2_averages_over_every_snapshot(self, monkeypatch):
        # only the reference and t = 0.5 carry anchors: L2 is their anchor
        # means summed over all three snapshots, (0 + 0.05 / 3) / 3, from
        # one pass of the displacement over both anchor sets
        bX = np.array([[-0.5], [0.0], [0.5]])
        dens = ReducedGaussianDensity([0.0], 0.1)
        ds = SnapshotDataset([
            Snapshot(0.0, dens, bX),
            Snapshot(0.5, dens, bX + 0.15 + np.array([[0.1], [0.2], [0.0]])),
            Snapshot(1.0, dens)])
        model = rigged_transport_model(1, lambda X, t: 0.3 * t * np.ones_like(X))
        calls, u = [], model.displacement.u

        def recorded(X, t):
            calls.append(np.broadcast_to(t, len(X)).copy())
            return u(X, t)

        monkeypatch.setattr(model.displacement, "u", recorded)
        res = loss(model, ds, model.config)
        assert res.l2 == pytest.approx(0.05 / 9, rel=1e-12)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], [0.0] * 3 + [0.5] * 3)

    def test_all_samples_degenerate_is_divergence(self):
        ds = identity_dataset()
        # J = 1 - 2t <= 0 at t = 1
        model = rigged_transport_model(1, lambda X, t: -2.0 * t * X)
        with pytest.raises(TrainingDivergence):
            loss(model, ds, model.config)

    def test_single_snapshot_rejected(self):
        with pytest.raises(ValueError):
            SnapshotDataset([Snapshot(0.0, ReducedGaussianDensity([0.0], 0.1))])

    @pytest.mark.parametrize("t,pairs", [
        (np.nan, None),
        (0.5, (np.zeros((1, 1)), np.full((1, 1), np.nan))),
        (0.5, (np.full((1, 1), np.inf), np.zeros((1, 1)))),
    ])
    def test_non_finite_snapshot_rejected(self, t, pairs):
        # `pairs`: the anchors of the reference and of the snapshot at t
        ref_anchors, anchors = pairs or (None, None)
        dens = ReducedGaussianDensity([0.0], 0.1)
        with pytest.raises(ValueError, match="finite"):
            SnapshotDataset([Snapshot(0.0, dens, ref_anchors),
                             Snapshot(t, dens, anchors)])

    @pytest.mark.parametrize("ref_anchors,anchors", [
        (np.zeros((1, 1)), np.zeros((3, 1))),
        (None, np.zeros((1, 1))),
        (np.zeros(2), np.zeros(2)),
        (np.zeros((1, 2)), np.zeros((1, 2))),
        (np.zeros((1, 1)), (np.zeros((1, 1)), np.ones((1, 1)))),
    ], ids=["fewer-reference-points", "no-reference-anchors", "not-2d",
            "not-data-dim", "source-target-tuple"])
    def test_anchor_shape_rejected(self, ref_anchors, anchors):
        # the source points are the reference's anchors, so every snapshot's
        # anchors need their [m, dim] shape
        dens = ReducedGaussianDensity([0.0], 0.1)
        with pytest.raises(ValueError, match=r"anchors at t = .* must be \[m, 1\]"):
            SnapshotDataset([Snapshot(0.0, dens, ref_anchors),
                             Snapshot(0.5, dens, anchors)])

    def test_anchors_without_rows_rejected(self):
        dens = ReducedGaussianDensity([0.0], 0.1)
        with pytest.raises(ValueError, match=r"anchors at t = 0.0 have no rows"):
            SnapshotDataset([Snapshot(0.0, dens, np.zeros((0, 1))),
                             Snapshot(0.5, dens, np.zeros((0, 1)))])

    def test_boundary_term_moves_reference_anchors(self):
        # u = 0.3 t moves the reference anchors bX onto bx_i = bX + 0.3 t_i
        # exactly; an offset of 0.1 at t = 1 alone gives 0.1^2 / 3
        bX = np.array([[-0.5], [0.0], [0.5]])
        dens = ReducedGaussianDensity([0.0], 0.1)
        snaps = [Snapshot(t, dens, bX + 0.3 * t) for t in (0.0, 0.5, 1.0)]
        model = rigged_transport_model(1, lambda X, t: 0.3 * t * np.ones_like(X))
        assert loss(model, SnapshotDataset(snaps), model.config).l2 == 0.0
        snaps[-1] = Snapshot(1.0, dens, bX + 0.4)
        res = loss(model, SnapshotDataset(snaps), model.config)
        assert res.l2 == pytest.approx(0.01 / 3, rel=1e-12)

    def test_missing_reference_rejected(self):
        with pytest.raises(ValueError):
            SnapshotDataset([
                Snapshot(0.3, ReducedGaussianDensity([0.0], 0.1)),
                Snapshot(1.0, ReducedGaussianDensity([0.1], 0.1)),
            ])


def anchored_dataset(kind):
    """Three anchored snapshots of a 2-D curve or a 3-D field task."""
    if kind == "curves":
        grid = np.linspace(0.0, 1.0, 8)
        return SnapshotDataset([Snapshot(
            t, GaussianCurveDensity(grid, (1.0 + t) * grid, sigma_stress=0.05),
            np.array([[0.0, 0.0], [1.0, 1.0 + t]])) for t in (0.0, 0.5, 1.0)])
    means = {t: [0.3 * t, -0.2 * t, 0.1 * t] for t in (0.0, 0.5, 1.0)}
    return SnapshotDataset([Snapshot(t, ReducedGaussianDensity(m, 0.1),
                                     np.array([m])) for t, m in means.items()])


def tape_nodes(root):
    """Every node the tape below `root` reaches, `root` included."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


class NanAfter(ReducedGaussianDensity):
    """A Gaussian whose density turns NaN after its first `calls` batches."""

    def __init__(self, mean, sigma, calls):
        super().__init__(mean, sigma)
        self.calls = calls

    def pdf_t(self, x):
        self.calls -= 1
        out = super().pdf_t(x)
        return out if self.calls >= 0 else ad.mul(out, np.nan)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


class TestTraining:
    def small_dataset(self):
        sigma = 0.05
        snaps = []
        for t in [0.0, 0.5, 1.0]:
            snaps.append(Snapshot(
                t, ReducedGaussianDensity([0.4 * t], sigma),
                np.array([[0.4 * t]])))
        return SnapshotDataset(snaps)

    def small_config(self, epochs, seed=0):
        return TrainConfig(
            epochs=epochs, n_samples=64, n_samples_pde=16, n_collocation=5,
            dnn_hidden=(16, 16), dnn_fourier_m=3, fnn_hidden=(16,),
            fnn_dropout=0.0, auto_rescale_weights=True, seed=seed)

    def test_default_nets_train_within_memory_bound(self):
        # numpy reports its buffers to tracemalloc, so the peak is a byte
        # count, not a sample of the resident set; the bound is the measured
        # 37.7 MB plus 10 %. Layers that kept float32 casts of their
        # weights (alive through Adam's step), float32 dropout masks and
        # their jets' value streams, and built a second gradient in their
        # backward, peaked at 43.6 MB. Keeping the last epoch's tape alive
        # while the next one was recorded peaked at 48.1 MB, float64 network
        # passes at 57.0 MB, and a float64 tape that kept its layers'
        # values, every interior gradient and a node per dropout mask at
        # 74.9 MB.
        cfg = TrainConfig(epochs=2, n_samples=64, n_samples_pde=16,
                          n_collocation=5, auto_rescale_weights=True)
        tracemalloc.start()
        try:
            train(self.small_dataset(), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 37.7e6

    def release_config(self, **kw):
        return TrainConfig(
            epochs=5, n_samples=64, n_samples_pde=16, n_collocation=5,
            dnn_hidden=(16, 16), dnn_fourier_m=3, fnn_hidden=(16, 16),
            fnn_dropout=0.2, auto_rescale_weights=True, seed=4, **kw)

    @pytest.mark.parametrize("kind", ["curves", "fields"])
    def test_layer_release_changes_no_bits(self, kind, monkeypatch):
        # each layer of a tape frees its predecessor's in the last tape
        # before it computes; training must equal a run that keeps the
        # whole last tape until the next backward
        ds, cfg = anchored_dataset(kind), self.release_config()
        queued = []
        release = ad._release_next_layer

        def counted():
            queued.append(len(getattr(ad._STATE, "release", ())))
            release()

        monkeypatch.setattr(ad, "_release_next_layer", counted)
        released = train(ds, cfg)
        # from the second epoch on, every layer finds the last tape queued
        layers = len(queued) // cfg.epochs
        assert queued[:layers] == [0] * layers and min(queued[layers:]) > 0
        monkeypatch.setattr(ad, "_release_next_layer", lambda: None)
        kept = train(ds, cfg)
        assert released.loss_history == kept.loss_history
        assert released.config == kept.config
        for a, b in zip(released.parameters(), kept.parameters()):
            assert same_bits(a.value, b.value)

    @pytest.mark.parametrize("kind", ["curves", "fields"])
    def test_backward_twice_gives_the_same_gradients(self, kind):
        # each backward works inside the gradient its node owns; one that
        # wrote into what its node saved for the backward (derivatives,
        # pre-activation streams, input) would change the second run
        ds, cfg = anchored_dataset(kind), self.release_config()
        model = init_model(ds, ConditionNormalizer("linear", 0.0, 1.0), cfg)
        tape = compute_loss(model, ds, train_mode=True).tape
        runs = []
        for _ in range(2):
            for p in model.parameters():
                p.zero_grad()
            tape.backward()
            runs.append([p.grad for p in model.parameters()])
        for a, b in zip(*runs):
            assert same_bits(a, b)

    @staticmethod
    def assert_nothing_freed_outside_training(model, ds):
        assert not hasattr(ad._STATE, "release")
        assert not hasattr(ad._STATE, "recorded")
        held = compute_loss(model, ds, train_mode=True)
        nodes = tape_nodes(held.tape)
        values = [np.array(n.value) for n in nodes]
        compute_loss(model, ds, train_mode=True)
        generate_density(model, 0.5, n=64)
        assert all(n.value is not None and same_bits(np.asarray(n.value), v)
                   for n, v in zip(nodes, values))
        held.tape.backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_no_release_queue_outlives_training(self):
        ds, cfg = anchored_dataset("fields"), self.release_config()
        model = train(ds, cfg)
        self.assert_nothing_freed_outside_training(model, ds)
        # a run that diverges at epoch 2 returns its best checkpoint
        late = SnapshotDataset([ds.snapshots[0], Snapshot(
            1.0, NanAfter(np.zeros(3), 0.1, calls=2))])
        with pytest.warns(UserWarning, match="diverged at epoch 2"):
            assert len(train(late, cfg).loss_history) == 2
        self.assert_nothing_freed_outside_training(model, ds)
        # a run that raises once its first tape is recorded
        nan = SnapshotDataset([ds.snapshots[0], Snapshot(
            1.0, NanDensity(np.zeros(3), 0.1))])
        with pytest.raises(TrainingDivergence, match="epoch 0"):
            train(nan, cfg)
        self.assert_nothing_freed_outside_training(model, ds)

    def test_layer_release_lowers_the_training_peak(self, monkeypatch):
        # 256-wide nets at 256 samples: the tape dominates the peak, and
        # the release keeps one tape alive instead of two
        cfg = TrainConfig(epochs=3, n_samples=256, n_samples_pde=64,
                          n_collocation=11, dnn_hidden=(256,) * 3,
                          fnn_hidden=(256,) * 3, auto_rescale_weights=True)
        peaks = []
        for release in (True, False):
            if not release:
                monkeypatch.setattr(ad, "_release_next_layer", lambda: None)
            tracemalloc.start()
            try:
                train(anchored_dataset("curves"), cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.85 * peaks[1]

    def test_degenerate_checkpoint_warns(self, monkeypatch):
        # x = X - 2 t X^2 folds where X > 1 / (4 t): at sigma 0.5 about a
        # sixth of each batch over t = 0, 0.5 and 1, at every epoch
        rig = rigged_transport_model(1, lambda X, t: -2.0 * t * X**2,
                                     epochs=3)
        monkeypatch.setattr(transport, "init_model", lambda *args: rig)
        with pytest.warns(UserWarning, match="degenerated") as caught:
            model = train(identity_dataset(sigma=0.5), rig.config)
        fraction = min(model.loss_history)[4]
        assert fraction > 0.01
        assert [str(w.message) for w in caught] == [
            f"returned checkpoint degenerated on {fraction:.1%} of density "
            "samples (J <= 0); treat the model as suspect"]

    def test_equal_losses_keep_the_earlier_checkpoint(self, monkeypatch):
        # epochs 1 and 2 tie on the lowest loss: the checkpoint is the
        # parameters epoch 1 evaluated, not the ones Adam moved on to
        totals = iter([3.0, 1.0, 1.0, 2.0])
        evaluated = []
        real = transport.compute_loss

        def scripted(model, *args, **kwargs):
            evaluated.append([p.value.copy() for p in model.parameters()])
            return replace(real(model, *args, **kwargs), total=next(totals))

        monkeypatch.setattr(transport, "compute_loss", scripted)
        cfg = replace(self.small_config(4), auto_rescale_weights=False)
        model = train(self.small_dataset(), cfg)
        assert [h[0] for h in model.loss_history] == [3.0, 1.0, 1.0, 2.0]
        assert not all(np.array_equal(a, b)
                       for a, b in zip(evaluated[1], evaluated[2]))
        for p, v in zip(model.parameters(), evaluated[1]):
            assert same_bits(p.value, v)

    def test_divergence_before_any_checkpoint_raises(self):
        # a non-finite first loss leaves no checkpoint to restore
        ds = SnapshotDataset([
            Snapshot(0.0, ReducedGaussianDensity([0.0], 0.05)),
            Snapshot(1.0, NanDensity([0.0], 0.05))])
        with pytest.raises(TrainingDivergence, match="epoch 0"):
            train(ds, self.small_config(5))

    def test_auto_rescale_matches_fixed_rescaled_weights(self):
        # epoch 0 rescales the weights on its own loss terms; training must
        # equal a run given those weights from the start
        ds = self.small_dataset()
        cfg = replace(self.small_config(4, seed=3), fnn_dropout=0.1)
        with ad.no_grad():
            first = compute_loss(init_model(ds, ConditionNormalizer(
                "linear", 0.0, 1.0), cfg), ds, cfg, train_mode=True)
        fixed = replace(cfg, auto_rescale_weights=False, w1=1.0 / first.l1,
                        w2=1.0 / first.l2, w3=1.0 / first.l3)
        m_auto, m_fixed = train(ds, cfg), train(ds, fixed)
        assert m_auto.config == replace(fixed, auto_rescale_weights=True)
        assert m_auto.loss_history == m_fixed.loss_history
        for a, b in zip(m_auto.parameters(), m_fixed.parameters()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_loss_decreases_on_translation_family(self):
        ds = self.small_dataset()
        model = train(ds, self.small_config(150))
        first = model.loss_history[0][0]
        best = min(h[0] for h in model.loss_history)
        assert best < 0.05 * first

    def test_training_determinism(self):
        # float32 network passes, without and with dropout masks
        ds = self.small_dataset()
        for dropout in (0.0, 0.2):
            cfg = replace(self.small_config(40, seed=7), fnn_dropout=dropout)
            m1, m2 = train(ds, cfg), train(ds, cfg)
            h1 = np.array(m1.loss_history)
            h2 = np.array(m2.loss_history)
            np.testing.assert_array_equal(h1, h2)
            for a, b in zip(m1.parameters(), m2.parameters()):
                np.testing.assert_array_equal(a.value, b.value)

    def test_returns_best_checkpoint(self):
        # the history holds train-mode (float32 network) losses, so the best
        # epoch's train-mode loss is replayed exactly
        ds = self.small_dataset()
        model = train(ds, self.small_config(60))
        best = min(h[0] for h in model.loss_history)
        with ad.no_grad():
            res = compute_loss(model, ds, model.config, train_mode=True,
                               epoch_seed=int(np.argmin(
                                   [h[0] for h in model.loss_history])))
        assert res.total == best
        assert model.reference_density is ds.reference.density


class TestGeneration:
    def test_translation_rig_moves_density(self):
        c = 0.4
        ref = ReducedGaussianDensity([0.0], 0.1)
        model = rigged_transport_model(
            1, lambda X, t: c * t * np.ones_like(X), reference=ref)
        cloud = generate_density(model, 1.0, n=400, seed=2)
        src = ref.sample(400, seed=2)
        np.testing.assert_allclose(cloud.points, src + c, atol=1e-12)
        # translation has J = 1: no particle is dropped
        np.testing.assert_allclose(
            np.linalg.det(deformation_gradients(model, src, 1.0)), 1.0,
            atol=1e-12)
        assert cloud.dropped_fraction == 0.0
        assert cloud.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_t0_with_pinned_boundary_reproduces_source(self):
        ref = ReducedGaussianDensity([0.0], 0.1)
        model = rigged_transport_model(
            1, lambda X, t: 0.3 * t * np.ones_like(X), reference=ref)
        cloud = generate_density(model, 0.0, n=200, seed=3)
        np.testing.assert_allclose(cloud.points, ref.sample(200, seed=3),
                                   atol=1e-12)

    def test_fully_folded_map_raises_typed_error(self):
        # the rig's reference density is N(0, 0.3^2)
        model = rigged_transport_model(1, lambda X, t: -2.0 * t * X)  # J = -1 at t = 1
        with pytest.raises(ValueError, match="folds"):
            generate_density(model, 1.0, n=100, seed=1)

    def test_weights_sum_to_one_with_drops(self):
        ref = ReducedGaussianDensity([0.0], 0.5)
        model = rigged_transport_model(1, lambda X, t: -2.0 * t * X**2,  # partial fold
                                       reference=ref)
        with pytest.warns(UserWarning):
            cloud = generate_density(model, 1.0, n=300, seed=4)
        assert 0.0 < cloud.dropped_fraction < 1.0
        assert cloud.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_map_mean(self):
        ref = ReducedGaussianDensity([0.0, 0.0], 0.2)
        model = rigged_transport_model(2, lambda X, t: 0.5 * t * X,  # linear stretch
                                       reference=ref)
        cloud = generate_density(model, 1.0, n=5000, seed=5)
        np.testing.assert_allclose(cloud.mean(), [0.0, 0.0], atol=0.02)

    def test_curve_mean_generation_matches_slice_means(self):
        grid = np.linspace(0.0, 1.0, 12)
        ref = GaussianCurveDensity(grid, 2.0 * grid, sigma_stress=0.05)
        shift = 0.8
        model = rigged_transport_model(
            2, lambda X, t: np.column_stack(
                [np.zeros(len(X)), shift * t[:, 0] * np.ones(len(X))]),
            reference=ref)
        curve = generate_mean(model, 1.0)
        np.testing.assert_allclose(curve[:, 0], grid, atol=1e-12)
        np.testing.assert_allclose(curve[:, 1], 2.0 * grid + shift, atol=1e-12)
        # slice-conditional means of the particle cloud agree
        cloud = generate_density(model, 1.0, n=20_000, seed=6)
        sl = (cloud.points[:, 0] > 0.45) & (cloud.points[:, 0] < 0.55)
        cond_mean = cloud.points[sl, 1].mean()
        assert cond_mean == pytest.approx(2.0 * 0.5 + shift, abs=0.02)

    def test_pca_reconstruction_on_mean(self):
        from otgen.pca import fit_pca
        gen = rng.stream(31)
        D = 30
        base = rng.normal(gen, D)
        mode = rng.normal(gen, D)
        samples = base + rng.normal(gen, (50, 1)) * mode
        with pytest.warns(UserWarning, match="rank"):  # rank-1 cloud, d=2
            basis = fit_pca(samples, 2)
        ref = ReducedGaussianDensity(np.zeros(2), 0.05)
        model = rigged_transport_model(2, lambda X, t: np.zeros_like(X),
                                       reference=ref)
        model.pca_basis = basis
        mean_field = generate_mean(model, 1.0, n=4000, seed=7)
        assert mean_field.shape == (D,)
        np.testing.assert_allclose(mean_field, basis.data_mean, atol=0.01)


class TestNrmse:
    def test_exact_match_zero(self):
        x = np.linspace(0, 1, 10)
        assert nrmse(x, x) == 0.0

    def test_uniform_offset(self):
        t = np.linspace(0, 10, 50)
        assert nrmse(t + 1.0, t) == pytest.approx(0.1, rel=1e-12)

    def test_hand_formula(self):
        gen = rng.stream(77)
        target = rng.normal(gen, 20)
        pred = target + rng.normal(gen, 20) * 0.1
        expected = np.sqrt(np.mean((pred - target) ** 2)) / (target.max() - target.min())
        assert nrmse(pred, target) == pytest.approx(expected, rel=1e-12)

    def test_constant_target_rejected(self):
        with pytest.raises(ValueError):
            nrmse(np.ones(5), np.ones(5))
