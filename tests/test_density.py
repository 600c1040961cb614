import numpy as np
import pytest

from otgen import autodiff as ad
from otgen import rng
from otgen.density import (CurveSnapshot, GaussianCurveDensity,
                           ReducedGaussianDensity, field_to_samples)
from otgen.experiment import common_grid


def manual_interp(xq, xs, ys):
    """Second, independent piecewise-linear interpolation."""
    out = np.empty_like(np.atleast_1d(np.asarray(xq, dtype=float)))
    for k, x in enumerate(np.atleast_1d(xq)):
        for i in range(len(xs) - 1):
            if xs[i] <= x <= xs[i + 1]:
                w = (x - xs[i]) / (xs[i + 1] - xs[i])
                out[k] = (1 - w) * ys[i] + w * ys[i + 1]
                break
    return out


def make_curve(seed=0, n=20):
    gen = rng.stream(seed)
    strains = np.sort(rng.uniform(gen, n)) * 0.5
    strains[0] = 0.0
    stresses = 30.0 * (1.0 - np.exp(-5.0 * strains)) + rng.normal(gen, n) * 0.5
    return CurveSnapshot(25.0, np.column_stack([strains, stresses]))


class TestCurveSnapshot:
    def test_validation(self):
        with pytest.raises(ValueError):
            CurveSnapshot(0.0, [[0.0, 1.0], [0.0, 2.0], [0.1, 3.0], [0.2, 1.0]])
        with pytest.raises(ValueError):
            CurveSnapshot(0.0, [[0.0, 1.0], [0.1, 2.0]])  # too few points

    # curves are resampled by `experiment.common_grid` alone

    def test_resample_identity_on_grid(self):
        c = make_curve(1)
        strains = np.linspace(c.strains[0], c.strains[-1], len(c.strains))
        c = CurveSnapshot(c.condition_raw, np.column_stack([strains, c.stresses]))
        grid, (stresses,) = common_grid([c], len(strains))
        np.testing.assert_array_equal(grid, strains)
        np.testing.assert_array_equal(stresses, c.stresses)

    def test_resample_linear_midpoint(self):
        c = CurveSnapshot(0.0, [[0.0, 0.0], [1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        grid, (stresses,) = common_grid([c], 7)
        assert grid[1] == 0.5
        assert stresses[1] == pytest.approx(5.0)

    def test_resample_outside_support_raises(self):
        c = make_curve(2)
        shifted = CurveSnapshot(0.0, c.points + [c.strains[-1] + 0.1, 0.0])
        with pytest.raises(ValueError, match="no common strain range"):
            common_grid([c, shifted], 10)

    def test_resample_matches_independent_interpolation(self):
        c = make_curve(3, n=50)
        grid, (ours,) = common_grid([c], 200)
        oracle = manual_interp(grid, c.strains, c.stresses)
        np.testing.assert_allclose(ours, oracle, atol=1e-12)

    def test_resample_exact_on_affine_curves(self):
        strains = np.linspace(0.0, 1.0, 7)
        c = CurveSnapshot(0.0, np.column_stack([strains, 3.0 * strains + 2.0]))
        grid, (stresses,) = common_grid([c], 41)
        np.testing.assert_allclose(stresses, 3.0 * grid + 2.0, rtol=1e-15)


class TestGaussianCurveDensity:
    def setup_method(self):
        grid = np.linspace(0.0, 1.0, 11)
        self.model = GaussianCurveDensity(grid, 10.0 * grid, sigma_stress=0.5)

    def test_peak_value_on_mean_curve(self):
        x = np.array([0.35, 3.5])
        expected = 1.0 / (1.0 * self.model.sigma_stress * np.sqrt(2 * np.pi))
        assert self.model.pdf(x)[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_outside_strain_range(self):
        np.testing.assert_array_equal(
            self.model.pdf([[1.2, 5.0], [-0.1, 0.0]]), 0.0)

    def test_quadrature_integrates_to_one(self):
        # trapezoid oracle over [0,1] x [-5, 15]
        s = np.linspace(0.0, 1.0, 201)
        y = np.linspace(-5.0, 15.0, 801)
        S, Y = np.meshgrid(s, y, indexing="ij")
        vals = self.model.pdf(np.column_stack([S.ravel(), Y.ravel()]))
        total = np.trapezoid(np.trapezoid(vals.reshape(S.shape), y, axis=1), s)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_nonnegative_everywhere(self):
        gen = rng.stream(8)
        pts = np.column_stack([rng.uniform(gen, 500) * 2 - 0.5,
                               rng.normal(gen, 500) * 10])
        assert np.all(self.model.pdf(pts) >= 0.0)

    def test_sample_sigma_zero_limit(self):
        tight = GaussianCurveDensity(self.model.strain_grid,
                                     self.model.mean_stress, sigma_stress=1e-12)
        pts = tight.sample(500, seed=4)
        np.testing.assert_allclose(pts[:, 1], tight.mean_at(pts[:, 0]), atol=1e-9)

    def test_sample_moments(self):
        pts = self.model.sample(100_000, seed=5)
        resid = pts[:, 1] - self.model.mean_at(pts[:, 0])
        assert np.std(resid) == pytest.approx(self.model.sigma_stress, rel=0.03)

    def test_sample_seed_determinism(self):
        a = self.model.sample(100, seed=9)
        b = self.model.sample(100, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_kde_matches_density(self):
        # sample/density consistency on a coarse grid (5% of sup norm);
        # flat mean keeps the isotropic kernel unbiased
        flat = GaussianCurveDensity(np.linspace(0, 1, 11), np.full(11, 5.0),
                                    sigma_stress=0.5)
        pts = flat.sample(100_000, seed=10)
        s = np.linspace(0.2, 0.8, 5)
        stresses = np.array([4.0, 4.5, 5.0, 5.5, 6.0])
        S, Y = np.meshgrid(s, stresses, indexing="ij")
        grid = np.column_stack([S.ravel(), Y.ravel()])
        bw = 0.05
        diff = grid[:, None, :] - pts[None, :, :]
        k = np.exp(-0.5 * (diff ** 2).sum(-1) / bw**2) / (2 * np.pi * bw**2)
        kde = k.mean(axis=1)
        dens = flat.pdf(grid)
        assert np.max(np.abs(kde - dens)) < 0.05 * dens.max()

    def test_pdf_t_gradient_matches_fd(self):
        x0 = np.array([[0.4, 4.2], [0.7, 6.0]])
        xt = ad.parameter(x0.copy())
        ad.tsum(self.model.pdf_t(xt)).backward()
        h = 1e-6
        for r in range(2):
            for c in range(2):
                xp = x0.copy()
                xp[r, c] += h
                xm = x0.copy()
                xm[r, c] -= h
                fd = (self.model.pdf(xp).sum() - self.model.pdf(xm).sum()) / (2 * h)
                assert xt.grad[r, c] == pytest.approx(fd, rel=1e-5, abs=1e-8)


    @pytest.mark.parametrize("bad", ["grid", "mean", "sigma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad, value):
        args = dict(strain_grid=np.linspace(0.0, 1.0, 5),
                    mean_stress=np.arange(5.0), sigma_stress=0.3)
        if bad == "grid":
            args["strain_grid"] = np.append(args["strain_grid"][:-1], value)
        elif bad == "mean":
            args["mean_stress"][2] = value
        else:
            args["sigma_stress"] = value
        with pytest.raises(ValueError, match="finite"):
            GaussianCurveDensity(**args)

    @pytest.mark.parametrize("grid", [[0.5], []])
    def test_grid_needs_two_points(self, grid):
        # the density's strain range is the span of its grid
        with pytest.raises(ValueError, match="needs at least 2 points"):
            GaussianCurveDensity(grid, np.zeros(len(grid)), 0.3)


class TestReducedGaussianDensity:
    @pytest.mark.parametrize("mean, sigma", [
        ([0.0, np.nan], 0.1), ([np.inf, 0.0], 0.1), ([0.0, 0.0], np.nan),
        ([0.0, 0.0], np.inf)])
    def test_non_finite_rejected(self, mean, sigma):
        with pytest.raises(ValueError, match="finite"):
            ReducedGaussianDensity(mean, sigma)

    def test_pdf_value(self):
        m = ReducedGaussianDensity([1.0, -1.0], sigma=2.0)
        # hand: (2 pi sigma^2)^-1 at the mean
        assert m.pdf([1.0, -1.0])[0] == pytest.approx(
            1.0 / (2 * np.pi * 4.0), rel=1e-12)

    def test_sample_clt_bound(self):
        m = ReducedGaussianDensity(np.arange(3, dtype=float), sigma=0.7)
        pts = m.sample(100_000, seed=2)
        se = 3 * 0.7 / np.sqrt(100_000)
        assert np.all(np.abs(pts.mean(axis=0) - m.mean) < se)


class TestFieldToSamples:
    def test_sigma_zero_copies_mean(self):
        mean = np.arange(5, dtype=float)
        out = field_to_samples(mean, 0.0, 7, seed=1)
        np.testing.assert_array_equal(out, np.tile(mean, (7, 1)))

    def test_column_means_within_clt_bound(self):
        mean = np.linspace(-1, 1, 20)
        out = field_to_samples(mean, 0.5, 100_000, seed=3)
        se = 3 * 0.5 / np.sqrt(100_000)
        assert np.all(np.abs(out.mean(axis=0) - mean) < se)

    def test_bit_identical_given_seed(self):
        a = field_to_samples([1.0, 2.0], 0.3, 50, seed=11)
        b = field_to_samples([1.0, 2.0], 0.3, 50, seed=11)
        np.testing.assert_array_equal(a, b)
