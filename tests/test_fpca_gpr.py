import numpy as np
import pytest

from otgen import fpca_gpr, rng
from otgen.fpca_gpr import fit_predict_baseline, gpr_fit, gpr_predict
from otgen.pca import fit_pca, project, reconstruct


def make_rank1_family(n_T=5, m=30):
    grid = np.linspace(0.0, 1.0, m)
    mode = np.sin(np.pi * grid)
    mode /= np.linalg.norm(mode)
    alphas = np.linspace(-2.0, 2.0, n_T)
    values = 5.0 + np.outer(alphas, mode)  # [n_T, m]
    return grid, values, mode, alphas


class TestFpca:
    """`fit_pca` with a variance fraction: the baseline's reduction."""

    def test_identical_curves_degenerate_rule(self):
        values = np.tile(np.linspace(1, 2, 10), (4, 1))
        with pytest.warns(UserWarning, match="all rows identical"):
            basis = fit_pca(values, 0.99)
        assert basis.d == 1
        np.testing.assert_array_equal(project(basis, values), np.zeros((4, 1)))
        with pytest.warns(UserWarning, match="all rows identical"):
            mean, std = fit_predict_baseline(values, [0., 1., 2., 3.], 1.5)
        np.testing.assert_allclose(mean, values[0], atol=1e-8)
        assert np.all(std >= 0)

    def test_rank1_family_single_mode(self):
        _, values, mode, _ = make_rank1_family()
        basis = fit_pca(values, 0.99)
        assert basis.d == 1
        assert basis.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-10)
        overlap = abs(basis.components[0] @ mode)
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_rank3_reconstruction_exact(self):
        gen = rng.stream(50)
        modes = rng.normal(gen, (3, 40))
        coeffs = rng.normal(gen, (6, 3)) * np.array([5.0, 2.0, 1.0])
        values = coeffs @ modes + 3.0
        basis = fit_pca(values, 0.999999)
        assert basis.d == 3
        np.testing.assert_allclose(reconstruct(basis, project(basis, values)),
                                   values, atol=1e-8)

    def test_modes_orthonormal(self):
        gen = rng.stream(51)
        basis = fit_pca(rng.normal(gen, (8, 25)), 0.999)
        np.testing.assert_allclose(basis.components @ basis.components.T,
                                   np.eye(basis.d), atol=1e-10)

    def test_reconstruction_error_nonincreasing_in_r(self):
        gen = rng.stream(52)
        values = rng.normal(gen, (7, 30)) * np.linspace(3, 0.3, 7)[:, None]
        dims, errs = [], []
        for fraction in (0.3, 0.5, 0.7, 0.9, 0.99, 0.999999):
            basis = fit_pca(values, fraction)
            rec = reconstruct(basis, project(basis, values))
            dims.append(basis.d)
            errs.append(float(((values - rec) ** 2).sum()))
        assert dims == sorted(dims)
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        # seven centred rows span six directions, all kept at the top
        assert dims[-1] == 6 and errs[-1] < 1e-20

    @pytest.mark.parametrize("fraction", [0.2, 0.5, 0.8, 0.95, 0.99])
    def test_fraction_keeps_fewest_components_reaching_it(self, fraction):
        gen = rng.stream(53)
        values = rng.normal(gen, (9, 20)) * np.linspace(4, 0.2, 20)
        ratios = fit_pca(values, 8).explained_variance_ratio
        d = int(np.argmax(np.cumsum(ratios) >= fraction)) + 1
        basis = fit_pca(values, fraction)
        assert basis.d == d
        assert ratios[:d - 1].sum() < fraction <= ratios[:d].sum()
        # the fraction form is the integer form at the chosen d, bit for bit
        fixed = fit_pca(values, d)
        for a, b in zip(vars(basis).values(), vars(fixed).values()):
            np.testing.assert_array_equal(a, b)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="more samples"):
            fit_pca(np.ones((1, 5)), 0.99)


class TestGpr:
    def test_noiseless_interpolation(self):
        T = np.array([0.0, 1.0, 2.0, 3.0])
        a = np.array([1.0, -1.0, 0.5, 2.0])
        g = gpr_fit(T, a, hyper=(1.0, 4.0, 1e-12))
        for ti, ai in zip(T, a):
            mean, _ = gpr_predict(g, ti)
            assert mean == pytest.approx(ai, abs=1e-8)

    def test_single_point_closed_form(self):
        T0, a0 = 2.0, 3.0
        ell, s2, n2 = 1.5, 2.0, 0.5
        g = gpr_fit([T0], [a0], hyper=(ell, s2, n2))
        r = 0.8  # distance in standardized units (std=1 for single point)
        mean, _ = gpr_predict(g, T0 + r)
        expected = a0 * np.exp(-r**2 / (2 * ell**2)) * s2 / (s2 + n2)
        assert mean == pytest.approx(expected, rel=1e-10)

    def test_long_lengthscale_ridge_limit(self):
        # ell -> inf: prediction tends to the constant ridge estimate
        # s2 * sum(a) / (n s2 + n2) at any input
        T = np.array([0.0, 1.0, 2.0])
        a = np.array([1.0, 2.0, 3.0])
        s2, n2 = 4.0, 1.0
        g = gpr_fit(T, a, hyper=(1e5, s2, n2))
        mean, _ = gpr_predict(g, 1.234)
        expected = s2 * a.sum() / (len(a) * s2 + n2)
        assert mean == pytest.approx(expected, rel=1e-4)

    def test_prior_reversion_far_from_data(self):
        T = np.array([0.0, 1.0, 2.0])
        a = np.array([5.0, 6.0, 7.0])
        g = gpr_fit(T, a, hyper=(1.0, 2.0, 0.1))
        # at 1e200 the squared distance overflows, silently: k* is 0
        for query in (100.0, 1e200):
            mean, var = gpr_predict(g, query)
            assert abs(mean) < 1e-6
            assert var == pytest.approx(2.0 + 0.1, rel=1e-6)

    def test_query_is_one_condition(self):
        g = gpr_fit([0.0, 1.0], [1.0, 2.0], hyper=(1.0, 1.0, 0.1))
        assert gpr_predict(g, [0.5]) == gpr_predict(g, 0.5)
        with pytest.raises(ValueError):
            gpr_predict(g, [0.5, 1.5])

    def test_shrinkage_at_noisy_training_point(self):
        g = gpr_fit([0.0, 2.0], [4.0, -4.0], hyper=(0.7, 1.0, 1.0))
        mean, _ = gpr_predict(g, 0.0)
        assert 0.0 < mean < 4.0

    def test_posterior_variance_below_prior(self):
        gen = rng.stream(60)
        T = np.sort(rng.uniform(gen, 6)) * 10
        a = rng.normal(gen, 6)
        g = gpr_fit(T, a, hyper=(1.0, 3.0, 0.2))
        queries = np.linspace(-5, 15, 50)
        for q in queries:
            _, var = gpr_predict(g, q)
            assert var <= 3.0 + 0.2 + 1e-9

    def test_matches_dense_solve_oracle(self):
        gen = rng.stream(61)
        T = np.sort(rng.uniform(gen, 7)) * 4
        a = rng.normal(gen, 7)
        ell, s2, n2 = 0.9, 1.7, 0.3
        g = gpr_fit(T, a, hyper=(ell, s2, n2))
        Ts = (T - T.mean()) / T.std()
        K = s2 * np.exp(-0.5 * ((Ts[:, None] - Ts[None, :]) / ell) ** 2)
        for q in [0.5, 2.0, 3.7]:
            qs = (q - T.mean()) / T.std()
            k_star = s2 * np.exp(-0.5 * ((qs - Ts) / ell) ** 2)
            mean_oracle = k_star @ np.linalg.solve(K + n2 * np.eye(7), a)
            var_oracle = (s2 - k_star @ np.linalg.solve(K + n2 * np.eye(7), k_star)
                          + n2)
            mean, var = gpr_predict(g, q)
            assert mean == pytest.approx(mean_oracle, abs=1e-10)
            assert var == pytest.approx(var_oracle, abs=1e-10)

    def test_optimized_hypers_fit_smooth_data(self):
        T = np.linspace(0, 4, 8)
        a = np.sin(T)
        g = gpr_fit(T, a)  # grid-search hyperparameters
        for ti, ai in zip(T, a):
            mean, _ = gpr_predict(g, ti)
            assert mean == pytest.approx(ai, abs=0.05)

    def test_duplicate_conditions_rejected(self):
        with pytest.raises(ValueError):
            gpr_fit([1.0, 1.0], [0.0, 1.0], hyper=(1.0, 1.0, 0.1))


class TestPredictCurve:
    """`fit_predict_baseline`: the one baseline path for curves and fields."""

    def test_reproduces_training_curve_noiseless(self):
        _, values, _, _ = make_rank1_family()
        conditions = np.linspace(0.0, 4.0, len(values))
        mean, std = fit_predict_baseline(values, conditions, conditions[2])
        np.testing.assert_allclose(mean, values[2], atol=1e-6)
        assert np.all(std >= 0)

    def test_basis_dimension_mismatch(self):
        _, values, _, _ = make_rank1_family()
        basis = fit_pca(values[:, :-1], 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            fit_predict_baseline(values, np.arange(5.0), 1.0, basis)

    def test_linearity_in_coefficients(self):
        _, values, _, _ = make_rank1_family()
        conditions = np.arange(5.0)
        basis = fit_pca(values, 0.99)
        g = gpr_fit(conditions, project(basis, values)[:, 0])
        m1, _ = fit_predict_baseline(values, conditions, 1.0)
        m2, _ = fit_predict_baseline(values, conditions, 3.0)
        a1, _ = gpr_predict(g, 1.0)
        a2, _ = gpr_predict(g, 3.0)
        np.testing.assert_allclose(m2 - m1, (a2 - a1) * basis.components[0],
                                   atol=1e-10)

    def test_extrapolation_bias_reported_not_asserted(self):
        # linear-in-T coefficients: GPR extrapolates with prior reversion;
        # record the bias just to confirm the pipeline runs end to end
        grid, values, _, _ = make_rank1_family()
        conditions = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        mean, std = fit_predict_baseline(values, conditions, 1.5)
        assert mean.shape == std.shape == grid.shape
        assert np.all(np.isfinite(mean)) and np.all(std >= 0)

    def test_given_basis_matches_per_coordinate_loop(self):
        # the field baseline's former hand loop, kept as a bit-for-bit oracle
        gen = rng.stream(54)
        fields = rng.normal(gen, (7, 60)) * np.linspace(5, 0.1, 60) + 2.0
        conditions = np.linspace(100.0, 400.0, 7)
        basis = fit_pca(np.vstack([fields, fields + rng.normal(gen, (7, 60))]),
                        4)
        coeffs = project(basis, fields)
        pred, var = np.empty(basis.d), np.zeros(basis.D)
        for k in range(basis.d):
            pred[k], var_k = gpr_predict(gpr_fit(conditions, coeffs[:, k]),
                                         500.0)
            var = var + var_k * basis.components[k] ** 2
        mean, std = fit_predict_baseline(fields, conditions, 500.0, basis)
        np.testing.assert_array_equal(mean, reconstruct(basis, pred))
        np.testing.assert_allclose(std, np.sqrt(var), rtol=1e-12)


def _grid_search_oracle(T, a):
    """The per-candidate grid search: one cholesky, solve and z @ z per triple.

    Returns the [ls, sv, nv] log-marginal grid and the first maximum's
    (ls, sv, nv, chol).
    """
    T = np.asarray(T, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    scale = float(T.std()) if T.size > 1 and T.std() > 0 else 1.0
    Ts = (T - float(T.mean())) / scale
    a_var = float(a.var()) if a.size > 1 else max(float(a[0]) ** 2, 1e-12)
    a_var = max(a_var, 1e-12)
    ls_grid = np.logspace(-1.0, 1.3, 20)
    sv_grid = a_var * np.logspace(-1.0, 1.5, 20)
    nv_grid = a_var * np.logspace(-8.0, -0.5, 20)
    n = len(Ts)
    lml = np.empty((20, 20, 20))
    best = (-np.inf, None)
    for i, ls in enumerate(ls_grid):
        for j, sv in enumerate(sv_grid):
            K0 = sv * np.exp(-0.5 * ((Ts[:, None] - Ts[None, :]) / ls) ** 2)
            for k, nv in enumerate(nv_grid):
                L = np.linalg.cholesky(K0 + nv * np.eye(n))
                z = np.linalg.solve(L, a)
                quad = float(z @ z)
                logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
                lml[i, j, k] = (-0.5 * quad - 0.5 * logdet
                                - 0.5 * n * np.log(2.0 * np.pi))
                if lml[i, j, k] > best[0]:
                    best = (lml[i, j, k], (ls, sv, nv, L))
    return lml, best[1]


def _oracle_cases():
    gen = rng.stream(70)
    for n in range(2, 11):
        # condition scales 1e-3..1e3, target scales 1e-4..1e4
        t_scale, a_scale = 10.0 ** (rng.uniform(gen, 2) * [6, 8] - [3, 4])
        T = np.sort(rng.uniform(gen, n)) * t_scale
        a = rng.normal(gen, n) * a_scale
        yield f"random-n{n}", T, a
    yield "near-duplicate", np.array([0.0, 1e-9, 1e-8, 2.0]), np.array(
        [1.0, 1.0 + 1e-9, 0.5, -2.0])
    yield "all-zero", np.linspace(300.0, 700.0, 5), np.zeros(5)
    yield "single", np.array([3.0]), np.array([0.25])


class TestGridSearch:
    @pytest.mark.parametrize("name,T,a", list(_oracle_cases()),
                             ids=[c[0] for c in _oracle_cases()])
    def test_stacked_search_matches_per_candidate_loop(self, name, T, a):
        lml_ref, (ls, sv, nv, L) = _grid_search_oracle(T, a)
        g = gpr_fit(T, a)
        scale = float(T.std()) if T.size > 1 and T.std() > 0 else 1.0
        a_var = max(float(a.var()) if a.size > 1 else float(a[0]) ** 2, 1e-12)
        lml = fpca_gpr._grid_log_marginals(
            (T - T.mean()) / scale, a, np.logspace(-1.0, 1.3, 20),
            a_var * np.logspace(-1.0, 1.5, 20),
            a_var * np.logspace(-8.0, -0.5, 20))
        np.testing.assert_array_equal(lml, lml_ref)
        assert (g.length_scale, g.signal_variance, g.noise_variance) == (
            ls, sv, nv)
        np.testing.assert_array_equal(g.chol, L)
        z = np.linalg.solve(L, a)
        np.testing.assert_array_equal(g.alpha, np.linalg.solve(L.T, z))

    def test_nan_candidate_scores_minus_inf(self):
        # a NaN score must never win the argmax
        lml = fpca_gpr._grid_log_marginals(
            np.array([-1.0, 0.0, 1.0]), np.array([1.0, 2.0, 0.5]),
            np.array([1.0]), np.array([1.0, np.nan, 2.0]), np.array([0.1]))
        assert lml[0, 1, 0] == -np.inf
        assert np.all(np.isfinite(lml[0, [0, 2], 0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="conditions must be finite"):
            gpr_fit([0.0, bad, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="targets must be finite"):
            gpr_fit([0.0, 1.0, 2.0], [1.0, bad, 3.0])
        with pytest.raises(ValueError, match="targets must be finite"):
            gpr_fit([0.0, 1.0, 2.0], [1.0, bad, 3.0], hyper=(1.0, 1.0, 0.1))

    def test_overflowing_variance_raises_lin_alg_error(self):
        # the target variance overflows to inf, and inf * 0 in the noise
        # grid gives NaN, on the way
        with pytest.raises(np.linalg.LinAlgError), \
                pytest.warns(RuntimeWarning):
            gpr_fit([0.0, 1.0], [1e200, -1e200])
