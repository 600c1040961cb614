import numpy as np
import pytest

from otgen import rng
from otgen.dataio import basis_from_dict, basis_to_dict
from otgen.pca import fit_pca, project, reconstruct, subspace_residual


def covariance_eig_oracle(X, d):
    """Independent PCA route: eigendecomposition of the covariance."""
    Xc = X - X.mean(axis=0)
    C = Xc.T @ Xc / len(X)
    w, v = np.linalg.eigh(C)
    order = np.argsort(w)[::-1]
    return v[:, order[:d]].T  # rows


def test_line_data_single_component():
    gen = rng.stream(1)
    direction = np.array([3.0, 4.0, 0.0]) / 5.0
    X = np.array([1.0, 2.0, 3.0]) + rng.normal(gen, (100, 1)) * direction
    with pytest.warns(UserWarning, match="rank"):  # rank-1 data, d=2
        basis = fit_pca(X, 2)
    assert basis.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-10)
    overlap = abs(basis.components[0] @ direction)
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_full_rank_roundtrip():
    gen = rng.stream(2)
    X = rng.normal(gen, (200, 3))
    basis = fit_pca(X, 3)
    for x in X[:10]:
        np.testing.assert_allclose(reconstruct(basis, project(basis, x)), x,
                                   atol=1e-10)


def test_low_rank_matches_eig_oracle():
    gen = rng.stream(3)
    latent = rng.normal(gen, (300, 6)) * np.array([5, 4, 3, 2, 1, 0.5])
    mix = rng.normal(gen, (6, 40))
    X = latent @ mix + 2.0
    basis = fit_pca(X, 6)
    oracle = covariance_eig_oracle(X, 6)
    for k in range(6):
        dot = abs(basis.components[k] @ oracle[k])
        assert dot == pytest.approx(1.0, abs=1e-8)


def test_components_orthonormal():
    gen = rng.stream(4)
    X = rng.normal(gen, (50, 10))
    basis = fit_pca(X, 4)
    np.testing.assert_allclose(basis.components @ basis.components.T, np.eye(4),
                               atol=1e-10)
    assert np.all(np.diff(basis.singular_values) <= 1e-12)


def test_project_examples():
    gen = rng.stream(5)
    X = rng.normal(gen, (60, 8))
    basis = fit_pca(X, 3)
    np.testing.assert_allclose(project(basis, basis.data_mean), np.zeros(3),
                               atol=1e-12)
    for k in range(3):
        e = project(basis, basis.data_mean + basis.components[k])
        expected = np.zeros(3)
        expected[k] = 1.0
        np.testing.assert_allclose(e, expected, atol=1e-10)
    x = rng.normal(gen, 8)
    np.testing.assert_allclose(project(basis, x),
                               basis.components @ (x - basis.data_mean),
                               atol=1e-12)


def test_reconstruct_examples():
    gen = rng.stream(6)
    X = rng.normal(gen, (60, 8))
    basis = fit_pca(X, 3)
    np.testing.assert_allclose(reconstruct(basis, np.zeros(3)), basis.data_mean)
    x_span = basis.data_mean + basis.components.T @ np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(reconstruct(basis, project(basis, x_span)), x_span,
                               atol=1e-10)


def test_offspan_residual_orthogonal_to_components():
    gen = rng.stream(7)
    X = rng.normal(gen, (60, 8))
    basis = fit_pca(X, 3)
    x = rng.normal(gen, 8)
    resid = x - reconstruct(basis, project(basis, x))
    np.testing.assert_allclose(basis.components @ resid, np.zeros(3), atol=1e-10)


def test_projection_roundtrip_identity_on_coeffs():
    gen = rng.stream(8)
    X = rng.normal(gen, (40, 5))
    basis = fit_pca(X, 2)
    c = rng.normal(gen, 2)
    np.testing.assert_allclose(project(basis, reconstruct(basis, c)), c,
                               atol=1e-12)


def test_reconstruction_error_nonincreasing_in_d():
    gen = rng.stream(9)
    X = rng.normal(gen, (80, 12)) * np.linspace(3, 0.1, 12)
    errors = []
    for d in range(1, 7):
        basis = fit_pca(X, d)
        rec = reconstruct(basis, project(basis, X))
        errors.append(float(((X - rec) ** 2).sum()))
    assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))


def test_order_invariance_up_to_sign_convention():
    gen = rng.stream(10)
    X = rng.normal(gen, (100, 6)) * np.array([4, 3, 2, 1, 0.5, 0.2])
    b1 = fit_pca(X, 3)
    b2 = fit_pca(X[gen.permutation(100)], 3)
    np.testing.assert_allclose(b1.components, b2.components, atol=1e-8)


def test_rank_deficiency_warns():
    X = np.zeros((20, 4))
    X[:, 0] = np.arange(20, dtype=float)
    with pytest.warns(UserWarning):
        fit_pca(X, 3)


def test_dimension_errors():
    with pytest.raises(ValueError):
        fit_pca(np.zeros((3, 5)), 4)
    gen = rng.stream(11)
    basis = fit_pca(rng.normal(gen, (10, 4)), 2)
    with pytest.raises(ValueError):
        project(basis, np.zeros(5))
    with pytest.raises(ValueError):
        reconstruct(basis, np.zeros(3))


def test_subspace_residual_reporting():
    gen = rng.stream(12)
    X = rng.normal(gen, (50, 6))
    X[:, 3:] = 0.0
    basis = fit_pca(X, 3)
    inside = X[0]
    assert subspace_residual(basis, inside) < 1e-10
    outside = inside + np.array([0, 0, 0, 0, 0, 10.0])
    assert subspace_residual(basis, outside) > 0.5


def test_serialization_roundtrip():
    gen = rng.stream(13)
    basis = fit_pca(rng.normal(gen, (30, 7)), 4)
    back = basis_from_dict(basis_to_dict(basis))
    np.testing.assert_array_equal(back.components, basis.components)
    np.testing.assert_array_equal(back.data_mean, basis.data_mean)
