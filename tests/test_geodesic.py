import numpy as np
import pytest

from otgen import rng
from otgen.geodesic import (GeodesicState, MetricField, christoffel,
                            euclidean_metric, geodesic_rhs, integrate_geodesic,
                            lobachevsky_analytic,
                            lobachevsky_analytic_velocity, lobachevsky_metric)


def test_euclidean_christoffels_vanish():
    m = euclidean_metric(3)
    gamma = christoffel(m, np.zeros(3))
    np.testing.assert_array_equal(gamma, np.zeros((3, 3, 3)))


def test_lobachevsky_christoffels_match_closed_form():
    m = lobachevsky_metric()
    x = np.array([0.3, 2.0])
    gamma = christoffel(m, x)
    y = x[1]
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 1] = expected[0, 1, 0] = -1.0 / y
    expected[1, 1, 1] = -1.0 / y
    expected[1, 0, 0] = 1.0 / y
    np.testing.assert_allclose(gamma, expected, atol=1e-12)


def test_christoffel_symmetric_lower_indices():
    gen = rng.stream(41)
    A = rng.normal(gen, (2, 2))
    spd = A @ A.T + 2 * np.eye(2)

    def metric(x):
        s = 1.0 + 0.3 * np.sin(x[0]) + 0.2 * x[1] ** 2
        return spd * s

    def deriv(x):  # d g_ij / d x^k = spd_ij * d s / d x^k
        return np.stack([0.3 * np.cos(x[0]) * spd, 0.4 * x[1] * spd])

    m = MetricField(2, metric, deriv)
    gamma = christoffel(m, np.array([0.4, -0.2]))
    np.testing.assert_allclose(gamma, np.swapaxes(gamma, 1, 2), atol=1e-12)


def test_christoffel_scale_invariance():
    # Gamma built from c*g equals Gamma from g (the c cancels)
    m1 = lobachevsky_metric()
    c = 7.3
    m2 = MetricField(2, lambda x: c * m1.g(x), lambda x: c * m1.dg(x))
    x = np.array([1.0, 0.7])
    np.testing.assert_allclose(christoffel(m1, x), christoffel(m2, x), atol=1e-12)


def test_fd_metric_derivatives_match_analytic():
    # central differences of g oracle the analytic derivatives
    lob = lobachevsky_metric()
    x, h = np.array([0.1, 1.4]), 1e-5
    fd = np.stack([(lob.g(x + h * e) - lob.g(x - h * e)) / (2.0 * h)
                   for e in np.eye(2)])
    np.testing.assert_allclose(lob.dg(x), fd, atol=1e-8)


def test_geodesic_rhs_euclidean_zero():
    m = euclidean_metric(2)
    acc = geodesic_rhs(m, GeodesicState([1.0, 2.0], [3.0, -1.0]))
    np.testing.assert_array_equal(acc, np.zeros(2))


def test_geodesic_rhs_lobachevsky_hand_value():
    # at x=(0,1) with velocity (1,0): acc = -Gamma^j_11 = (0, -1)
    m = lobachevsky_metric()
    acc = geodesic_rhs(m, GeodesicState([0.0, 1.0], [1.0, 0.0]))
    np.testing.assert_allclose(acc, [0.0, -1.0], atol=1e-12)


def test_geodesic_rhs_zero_velocity():
    m = lobachevsky_metric()
    acc = geodesic_rhs(m, GeodesicState([0.5, 2.0], [0.0, 0.0]))
    np.testing.assert_array_equal(acc, np.zeros(2))


def test_geodesic_rhs_strain_term_requires_g0():
    m = lobachevsky_metric()
    with pytest.raises(ValueError):
        geodesic_rhs(m, GeodesicState([0.0, 1.0], [1.0, 0.0]), G=1.0)


def test_euclidean_geodesic_is_exact_line():
    m = euclidean_metric(2)
    x0, v0 = np.array([1.0, -2.0]), np.array([0.5, 2.0])
    traj = integrate_geodesic(m, x0, v0, t_end=3.0, steps=10)
    for k, t in enumerate(traj.times):
        np.testing.assert_allclose(traj.positions[k], x0 + t * v0, atol=1e-12)


def test_lobachevsky_rk4_matches_analytic():
    m = lobachevsky_metric()
    X0, Y0 = 0.0, 1.0
    v0 = np.array(lobachevsky_analytic_velocity(X0, Y0, 0.0))
    traj = integrate_geodesic(m, [X0, Y0], v0, t_end=3.0, steps=1000)
    x1, x2 = lobachevsky_analytic(X0, Y0, traj.times)
    err = max(np.max(np.abs(traj.positions[:, 0] - x1)),
              np.max(np.abs(traj.positions[:, 1] - x2)))
    assert err < 1e-6


def test_lobachevsky_energy_conservation():
    m = lobachevsky_metric()
    v0 = np.array(lobachevsky_analytic_velocity(0.0, 1.0, 0.0))
    traj = integrate_geodesic(m, [0.0, 1.0], v0, t_end=3.0, steps=1000)
    e = traj.energies(m)
    assert np.max(np.abs(e - e[0])) / e[0] < 1e-8


def test_euclidean_energy_conservation():
    m = euclidean_metric(2)
    traj = integrate_geodesic(m, [0.0, 0.0], [1.0, 2.0], t_end=3.0, steps=1000)
    e = traj.energies(m)
    assert np.max(np.abs(e - e[0])) / e[0] < 1e-12


def test_rk4_fourth_order_convergence():
    m = lobachevsky_metric()
    v0 = np.array(lobachevsky_analytic_velocity(0.0, 1.0, 0.0))

    def sup_err(steps):
        traj = integrate_geodesic(m, [0.0, 1.0], v0, t_end=2.0, steps=steps)
        x1, x2 = lobachevsky_analytic(0.0, 1.0, traj.times)
        return max(np.max(np.abs(traj.positions[:, 0] - x1)),
                   np.max(np.abs(traj.positions[:, 1] - x2)))

    e_coarse, e_fine = sup_err(100), sup_err(200)
    assert e_coarse / e_fine >= 12.0  # ~16x for a 4th-order method


def test_vertical_geodesic_exponential():
    # motion with no horizontal velocity stays on the vertical line and has
    # constant hyperbolic speed a, giving x2(t) = Y0 * exp(a t); verified
    # directly: x2'' = (x2')^2 / x2 holds only for exponentials
    m = lobachevsky_metric()
    Y0, a = 1.5, -0.5
    traj = integrate_geodesic(m, [0.7, Y0], [0.0, a * Y0], t_end=2.0, steps=800)
    np.testing.assert_allclose(traj.positions[:, 0], 0.7, atol=1e-12)
    np.testing.assert_allclose(traj.positions[:, 1],
                               Y0 * np.exp(a * traj.times), atol=1e-9)


def test_lobachevsky_domain_guard_aborts():
    m = lobachevsky_metric()
    # strong downward velocity crosses x2 -> 0 quickly in flat terms
    traj = integrate_geodesic(m, [0.0, 1e-6], [0.0, -1.0], t_end=1.0, steps=100)
    assert not traj.complete
    assert len(traj.times) <= 101


def test_analytic_solution_properties():
    x1, x2 = lobachevsky_analytic(2.0, 3.0, 0.0)
    assert (x1, x2) == (2.0, 3.0)
    ts = np.linspace(0.0, 10.0, 50)
    _, heights = lobachevsky_analytic(2.0, 3.0, ts)
    assert np.all(np.diff(heights) < 0)  # monotone decay for t > 0
    # overflow safety far out
    _, tail = lobachevsky_analytic(0.0, 1.0, 800.0)
    assert np.isfinite(tail) and tail >= 0.0
    with pytest.raises(ValueError):
        lobachevsky_analytic(0.0, -1.0, 0.0)


def test_analytic_unit_speed():
    # g11 (x1')^2 + g22 (x2')^2 == 1 with FD velocities
    ts = np.linspace(0.0, 3.0, 31)
    h = 1e-6
    for t in ts:
        x1p, x2p = lobachevsky_analytic(0.0, 1.0, t + h)
        x1m, x2m = lobachevsky_analytic(0.0, 1.0, t - h)
        v1 = (x1p - x1m) / (2 * h)
        v2 = (x2p - x2m) / (2 * h)
        _, x2 = lobachevsky_analytic(0.0, 1.0, t)
        speed2 = (v1**2 + v2**2) / x2**2
        assert speed2 == pytest.approx(1.0, abs=1e-6)


def test_geodesics_match_straight_ot_trajectories():
    # Euclidean geodesics coincide with the discrete solver's straight paths
    from otgen.discrete import DiscreteDistribution, solve_monge_time_dependent
    mu = DiscreteDistribution.uniform([[1.0], [2.0], [4.0]])
    nu = DiscreteDistribution.uniform([[1.0], [3.0], [5.0]])
    traj = solve_monge_time_dependent(mu, nu)
    m = euclidean_metric(1)
    for i in range(3):
        x0 = traj.knot_positions[i, 0]
        v0 = traj.knot_positions[i, 1] - traj.knot_positions[i, 0]
        geo = integrate_geodesic(m, x0, v0, t_end=1.0, steps=4)
        for k, t in enumerate(geo.times):
            np.testing.assert_allclose(geo.positions[k],
                                       traj.positions_at(t)[i], atol=1e-12)
