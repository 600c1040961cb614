import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otgen import rng
from otgen.discrete import (DiscreteDistribution, PiecewiseLinearTrajectory,
                            TransportMap, plan_cost, push_forward,
                            quadratic_cost, solve_monge,
                            solve_monge_time_dependent, trajectory_cost)


def brute_force_best(src_pts, dst_pts):
    """Independent oracle: enumerate assignments with exact rationals."""
    n = len(src_pts)
    best = None
    for perm in itertools.permutations(range(n)):
        cost = Fraction(0)
        for i, j in enumerate(perm):
            d = Fraction(src_pts[i]) - Fraction(dst_pts[j])
            cost += d * d * Fraction(1, n)
        if best is None or cost < best[1]:
            best = (perm, cost)
    return best


def test_quadratic_cost_examples():
    assert quadratic_cost([1.0], [1.0]) == 0.0
    assert quadratic_cost([2.0], [3.0]) == 1.0
    assert quadratic_cost([0.0, 0.0], [3.0, 4.0]) == 25.0  # 9 + 16 by hand


def test_quadratic_cost_dimension_mismatch():
    with pytest.raises(ValueError):
        quadratic_cost([1.0], [1.0, 2.0])


def test_quadratic_cost_matrix_is_the_pairwise_dot():
    # one broadcast call gives c(x_i, y_j) = (x_i - y_j) @ (x_i - y_j) bit
    # for bit, the costs the solver used to compute pair by pair
    gen = rng.stream(41)
    x, y = rng.normal(gen, (5, 3)), rng.normal(gen, (4, 3))
    expected = np.array([[float((a - b) @ (a - b)) for b in y] for a in x])
    np.testing.assert_array_equal(quadratic_cost(x[:, None], y[None]),
                                  expected)


def test_repeated_support_point_rejected():
    # -0.0 and 0.0 are one point; the next float over is another
    with pytest.raises(ValueError, match="pairwise distinct"):
        DiscreteDistribution.uniform([[0.0, 1.0], [2.0, 3.0], [-0.0, 1.0]])
    d = DiscreteDistribution.uniform([[0.0, 1.0], [0.0, np.nextafter(1.0, 2)]])
    assert d.size == 2


def test_plan_cost_identity_zero():
    d = DiscreteDistribution.uniform([[0.0], [1.0], [2.0]])
    assert plan_cost(TransportMap((0, 1, 2)), d, d) == 0.0


def test_plan_cost_reference_instance():
    mu = DiscreteDistribution.uniform([[1.0], [2.0], [4.0]])
    nu = DiscreteDistribution.uniform([[1.0], [3.0], [5.0]])
    cost = plan_cost(TransportMap((0, 1, 2)), mu, nu)
    assert abs(cost - 2.0 / 3.0) < 1e-12
    # exact rational arithmetic check of the same plan
    exact = (Fraction(0) + Fraction(1) + Fraction(1)) * Fraction(1, 3)
    assert exact == Fraction(2, 3)


def test_plan_cost_two_point_crossed_vs_straight():
    mu = DiscreteDistribution.uniform([[0.0], [1.0]])
    nu = DiscreteDistribution.uniform([[2.0], [3.0]])
    # hand enumeration: straight (0->2, 1->3): (4 + 4)/2 = 4
    #                   crossed  (0->3, 1->2): (9 + 1)/2 = 5
    assert plan_cost(TransportMap((0, 1)), mu, nu) == pytest.approx(4.0)
    assert plan_cost(TransportMap((1, 0)), mu, nu) == pytest.approx(5.0)


def test_solve_monge_reference_instance():
    mu = DiscreteDistribution.uniform([[1.0], [2.0], [4.0]])
    nu = DiscreteDistribution.uniform([[1.0], [3.0], [5.0]])
    tmap, cost = solve_monge(mu, nu)
    assert tmap.assignment == (0, 1, 2)
    assert abs(cost - 2.0 / 3.0) < 1e-12


def test_solve_monge_identity():
    d = DiscreteDistribution.uniform([[0.0, 1.0], [2.0, 0.0]])
    tmap, cost = solve_monge(d, d)
    assert tmap.assignment == (0, 1)
    assert cost == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_solve_monge_matches_bruteforce_oracle(seed):
    gen = rng.stream(1000 + seed)
    src = np.sort(rng.normal(gen, 5) * 3)
    dst = np.sort(rng.normal(gen, 5) * 3 + 1)
    mu = DiscreteDistribution.uniform(src[:, None])
    nu = DiscreteDistribution.uniform(dst[:, None])
    tmap, cost = solve_monge(mu, nu)
    perm, exact = brute_force_best(list(src), list(dst))
    assert tmap.assignment == perm
    assert cost == pytest.approx(float(exact), abs=1e-12)


def test_solve_monge_rejects_unequal_masses():
    mu = DiscreteDistribution([[0.0], [1.0]], [0.25, 0.75])
    nu = DiscreteDistribution.uniform([[2.0], [3.0]])
    with pytest.raises(ValueError, match="point masses differ; a point-to-point "
                                         "map cannot split mass"):
        solve_monge(mu, nu)


def test_solve_monge_rejects_large_supports():
    pts = np.arange(11, dtype=float)[:, None]
    mu = DiscreteDistribution.uniform(pts)
    nu = DiscreteDistribution.uniform(pts + 0.5)
    with pytest.raises(ValueError):
        solve_monge(mu, nu)


def test_trajectory_cost_stationary_zero():
    mu = DiscreteDistribution.uniform([[1.0], [2.0]])
    traj = PiecewiseLinearTrajectory(
        [0.0, 1.0], np.repeat(mu.points[:, None, :], 2, axis=1))
    assert trajectory_cost(traj, mu) == 0.0


def test_trajectory_cost_reference_instance():
    mu = DiscreteDistribution.uniform([[1.0], [2.0], [4.0]])
    kp = np.array([[[1.0], [1.0]], [[2.0], [3.0]], [[4.0], [5.0]]])
    traj = PiecewiseLinearTrajectory([0.0, 1.0], kp)
    assert trajectory_cost(traj, mu) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_trajectory_detour_costs_more():
    mu = DiscreteDistribution.uniform([[0.0]])
    straight = PiecewiseLinearTrajectory([0.0, 1.0], [[[0.0], [2.0]]])
    detour = PiecewiseLinearTrajectory([0.0, 0.5, 1.0], [[[0.0], [3.0], [2.0]]])
    # hand: straight = 4; detour = 9/0.5 + 1/0.5 = 20
    assert trajectory_cost(straight, mu) == pytest.approx(4.0)
    assert trajectory_cost(detour, mu) == pytest.approx(20.0)
    assert trajectory_cost(detour, mu) > trajectory_cost(straight, mu)


def test_nonmonotone_knots_rejected():
    with pytest.raises(ValueError):
        PiecewiseLinearTrajectory([0.0, 0.6, 0.5, 1.0], np.zeros((1, 4, 1)))


def test_time_dependent_reference_instance():
    mu = DiscreteDistribution.uniform([[1.0], [2.0], [4.0]])
    nu = DiscreteDistribution.uniform([[1.0], [3.0], [5.0]])
    traj = solve_monge_time_dependent(mu, nu)
    np.testing.assert_allclose(traj.positions_at(0.0), [[1.0], [2.0], [4.0]])
    np.testing.assert_allclose(traj.positions_at(0.5), [[1.0], [2.5], [4.5]])
    np.testing.assert_allclose(traj.positions_at(1.0), [[1.0], [3.0], [5.0]])


def test_positions_at_interpolates_each_path():
    # oracle: np.interp on every path and coordinate; knots are hit exactly
    gen = rng.stream(42)
    kt = np.array([0.0, 0.3, 1.0])
    traj = PiecewiseLinearTrajectory(kt, rng.normal(gen, (4, 3, 2)))
    for t in (-0.5, 0.0, 0.2, 0.3, 0.55, 1.0, 1.5):
        expected = np.array([[np.interp(t, kt, path[:, d]) for d in range(2)]
                             for path in traj.knot_positions])
        np.testing.assert_allclose(traj.positions_at(t), expected,
                                   rtol=1e-14, atol=1e-14)
    for s, t in enumerate(kt):
        np.testing.assert_array_equal(traj.positions_at(t),
                                      traj.knot_positions[:, s])


def test_solve_monge_cost_is_the_left_to_right_sum():
    # the optimum's cost is c(x_i, y_T(i)) m_i summed in source order
    gen = rng.stream(43)
    mu = DiscreteDistribution.uniform(rng.normal(gen, (6, 2)))
    nu = DiscreteDistribution.uniform(rng.normal(gen, (6, 2)))
    tmap, cost = solve_monge(mu, nu)
    total = 0.0
    for i, j in enumerate(tmap.assignment):
        d = mu.points[i] - nu.points[j]
        total = total + float(d @ d) * mu.masses[i]
    assert cost == total
    assert plan_cost(tmap, mu, nu) == total


def test_time_dependent_identity_stationary():
    d = DiscreteDistribution.uniform([[0.0], [5.0]])
    traj = solve_monge_time_dependent(d, d)
    np.testing.assert_array_equal(traj.knot_positions[:, 0], traj.knot_positions[:, 1])


@pytest.mark.parametrize("seed", range(6))
def test_trajectory_cost_equals_static_cost(seed):
    gen = rng.stream(2000 + seed)
    n = 4 + seed % 4  # up to 7
    mu = DiscreteDistribution.uniform(rng.normal(gen, (n, 2)))
    nu = DiscreteDistribution.uniform(rng.normal(gen, (n, 2)) + 0.7)
    _, static_cost = solve_monge(mu, nu)
    traj = solve_monge_time_dependent(mu, nu)
    assert trajectory_cost(traj, mu) == pytest.approx(static_cost, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_push_forward_recovers_target(seed):
    gen = rng.stream(3000 + seed)
    mu = DiscreteDistribution.uniform(rng.normal(gen, (5, 1)))
    nu = DiscreteDistribution.uniform(rng.normal(gen, (5, 1)))
    tmap, _ = solve_monge(mu, nu)
    pushed = push_forward(tmap, mu, nu)
    # mapped points with masses reproduce the target distribution exactly
    np.testing.assert_allclose(pushed.points, nu.points, atol=1e-12)
    np.testing.assert_allclose(pushed.masses, nu.masses, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_plan_cost_invariant_under_source_relabeling(seed):
    gen = rng.stream(seed)
    pts = rng.normal(gen, (4, 1))
    dst = rng.normal(gen, (4, 1)) + 2.0
    mu = DiscreteDistribution.uniform(pts)
    nu = DiscreteDistribution.uniform(dst)
    perm = gen.permutation(4)
    tmap = TransportMap(tuple(int(v) for v in gen.permutation(4)))
    base = plan_cost(tmap, mu, nu)
    mu2 = DiscreteDistribution.uniform(pts[perm])
    tmap2 = TransportMap(tuple(tmap.assignment[p] for p in perm))
    assert plan_cost(tmap2, mu2, nu) == pytest.approx(base, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_quadratic_cost_symmetry_positivity(seed):
    gen = rng.stream(seed, 7)
    x = rng.normal(gen, 3)
    y = rng.normal(gen, 3)
    assert quadratic_cost(x, y) == quadratic_cost(y, x)
    assert quadratic_cost(x, y) >= 0.0
    assert quadratic_cost(x, x) == 0.0
