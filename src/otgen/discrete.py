"""Exact solvers for small discrete transport problems.

Given two finite uniform distributions of equal support size, find the
point-to-point assignment minimizing the total quadratic cost, either as a
static map or as constant-speed straight-line trajectories on [0, 1].
Everything here enumerates permutations, which is exact and plenty for the
pedagogical sizes it exists to serve (support size is capped at 10).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

MAX_ENUMERATION = 10


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported distribution: points [n, dim], masses [n]."""

    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        ms = np.asarray(self.masses, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", ms)
        if pts.shape[0] != ms.shape[0]:
            raise ValueError("points/masses length mismatch")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(ms))):
            raise ValueError("points and masses must be finite")
        if np.any(ms <= 0):
            raise ValueError("masses must be positive")
        if abs(ms.sum() - 1.0) > 1e-12:
            raise ValueError("masses must sum to 1")
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        if len(np.unique(pts + 0.0, axis=0)) < len(pts):
            raise ValueError("support points must be pairwise distinct")

    @classmethod
    def uniform(cls, points):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return cls(pts, np.full(len(pts), 1.0 / len(pts)))

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class TransportMap:
    """Bijective assignment: source i goes to target assignment[i]."""

    assignment: tuple

    def __post_init__(self):
        a = tuple(int(i) for i in self.assignment)
        object.__setattr__(self, "assignment", a)
        if sorted(a) != list(range(len(a))):
            raise ValueError("assignment must be a permutation")


@dataclass(frozen=True)
class PiecewiseLinearTrajectory:
    """Piecewise-linear paths z_i(t): knot_times [k], knot_positions [n, k, dim]."""

    knot_times: np.ndarray
    knot_positions: np.ndarray

    def __post_init__(self):
        kt = np.asarray(self.knot_times, dtype=np.float64)
        kp = np.asarray(self.knot_positions, dtype=np.float64)
        object.__setattr__(self, "knot_times", kt)
        object.__setattr__(self, "knot_positions", kp)
        if np.any(np.diff(kt) <= 0):
            raise ValueError("knot times must be strictly increasing")
        if kt[0] != 0.0 or kt[-1] != 1.0:
            raise ValueError("trajectories must span [0, 1]")

    def positions_at(self, t: float) -> np.ndarray:
        """Linear interpolation of every path at time t, clamped to [0, 1]."""
        kt, kp = self.knot_times, self.knot_positions
        s = min(max(int(np.searchsorted(kt, t, side="right")) - 1, 0), len(kt) - 2)
        w = min(max((t - kt[s]) / (kt[s + 1] - kt[s]), 0.0), 1.0)
        return (1.0 - w) * kp[:, s] + w * kp[:, s + 1]


def quadratic_cost(x, y):
    """Squared Euclidean distance |x - y|^2 over the last axis; leading axes
    broadcast, and two points give a float."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if x.shape[-1] != y.shape[-1]:
        raise ValueError("cost arguments must have the same dimension")
    d = x - y
    cost = np.vecdot(d, d)
    return float(cost) if cost.ndim == 0 else cost


def plan_cost(tmap: TransportMap, src: DiscreteDistribution,
              dst: DiscreteDistribution) -> float:
    """Total cost sum_i c(x_i, T(x_i)) * mass_i of an assignment."""
    if src.size != dst.size or len(tmap.assignment) != src.size:
        raise ValueError("map/support size mismatch")
    costs = quadratic_cost(src.points, dst.points[list(tmap.assignment)])
    return _left_sum((costs * src.masses).tolist())


def _left_sum(values) -> float:
    """Plain left-to-right float sum (`sum` compensates from Python 3.12)."""
    return functools.reduce(operator.add, values)


def _require_uniform(src: DiscreteDistribution, dst: DiscreteDistribution):
    if src.size != dst.size:
        raise ValueError("supports must have equal size")
    ref = 1.0 / src.size
    if (np.any(np.abs(src.masses - ref) > 1e-12)
            or np.any(np.abs(dst.masses - ref) > 1e-12)):
        raise ValueError(
            "point masses differ; a point-to-point map cannot split mass")
    if src.size > MAX_ENUMERATION:
        raise ValueError(
            f"support size {src.size} exceeds enumeration cap {MAX_ENUMERATION}")


def solve_monge(src: DiscreteDistribution, dst: DiscreteDistribution):
    """Minimum-cost bijection by exhaustive enumeration.

    Returns (TransportMap, cost). Among equal-cost bijections the
    lexicographically smallest assignment wins, which makes results
    deterministic. ValueError if even the best total is not finite.
    """
    _require_uniform(src, dst)
    with np.errstate(over="ignore"):  # an overflowing pair costs inf
        weighted = (quadratic_cost(src.points[:, None], dst.points[None])
                    * src.masses[:, None]).tolist()  # rows of c(x_i, y_j) m_i

    def cost(perm):
        return _left_sum(map(operator.getitem, weighted, perm))

    # min keeps the first, so the lexicographically smallest, of equal costs
    best = min(itertools.permutations(range(src.size)), key=cost)
    total = cost(best)
    if not np.isfinite(total):
        raise ValueError("every assignment's total cost overflows float64")
    return TransportMap(best), total


def trajectory_cost(traj: PiecewiseLinearTrajectory,
                    src: DiscreteDistribution) -> float:
    """Integral of squared speed along each path, mass-weighted.

    Velocities are piecewise constant, so the integral over a segment is
    |dz|^2 / dt exactly.
    """
    kp = traj.knot_positions
    if kp.shape[0] != src.size:
        raise ValueError("trajectory/source size mismatch")
    paths = (quadratic_cost(kp[:, 1:], kp[:, :-1])
             / np.diff(traj.knot_times)).sum(axis=1)
    return float(paths @ src.masses)


def solve_monge_time_dependent(src: DiscreteDistribution,
                               dst: DiscreteDistribution) -> PiecewiseLinearTrajectory:
    """Optimal trajectories for the path-integral cost.

    For quadratic cost, constant-speed straight lines along the optimal
    static assignment minimize the kinetic integral subject to the endpoint
    constraints, so this reduces to the static solve plus interpolation.
    """
    tmap, _ = solve_monge(src, dst)
    kp = np.stack([src.points, dst.points[list(tmap.assignment)]], axis=1)
    return PiecewiseLinearTrajectory(np.array([0.0, 1.0]), kp)


def push_forward(tmap: TransportMap, src: DiscreteDistribution,
                 dst: DiscreteDistribution) -> DiscreteDistribution:
    """Image distribution of the source under T(x_i) = dst point assignment[i].

    The bijection moves each source mass whole, so target slot j carries
    the mass of its preimage. The result equals `dst` exactly when the
    masses are compatible pointwise.
    """
    if src.size != dst.size or len(tmap.assignment) != src.size:
        raise ValueError("map/support size mismatch")
    ms = np.empty_like(src.masses)
    ms[list(tmap.assignment)] = src.masses
    return DiscreteDistribution(dst.points.copy(), ms)
