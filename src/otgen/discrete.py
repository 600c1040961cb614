"""Exact solvers for small discrete transport problems.

Given two finite uniform distributions of equal support size, find the
point-to-point assignment minimizing the total quadratic cost, either as a
static map or as constant-speed straight-line trajectories on [0, 1].
Everything here enumerates permutations, which is exact and plenty for the
pedagogical sizes it exists to serve (support size is capped at 10).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

MAX_ENUMERATION = 10


class UnsupportedMongeError(ValueError):
    """Instance requires splitting mass, which point-to-point maps cannot do."""


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
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if np.array_equal(pts[i], pts[j]):
                    raise ValueError("support points must be pairwise distinct")

    @classmethod
    def uniform(cls, points):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        n = pts.shape[0]
        return cls(pts, np.full(n, 1.0 / n))

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
        """Linear interpolation of every path at time t."""
        n, _, dim = self.knot_positions.shape
        out = np.empty((n, dim))
        for d in range(dim):
            for i in range(n):
                out[i, d] = np.interp(t, self.knot_times, self.knot_positions[i, :, d])
        return out


def quadratic_cost(x, y) -> float:
    """Squared Euclidean distance |x - y|^2."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if x.shape != y.shape:
        raise ValueError("cost arguments must have the same dimension")
    d = x - y
    return float(d @ d)


def plan_cost(tmap: TransportMap, src: DiscreteDistribution,
              dst: DiscreteDistribution) -> float:
    """Total cost sum_i c(x_i, T(x_i)) * mass_i of an assignment."""
    if src.size != dst.size or len(tmap.assignment) != src.size:
        raise ValueError("map/support size mismatch")
    return float(sum(
        quadratic_cost(src.points[i], dst.points[j]) * src.masses[i]
        for i, j in enumerate(tmap.assignment)
    ))


def _require_uniform(src: DiscreteDistribution, dst: DiscreteDistribution):
    if src.size != dst.size:
        raise ValueError("supports must have equal size")
    ref = 1.0 / src.size
    if (np.any(np.abs(src.masses - ref) > 1e-12)
            or np.any(np.abs(dst.masses - ref) > 1e-12)):
        raise UnsupportedMongeError(
            "point masses differ; a point-to-point map cannot split mass")
    if src.size > MAX_ENUMERATION:
        raise ValueError(
            f"support size {src.size} exceeds enumeration cap {MAX_ENUMERATION}")


def solve_monge(src: DiscreteDistribution, dst: DiscreteDistribution):
    """Minimum-cost bijection by exhaustive enumeration.

    Returns (TransportMap, cost). Among equal-cost bijections the
    lexicographically smallest assignment wins, which makes results
    deterministic.
    """
    _require_uniform(src, dst)
    n = src.size
    cost_matrix = np.array([
        [quadratic_cost(src.points[i], dst.points[j]) for j in range(n)]
        for i in range(n)
    ])
    best_perm = None
    best_cost = np.inf
    for perm in itertools.permutations(range(n)):
        c = sum(cost_matrix[i, perm[i]] * src.masses[i] for i in range(n))
        if c < best_cost:  # strict: keeps the lexicographically first tie
            best_cost = c
            best_perm = perm
    return TransportMap(best_perm), float(best_cost)


def trajectory_cost(traj: PiecewiseLinearTrajectory,
                    src: DiscreteDistribution) -> float:
    """Integral of squared speed along each path, mass-weighted.

    Velocities are piecewise constant, so the integral over a segment is
    |dz|^2 / dt exactly.
    """
    kt = traj.knot_times
    kp = traj.knot_positions
    if kp.shape[0] != src.size:
        raise ValueError("trajectory/source size mismatch")
    total = 0.0
    for i in range(src.size):
        path = 0.0
        for s in range(len(kt) - 1):
            dz = kp[i, s + 1] - kp[i, s]
            path += float(dz @ dz) / (kt[s + 1] - kt[s])
        total += path * src.masses[i]
    return total


def solve_monge_time_dependent(src: DiscreteDistribution,
                               dst: DiscreteDistribution) -> PiecewiseLinearTrajectory:
    """Optimal trajectories for the path-integral cost.

    For quadratic cost, constant-speed straight lines along the optimal
    static assignment minimize the kinetic integral subject to the endpoint
    constraints, so this reduces to the static solve plus interpolation.
    """
    tmap, _ = solve_monge(src, dst)
    n, dim = src.points.shape
    kp = np.empty((n, 2, dim))
    for i, j in enumerate(tmap.assignment):
        kp[i, 0] = src.points[i]
        kp[i, 1] = dst.points[j]
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
    for i, j in enumerate(tmap.assignment):
        ms[j] = src.masses[i]
    return DiscreteDistribution(dst.points.copy(), ms)
