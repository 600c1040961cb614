"""Transport dynamics on Riemannian metrics.

Metric fields supply covariant components g_ij(x) (and optionally their
analytic derivatives); from these we build Christoffel symbols, integrate
the geodesic equation with classic RK4, and check the manifold form of
mass conservation rho0 * sqrt(det g0) = rho_t * sqrt(det g).

The hyperbolic upper half-plane ("Lobachevsky plane", metric
(dx1^2 + dx2^2) / x2^2) ships as a built-in with closed-form geodesics for
regression testing: semicircles centered on the x1 axis, traversed at unit
hyperbolic speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FD_STEP = 1e-5  # central-difference step for metrics without derivatives


class MetricSingularityError(RuntimeError):
    """Metric stopped being usable (singular or outside its domain)."""


class MetricField:
    """Riemannian metric given by a matrix-valued function of position.

    `metric_fn(x) -> [N, N]` must return symmetric positive-definite
    matrices. `deriv_fn(x) -> [N, N, N]`, when provided, returns analytic
    derivatives with deriv[k][i][j] = d g_ij / d x^k; otherwise central
    finite differences with step FD_STEP are used.
    """

    def __init__(self, dim, metric_fn, deriv_fn=None, name="custom"):
        self.dim = int(dim)
        self._metric_fn = metric_fn
        self._deriv_fn = deriv_fn
        self.name = name

    def g(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        m = np.asarray(self._metric_fn(x), dtype=np.float64)
        if m.shape != (self.dim, self.dim):
            raise ValueError("metric function returned wrong shape")
        return m

    def g_inv(self, x) -> np.ndarray:
        m = self.g(x)
        try:
            inv = np.linalg.inv(m)
        except np.linalg.LinAlgError as e:
            raise MetricSingularityError(f"singular metric at {x}") from e
        if np.linalg.norm(m @ inv - np.eye(self.dim)) > 1e-10:
            raise MetricSingularityError(f"ill-conditioned metric at {x}")
        return inv

    def dg(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self._deriv_fn is not None:
            d = np.asarray(self._deriv_fn(x), dtype=np.float64)
            if d.shape != (self.dim,) * 3:
                raise ValueError("derivative function returned wrong shape")
            return d
        h = FD_STEP
        out = np.empty((self.dim, self.dim, self.dim))
        for k in range(self.dim):
            e = np.zeros(self.dim)
            e[k] = h
            out[k] = (self.g(x + e) - self.g(x - e)) / (2.0 * h)
        return out

    def sqrt_det(self, x) -> float:
        d = float(np.linalg.det(self.g(x)))
        if d <= 0:
            raise MetricSingularityError(f"non-positive metric determinant at {x}")
        return float(np.sqrt(d))


def euclidean_metric(dim: int) -> MetricField:
    eye = np.eye(dim)
    zeros = np.zeros((dim, dim, dim))
    return MetricField(dim, lambda x: eye, lambda x: zeros, name="euclidean")


def _lobachevsky_g(x):
    y = x[1]
    if y <= 0:
        raise MetricSingularityError("Lobachevsky metric needs x2 > 0")
    return np.diag([1.0 / y**2, 1.0 / y**2])


def _lobachevsky_dg(x):
    y = x[1]
    d = np.zeros((2, 2, 2))
    d[1, 0, 0] = -2.0 / y**3
    d[1, 1, 1] = -2.0 / y**3
    return d


def lobachevsky_metric() -> MetricField:
    """Upper half-plane metric diag(1, 1) / x2^2 with analytic derivatives."""
    return MetricField(2, _lobachevsky_g, _lobachevsky_dg, name="lobachevsky")


def christoffel(metric: MetricField, x) -> np.ndarray:
    """Connection coefficients Gamma[k][i][j] of the metric at x.

    Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_il - d_l g_ij); symmetric in
    the two lower indices by construction.
    """
    ginv = metric.g_inv(x)
    dg = metric.dg(x)
    # term[l, i, j] = d_i g_lj + d_j g_il - d_l g_ij
    term = (np.einsum("ilj->lij", dg) + np.einsum("jil->lij", dg) - dg)
    return 0.5 * np.einsum("kl,lij->kij", ginv, term)


@dataclass
class GeodesicState:
    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)
        self.velocity = np.asarray(self.velocity, dtype=np.float64)
        if not (np.all(np.isfinite(self.position)) and np.all(np.isfinite(self.velocity))):
            raise ValueError("state components must be finite")


def geodesic_rhs(metric: MetricField, state: GeodesicState, G=0.0, g0=None) -> np.ndarray:
    """Acceleration of the transport dynamics at the given state.

    xdd^j = G * (Gamma^i_ik g0^{kj} + Gamma^j_ik g0^{ik}) - Gamma^j_ki xd^k xd^i.

    With G = 0 this is the plain geodesic equation. For G > 0 the
    deformation-energy term needs g0, the inverse metric at the reference
    point; that branch is provided as printed in its source formulation but
    is not exercised by the built-in experiments.
    """
    gamma = christoffel(metric, state.position)
    v = state.velocity
    acc = -np.einsum("jki,k,i->j", gamma, v, v)
    if G != 0.0:
        if g0 is None:
            raise ValueError("G > 0 requires the reference inverse metric g0")
        g0 = np.asarray(g0, dtype=np.float64)
        acc = acc + G * (np.einsum("iik,kj->j", gamma, g0)
                         + np.einsum("jik,ik->j", gamma, g0))
    return acc


@dataclass
class GeodesicTrajectory:
    times: np.ndarray
    positions: np.ndarray  # [steps+1, N]
    velocities: np.ndarray  # [steps+1, N]
    complete: bool = True

    def energies(self, metric: MetricField) -> np.ndarray:
        """Kinetic invariant g_ij xd^i xd^j along the trajectory."""
        out = np.empty(len(self.times))
        for s in range(len(self.times)):
            g = metric.g(self.positions[s])
            v = self.velocities[s]
            out[s] = float(v @ g @ v)
        return out


def integrate_geodesic(metric: MetricField, x0, v0, t_end, steps,
                       G=0.0, g0=None) -> GeodesicTrajectory:
    """Classic fourth-order Runge-Kutta on (position, velocity).

    Integration stops once the metric turns singular or, for the Lobachevsky
    metric, once x2 falls to 1e-9; the partial trajectory computed so far is
    returned with `complete=False`.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    x = np.asarray(x0, dtype=np.float64).copy()
    v = np.asarray(v0, dtype=np.float64).copy()
    h = float(t_end) / steps
    times = np.linspace(0.0, float(t_end), steps + 1)
    xs = np.empty((steps + 1, metric.dim))
    vs = np.empty((steps + 1, metric.dim))
    xs[0], vs[0] = x, v

    def rhs(xc, vc):
        return vc, geodesic_rhs(metric, GeodesicState(xc, vc), G=G, g0=g0)

    for s in range(steps):
        try:
            k1x, k1v = rhs(x, v)
            k2x, k2v = rhs(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
            k3x, k3v = rhs(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
            k4x, k4v = rhs(x + h * k3x, v + h * k3v)
        except MetricSingularityError:
            return GeodesicTrajectory(times[:s + 1], xs[:s + 1], vs[:s + 1],
                                      complete=False)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if metric.name == "lobachevsky" and not x[1] > 1e-9:
            return GeodesicTrajectory(times[:s + 1], xs[:s + 1], vs[:s + 1],
                                      complete=False)
        xs[s + 1], vs[s + 1] = x, v
    return GeodesicTrajectory(times, xs, vs, complete=True)


def lobachevsky_analytic(X0, Y0, t):
    """Closed-form unit-speed geodesic of the upper half-plane.

    Starting at (X0, Y0) with initial velocity (Y0, 0), the path is the
    semicircle of radius Y0 centered at (X0, 0):

        x1 = X0 + Y0 * tanh(t),   x2 = Y0 * sech(t)

    which is an overflow-safe rewriting of the rational-exponential form
    x1 = X0 - 2 Y0 (e^{-2t}+1) e^{2t} / (1+e^{2t})^2 + Y0,
    x2 = 2 e^t Y0 / (1 + e^{2t}).
    """
    if Y0 <= 0:
        raise ValueError("Y0 must be positive")
    t = np.asarray(t, dtype=np.float64)
    a = np.abs(t)
    sech = 2.0 * np.exp(-a) / (1.0 + np.exp(-2.0 * a))
    return X0 + Y0 * np.tanh(t), Y0 * sech


def lobachevsky_analytic_velocity(X0, Y0, t):
    """Time derivative of the closed-form geodesic."""
    if Y0 <= 0:
        raise ValueError("Y0 must be positive")
    t = np.asarray(t, dtype=np.float64)
    a = np.abs(t)
    sech = 2.0 * np.exp(-a) / (1.0 + np.exp(-2.0 * a))
    return Y0 * sech**2, -Y0 * sech * np.tanh(t)


def manifold_mass_check(rho0_vals, rho_t_vals, metric0: MetricField,
                        metric_t: MetricField, ref_points, cur_points) -> float:
    """Largest relative violation of metric-weighted mass conservation.

    For paired samples (X, x): compares rho0(X) sqrt(det g0(X)) with
    rho(x) sqrt(det g(x)) and returns max |difference| / reference.
    """
    rho0_vals = np.asarray(rho0_vals, dtype=np.float64)
    rho_t_vals = np.asarray(rho_t_vals, dtype=np.float64)
    ref_points = np.atleast_2d(np.asarray(ref_points, dtype=np.float64))
    cur_points = np.atleast_2d(np.asarray(cur_points, dtype=np.float64))
    if not (len(rho0_vals) == len(rho_t_vals) == len(ref_points) == len(cur_points)):
        raise ValueError("sample arrays must be parallel")
    worst = 0.0
    for k in range(len(rho0_vals)):
        lhs = rho0_vals[k] * metric0.sqrt_det(ref_points[k])
        rhs = rho_t_vals[k] * metric_t.sqrt_det(cur_points[k])
        if lhs == 0.0:
            raise ZeroDivisionError("zero reference density at a sample")
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return worst
