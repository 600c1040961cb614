"""Transport dynamics on Riemannian metrics.

Metric fields supply covariant components g_ij(x) and their analytic
derivatives; from these `MetricField.christoffel` builds the Christoffel
symbols, and the geodesic equation is integrated with classic RK4.

The hyperbolic upper half-plane ("Lobachevsky plane", metric
(dx1^2 + dx2^2) / x2^2) ships as a built-in with closed-form geodesics for
regression testing: semicircles centered on the x1 axis, traversed at unit
hyperbolic speed. Its Christoffel symbols are closed-form too, and live on
its metric: `lobachevsky_metric()` returns a MetricField whose
`christoffel` and `in_domain` override the generic ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transport import check_number


class MetricSingularityError(RuntimeError):
    """Metric stopped being usable (singular or outside its domain)."""


class MetricField:
    """Riemannian metric given by a matrix-valued function of position.

    `metric_fn(x) -> [N, N]` must return symmetric positive-definite
    matrices, and `deriv_fn(x) -> [N, N, N]` their analytic derivatives,
    deriv[k][i][j] = d g_ij / d x^k. The base class builds the Christoffel
    symbols from g and dg and integrates everywhere; a metric with a closed
    form (Lobachevsky's, from `lobachevsky_metric`) overrides `christoffel`
    and `in_domain` and passes no `deriv_fn`.
    """

    def __init__(self, dim, metric_fn, deriv_fn, name="custom"):
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
        d = np.asarray(self._deriv_fn(x), dtype=np.float64)
        if d.shape != (self.dim,) * 3:
            raise ValueError("derivative function returned wrong shape")
        return d

    def in_domain(self, x) -> bool:
        """Whether `x` lies in the integration domain: everywhere."""
        return True

    def christoffel(self, x) -> np.ndarray:
        """Connection coefficients Gamma[k][i][j] of the metric at x.

        Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_il - d_l g_ij); symmetric
        in the two lower indices by construction.
        """
        ginv = self.g_inv(x)
        dg = self.dg(x)
        # term[l, i, j] = d_i g_lj + d_j g_il - d_l g_ij
        term = (np.einsum("ilj->lij", dg) + np.einsum("jil->lij", dg) - dg)
        return 0.5 * np.einsum("kl,lij->kij", ginv, term)


def euclidean_metric(dim: int) -> MetricField:
    eye = np.eye(dim)
    zeros = np.zeros((dim, dim, dim))
    return MetricField(dim, lambda x: eye, lambda x: zeros, name="euclidean")


def _lobachevsky_g(x):
    y = x[1]
    if y <= 0:
        raise MetricSingularityError("Lobachevsky metric needs x2 > 0")
    return np.diag([1.0 / y**2, 1.0 / y**2])


class _LobachevskyMetric(MetricField):
    """Upper half-plane metric diag(1, 1) / x2^2 on x2 > 1e-9.

    Its Christoffel symbols (about +-1/x2) come in closed form at every x2:
    the generic formula multiplies g^-1 (x2^2) by dg (-2/x2^3), whose cube
    overflows or turns subnormal above x2 of about 1e102 and loses the
    curvature there.
    """

    def __init__(self):
        super().__init__(2, _lobachevsky_g, None, name="lobachevsky")

    def in_domain(self, x) -> bool:
        return x[1] > 1e-9

    def christoffel(self, x) -> np.ndarray:
        self.g_inv(x)  # the same singularity check as the generic formula
        y = x[1]
        gamma = np.zeros((2, 2, 2))
        gamma[0, 0, 1] = gamma[0, 1, 0] = gamma[1, 1, 1] = -1.0 / y
        gamma[1, 0, 0] = 1.0 / y
        return gamma


def lobachevsky_metric() -> MetricField:
    """The upper half-plane metric diag(1, 1) / x2^2."""
    return _LobachevskyMetric()


def geodesic_rhs(metric: MetricField, x, v, G=0.0, g0=None) -> np.ndarray:
    """Acceleration of the transport dynamics at position x, velocity v.

    xdd^j = G * (Gamma^i_ik g0^{kj} + Gamma^j_ik g0^{ik}) - Gamma^j_ki xd^k xd^i.

    With G = 0 this is the plain geodesic equation. For G > 0 the
    deformation-energy term needs g0, the inverse metric at the reference
    point; that branch is provided as printed in its source formulation but
    is not exercised by the built-in experiments.
    """
    gamma = metric.christoffel(x)
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
        return np.array([v @ metric.g(x) @ v
                         for x, v in zip(self.positions, self.velocities)])


def integrate_geodesic(metric: MetricField, x0, v0, t_end, steps,
                       G=0.0, g0=None) -> GeodesicTrajectory:
    """Classic fourth-order Runge-Kutta on (position, velocity).

    `x0`, `v0` and `t_end` must be finite and `x0` a regular point inside
    the metric's domain (ValueError otherwise). Integration stops once the
    metric turns singular or a step leaves the domain (for the Lobachevsky
    metric, once x2 falls to 1e-9); the partial trajectory computed so far
    is returned with `complete=False`. A step whose state or acceleration
    overflows float64 raises FloatingPointError naming the step.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    check_number("t_end", t_end)
    x = np.asarray(x0, dtype=np.float64).copy()
    v = np.asarray(v0, dtype=np.float64).copy()
    for name, values in (("x0", x), ("v0", v)):
        for value in values.tolist():
            check_number(name, value)
    if not metric.in_domain(x):
        raise ValueError(f"x0 {x.tolist()} lies outside the domain of the "
                         f"{metric.name} metric")
    try:
        with np.errstate(over="ignore"):  # an overflowing g is singular too
            metric.g_inv(x)
    except MetricSingularityError as e:
        raise ValueError(f"x0 {x.tolist()} is a singular point of the "
                         f"{metric.name} metric: {e}") from None
    h = float(t_end) / steps
    times = np.linspace(0.0, float(t_end), steps + 1)
    xs = np.empty((steps + 1, metric.dim))
    vs = np.empty((steps + 1, metric.dim))
    xs[0], vs[0] = x, v

    def rhs(xc, vc):
        acc = geodesic_rhs(metric, xc, vc, G=G, g0=g0)
        if not np.all(np.isfinite(acc)):  # einsum overflows without a flag
            raise FloatingPointError("overflow encountered in the acceleration")
        return vc, acc

    for s in range(steps):
        try:
            with np.errstate(over="raise", invalid="raise"):
                k1x, k1v = rhs(x, v)
                k2x, k2v = rhs(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
                k3x, k3v = rhs(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
                k4x, k4v = rhs(x + h * k3x, v + h * k3v)
                x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
                v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        except MetricSingularityError:
            return GeodesicTrajectory(times[:s + 1], xs[:s + 1], vs[:s + 1],
                                      complete=False)
        except FloatingPointError as e:
            raise FloatingPointError(
                f"geodesic overflowed float64 in step {s + 1} of {steps} "
                f"(t = {times[s]:g} to {times[s + 1]:g}): {e}") from None
        if not metric.in_domain(x):
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
    t, sech = _sech(Y0, t)
    return X0 + Y0 * np.tanh(t), Y0 * sech


def lobachevsky_analytic_velocity(X0, Y0, t):
    """Time derivative of the closed-form geodesic."""
    t, sech = _sech(Y0, t)
    return Y0 * sech**2, -Y0 * sech * np.tanh(t)


def _sech(Y0, t):
    """(t, sech t) as 2 e^-|t| / (1 + e^-2|t|), which cannot overflow; Y0 > 0."""
    if Y0 <= 0:
        raise ValueError("Y0 must be positive")
    t = np.asarray(t, dtype=np.float64)
    a = np.abs(t)
    return t, 2.0 * np.exp(-a) / (1.0 + np.exp(-2.0 * a))
