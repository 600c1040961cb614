"""Score-driven deterministic sampling via the probability-flow ODE.

A variance-exploding forward diffusion dx = g(t) dw (zero drift) has
marginals p_t obtained by blurring the data with sigma(t)^2 I, where
sigma(t)^2 = int_0^t g(s)^2 ds. Its deterministic counterpart moves
samples with velocity v(x, t) = -1/2 g(t)^2 score(x, t); integrating that
ODE backwards from noise produces data samples.

Alongside a plain Euler reference, this module implements a second-order
reverse pass that tracks the displacement u(t) = x(t) - x(1) through
the central-difference recursion

    u(t - dt) = 2 u(t) - u(t + dt) + dt/2 * (v(t + dt) - v(t - dt)),

resolving the implicit velocity at t - dt with an Euler predictor plus
CORRECTOR_SWEEPS fixed-point sweeps of the corrector. The recursion needs
two known levels, and a lower-order start would feed a spurious drift mode,
so the first step starts from a ghost level above t = 1: u(1 + dt)
= dt v(1) with velocity v(1), the level a constant velocity would have
come from. With it the recursion's first step is exactly the trapezoid
step u(1 - dt) = -dt/2 (v(1) + v(1 - dt)).
The displacement accumulated over the pass is the amount the noise moved to
become the sample: the output is x_init minus it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .transport import check_number

CORRECTOR_SWEEPS = 3  # fixed-point sweeps per reverse step
T_STOP = 1e-3  # the samplers integrate from t = 1 down to t = T_STOP


@dataclass
class ScoreFunction:
    """Callable score estimate s(x, t) -> array like x."""

    evaluator: object

    def __call__(self, x, t):
        out = np.asarray(self.evaluator(x, t), dtype=np.float64)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("score produced non-finite values")
        return out


def gaussian_score(data_std: float, schedule: "VeSchedule") -> ScoreFunction:
    """Exact score for N(0, s^2 I) data under the VE blur: -x/(s^2+sigma^2);
    ValueError unless s > 0 and s^2 + sigma(1)^2 is finite."""
    var = data_std * data_std  # inf where data_std**2 would raise
    if not (data_std > 0 and math.isfinite(
            var + float(schedule.sigma(1.0)) ** 2)):
        raise ValueError("data_std must be > 0 with data_std^2 + "
                         f"sigma(1)^2 finite; got {data_std!r}")

    def ev(x, t):
        s2 = var + schedule.sigma(t) ** 2
        return -np.asarray(x, dtype=np.float64) / s2

    return ScoreFunction(ev)


class VeSchedule:
    """Geometric variance-exploding noise schedule on t in [0, 1].

    g(t) = sigma_min (sigma_max/sigma_min)^t sqrt(2 ln(sigma_max/sigma_min)),
    whose accumulated noise level has the closed form

        sigma(t) = sigma_min * sqrt((sigma_max/sigma_min)^{2t} - 1).

    Note sigma(0) = 0 exactly; for t away from 0 this is within a factor
    sqrt(1 - r^{-2t}) of the common shorthand sigma_min (sigma_max/sigma_min)^t,
    which it approaches from below (and which tends to sigma_min at 0+).
    Both grow with t; a range where g(1)^2 or sigma(1)^2 overflows is
    refused (ValueError).
    """

    def __init__(self, sigma_min=0.01, sigma_max=50.0):
        for name, value in (("sigma_min", sigma_min), ("sigma_max", sigma_max)):
            check_number(name, value)
        if not (0 < sigma_min < sigma_max):
            raise ValueError("need 0 < sigma_min < sigma_max")
        self.sigma_min = float(sigma_min)
        self.sigma_max = float(sigma_max)
        self._log_ratio = math.log(sigma_max / sigma_min)
        with np.errstate(over="ignore"):
            peak = np.square([self.g(1.0), self.sigma(1.0)])
        if not np.all(np.isfinite(peak)):
            raise ValueError(f"sigma_min {sigma_min:g} to sigma_max {sigma_max:g} "
                             f"overflows g(t)^2 or sigma(t)^2")

    def _time(self, t):
        """t as an array; ValueError for t outside [0, 1]."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ValueError("t outside [0, 1]")
        return t

    def g(self, t):
        return (self.sigma_min * np.exp(self._log_ratio * self._time(t))
                * math.sqrt(2.0 * self._log_ratio))

    def sigma(self, t):
        return self.sigma_min * np.sqrt(
            np.expm1(2.0 * self._log_ratio * self._time(t)))


def pf_velocity(score: ScoreFunction, x, t, schedule: VeSchedule) -> np.ndarray:
    """Deterministic-flow velocity -1/2 g(t)^2 score(x, t)."""
    return -0.5 * float(schedule.g(t)) ** 2 * score(x, t)


def sample_euler(score: ScoreFunction, schedule: VeSchedule, x_init,
                 n_steps=100) -> np.ndarray:
    """Reference first-order reverse integration of the flow ODE."""
    x = np.array(x_init, dtype=np.float64, copy=True)
    t = 1.0
    dt = (1.0 - T_STOP) / n_steps
    for _ in range(n_steps):
        x = x - dt * pf_velocity(score, x, t, schedule)
        t -= dt
    return x


def sample_second_order(score: ScoreFunction, schedule: VeSchedule, x_init,
                        n_steps=100) -> np.ndarray:
    """Second-order reverse pass from noise x_init at t = 1 to t = T_STOP.

    Displacement u(t) = x(t) - x_init obeys du/dt = v; its second
    difference is closed with the central velocity difference (see module
    docstring). The velocity at the unknown earlier level is resolved by an
    Euler predictor followed by CORRECTOR_SWEEPS fixed-point sweeps of the
    corrector: the two-level recursion telescopes into trapezoid steps once
    the velocities are self-consistent, which keeps the parasitic mode of
    the second difference unexcited. The first step runs the same recursion
    from the ghost level u(1 + dt) = dt v(1), which turns it
    into the trapezoid step. Each level's velocity is evaluated once, the
    last level's included, so a pass makes 5 n_steps + 1 `pf_velocity`
    calls. Deterministic given x_init.
    """
    x_init = np.asarray(x_init, dtype=np.float64)
    if n_steps < 2:
        raise ValueError("need at least two steps")
    dt = (1.0 - T_STOP) / n_steps
    times = 1.0 - dt * np.arange(n_steps + 1)

    u_cur = np.zeros_like(x_init)                # u at times[0] = 1
    v_cur = pf_velocity(score, x_init, times[0], schedule)
    u_prev, v_prev = dt * v_cur, v_cur           # the ghost level
    for k in range(n_steps):
        v_next = pf_velocity(score, x_init + u_cur - dt * v_cur, times[k + 1],
                             schedule)
        for _ in range(CORRECTOR_SWEEPS):
            u_next = 2.0 * u_cur - u_prev + 0.5 * dt * (v_prev - v_next)
            v_next = pf_velocity(score, x_init + u_next, times[k + 1], schedule)
        u_next = 2.0 * u_cur - u_prev + 0.5 * dt * (v_prev - v_next)
        if not np.all(np.isfinite(u_next)):
            raise FloatingPointError(f"non-finite state at reverse step {k}")
        u_prev, u_cur, v_prev = u_cur, u_next, v_cur
        v_cur = pf_velocity(score, x_init + u_cur, times[k + 1], schedule)
    return x_init + u_cur  # x = x_init + u at the last level


def sample_chains(score: ScoreFunction, schedule: VeSchedule, n_chains, dim,
                  seed, n_steps=100, method="second_order") -> np.ndarray:
    """Draw x_init ~ N(0, sigma(1)^2 I) and run the reverse pass of
    `method`, "second_order" or "euler" (ValueError for any other)."""
    sampler = {"second_order": sample_second_order,
               "euler": sample_euler}.get(method)
    if sampler is None:
        raise ValueError(f"unknown sampler method {method!r}")
    check_number("n_chains", n_chains, count=True, least=1)
    check_number("dim", dim, count=True, least=1)
    gen = rng.stream(seed, 0xF1)
    x0 = schedule.sigma(1.0) * rng.normal(gen, (n_chains, dim))
    return sampler(score, schedule, x0, n_steps=n_steps)
