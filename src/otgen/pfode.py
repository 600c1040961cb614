"""Score-driven deterministic sampling via the probability-flow ODE.

A variance-exploding forward diffusion dx = g(t) dw (zero drift) has
marginals p_t obtained by blurring the data with sigma(t)^2 I, where
sigma(t)^2 = int_0^t g(s)^2 ds. Its deterministic counterpart moves
samples with velocity v(x, t) = -1/2 g(t)^2 score(x, t); integrating that
ODE backwards from noise produces data samples.

Alongside a plain Euler reference, this module implements a second-order
reverse pass that tracks the displacement u(t) = x(t) - x(t_final) through
the central-difference recursion

    u(t - dt) = 2 u(t) - u(t + dt) + dt/2 * (v(t + dt) - v(t - dt)),

resolving the implicit velocity at t - dt with an Euler predictor plus
CORRECTOR_SWEEPS fixed-point sweeps of the corrector, and starting from a
trapezoidal first step (the recursion needs two known levels, and a
lower-order start would feed a spurious drift mode). The displacement
accumulated over the pass is the amount the noise moved to become the
sample: the output is x_init minus it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .transport import check_number

CORRECTOR_SWEEPS = 3  # fixed-point sweeps per reverse step


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
    """Exact score for N(0, s^2 I) data under the VE blur: -x/(s^2+sigma^2)."""

    def ev(x, t):
        s2 = data_std**2 + schedule.sigma(t) ** 2
        return -np.asarray(x, dtype=np.float64) / s2

    return ScoreFunction(ev)


class VeSchedule:
    """Geometric variance-exploding noise schedule.

    g(t) = sigma_min (sigma_max/sigma_min)^t sqrt(2 ln(sigma_max/sigma_min)),
    whose accumulated noise level has the closed form

        sigma(t) = sigma_min * sqrt((sigma_max/sigma_min)^{2t} - 1).

    Note sigma(0) = 0 exactly; for t away from 0 this is within a factor
    sqrt(1 - r^{-2t}) of the common shorthand sigma_min (sigma_max/sigma_min)^t,
    which it approaches from below (and which tends to sigma_min at 0+).
    """

    def __init__(self, sigma_min=0.01, sigma_max=50.0, t_final=1.0):
        for name, value in (("sigma_min", sigma_min), ("sigma_max", sigma_max),
                            ("t_final", t_final)):
            check_number(name, value)
        if not (0 < sigma_min < sigma_max):
            raise ValueError("need 0 < sigma_min < sigma_max")
        if t_final <= 0:
            raise ValueError("t_final must be positive")
        self.sigma_min = float(sigma_min)
        self.sigma_max = float(sigma_max)
        self.t_final = float(t_final)
        self._log_ratio = math.log(sigma_max / sigma_min)

    def _check_t(self, t):
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0.0) or np.any(t > self.t_final):
            raise ValueError("t outside [0, t_final]")
        return t

    def g(self, t):
        t = self._check_t(t)
        u = t / self.t_final
        return (self.sigma_min * np.exp(self._log_ratio * u)
                * math.sqrt(2.0 * self._log_ratio / self.t_final))

    def sigma(self, t):
        t = self._check_t(t)
        u = t / self.t_final
        return self.sigma_min * np.sqrt(np.expm1(2.0 * self._log_ratio * u))


def pf_velocity(score: ScoreFunction, x, t, schedule: VeSchedule) -> np.ndarray:
    """Deterministic-flow velocity -1/2 g(t)^2 score(x, t)."""
    return -0.5 * float(schedule.g(t)) ** 2 * score(x, t)


def sample_euler(score: ScoreFunction, schedule: VeSchedule, x_init,
                 n_steps=100, eps=None) -> np.ndarray:
    """Reference first-order reverse integration of the flow ODE."""
    x = np.array(x_init, dtype=np.float64, copy=True)
    t_f = schedule.t_final
    if eps is None:
        eps = 1e-3 * t_f
    dt = (t_f - eps) / n_steps
    t = t_f
    for _ in range(n_steps):
        x = x - dt * pf_velocity(score, x, t, schedule)
        t -= dt
    return x


def sample_second_order(score: ScoreFunction, schedule: VeSchedule, x_init,
                        n_steps=100, eps=None) -> np.ndarray:
    """Second-order reverse pass from noise x_init to a sample at t = eps.

    Displacement u(t) = x(t) - x_init obeys du/dt = v; its second
    difference is closed with the central velocity difference (see module
    docstring). The velocity at the unknown earlier level is resolved by an
    Euler predictor followed by CORRECTOR_SWEEPS fixed-point sweeps of the
    corrector: the two-level recursion telescopes into trapezoid steps once
    the velocities are self-consistent, which keeps the parasitic mode of
    the second difference unexcited. Deterministic given x_init.
    """
    x_init = np.asarray(x_init, dtype=np.float64)
    t_f = schedule.t_final
    if eps is None:
        eps = 1e-3 * t_f
    if eps <= 0 or eps >= t_f:
        raise ValueError("eps must lie strictly inside (0, t_final)")
    if n_steps < 2:
        raise ValueError("need at least two steps")
    dt = (t_f - eps) / n_steps
    times = t_f - dt * np.arange(n_steps + 1)

    # trapezoidal (Heun) start: two known levels are needed and an Euler
    # start would inject a constant drift into the recursion
    u_prev = np.zeros_like(x_init)              # u at times[0] = t_final
    v_prev = pf_velocity(score, x_init, times[0], schedule)
    v_next = pf_velocity(score, x_init - dt * v_prev, times[1], schedule)
    u_cur = u_prev
    for _ in range(CORRECTOR_SWEEPS):
        u_cur = u_prev - 0.5 * dt * (v_prev + v_next)
        v_next = pf_velocity(score, x_init + u_cur, times[1], schedule)
    u_cur = u_prev - 0.5 * dt * (v_prev + v_next)

    for k in range(1, n_steps):
        x_cur = x_init + u_cur
        v_cur = pf_velocity(score, x_cur, times[k], schedule)
        v_next = pf_velocity(score, x_cur - dt * v_cur, times[k + 1], schedule)
        u_next = u_cur
        for _ in range(CORRECTOR_SWEEPS):
            u_next = 2.0 * u_cur - u_prev + 0.5 * dt * (v_prev - v_next)
            v_next = pf_velocity(score, x_init + u_next, times[k + 1], schedule)
        u_next = 2.0 * u_cur - u_prev + 0.5 * dt * (v_prev - v_next)
        if not np.all(np.isfinite(u_next)):
            raise FloatingPointError(f"non-finite state at reverse step {k}")
        u_prev, u_cur = u_cur, u_next
        v_prev = v_cur
    moved = -u_cur  # total displacement the noise shed to become the sample
    return x_init - moved


def sample_chains(score: ScoreFunction, schedule: VeSchedule, n_chains, dim,
                  seed, n_steps=100, method="second_order") -> np.ndarray:
    """Draw x_init ~ N(0, sigma(t_final)^2 I) and run the reverse pass."""
    check_number("n_chains", n_chains, count=True, least=1)
    check_number("dim", dim, count=True, least=1)
    gen = rng.stream(seed, 0xF1)
    x0 = schedule.sigma(schedule.t_final) * rng.normal(gen, (n_chains, dim))
    sampler = sample_second_order if method == "second_order" else sample_euler
    return sampler(score, schedule, x0, n_steps=n_steps)
