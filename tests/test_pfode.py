import numpy as np
import pytest

from otgen import pfode
from otgen.pfode import (ScoreFunction, VeSchedule, gaussian_score,
                         pf_velocity, sample_chains, sample_second_order)


@pytest.fixture
def schedule():
    return VeSchedule(sigma_min=0.01, sigma_max=50.0)


class TestSchedule:
    def test_sigma_zero_at_origin(self, schedule):
        assert schedule.sigma(0.0) == 0.0

    def test_sigma_monotone(self, schedule):
        ts = np.linspace(0.0, 1.0, 100)
        vals = schedule.sigma(ts)
        assert np.all(np.diff(vals) > 0)

    def test_sigma_squared_equals_integral_of_g_squared(self, schedule):
        # quadrature oracle for the accumulated noise
        for t in [0.1, 0.35, 0.8, 1.0]:
            s = np.linspace(0.0, t, 20001)
            integral = np.trapezoid(schedule.g(s) ** 2, s)
            assert schedule.sigma(t) ** 2 == pytest.approx(integral, rel=1e-6)

    def test_sigma_approaches_geometric_shorthand(self, schedule):
        # away from 0 the closed form matches sigma_min * r^t to within
        # the documented sqrt(1 - r^(-2t)) factor
        for t in [0.5, 0.75, 1.0]:
            shorthand = 0.01 * (50.0 / 0.01) ** t
            assert schedule.sigma(t) == pytest.approx(shorthand, rel=1e-3)

    def test_range_checks(self, schedule):
        with pytest.raises(ValueError):
            schedule.sigma(-0.1)
        with pytest.raises(ValueError):
            schedule.sigma(1.1)
        with pytest.raises(ValueError):
            VeSchedule(sigma_min=2.0, sigma_max=1.0)

    @pytest.mark.parametrize("sigma_min,sigma_max", [
        (0.01, 1e200),      # g(1)^2 ~ sigma_max^2 overflows
        (1e-200, 50.0),     # (sigma_max / sigma_min)^2 overflows
    ])
    def test_overflowing_range_is_refused(self, sigma_min, sigma_max):
        with pytest.raises(ValueError, match="overflows g"):
            VeSchedule(sigma_min, sigma_max)

    def test_widest_finite_range_is_kept(self):
        # r = 1e150 squares to 1e300, inside float64
        wide = VeSchedule(sigma_min=1e-150, sigma_max=1.0)
        assert np.isfinite(wide.sigma(1.0) ** 2)
        assert np.isfinite(wide.g(1.0) ** 2)


class TestVelocity:
    def test_zero_score_zero_velocity(self, schedule):
        zero = ScoreFunction(lambda x, t: np.zeros_like(np.asarray(x)))
        np.testing.assert_array_equal(
            pf_velocity(zero, np.ones(3), 0.5, schedule), np.zeros(3))

    def test_gaussian_velocity_hand_substitution(self, schedule):
        # v = 1/2 g^2 x / (s^2 + sigma^2) after substituting the score
        s = 2.0
        score = gaussian_score(s, schedule)
        x = np.array([1.5, -3.0])
        t = 0.7
        got = pf_velocity(score, x, t, schedule)
        g2 = float(schedule.g(t)) ** 2
        expected = 0.5 * g2 * x / (s**2 + schedule.sigma(t) ** 2)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("std", [0.0, -1.0, float("nan"), float("inf"),
                                     1e200])
    def test_gaussian_score_needs_a_finite_variance(self, schedule, std):
        with pytest.raises(ValueError, match="data_std must be > 0"):
            gaussian_score(std, schedule)

    def test_linearity_in_score(self, schedule):
        base = gaussian_score(1.0, schedule)
        doubled = ScoreFunction(lambda x, t: 2.0 * base(x, t))
        x, t = np.array([0.4]), 0.6
        np.testing.assert_allclose(pf_velocity(doubled, x, t, schedule),
                                   2 * pf_velocity(base, x, t, schedule))


class TestSampler:
    def test_zero_score_returns_input(self, schedule):
        score = ScoreFunction(lambda x, t: np.zeros_like(np.asarray(x)))
        x0 = np.array([[1.5], [-2.0]])
        out = sample_second_order(score, schedule, x0, n_steps=50)
        np.testing.assert_array_equal(out, x0)

    def test_gaussian_moments_recovered(self, schedule):
        score = gaussian_score(1.0, schedule)
        out = sample_chains(score, schedule, n_chains=10_000, dim=1, seed=5,
                            n_steps=100)
        assert abs(out.mean()) < 0.03
        assert out.std() == pytest.approx(1.0, rel=0.05)

    def test_second_order_agrees_with_euler(self, schedule):
        # Euler is first order, so the reference runs at a step count where
        # its own bias is below the comparison tolerance
        score = gaussian_score(1.0, schedule)
        a = sample_chains(score, schedule, 5000, 1, seed=6, method="second_order")
        b = sample_chains(score, schedule, 5000, 1, seed=6, method="euler",
                          n_steps=4000)
        assert a.std() == pytest.approx(b.std(), rel=0.02)

    def test_deterministic_given_input(self, schedule):
        score = gaussian_score(1.0, schedule)
        x0 = np.array([[0.7], [-0.3]])
        out1 = sample_second_order(score, schedule, x0, n_steps=40)
        out2 = sample_second_order(score, schedule, x0, n_steps=40)
        np.testing.assert_array_equal(out1, out2)

    def test_closed_form_flow_tracked(self, schedule):
        # deterministic flow scales x by sqrt((s^2+sig(eps)^2)/(s^2+sig(1)^2))
        # from t = 1 down to the samplers' stop eps = 1e-3
        score = gaussian_score(1.0, schedule)
        x0 = np.array([[30.0]])
        eps = 1e-3
        out = sample_second_order(score, schedule, x0, n_steps=200)
        factor = np.sqrt((1.0 + schedule.sigma(eps) ** 2)
                         / (1.0 + schedule.sigma(1.0) ** 2))
        assert out[0, 0] == pytest.approx(30.0 * factor, rel=0.02)

    def test_second_order_convergence(self, schedule):
        # the max error against the closed-form flow falls about 4x per
        # halving of dt, as a second-order pass must; a first-order start
        # or predictor would give about 2x
        score = gaussian_score(1.0, schedule)
        x0 = np.array([[30.0], [-5.0], [1.0]])
        factor = np.sqrt((1.0 + schedule.sigma(1e-3) ** 2)
                         / (1.0 + schedule.sigma(1.0) ** 2))
        errs = [np.max(np.abs(sample_second_order(score, schedule, x0, n)
                              - factor * x0)) for n in (200, 400, 800)]
        assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5

    def test_unknown_method_is_refused(self, schedule):
        # a near-miss spelling ran the Euler reference without a word
        score = gaussian_score(1.0, schedule)
        with pytest.raises(ValueError, match="'second-order'"):
            sample_chains(score, schedule, 3, 1, seed=0, method="second-order")


def _reference_second_order(schedule, data_std, x_init, n_steps):
    """The reverse pass as written before the per-level reuse: every sweep
    forms 2 u_cur - u_prev again, and the score computes s^2 + sigma(t)^2
    at every call."""
    var = data_std * data_std
    score = ScoreFunction(lambda x, t: -np.asarray(x, dtype=np.float64)
                          / (var + schedule.sigma(t) ** 2))
    dt = (1.0 - 1e-3) / n_steps
    times = 1.0 - dt * np.arange(n_steps + 1)
    u_cur = np.zeros_like(x_init)
    v_cur = pf_velocity(score, x_init, times[0], schedule)
    u_prev, v_prev = dt * v_cur, v_cur
    for k in range(n_steps):
        v_next = pf_velocity(score, x_init + u_cur - dt * v_cur, times[k + 1],
                             schedule)
        for _ in range(3):
            u_next = 2.0 * u_cur - u_prev + 0.5 * dt * (v_prev - v_next)
            v_next = pf_velocity(score, x_init + u_next, times[k + 1], schedule)
        u_next = 2.0 * u_cur - u_prev + 0.5 * dt * (v_prev - v_next)
        u_prev, u_cur, v_prev = u_cur, u_next, v_cur
        v_cur = pf_velocity(score, x_init + u_cur, times[k + 1], schedule)
    return x_init + u_cur


class TestPerLevelReuse:
    @pytest.mark.parametrize("n_chains,dim,n_steps,sigmas,data_std", [
        (1, 1, 2, (0.01, 50.0), 1.0),
        (257, 3, 17, (0.01, 50.0), 0.7),
        (64, 2, 100, (1e-3, 5.0), 2.5),
        (500, 1, 40, (0.5, 80.0), 0.1),
    ])
    def test_second_order_matches_the_reference_bit_for_bit(
            self, n_chains, dim, n_steps, sigmas, data_std):
        schedule = VeSchedule(*sigmas)
        x0 = (schedule.sigma(1.0)
              * np.random.default_rng(n_chains).normal(size=(n_chains, dim)))
        got = sample_second_order(gaussian_score(data_std, schedule), schedule,
                                  x0, n_steps=n_steps)
        want = _reference_second_order(schedule, data_std, x0, n_steps)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_steps", [2, 7, 100])
    def test_every_velocity_goes_through_pf_velocity(self, schedule,
                                                     monkeypatch, n_steps):
        calls = []

        def counted(*args):
            calls.append(args[2])
            return pf_velocity(*args)

        monkeypatch.setattr(pfode, "pf_velocity", counted)
        pfode.sample_chains(gaussian_score(1.0, schedule), schedule, 5, 2,
                            seed=1, n_steps=n_steps)
        assert len(calls) == 5 * n_steps + 1

    def test_score_level_cache_follows_t(self, schedule):
        score = gaussian_score(1.5, schedule)
        x = np.array([[0.3, -2.0]])
        for t in (0.4, 0.4, 0.9, 0.4, np.float64(0.9), 0.0):
            want = -x / (1.5 * 1.5 + schedule.sigma(t) ** 2)
            assert score(x, t).tobytes() == want.tobytes()
        ts = np.array([[0.4], [0.9]])  # one time per row: never cached
        want = -x / (1.5 * 1.5 + schedule.sigma(ts) ** 2)
        assert score(x, ts).tobytes() == want.tobytes()
        assert score(x, 0.4).tobytes() == (
            -x / (1.5 * 1.5 + schedule.sigma(0.4) ** 2)).tobytes()

    @pytest.mark.parametrize("t", [-0.1, 1.1, np.float64(-0.1),
                                   np.array(1.1), np.array([0.5, -0.1]),
                                   np.array([[1.1], [0.2]])])
    def test_time_outside_the_unit_interval_raises(self, schedule, t):
        for f in (schedule.sigma, schedule.g):
            with pytest.raises(ValueError, match="outside"):
                f(t)

    @pytest.mark.parametrize("t", [float("nan"), np.array([np.nan, 0.5])])
    def test_nan_time_passes_the_range_check(self, schedule, t):
        assert np.all(np.isnan(schedule.sigma(t)) == np.isnan(t))
