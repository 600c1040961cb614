import numpy as np
import pytest

from otgen.pfode import (ScoreFunction, VeSchedule, gaussian_score,
                         pf_velocity, sample_chains, sample_second_order)


@pytest.fixture
def schedule():
    return VeSchedule(sigma_min=0.01, sigma_max=50.0, t_final=1.0)


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
        # deterministic flow scales x by sqrt((s^2+sig(eps)^2)/(s^2+sig(tf)^2))
        score = gaussian_score(1.0, schedule)
        x0 = np.array([[30.0]])
        eps = 1e-3
        out = sample_second_order(score, schedule, x0, n_steps=200, eps=eps)
        factor = np.sqrt((1.0 + schedule.sigma(eps) ** 2)
                         / (1.0 + schedule.sigma(1.0) ** 2))
        assert out[0, 0] == pytest.approx(30.0 * factor, rel=0.02)

    def test_eps_validation(self, schedule):
        score = gaussian_score(1.0, schedule)
        with pytest.raises(ValueError):
            sample_second_order(score, schedule, np.zeros((1, 1)), eps=2.0)
