"""Step control, direction handling, and renormalization of the
hand-rolled Cash-Karp integrator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calogero import rk45
from calogero.errors import ConvergenceError, DomainError
from calogero.rk45 import integrate


class TestBasics:
    def test_exponential(self):
        res = integrate(lambda x, y: (y[0], y[1]), 0.0, (1.0, 1.0), 2.0, rel_tol=1e-11)
        assert res.y[0] == pytest.approx(math.exp(2.0), rel=1e-9)
        assert res.x == 2.0
        assert res.log_scale == 0.0

    def test_backward(self):
        e2 = math.exp(2.0)
        res = integrate(lambda x, y: (y[0], y[1]), 2.0, (e2, e2), 0.0, rel_tol=1e-11)
        assert res.y[0] == pytest.approx(1.0, rel=1e-9)

    def test_harmonic_loop(self):
        f = lambda x, y: (y[1], -y[0])
        res = integrate(f, 0.0, (1.0, 0.0), 2.0 * math.pi, rel_tol=1e-12)
        assert res.y[0] == pytest.approx(1.0, rel=1e-8)
        assert abs(res.y[1]) < 1e-8

    def test_nonautonomous(self):
        # y' = 2x  ->  y = x^2, exact for the pair so tolerance is slack;
        # the second component is a constant passenger
        res = integrate(lambda x, y: (2.0 * x, 0.0), 0.0, (0.0, 1.0), 3.0, rel_tol=1e-9)
        assert res.y[0] == pytest.approx(9.0, rel=1e-12)

    def test_zero_span(self):
        res = integrate(lambda x, y: (y[0], y[1]), 1.0, (5.0, 2.0), 1.0)
        assert res.y == (5.0, 2.0)
        assert res.n_steps == 0

    def test_segmenting_consistent(self):
        f = lambda x, y: (y[1], -x * y[0])
        one = integrate(f, 0.0, (1.0, 0.5), 4.0, rel_tol=1e-11)
        mid = integrate(f, 0.0, (1.0, 0.5), 1.7, rel_tol=1e-11)
        two = integrate(f, 1.7, mid.y, 4.0, rel_tol=1e-11)
        for a, b in zip(one.y, two.y):
            assert a == pytest.approx(b, rel=1e-8, abs=1e-10)


class TestSignChanges:
    @pytest.mark.parametrize("omega", [0.7, 3.0, 11.0])
    @pytest.mark.parametrize("backward", [False, True])
    def test_counts_the_zeros_of_a_sine(self, omega, backward):
        # u = sin(omega x) on [0.1, 9.9]: one sign change per zero k pi / omega
        f = lambda x, y: (y[1], -omega * omega * y[0])
        ends = (0.1, 9.9)
        x0, x1 = ends[::-1] if backward else ends
        y0 = (math.sin(omega * x0), omega * math.cos(omega * x0))
        res = integrate(f, x0, y0, x1, rel_tol=1e-9)
        zeros = sum(1 for k in range(1, 100) if 0.1 < k * math.pi / omega < 9.9)
        assert res.sign_changes == zeros

    def test_growth_without_zeros_counts_none(self):
        res = integrate(lambda x, y: (y[1], y[0]), 0.0, (-1.0, -1.0), 600.0, rel_tol=1e-9)
        assert res.log_scale > 0.0
        assert res.sign_changes == 0

    def test_renormalization_keeps_signs(self, monkeypatch):
        f = lambda x, y: (y[1], -9.0 * y[0])
        want = integrate(f, 0.0, (0.0, 3.0), 10.0, rel_tol=1e-9).sign_changes
        monkeypatch.setattr(rk45, "_RENORM_THRESHOLD", 0.5)
        res = integrate(f, 0.0, (0.0, 3.0), 10.0, rel_tol=1e-9)
        assert res.log_scale != 0.0
        assert res.sign_changes == want == 9  # zeros at k pi / 3 in (0, 10]

    def test_zero_span_counts_none(self):
        assert integrate(lambda x, y: (y[1], -y[0]), 1.0, (-1.0, 2.0), 1.0).sign_changes == 0


class TestSquareIntegral:
    @pytest.mark.parametrize("omega", [0.7, 3.0])
    @pytest.mark.parametrize("backward", [False, True])
    def test_integral_of_sine_squared(self, omega, backward):
        f = lambda x, y: (y[1], -omega * omega * y[0])
        ends = (0.3, 5.1)
        x0, x1 = ends[::-1] if backward else ends
        res = integrate(f, x0, (math.sin(omega * x0), omega * math.cos(omega * x0)), x1,
                        rel_tol=1e-10)
        primitive = lambda x: 0.5 * x - math.sin(2.0 * omega * x) / (4.0 * omega)
        # Simpson on the Hermite cubic: about 1e-8 at this tolerance
        assert res.u2_integral == pytest.approx(primitive(5.1) - primitive(0.3), rel=1e-7)

    def test_renormalization_keeps_the_ratio_to_the_end_state(self, monkeypatch):
        # the integral is kept in the units of the returned state, so its
        # ratio to r^2 = u^2 + u'^2 does not depend on the rescalings
        f = lambda x, y: (y[1], (1.0 + 0.5 * x * x) * y[0])

        def ratio():
            res = integrate(f, 0.0, (1.0, -0.5), 6.0, rel_tol=1e-10)
            return res.u2_integral / (res.y[0] ** 2 + res.y[1] ** 2), res.log_scale

        want, no_scale = ratio()
        monkeypatch.setattr(rk45, "_RENORM_THRESHOLD", 0.5)
        got, log_scale = ratio()
        assert no_scale == 0.0 and log_scale > 0.0
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_zero_span_integrates_nothing(self):
        assert integrate(lambda x, y: (y[1], -y[0]), 1.0, (3.0, 2.0), 1.0).u2_integral == 0.0


class TestRenormalization:
    def test_exponential_blowup(self):
        # y = e^x through x = 600 cannot live in a float; the log ledger can
        res = integrate(lambda x, y: (y[0], y[1]), 0.0, (1.0, 1.0), 600.0, rel_tol=1e-11)
        assert max(abs(v) for v in res.y) <= 1e100
        assert res.log_scale > 0.0
        total = math.log(res.y[0]) + res.log_scale
        assert total == pytest.approx(600.0, rel=1e-9)

    def test_scaled_state_times_ledger_is_the_solution(self):
        res = integrate(lambda x, y: (y[0], y[1]), 0.0, (1.0, 1.0), 50.0, rel_tol=1e-11)
        assert res.y[0] * math.exp(res.log_scale) == pytest.approx(math.exp(50.0), rel=1e-8)

    def test_threshold_sets_the_scale(self, monkeypatch):
        monkeypatch.setattr(rk45, "_RENORM_THRESHOLD", 1e10)
        res = integrate(lambda x, y: (y[0], 2.0 * y[1]), 0.0, (1.0, 1.0), 40.0, rel_tol=1e-11)
        assert max(abs(v) for v in res.y) <= 1e10
        assert res.log_scale > 0.0
        # one common factor for every component keeps their ratio
        assert math.log(res.y[1] / res.y[0]) == pytest.approx(40.0, rel=1e-9)


class TestGuards:
    def test_max_steps(self, monkeypatch):
        monkeypatch.setattr(rk45, "_MAX_STEPS", 3)
        with pytest.raises(ConvergenceError, match="steps exhausted"):
            integrate(lambda x, y: (y[0], y[1]), 0.0, (1.0, 1.0), 10.0)

    @pytest.mark.parametrize("x0,x1", [(0.0, 1.0), (3.0, -1.0)])
    def test_first_step_is_a_128th_of_the_span(self, x0, x1):
        seen = []

        def f(x, y):
            seen.append(x)
            return (y[0], y[1])

        integrate(f, x0, (1.0, 1.0), x1, rel_tol=1e-8)
        # the six stages of the first attempt stay within span/128 of x0
        assert max(abs(x - x0) for x in seen[:6]) <= abs(x1 - x0) / 128.0
        assert max(abs(x - x0) for x in seen[:6]) > 0.5 * abs(x1 - x0) / 128.0

    def test_rel_tol_window(self):
        with pytest.raises(DomainError):
            integrate(lambda x, y: (y[0], y[1]), 0.0, (1.0, 1.0), 1.0, rel_tol=1e-15)

    def test_nan_endpoint(self):
        with pytest.raises(DomainError):
            integrate(lambda x, y: (y[0], y[1]), 0.0, (1.0, 1.0), math.nan)

    @pytest.mark.parametrize("y0", [(1.0,), (1.0, 0.0, 0.0)])
    @pytest.mark.parametrize("x1", [1.0, 0.0])
    def test_state_must_have_two_components(self, y0, x1):
        # refused before the zero-span shortcut as well as on a real span
        with pytest.raises(DomainError, match="2 components"):
            integrate(lambda x, y: y, 0.0, y0, x1)


class TestAccuracyProperties:
    @given(a=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_linear_flow(self, a):
        res = integrate(lambda x, y: (a * y[0], a * y[1]), 0.0, (1.0, 1.0), 1.0, rel_tol=1e-11)
        assert res.y[0] * math.exp(res.log_scale) == pytest.approx(
            math.exp(a), rel=1e-8
        )

    @given(w=st.floats(0.3, 4.0), span=st.floats(1.0, 6.0))
    @settings(max_examples=30, deadline=None)
    def test_oscillator_energy(self, w, span):
        f = lambda x, y: (y[1], -w * w * y[0])
        res = integrate(f, 0.0, (1.0, 0.0), span, rel_tol=1e-11)
        energy = res.y[1] ** 2 + w * w * res.y[0] ** 2
        assert energy == pytest.approx(w * w, rel=1e-7)
