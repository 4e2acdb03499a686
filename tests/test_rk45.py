"""Step control, direction handling, and renormalization of the
hand-rolled Cash-Karp integrator of u'' = (g1/x^2 + g2 x^2 - E) u."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calogero import rk45
from calogero.errors import ConvergenceError, DomainError
from calogero.rk45 import integrate


class TestBasics:
    def test_exponential(self):
        # E = -1: u = u' = e^(x - 1) from x = 1
        res = integrate(0.0, 0.0, -1.0, 1.0, (1.0, 1.0), 3.0, rel_tol=1e-11)
        assert res.y[0] == pytest.approx(math.exp(2.0), rel=1e-9)
        assert res.x == 3.0
        assert res.log_scale == 0.0

    def test_backward(self):
        e2 = math.exp(2.0)
        res = integrate(0.0, 0.0, -1.0, 3.0, (e2, e2), 1.0, rel_tol=1e-11)
        assert res.y[0] == pytest.approx(1.0, rel=1e-9)

    def test_harmonic_loop(self):
        # E = 1: u = cos(x - 1) from x = 1, one full period
        res = integrate(0.0, 0.0, 1.0, 1.0, (1.0, 0.0), 1.0 + 2.0 * math.pi, rel_tol=1e-12)
        assert res.y[0] == pytest.approx(1.0, rel=1e-8)
        assert abs(res.y[1]) < 1e-8

    def test_polynomial_solution(self):
        # g1 = g2 = E = 0: u'' = 0, so u = 1 + 2 (x - 1) is exact for every
        # stage and u' is a constant the update never moves
        res = integrate(0.0, 0.0, 0.0, 1.0, (1.0, 2.0), 4.0, rel_tol=1e-9)
        assert res.y[0] == pytest.approx(7.0, rel=1e-12)
        assert res.y[1] == 2.0

    def test_zero_span(self):
        res = integrate(0.0, 0.0, -1.0, 1.0, (5.0, 2.0), 1.0)
        assert res.y == (5.0, 2.0)
        assert res.n_steps == 0

    def test_segmenting_consistent(self):
        # a barrier and a well: composition across a split at 1.7
        g1, g2, E = 0.75, 1.0, 3.0
        one = integrate(g1, g2, E, 0.3, (1.0, 0.5), 4.0, rel_tol=1e-11)
        mid = integrate(g1, g2, E, 0.3, (1.0, 0.5), 1.7, rel_tol=1e-11)
        two = integrate(g1, g2, E, 1.7, mid.y, 4.0, rel_tol=1e-11)
        for a, b in zip(one.y, two.y):
            assert a == pytest.approx(b, rel=1e-8, abs=1e-10)


class TestSignChanges:
    @pytest.mark.parametrize("omega", [0.7, 3.0, 11.0])
    @pytest.mark.parametrize("backward", [False, True])
    def test_counts_the_zeros_of_a_sine(self, omega, backward):
        # E = omega^2: u = sin(omega x) on [0.1, 9.9], one sign change per
        # zero k pi / omega
        ends = (0.1, 9.9)
        x0, x1 = ends[::-1] if backward else ends
        y0 = (math.sin(omega * x0), omega * math.cos(omega * x0))
        res = integrate(0.0, 0.0, omega * omega, x0, y0, x1, rel_tol=1e-9)
        zeros = sum(1 for k in range(1, 100) if 0.1 < k * math.pi / omega < 9.9)
        assert res.sign_changes == zeros

    def test_growth_without_zeros_counts_none(self):
        res = integrate(0.0, 0.0, -1.0, 1.0, (-1.0, -1.0), 601.0, rel_tol=1e-9)
        assert res.log_scale > 0.0
        assert res.sign_changes == 0

    def test_renormalization_keeps_signs(self, monkeypatch):
        # E = 9: u = sin(3 (x - 1)) from x = 1
        want = integrate(0.0, 0.0, 9.0, 1.0, (0.0, 3.0), 11.0, rel_tol=1e-9).sign_changes
        monkeypatch.setattr(rk45, "_RENORM_THRESHOLD", 0.5)
        res = integrate(0.0, 0.0, 9.0, 1.0, (0.0, 3.0), 11.0, rel_tol=1e-9)
        assert res.log_scale != 0.0
        assert res.sign_changes == want == 9  # zeros at 1 + k pi / 3 in (1, 11]

    def test_zero_span_counts_none(self):
        assert integrate(0.0, 0.0, 1.0, 1.0, (-1.0, 2.0), 1.0).sign_changes == 0


class TestSquareIntegral:
    @pytest.mark.parametrize("omega", [0.7, 3.0])
    @pytest.mark.parametrize("backward", [False, True])
    def test_integral_of_sine_squared(self, omega, backward):
        ends = (0.3, 5.1)
        x0, x1 = ends[::-1] if backward else ends
        res = integrate(0.0, 0.0, omega * omega, x0,
                        (math.sin(omega * x0), omega * math.cos(omega * x0)), x1,
                        rel_tol=1e-10)
        primitive = lambda x: 0.5 * x - math.sin(2.0 * omega * x) / (4.0 * omega)
        # Simpson on the Hermite cubic: about 1e-8 at this tolerance
        assert res.u2_integral == pytest.approx(primitive(5.1) - primitive(0.3), rel=1e-7)

    def test_renormalization_keeps_the_ratio_to_the_end_state(self, monkeypatch):
        # the integral is kept in the units of the returned state, so its
        # ratio to r^2 = u^2 + u'^2 does not depend on the rescalings;
        # u'' = (1 + 0.5 x^2) u is g2 = 0.5, E = -1
        def ratio():
            res = integrate(0.0, 0.5, -1.0, 0.5, (1.0, -0.5), 6.5, rel_tol=1e-10)
            return res.u2_integral / (res.y[0] ** 2 + res.y[1] ** 2), res.log_scale

        want, no_scale = ratio()
        monkeypatch.setattr(rk45, "_RENORM_THRESHOLD", 0.5)
        got, log_scale = ratio()
        assert no_scale == 0.0 and log_scale > 0.0
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_zero_span_integrates_nothing(self):
        assert integrate(0.0, 0.0, 1.0, 1.0, (3.0, 2.0), 1.0).u2_integral == 0.0


class TestRenormalization:
    def test_exponential_blowup(self):
        # u = e^(x - 1) through x = 601 cannot live in a float; the log ledger can
        res = integrate(0.0, 0.0, -1.0, 1.0, (1.0, 1.0), 601.0, rel_tol=1e-11)
        assert max(abs(v) for v in res.y) <= 1e100
        assert res.log_scale > 0.0
        total = math.log(res.y[0]) + res.log_scale
        assert total == pytest.approx(600.0, rel=1e-9)

    def test_scaled_state_times_ledger_is_the_solution(self):
        res = integrate(0.0, 0.0, -1.0, 1.0, (1.0, 1.0), 51.0, rel_tol=1e-11)
        assert res.y[0] * math.exp(res.log_scale) == pytest.approx(math.exp(50.0), rel=1e-8)

    def test_threshold_sets_the_scale(self, monkeypatch):
        # g1 = 90: u = x^10, whose u'/u = 10/x is a ratio of the components
        monkeypatch.setattr(rk45, "_RENORM_THRESHOLD", 1e10)
        res = integrate(90.0, 0.0, 0.0, 1.0, (1.0, 10.0), 40.0, rel_tol=1e-11)
        assert max(abs(v) for v in res.y) <= 1e10
        assert res.log_scale > 0.0
        assert math.log(res.y[0]) + res.log_scale == pytest.approx(10.0 * math.log(40.0),
                                                                   rel=1e-9)
        # one common factor for both components keeps their ratio
        assert res.y[1] / res.y[0] == pytest.approx(0.25, rel=1e-9)


class TestGuards:
    def test_max_steps(self, monkeypatch):
        monkeypatch.setattr(rk45, "_MAX_STEPS", 3)
        with pytest.raises(ConvergenceError, match="steps exhausted"):
            integrate(0.0, 0.0, -1.0, 1.0, (1.0, 1.0), 11.0)

    @pytest.mark.parametrize("x0,x1,after", [(1.0, 2.0, "1.00781"), (5.0, 1.0, "4.96875")])
    def test_first_step_is_a_128th_of_the_span(self, monkeypatch, x0, x1, after):
        # one attempt on a smooth solution is accepted and ends span/128 on
        monkeypatch.setattr(rk45, "_MAX_STEPS", 1)
        with pytest.raises(ConvergenceError, match=f"at x = {after} "):
            integrate(0.0, 0.0, -1.0, x0, (1.0, 1.0), x1, rel_tol=1e-8)

    def test_rel_tol_window(self):
        with pytest.raises(DomainError):
            integrate(0.0, 0.0, -1.0, 1.0, (1.0, 1.0), 2.0, rel_tol=1e-15)

    def test_nan_rel_tol(self):
        # NaN passes neither bound of the window: refused, not read as an
        # error norm of 0 that accepts every step
        with pytest.raises(DomainError, match="rel_tol"):
            integrate(0.0, 0.0, 1.0, 1.0, (1.0, 0.0), 11.0, rel_tol=math.nan)

    @pytest.mark.parametrize("x0,x1", [(1.0, math.nan), (math.nan, 1.0), (0.0, 1.0),
                                       (1.0, -1.0), (1.0, math.inf)])
    def test_endpoints_lie_on_the_half_line(self, x0, x1):
        with pytest.raises(DomainError, match="endpoints"):
            integrate(0.0, 0.0, -1.0, x0, (1.0, 1.0), x1)

    @pytest.mark.parametrize("y0", [(1.0,), (1.0, 0.0, 0.0)])
    @pytest.mark.parametrize("x1", [1.0, 2.0])
    def test_state_must_have_two_components(self, y0, x1):
        # refused before the zero-span shortcut as well as on a real span
        with pytest.raises(DomainError, match="2 components"):
            integrate(0.0, 0.0, -1.0, 1.0, y0, x1)


class TestAccuracyProperties:
    @given(a=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_exponential_flow(self, a):
        # E = -a^2: u = e^(a (x - 1)), u' = a u
        res = integrate(0.0, 0.0, -a * a, 1.0, (1.0, a), 2.0, rel_tol=1e-11)
        assert res.y[0] * math.exp(res.log_scale) == pytest.approx(
            math.exp(a), rel=1e-8
        )

    @given(w=st.floats(0.3, 4.0), span=st.floats(1.0, 6.0))
    @settings(max_examples=30, deadline=None)
    def test_oscillator_energy(self, w, span):
        res = integrate(0.0, 0.0, w * w, 1.0, (1.0, 0.0), 1.0 + span, rel_tol=1e-11)
        energy = res.y[1] ** 2 + w * w * res.y[0] ** 2
        assert energy == pytest.approx(w * w, rel=1e-7)
