"""The oracle's Taylor-series propagator of (u, u') and (u_E, u'_E).

Checked against scipy's DOP853 (a test-only reference), against solutions
in closed form, against the closed-form ladder states and sines for its
node count, against an independent
Gauss-Legendre integral of u^2 for the Wronskian it carries, and for its
typed refusals.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from calogero import oracle, taylor
from calogero.errors import ConvergenceError, DomainError
from calogero.params import reduce
from calogero.spectral import extension_for
from calogero.taylor import integrate


def _dop853(g1, g2, E, x0, y0, ye0, x1):
    """(u, u', u_E, u'_E) at x1 from scipy's DOP853 at rtol 2.3e-14."""
    from scipy.integrate import solve_ivp

    def f(x, y):
        q = g1 / (x * x) + g2 * x * x - E
        return [y[1], q * y[0], y[3], q * y[2] - y[0]]

    # scipy's own first-step guess can stall on a zero component
    sol = solve_ivp(f, (x0, x1), [*y0, *ye0], method="DOP853", rtol=2.3e-14, atol=1e-30,
                    first_step=1e-3 * abs(x1 - x0))
    assert sol.success
    return sol.y[:, -1]


def _potential(g1, g2, x):
    return g1 / (x * x) + g2 * x * x


@st.composite
def _spans(draw):
    """(g1, g2, E, x0, y0, ye0, x1) on a span where E lies above the
    potential everywhere (oscillatory) or below it (forbidden)."""
    kappa = draw(st.floats(0.0, 3.0))
    g1, g2 = kappa * kappa - 0.25, draw(st.floats(0.25, 4.0))
    a = draw(st.floats(0.05, 4.0))
    b = a + draw(st.floats(0.1, 3.0))
    vs = [_potential(g1, g2, a + (b - a) * j / 200) for j in range(201)]
    margin = draw(st.floats(0.5, 30.0))
    E = max(vs) + margin if draw(st.booleans()) else min(vs) - margin
    x0, x1 = (a, b) if draw(st.booleans()) else (b, a)
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    y0 = (math.cos(angle), math.sin(angle) * math.sqrt(abs(E) + 1.0))
    ye0 = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    return g1, g2, E, x0, y0, ye0, x1


class TestAgainstDOP853:
    @given(case=_spans())
    @settings(max_examples=40, deadline=None)
    def test_state_and_its_energy_derivative(self, case):
        # both pairs relative to their own size at x1; DOP853 itself carries
        # a few 1e-13 over these spans, the propagator about 1e-15
        res = integrate(*case, rel_tol=1e-16)
        want = _dop853(*case)
        got = np.array([*res.y, *res.ye]) * math.exp(res.log_scale)
        for part in (slice(0, 2), slice(2, 4)):
            assert np.max(np.abs(got[part] - want[part])) <= 1e-11 * np.max(np.abs(want[part]))
        assert res.n_rejected == 0

    @pytest.mark.parametrize("tol, bound", [(1e-10, 1e-8), (1e-16, 1e-11)])
    def test_scan_tolerance_truncates_the_series(self, tol, bound):
        # kappa = 1/2 from 0.05 to 6 at e = 17.45, through the well
        case = (0.0, 1.0, 17.45, 0.05, (0.05, 1.0), (0.0, 0.0), 6.0)
        res = integrate(*case, rel_tol=tol)
        want = _dop853(*case)
        got = np.array([*res.y, *res.ye]) * math.exp(res.log_scale)
        assert np.max(np.abs(got[:2] - want[:2])) <= bound * np.max(np.abs(want[:2]))


class TestClosedForms:
    # solutions known in closed form, in both directions and across splits

    def test_exponential(self):
        # E = -1: u = u' = e^(x - 1) from x = 1
        res = integrate(0.0, 0.0, -1.0, 1.0, (1.0, 1.0), (0.0, 0.0), 3.0)
        assert res.y[0] == pytest.approx(math.exp(2.0), rel=1e-13)
        assert (res.x, res.log_scale) == (3.0, 0.0)

    def test_backward(self):
        e2 = math.exp(2.0)
        res = integrate(0.0, 0.0, -1.0, 3.0, (e2, e2), (0.0, 0.0), 1.0)
        assert res.x == 1.0
        assert res.y[0] == pytest.approx(1.0, rel=1e-13)

    def test_harmonic_loop(self):
        # E = 1: u = cos(x - 1) from x = 1, one full period
        res = integrate(0.0, 0.0, 1.0, 1.0, (1.0, 0.0), (0.0, 0.0), 1.0 + 2.0 * math.pi)
        assert res.y[0] == pytest.approx(1.0, rel=1e-13)
        assert abs(res.y[1]) < 1e-13

    def test_polynomial_solution(self):
        # g1 = g2 = E = 0: u = 1 + 2 (x - 1), and u_E'' = -u from (0, 0)
        # gives u_E = -(t^2 / 2 + t^3 / 3), t = x - 1; both series end
        res = integrate(0.0, 0.0, 0.0, 1.0, (1.0, 2.0), (0.0, 0.0), 4.0)
        assert res.y == pytest.approx((7.0, 2.0), rel=1e-14)
        assert res.ye == pytest.approx((-13.5, -12.0), rel=1e-14)

    def test_segmenting_consistent(self):
        # a barrier and a well: composition across a split at 1.7
        g1, g2, E = 0.75, 1.0, 3.0
        one = integrate(g1, g2, E, 0.3, (1.0, 0.5), (0.2, -0.1), 4.0)
        mid = integrate(g1, g2, E, 0.3, (1.0, 0.5), (0.2, -0.1), 1.7)
        two = integrate(g1, g2, E, 1.7, mid.y, mid.ye, 4.0)
        for a, b in zip((*one.y, *one.ye), (*two.y, *two.ye)):
            assert a == pytest.approx(b, rel=1e-11, abs=1e-12)

    def test_scaled_state_times_ledger_is_the_solution(self):
        res = integrate(0.0, 0.0, -1.0, 1.0, (1.0, 1.0), (0.0, 0.0), 51.0)
        assert res.y[0] * math.exp(res.log_scale) == pytest.approx(math.exp(50.0), rel=1e-12)

    def test_threshold_sets_the_scale(self, monkeypatch):
        # g1 = 90: u = x^10, whose u'/u = 10/x is a ratio of the components
        monkeypatch.setattr(taylor, "_RENORM_THRESHOLD", 1e10)
        res = integrate(90.0, 0.0, 0.0, 1.0, (1.0, 10.0), (0.0, 0.0), 40.0)
        assert max(abs(v) for v in res.y) <= 1e10
        assert res.log_scale > 0.0
        assert math.log(res.y[0]) + res.log_scale == pytest.approx(10.0 * math.log(40.0),
                                                                   rel=1e-13)
        # one common factor for both components keeps their ratio
        assert res.y[1] / res.y[0] == pytest.approx(0.25, rel=1e-13)

    @given(a=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_exponential_flow(self, a):
        # E = -a^2: u = e^(a (x - 1)), u' = a u
        res = integrate(0.0, 0.0, -a * a, 1.0, (1.0, a), (0.0, 0.0), 2.0)
        assert res.y[0] * math.exp(res.log_scale) == pytest.approx(math.exp(a), rel=1e-13)

    @given(w=st.floats(0.3, 4.0), span=st.floats(1.0, 6.0))
    @settings(max_examples=30, deadline=None)
    def test_oscillator_energy(self, w, span):
        res = integrate(0.0, 0.0, w * w, 1.0, (1.0, 0.0), (0.0, 0.0), 1.0 + span)
        energy = res.y[1] ** 2 + w * w * res.y[0] ** 2
        assert energy == pytest.approx(w * w, rel=1e-13)


def _laguerre(kappa, n, x):
    """(u, u') of ladder level n at ups = 1, u = rho^(1/4 + kappa/2)
    e^(-rho/2) L_n^kappa(rho), rho = x^2, unnormalized."""
    from scipy.special import eval_genlaguerre

    rho, a = x * x, 0.25 + 0.5 * kappa
    lag = eval_genlaguerre(n, kappa, rho)
    dlag = -eval_genlaguerre(n - 1, kappa + 1.0, rho) if n else 0.0
    u = rho ** a * math.exp(-0.5 * rho) * lag
    return u, rho ** a * math.exp(-0.5 * rho) * ((a / rho - 0.5) * lag + dlag) * 2.0 * x


class TestNodeCount:
    # at most one zero per step (Sturm), so the sign changes are the nodes

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.5, 3.0])
    @pytest.mark.parametrize("n", [0, 1, 5, 12, 30])
    @pytest.mark.parametrize("outward", [True, False])
    def test_ladder_states(self, kappa, n, outward):
        from scipy.special import roots_genlaguerre

        E = 2.0 * (2 * n + 1 + kappa)
        a, b = 0.05, math.sqrt(0.5 * E + math.sqrt(0.25 * E * E - (kappa * kappa - 0.25))) + 0.5
        nodes = sum(a * a < r < b * b for r in roots_genlaguerre(n, kappa)[0]) if n else 0
        x0, x1 = (a, b) if outward else (b, a)
        res = integrate(kappa * kappa - 0.25, 1.0, E, x0, _laguerre(kappa, n, x0), (0.0, 0.0), x1)
        assert res.sign_changes == nodes
        if n:
            assert nodes == n  # every node lies inside the span

    @pytest.mark.parametrize("omega", [0.7, 3.0, 11.0])
    @pytest.mark.parametrize("backward", [False, True])
    def test_counts_the_zeros_of_a_sine(self, omega, backward):
        # E = omega^2: u = sin(omega x) on [0.1, 9.9], one sign change per
        # zero k pi / omega
        ends = (0.1, 9.9)
        x0, x1 = ends[::-1] if backward else ends
        y0 = (math.sin(omega * x0), omega * math.cos(omega * x0))
        res = integrate(0.0, 0.0, omega * omega, x0, y0, (0.0, 0.0), x1)
        zeros = sum(1 for k in range(1, 100) if 0.1 < k * math.pi / omega < 9.9)
        assert res.sign_changes == zeros

    @given(omega=st.floats(0.3, 12.0), phase=st.floats(0.0, 2.0 * math.pi),
           span=st.floats(-0.99, 9.0).filter(lambda s: abs(s) > 1e-3),
           threshold=st.sampled_from([1e100, 1e-1]))
    @settings(max_examples=40, deadline=None)
    def test_counts_the_zeros_of_a_shifted_sine(self, omega, phase, span, threshold):
        # E = omega^2: u = sin(omega (x - 1) + phase) from x = 1, with or
        # without renormalizing at every step; zeros within 1e-9 of an end
        # are left out, where the count at either side is a matter of rounding
        ends = sorted((phase, phase + omega * span))
        ks = range(math.floor(ends[0] / math.pi) - 1, math.ceil(ends[1] / math.pi) + 2)
        assume(all(abs(k * math.pi - end) > 1e-9 * (1.0 + abs(end)) for k in ks for end in ends))
        zeros = sum(1 for k in ks if ends[0] < k * math.pi < ends[1])
        y0 = (math.sin(phase), omega * math.cos(phase))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(taylor, "_RENORM_THRESHOLD", threshold)
            res = integrate(0.0, 0.0, omega * omega, 1.0, y0, (0.0, 0.0), 1.0 + span)
        assert res.sign_changes == zeros

    @pytest.mark.parametrize("x1, zeros", [(3.0, 1), (1.5, 0)])
    def test_a_step_that_lands_on_a_zero_counts_it_once(self, x1, zeros):
        # u = x - 3/2 from x = 1: the first step, x / 2 long, ends on its zero
        # at u = 0 exactly; the crossing is counted when u turns positive, and
        # a zero at the end of the span is no sign change
        first = integrate(0.0, 0.0, 0.0, 1.0, (-0.5, 1.0), (0.0, 0.0), 1.5)
        assert (first.n_steps, first.y[0]) == (1, 0.0)
        res = integrate(0.0, 0.0, 0.0, 1.0, (-0.5, 1.0), (0.0, 0.0), x1)
        assert res.sign_changes == zeros

    def test_zero_span_counts_none(self):
        res = integrate(0.0, 1.0, 3.0, 1.0, (-1.0, 2.0), (0.5, 0.5), 1.0)
        assert (res.sign_changes, res.n_steps, res.y, res.ye) == (0, 0, (-1.0, 2.0), (0.5, 0.5))

    def test_renormalization_keeps_signs(self, monkeypatch):
        # E = 9: u = sin(3 (x - 1)) from x = 1, zeros at 1 + k pi / 3 in (1, 11]
        def run():
            return integrate(0.0, 0.0, 9.0, 1.0, (0.0, 3.0), (0.0, 0.0), 11.0)

        want = run()
        monkeypatch.setattr(taylor, "_RENORM_THRESHOLD", 0.5)
        got = run()
        assert want.log_scale == 0.0 < got.log_scale
        assert got.sign_changes == want.sign_changes == 9

    def test_growth_without_zeros_counts_none(self):
        # E = -1: u = -e^(x - 1) through x = 601 lives in the log ledger
        res = integrate(0.0, 0.0, -1.0, 1.0, (-1.0, -1.0), (0.0, 0.0), 601.0)
        assert res.sign_changes == 0
        assert max(abs(v) for v in res.y) <= taylor._RENORM_THRESHOLD < math.exp(res.log_scale)
        assert math.log(-res.y[0]) + res.log_scale == pytest.approx(600.0, rel=1e-12)


def _regular(kappa, e, x):
    """(u, u') of the solution regular at 0, x^(kappa + 1/2) e^(-x^2/2)
    M(alpha, 1 + kappa, x^2), alpha = (1 + kappa)/2 - e/4, at ups = 1
    (mpmath at 30 digits)."""
    import mpmath as mp

    with mp.workdps(30):
        k, z = mp.mpf(kappa), mp.mpf(x)
        alpha, beta = (1 + k) / 2 - mp.mpf(e) / 4, 1 + k
        m0 = mp.hyp1f1(alpha, beta, z * z)
        m1 = alpha / beta * mp.hyp1f1(alpha + 1, beta + 1, z * z)
        s = k + mp.mpf(1) / 2
        u = z ** s * mp.exp(-z * z / 2) * m0
        du = z ** s * mp.exp(-z * z / 2) * ((s / z - z) * m0 + 2 * z * m1)
        return float(u), float(du)


class TestWronskian:
    # W = u_E u' - u u'_E grows by u^2 (the Lagrange identity), which is how
    # the oracle reads dTheta/dE off the end state

    @pytest.mark.parametrize("kappa, e", [(0.5, 3.0), (0.5, 8.3), (0.0, -2.5), (1.7, 21.0),
                                          (2.6, 40.0)])
    def test_growth_is_the_integral_of_u_squared(self, kappa, e):
        a, b = 0.2, 3.5
        res = integrate(kappa * kappa - 0.25, 1.0, e, a, _regular(kappa, e, a), (0.0, 0.0), b)
        (u, v), (ue, ve) = res.y, res.ye
        got = (ue * v - u * ve) * math.exp(2.0 * res.log_scale)
        t, w = np.polynomial.legendre.leggauss(40)
        panels = 8
        h = (b - a) / panels
        want = sum(0.5 * h * wi * _regular(kappa, e, a + h * (j + 0.5 + 0.5 * ti))[0] ** 2
                   for j in range(panels) for ti, wi in zip(t, w))
        assert got == pytest.approx(want, rel=1e-13)

    def test_renormalization_keeps_the_ratio_to_the_end_state(self, monkeypatch):
        # one common factor for all four components: W / r^2 does not move
        def ratio():
            res = integrate(0.0, 0.5, -1.0, 0.5, (1.0, -0.5), (0.2, 0.1), 6.5)
            (u, v), (ue, ve) = res.y, res.ye
            return (ue * v - u * ve) / (u * u + v * v), res.log_scale

        want, no_scale = ratio()
        monkeypatch.setattr(taylor, "_RENORM_THRESHOLD", 0.5)
        got, log_scale = ratio()
        assert no_scale == 0.0 and log_scale > 0.0
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestRefusals:
    @pytest.mark.parametrize("x0, x1", [(1.0, math.nan), (math.nan, 1.0), (0.0, 1.0),
                                        (1.0, -1.0), (1.0, math.inf)])
    def test_endpoints_lie_on_the_half_line(self, x0, x1):
        with pytest.raises(DomainError, match="endpoints"):
            integrate(0.0, 1.0, 1.0, x0, (1.0, 0.0), (0.0, 0.0), x1)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, 0.1, math.nan])
    def test_rel_tol_window(self, tol):
        with pytest.raises(DomainError, match="rel_tol"):
            integrate(0.0, 1.0, 1.0, 1.0, (1.0, 0.0), (0.0, 0.0), 2.0, tol)

    def test_states_must_have_two_components(self):
        with pytest.raises(DomainError, match="2 components"):
            integrate(0.0, 1.0, 1.0, 1.0, (1.0, 0.0, 0.0), (0.0, 0.0), 2.0)

    @pytest.mark.parametrize("y0, ye0", [((1.0,), (0.0, 0.0)), ((1.0, 0.0), (0.0, 0.0, 0.0))])
    def test_a_zero_span_still_checks_the_states(self, y0, ye0):
        with pytest.raises(DomainError, match="2 components"):
            integrate(0.0, 1.0, 1.0, 1.0, y0, ye0, 1.0)

    @pytest.mark.parametrize("E, x0, x1, after", [(-1.0, 1.0, 2.0, "1.5"), (-1.0, 5.0, 1.0, "2.5"),
                                                  (-100.0, 1.0, 2.0, "1.3")])
    def test_a_step_is_half_of_x_or_three_over_k(self, monkeypatch, E, x0, x1, after):
        # one step ends |h| = min(x / 2, 3 / K) on, K^2 = |E| here: the bound
        # |h| K <= 3 < pi is what keeps a zero per step
        monkeypatch.setattr(taylor, "_MAX_STEPS", 1)
        with pytest.raises(ConvergenceError, match=f"at x = {after} "):
            integrate(0.0, 0.0, E, x0, (1.0, 1.0), (0.0, 0.0), x1)

    @pytest.mark.parametrize("g1, g2, E, x1, k2", [(1e308, 1.0, 0.0, 0.5, "inf"), (0.0, 1e308, 0.0, 2.0, "inf"),
                                                   (0.0, 0.0, 1e308, 2.0, "1e[+]308")])
    def test_a_step_that_no_longer_moves_x_is_refused(self, g1, g2, E, x1, k2):
        # K^2 past float64 made the step 0 (a division by zero, or NaN terms);
        # K = 1e154 makes it 3e-154, below the rounding of x = 1
        with pytest.raises(ConvergenceError, match=f"no longer moves x = 1 [(]K\\^2 = {k2}[)]"):
            integrate(g1, g2, E, 1.0, (1.0, 0.0), (0.0, 0.0), x1)

    @pytest.mark.parametrize("g1, x0, x1", [(1.0, 1e-200, 1.0), (0.0, 1e-300, 1.0), (0.0, 1.0, 5e-324)])
    def test_an_endpoint_whose_square_underflows_is_refused(self, g1, x0, x1):
        # g1 / x^2 divided by zero, also at g1 = 0
        with pytest.raises(ConvergenceError, match="squares to 0"):
            integrate(g1, 1.0, 0.0, x0, (1.0, 0.0), (0.0, 0.0), x1)

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(taylor, "_MAX_STEPS", 3)
        with pytest.raises(ConvergenceError, match="steps exhausted"):
            integrate(0.0, 1.0, 50.0, 0.1, (1.0, 0.0), (0.0, 0.0), 8.0)

    def test_a_nan_energy_is_refused_not_returned(self):
        with pytest.raises(ConvergenceError, match="not converged"):
            integrate(0.0, 1.0, math.nan, 1.0, (1.0, 0.0), (0.0, 0.0), 2.0)

    def test_left_start_underflow_is_refused(self, monkeypatch):
        # a left start whose data underflowed to (0, 0) has no angle and no
        # u_E data: the oracle's typed refusal, not a ZeroDivisionError
        rp = reduce(0.0, 1.0)
        ext = extension_for(rp, nu=1.0)
        monkeypatch.setattr(oracle, "_left_start", lambda *args: (0.02, (0.0, 0.0), 0.0))
        with pytest.raises(ConvergenceError, match="left solution at e = 3 leaves the float64 range"):
            oracle._theta(rp, ext, 3.0, (0.02, 1.0), oracle._REFINE_TOL)

    @pytest.mark.parametrize("scale", [1e-170, 1e-320])
    def test_a_left_start_too_small_to_square_is_refused(self, monkeypatch, scale):
        # u^2 + u'^2 of the start underflows: its u_E data are built from the
        # scaled pair, so no division by zero, and the end state, as small,
        # is the typed refusal
        rp = reduce(0.0, 1.0)
        ext = extension_for(rp, nu=1.0)
        x_s, (u, v), head = oracle._left_start(rp, ext, 3.0, 0.02, 1.0)
        monkeypatch.setattr(oracle, "_left_start", lambda *args: (
            x_s, (u * scale, v * scale), head * scale * scale))
        with pytest.raises(ConvergenceError, match="left solution at e = 3 leaves the float64 range"):
            oracle._theta(rp, ext, 3.0, (0.02, 1.0), oracle._REFINE_TOL)

    def test_right_data_past_float64_are_refused(self):
        rp = reduce(3e4, 1.0)
        ext = extension_for(rp)
        with pytest.raises(ConvergenceError, match="right boundary data .* leave the float64 range"):
            oracle._theta(rp, ext, 1e4 * (1.0 + rp.kappa), oracle._window(0.0), oracle._SCAN_TOL)
