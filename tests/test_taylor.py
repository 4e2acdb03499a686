"""The oracle's Taylor-series propagator of (u, u') and (u_E, u'_E).

Checked against scipy's DOP853 (a test-only reference), against the
closed-form ladder states for its node count, against an independent
Gauss-Legendre integral of u^2 for the Wronskian it carries, and for its
typed refusals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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

    def test_zero_span_counts_none(self):
        res = integrate(0.0, 1.0, 3.0, 1.0, (-1.0, 2.0), (0.5, 0.5), 1.0)
        assert (res.sign_changes, res.n_steps, res.y, res.ye) == (0, 0, (-1.0, 2.0), (0.5, 0.5))


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
        with pytest.raises(ConvergenceError, match="left solution at E = 3 leaves the float64 range"):
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
        with pytest.raises(ConvergenceError, match="left solution at E = 3 leaves the float64 range"):
            oracle._theta(rp, ext, 3.0, (0.02, 1.0), oracle._REFINE_TOL)

    def test_right_data_past_float64_are_refused(self):
        rp = reduce(3e4, 1.0)
        ext = extension_for(rp)
        with pytest.raises(ConvergenceError, match="right boundary data .* leave the float64 range"):
            oracle._theta(rp, ext, 1e4 * (1.0 + rp.kappa), oracle._window(rp, 0.0), oracle._SCAN_TOL)
