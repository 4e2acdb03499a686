"""Zero-counting tests: oscillation where no representation exists,
silence where one does."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from calogero import nonexistence
from calogero.errors import ConvergenceError, DomainError
from calogero.factorization import RepresentationParams, make_phi
from calogero.nonexistence import count_zeros
from calogero.params import Couplings, reduce


class TestOriginMode:
    # g1 = -0.5 puts sigma = 1/2; over six decades the phase
    # sigma ln(x_hi/x_lo) is ~6.9 rad, predicting ~2.2 zeros

    def test_example_counts(self):
        r = count_zeros(Couplings(-0.5, 0.0), 0.0, (1e-8, 1e-2))
        assert r.mode == "origin"
        assert r.sigma_or_omega == pytest.approx(0.5)
        assert r.predicted_zeros == pytest.approx(0.5 * math.log(1e6) / math.pi)
        assert r.observed_zeros in (2, 3)
        assert abs(r.observed_zeros - r.predicted_zeros) <= 1.0 + 0.1 * r.predicted_zeros

    def test_doubling_log_range_doubles_count(self):
        single = count_zeros(Couplings(-4.25, 0.0), 0.0, (1e-6, 1.0))
        double = count_zeros(Couplings(-4.25, 0.0), 0.0, (1e-12, 1.0))
        assert abs(double.observed_zeros - 2 * single.observed_zeros) <= 1

    def test_origin_wins_in_the_doubly_bad_quadrant(self):
        # with both couplings bad, the near-origin count is still set by
        # sigma alone (the g2 x^2 term dies out as x -> 0)
        both = count_zeros(Couplings(-0.5, -1.0), 0.0, (1e-8, 1e-2))
        assert both.mode == "origin"
        assert both.observed_zeros in (2, 3)

    @settings(max_examples=25, deadline=None)
    @given(angle=st.floats(0.01, math.pi - 0.01))
    def test_initial_phase_shifts_count_by_at_most_one(self, angle):
        base = count_zeros(Couplings(-1.25, 0.0), 0.0, (1e-4, 1e-1))
        other = count_zeros(
            Couplings(-1.25, 0.0), 0.0, (1e-4, 1e-1),
            init=(math.cos(angle), math.sin(angle)),
        )
        assert abs(other.observed_zeros - base.observed_zeros) <= 1


def _dop853_zeros(g1, g2, u, interval):
    # independent count: scipy's DOP853 inward in s = ln x, sign changes
    # between its accepted steps
    def f(s, y):
        x2 = math.exp(2.0 * s)
        return [y[1], y[1] + (g1 + g2 * x2 * x2 + u * x2) * y[0]]

    s_lo, s_hi = math.log(interval[0]), math.log(interval[1])
    sol = solve_ivp(f, (s_hi, s_lo), [1.0, 0.0], method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success
    return int(np.count_nonzero(np.signbit(sol.y[0][1:]) != np.signbit(sol.y[0][:-1])))


class TestZerosInsideASegment:
    # segments are sized from the origin phase alone; here g2 < 0 drives
    # most zeros, and a u > 0 adds its own, all of them inside segments

    @pytest.mark.parametrize("g1,g2,u,interval", [
        (-1.25, -1.0, 0.0, (1e-3, 10.0)),
        (-0.5, 0.0, -400.0, (1e-3, 1.0)),
    ])
    def test_counts_every_zero(self, g1, g2, u, interval):
        r = count_zeros(Couplings(g1, g2), u, interval)
        assert r.observed_zeros == _dop853_zeros(g1, g2, u, interval)

    def test_nonexistence_example_counts_18(self):
        r = count_zeros(Couplings(-1.25, -1.0), 0.0, (1e-3, 10.0))
        assert r.observed_zeros == 18


class TestInfinityMode:
    def test_example_counts(self):
        r = count_zeros(Couplings(0.0, -1.0), 0.0, (10.0, 20.0))
        assert r.mode == "infinity"
        assert r.sigma_or_omega == pytest.approx(1.0)
        assert r.predicted_zeros == pytest.approx(300.0 / (2.0 * math.pi))
        assert r.observed_zeros in (47, 48, 49)

    def test_density_grows_linearly_in_x(self):
        # equal x^2 spans carry equal phase: (10,20) and (20,sqrt(700))
        a = count_zeros(Couplings(0.0, -1.0), 0.0, (10.0, 20.0))
        b = count_zeros(Couplings(0.0, -1.0), 0.0, (20.0, math.sqrt(700.0)))
        assert abs(a.observed_zeros - b.observed_zeros) <= 1


class TestExistenceMode:
    def test_positive_solution_never_crosses_zero(self):
        rp = reduce(0.0, 1.0)
        u = rp.u0 + 1.0
        phi = make_phi(RepresentationParams(0.0, u / (4.0 * rp.upsilon**2), rp))
        x_hi = 5.0
        r = count_zeros(
            Couplings(0.0, 1.0), u, (1e-4, x_hi),
            init=(phi.value_at(x_hi), phi.derivative_at(x_hi)),
        )
        assert r.mode == "existence"
        assert r.observed_zeros == 0
        assert r.predicted_zeros == 0.0
        assert r.sigma_or_omega == 0.0

    def test_floor_representation_also_positive(self):
        rp = reduce(2.0, 4.0)  # kappa = 3/2, upsilon = sqrt(2)
        phi = make_phi(RepresentationParams(0.0, rp.w0, rp))
        x_hi = 4.0
        r = count_zeros(
            Couplings(2.0, 4.0), rp.u0, (1e-3, x_hi),
            init=(phi.value_at(x_hi), phi.derivative_at(x_hi)),
        )
        assert r.observed_zeros == 0


class TestPlumbing:
    def test_report_records_inputs(self):
        r = count_zeros(Couplings(-0.5, 0.0), 1.5, (1e-4, 1e-2))
        assert r.interval == (1e-4, 1e-2)
        assert r.u == 1.5

    def test_finer_segments_keep_the_count(self, monkeypatch):
        base = count_zeros(Couplings(-0.5, 0.0), 0.0, (1e-8, 1e-2))
        # a tenth of the phase budget cuts 176 segments instead of 18
        monkeypatch.setattr(nonexistence, "_PHASE_CAP", nonexistence._PHASE_CAP / 10.0)
        fine = count_zeros(Couplings(-0.5, 0.0), 0.0, (1e-8, 1e-2))
        assert fine.observed_zeros == base.observed_zeros

    @pytest.mark.parametrize("g1, g2", [(-1e300, 1.0), (0.0, -1e300), (-1e8, 1.0)])
    def test_phase_past_the_segment_budget_is_refused(self, g1, g2):
        # -1e300 asks for 3.5e151 segments (or an infinite phase outward);
        # -1e8 for 3.5e5, a few times the budget
        interval = (1e-8, 1e-2) if g1 < -0.25 else (10.0, 20.0)
        with pytest.raises(ConvergenceError, match="segments"):
            count_zeros(Couplings(g1, g2), 0.0, interval)

    def test_budget_covers_the_phase_it_names(self, monkeypatch):
        # 18 segments are needed at g1 = -1/2 over (1e-8, 1e-2)
        monkeypatch.setattr(nonexistence, "_MAX_SEGMENTS", 18)
        assert count_zeros(Couplings(-0.5, 0.0), 0.0, (1e-8, 1e-2)).observed_zeros == 2
        monkeypatch.setattr(nonexistence, "_MAX_SEGMENTS", 17)
        with pytest.raises(ConvergenceError, match="more than 17 segments"):
            count_zeros(Couplings(-0.5, 0.0), 0.0, (1e-8, 1e-2))

    def test_segments_toward_the_origin_span_at_most_e4(self, monkeypatch):
        # at sigma = 0.01 over (1e-280, 1) the phase alone cuts 17 segments,
        # each 38 wide in ln x; the step floor binds on those in xi = x / x_a,
        # and the 2 zeros (2.05 predicted) read as 0
        ends = []
        real = nonexistence.integrate

        def recording(g1, g2, E, x0, y0, x1, rel_tol):
            ends.append(x1)
            return real(g1, g2, E, x0, y0, x1, rel_tol=rel_tol)

        monkeypatch.setattr(nonexistence, "integrate", recording)
        r = count_zeros(Couplings(-0.2501, 0.0), 0.0, (1e-280, 1.0))
        assert len(ends) == math.ceil(math.log(1e280) / nonexistence._LOG_WIDTH)
        assert min(ends) >= math.exp(-nonexistence._LOG_WIDTH) * (1.0 - 1e-15)
        assert r.observed_zeros == 2

    def test_an_interval_ratio_past_float64_keeps_its_phase(self):
        # 1e10 / 1e-300 overflows, so the phase is sigma (ln x_hi - ln x_lo),
        # 0.01 x 713.8: it was refused as "phase inf"
        r = count_zeros(Couplings(-0.2501, 0.0), 0.0, (1e-300, 1e10))
        sigma = math.sqrt(0.2501 - 0.25)
        assert r.predicted_zeros == pytest.approx(sigma * 310.0 * math.log(10.0) / math.pi, rel=1e-12)
        assert r.observed_zeros == 2

    @pytest.mark.parametrize("g2, interval", [(1.0, (1e-3, 1e80)), (0.0, (1e-3, 1e200))])
    def test_coefficients_past_the_float64_range_are_refused(self, g2, interval):
        # g2 x^4 overflows, and at 1e200 so does x^2 itself
        with pytest.raises(ConvergenceError, match="overflows"):
            count_zeros(Couplings(-1.25, g2), 0.0, interval)

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError, match="x_lo"):
            count_zeros(Couplings(-0.5, 0.0), 0.0, (1e-2, 1e-8))
        with pytest.raises(DomainError, match="x_lo"):
            count_zeros(Couplings(-0.5, 0.0), 0.0, (0.0, 1.0))

    def test_rejects_bad_init_and_couplings(self):
        with pytest.raises(DomainError, match="init"):
            count_zeros(Couplings(-0.5, 0.0), 0.0, (1e-4, 1e-2), init=(0.0, 0.0))
        with pytest.raises(DomainError, match="finite"):
            count_zeros(Couplings(math.nan, 0.0), 0.0, (1e-4, 1e-2))
        with pytest.raises(DomainError, match="finite"):
            count_zeros(Couplings(-0.5, 0.0), math.inf, (1e-4, 1e-2))
