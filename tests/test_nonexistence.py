"""Zero-counting tests: oscillation where no representation exists,
silence where one does."""

import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from calogero import cli, nonexistence
from calogero.errors import ConvergenceError, DomainError
from calogero.factorization import RepresentationParams, make_phi
from calogero.nonexistence import count_zeros
from calogero.params import RegionClass, classify, reduce
from cash_karp import textbook_integrate


class TestOriginMode:
    # g1 = -0.5 puts sigma = 1/2; over six decades the phase
    # sigma ln(x_hi/x_lo) is ~6.9 rad, predicting ~2.2 zeros

    def test_example_counts(self):
        r = count_zeros(-0.5, 0.0, 0.0, (1e-8, 1e-2))
        assert r.mode == "origin"
        assert r.sigma_or_omega == pytest.approx(0.5)
        assert r.predicted_zeros == pytest.approx(0.5 * math.log(1e6) / math.pi)
        assert r.observed_zeros in (2, 3)
        assert abs(r.observed_zeros - r.predicted_zeros) <= 1.0 + 0.1 * r.predicted_zeros

    def test_doubling_log_range_doubles_count(self):
        single = count_zeros(-4.25, 0.0, 0.0, (1e-6, 1.0))
        double = count_zeros(-4.25, 0.0, 0.0, (1e-12, 1.0))
        assert abs(double.observed_zeros - 2 * single.observed_zeros) <= 1

    def test_origin_wins_in_the_doubly_bad_quadrant(self):
        # with both couplings bad, the near-origin count is still set by
        # sigma alone (the g2 x^2 term dies out as x -> 0)
        both = count_zeros(-0.5, -1.0, 0.0, (1e-8, 1e-2))
        assert both.mode == "origin"
        assert both.observed_zeros in (2, 3)

    @settings(max_examples=25, deadline=None)
    @given(angle=st.floats(0.01, math.pi - 0.01))
    def test_initial_phase_shifts_count_by_at_most_one(self, angle):
        base = count_zeros(-1.25, 0.0, 0.0, (1e-4, 1e-1))
        other = count_zeros(
            -1.25, 0.0, 0.0, (1e-4, 1e-1),
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
        # inward counts from 0 to 22 zeros, down to 1e-300; over (1e-300, 1e10)
        # at g1 = -0.2501 the amplitude x^(1/2) falls far below DOP853's atol,
        # so that count is pinned in TestPlumbing instead
        (-0.5, 0.0, 0.0, (1e-8, 1e-2)),
        (-1.25, 1.0, 0.0, (1e-6, 1.0)),
        (-1.25, 1.0, 0.0, (1e-300, 1e-290)),
        (0.0, 1.0, 0.0, (1e-6, 10.0)),
        (-2.0, 1.0, 0.0, (1e-3, 3.0)),
        (-100.0, 0.0, 0.0, (1e-3, 1.0)),
        (-1.25, 1.0, 1e6, (1e-8, 1e-2)),
    ])
    def test_counts_every_zero(self, g1, g2, u, interval):
        r = count_zeros(g1, g2, u, interval)
        assert r.observed_zeros == _dop853_zeros(g1, g2, u, interval)

    def test_nonexistence_example_counts_18(self):
        r = count_zeros(-1.25, -1.0, 0.0, (1e-3, 10.0))
        assert r.observed_zeros == 18


class TestInfinityMode:
    def test_example_counts(self):
        r = count_zeros(0.0, -1.0, 0.0, (10.0, 20.0))
        assert r.mode == "infinity"
        assert r.sigma_or_omega == pytest.approx(1.0)
        assert r.predicted_zeros == pytest.approx(300.0 / (2.0 * math.pi))
        assert r.observed_zeros in (47, 48, 49)

    @pytest.mark.parametrize("g2, u, interval, zeros", [
        (-1.0, 0.0, (10.0, 20.0), 48),
        (-4.0, 0.0, (0.1, 30.0), 286),
        (-1.0, -1e4, (10.0, 20.0), 322),
        (-1.0, 0.0, (1e-6, 1.0), 0),
    ])
    def test_pinned_counts(self, g2, u, interval, zeros):
        # the counts the textbook Cash-Karp loop gives too (`_reference_zeros`),
        # up to 322 zeros driven by u
        assert count_zeros(0.0, g2, u, interval).observed_zeros == zeros

    def test_density_grows_linearly_in_x(self):
        # equal x^2 spans carry equal phase: (10,20) and (20,sqrt(700))
        a = count_zeros(0.0, -1.0, 0.0, (10.0, 20.0))
        b = count_zeros(0.0, -1.0, 0.0, (20.0, math.sqrt(700.0)))
        assert abs(a.observed_zeros - b.observed_zeros) <= 1


class TestExistenceMode:
    def test_positive_solution_never_crosses_zero(self):
        rp = reduce(0.0, 1.0)
        u = rp.u0 + 1.0
        phi = make_phi(RepresentationParams(0.0, u / (4.0 * rp.upsilon**2), rp))
        x_hi = 5.0
        r = count_zeros(
            0.0, 1.0, u, (1e-4, x_hi),
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
            2.0, 4.0, rp.u0, (1e-3, x_hi),
            init=(phi.value_at(x_hi), phi.derivative_at(x_hi)),
        )
        assert r.observed_zeros == 0


class TestPlumbing:
    def test_report_records_inputs(self):
        r = count_zeros(-0.5, 0.0, 1.5, (1e-4, 1e-2))
        assert r.interval == (1e-4, 1e-2)
        assert r.u == 1.5

    def test_finer_segments_keep_the_count(self, monkeypatch):
        base = count_zeros(-0.5, 0.0, 0.0, (1e-8, 1e-2))
        # a tenth of the width cuts 35 segments instead of 4
        monkeypatch.setattr(nonexistence, "_LOG_WIDTH", nonexistence._LOG_WIDTH / 10.0)
        fine = count_zeros(-0.5, 0.0, 0.0, (1e-8, 1e-2))
        assert fine.observed_zeros == base.observed_zeros

    @pytest.mark.parametrize("g1, g2", [(-1e300, 1.0), (0.0, -1e300), (-1e8, 1.0)])
    def test_phase_past_the_zero_budget_is_refused(self, g1, g2):
        # -1e300 predicts 4.4e150 zeros (or an infinite phase outward);
        # -1e8 4.4e4, a few times the budget
        interval = (1e-8, 1e-2) if g1 < -0.25 else (10.0, 20.0)
        with pytest.raises(ConvergenceError, match="zeros"):
            count_zeros(g1, g2, 0.0, interval)

    def test_budget_covers_the_phase_it_names(self, monkeypatch):
        # 2.2 zeros are predicted at g1 = -1/2 over (1e-8, 1e-2)
        monkeypatch.setattr(nonexistence, "_MAX_ZEROS", 3)
        assert count_zeros(-0.5, 0.0, 0.0, (1e-8, 1e-2)).observed_zeros == 2
        monkeypatch.setattr(nonexistence, "_MAX_ZEROS", 2)
        with pytest.raises(ConvergenceError, match="more than 2 zeros"):
            count_zeros(-0.5, 0.0, 0.0, (1e-8, 1e-2))

    def test_segments_toward_the_origin_span_at_most_e4(self, monkeypatch):
        # at sigma = 0.01 over (1e-280, 1) the 162 segments reach down to
        # xi = x / x_a = e^-4, so g1 / xi^2 stays within e^8 |g1|, and the
        # count finds the 2 zeros (2.05 predicted)
        ends = []
        real = nonexistence.integrate

        def recording(g1, g2, E, x0, y0, ye0, x1):
            ends.append(x1)
            return real(g1, g2, E, x0, y0, ye0, x1)

        monkeypatch.setattr(nonexistence, "integrate", recording)
        r = count_zeros(-0.2501, 0.0, 0.0, (1e-280, 1.0))
        assert len(ends) == math.ceil(math.log(1e280) / nonexistence._LOG_WIDTH)
        assert min(ends) >= math.exp(-nonexistence._LOG_WIDTH) * (1.0 - 1e-15)
        assert r.observed_zeros == 2

    def test_an_interval_ratio_past_float64_keeps_its_phase(self):
        # 1e10 / 1e-300 overflows, so the phase is sigma (ln x_hi - ln x_lo),
        # 0.01 x 713.8: it was refused as "phase inf"
        r = count_zeros(-0.2501, 0.0, 0.0, (1e-300, 1e10))
        sigma = math.sqrt(0.2501 - 0.25)
        assert r.predicted_zeros == pytest.approx(sigma * 310.0 * math.log(10.0) / math.pi, rel=1e-12)
        assert r.observed_zeros == 2

    @pytest.mark.parametrize("argv", [
        ["--g1", "-1.25", "--g2", "1", "--interval", "1e-3", "1e10"],
        ["--g1", "0", "--g2", "1", "--force", "--interval", "1e-4", "1e4"],
    ])
    def test_an_unreachable_count_is_refused_at_once(self, argv, capsys):
        # the segment at x_hi needs sqrt(g2) (x_hi^2 - x_a^2) / 6 steps or more,
        # 1.7e19 and 1.7e7, past the propagator's budget of 1e5 per call
        t0 = time.perf_counter()
        assert cli.main(["nonexistence", *argv]) == 4
        assert time.perf_counter() - t0 < 0.1
        assert "needs at least" in capsys.readouterr().err

    def test_the_step_bound_is_a_lower_bound(self, monkeypatch):
        # (1e-4, 300) lies just inside the budget: the top segment, from 300
        # down to 7.2, takes 15 019 steps against a bound of 14 991
        steps = []
        real = nonexistence.integrate

        def recording(*args):
            res = real(*args)
            steps.append(res.n_steps)
            return res

        monkeypatch.setattr(nonexistence, "integrate", recording)
        r = count_zeros(-1.25, 1.0, 0.0, (1e-4, 300.0))
        assert r.observed_zeros == 3
        x_a = 300.0 * math.exp(-math.log(3e6) / len(steps))
        assert steps[0] >= (300.0 ** 2 - x_a ** 2) / 6.0 > 0.9 * steps[0]

    @pytest.mark.parametrize("g2, interval", [(1.0, (1e-3, 1e80)), (0.0, (1e-3, 1e200))])
    def test_coefficients_past_the_float64_range_are_refused(self, g2, interval):
        # g2 x^4 overflows, and at 1e200 so does x^2 itself
        with pytest.raises(ConvergenceError, match="overflows"):
            count_zeros(-1.25, g2, 0.0, interval)

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError, match="x_lo"):
            count_zeros(-0.5, 0.0, 0.0, (1e-2, 1e-8))
        with pytest.raises(DomainError, match="x_lo"):
            count_zeros(-0.5, 0.0, 0.0, (0.0, 1.0))

    def test_rejects_bad_init_and_couplings(self):
        with pytest.raises(DomainError, match="init"):
            count_zeros(-0.5, 0.0, 0.0, (1e-4, 1e-2), init=(0.0, 0.0))
        with pytest.raises(DomainError, match="finite"):
            count_zeros(math.nan, 0.0, 0.0, (1e-4, 1e-2))
        with pytest.raises(DomainError, match="finite"):
            count_zeros(-0.5, 0.0, math.inf, (1e-4, 1e-2))


def _s_form(g1, g2, u):
    # the zero counter's equation in s = ln x, phi(s) = phi(e^s): the
    # reference its rescaled radial segments are checked against
    def f(s, y):
        x2 = math.exp(2.0 * s)
        return (y[1], y[1] + (g1 + g2 * x2 * x2 + u * x2) * y[0])

    return f


def _reference_zeros(g1, g2, u, x_lo, x_hi, init):
    """Zero count over knots that each carry at most pi/8 of the phase (at
    least 16 of them), with phi'' = (g1/x^2 + g2 x^2 + u) phi outward and
    the s = ln x form inward, through the textbook Cash-Karp loop."""
    if g1 < -0.25:
        phase = math.sqrt(-g1 - 0.25) * math.log(x_hi / x_lo)
    elif g2 < 0.0:
        phase = 0.5 * math.sqrt(-g2) * (x_hi * x_hi - x_lo * x_lo)
    else:
        phase = 0.0
    n_seg = max(16, math.ceil(phase / (math.pi / 8.0)))
    if g1 >= -0.25 and g2 < 0.0:
        t_lo, t_hi = x_lo * x_lo, x_hi * x_hi
        knots = [math.sqrt(t_lo + (t_hi - t_lo) * i / n_seg) for i in range(n_seg + 1)]
        f = lambda x, y: (y[1], (g1 / (x * x) + g2 * x * x + u) * y[0])
        y = init
    else:
        s_lo, s_hi = math.log(x_lo), math.log(x_hi)
        knots = [s_hi + (s_lo - s_hi) * i / n_seg for i in range(n_seg + 1)]
        f = _s_form(g1, g2, u)
        y = (init[0], init[1] * x_hi)
    zeros = 0
    for a, b in zip(knots, knots[1:]):
        res = textbook_integrate(f, a, y, b, rel_tol=1e-9)
        zeros += res.sign_changes
        y = res.y
    return zeros


@st.composite
def _zero_count_cases(draw):
    mode = draw(st.sampled_from(["origin", "infinity", "existence"]))
    u = draw(st.floats(-30.0, 30.0))
    if mode == "infinity":
        g1, g2 = draw(st.floats(-0.25, 4.0)), draw(st.floats(-4.0, -0.01))
        x_lo = draw(st.floats(0.01, 4.0))
        x_hi = x_lo + draw(st.floats(0.1, 4.0))
    else:
        if mode == "origin":
            g1, g2 = draw(st.floats(-4.0, -0.26)), draw(st.floats(-4.0, 4.0))
            decades = draw(st.floats(0.5, 20.0))
        else:
            g1, g2 = draw(st.floats(-0.25, 4.0)), draw(st.floats(0.0, 4.0))
            decades = draw(st.floats(0.5, 300.0))
        # x_hi near 1, where u x^2 counts, or deep toward the origin
        x_hi = 10.0 ** draw(st.one_of(st.floats(-1.0, 0.5), st.floats(-280.0, -1.0)))
        x_lo = max(x_hi * 10.0 ** -decades, 1e-300)
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    init = (math.cos(angle), scale * math.sin(angle))
    return g1, g2, u, (x_lo, x_hi), init


@given(case=_zero_count_cases())
@settings(max_examples=40, deadline=None)
def test_count_zeros_matches_the_s_form_reference(case):
    g1, g2, u, interval, init = case
    assume(interval[0] < interval[1] and init != (0.0, 0.0))
    got = count_zeros(g1, g2, u, interval, init).observed_zeros
    assert got == _reference_zeros(g1, g2, u, *interval, init)


_MODE = {
    RegionClass.NoRepresentation_FallToCenter: "origin",
    RegionClass.NoRepresentation_FallToInfinity: "infinity",
}


@given(
    g1=st.one_of(st.just(-0.25), st.floats(-3.0, 3.0)),
    g2=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
)
# g1 < -1/4 with g2 < 0 is fall to the center, so it counts toward the origin
@example(g1=-0.5, g2=-1.0)
@example(g1=-0.25, g2=0.0)
@example(g1=-0.2500001, g2=0.0)
@example(g1=0.0, g2=-1e-300)
@settings(max_examples=60, deadline=None)
def test_mode_follows_classify(g1, g2):
    # over a short interval near 1, where every count is quick
    mode = count_zeros(g1, g2, 0.0, (0.5, 1.0)).mode
    assert mode == _MODE.get(classify(g1, g2), "existence")
