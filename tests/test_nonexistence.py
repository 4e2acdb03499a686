"""Zero-counting tests: oscillation where no representation exists,
silence where one does."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calogero import nonexistence
from calogero.errors import DomainError
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
