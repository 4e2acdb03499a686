"""Parameter reduction and region taxonomy."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calogero.errors import DomainError
from calogero.params import RegionClass, classify, reduce

finite = dict(allow_nan=False, allow_infinity=False)


class TestReduce:
    def test_worked_example_kappa_one(self):
        rp = reduce(0.75, 16.0)
        assert rp.kappa == pytest.approx(1.0, abs=1e-15)
        assert rp.upsilon == pytest.approx(2.0, abs=1e-15)
        assert rp.w0 == pytest.approx(-1.0, abs=1e-15)
        assert rp.u0 == pytest.approx(-16.0, abs=1e-14)

    def test_worked_example_kappa_zero(self):
        rp = reduce(-0.25, 1.0)
        assert rp.kappa == 0.0
        assert rp.upsilon == 1.0
        assert rp.w0 == -0.5
        assert rp.u0 == -2.0

    def test_worked_example_kappa_half(self):
        rp = reduce(0.0, 1.0)
        assert rp.kappa == pytest.approx(0.5, abs=1e-15)
        assert rp.w0 == pytest.approx(-0.75, abs=1e-15)
        assert rp.u0 == pytest.approx(-3.0, abs=1e-14)

    def test_alpha_beta_relations(self):
        rp = reduce(0.0, 4.0)
        assert rp.beta == 1.0 + rp.kappa
        assert rp.alpha_of(rp.w0) == pytest.approx(0.0, abs=1e-15)
        assert rp.alpha_of(0.3) == pytest.approx(0.5 * (1 + rp.kappa) + 0.3, abs=1e-15)
        assert rp.energy_scale() == pytest.approx(2.0, rel=1e-15, abs=0.0)

    @given(
        st.floats(min_value=-0.25, max_value=100.0, **finite),
        st.floats(min_value=1e-6, max_value=1e6, **finite),
    )
    @settings(max_examples=200)
    def test_round_trip(self, g1, g2):
        rp = reduce(g1, g2)
        assert rp.kappa**2 - 0.25 == pytest.approx(g1, rel=1e-14, abs=1e-14)
        assert rp.upsilon**4 == pytest.approx(g2, rel=1e-14, abs=0.0)

    @given(
        st.floats(min_value=-0.25, max_value=50.0, **finite),
        st.floats(min_value=1e-4, max_value=1e4, **finite),
    )
    @settings(max_examples=100)
    def test_u0_consistency(self, g1, g2):
        rp = reduce(g1, g2)
        # u0 couples the additive-shift floor to the trap strength
        assert rp.u0 == pytest.approx(4.0 * rp.upsilon**2 * rp.w0, rel=1e-14, abs=0.0)
        assert rp.u0 == pytest.approx(-2.0 * math.sqrt(g2) * (1.0 + rp.kappa), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("g1,g2", [(-0.26, 1.0), (-1.0, 1.0), (0.0, 0.0), (0.0, -2.0)])
    def test_outside_cone_raises(self, g1, g2):
        with pytest.raises(DomainError):
            reduce(g1, g2)

    def test_nonfinite_raises(self):
        with pytest.raises(DomainError):
            reduce(float("nan"), 1.0)

    @pytest.mark.parametrize(
        "g1,g2,reason",
        [
            (-0.5, 1.0, "fall to center"),
            (0.0, -1.0, "no confining trap"),
            (-0.5, -1.0, "fall to center"),  # center is named first
            (0.0, 0.0, "no confining trap"),
            (-0.25, 0.0, "no confining trap"),
        ],
    )
    def test_refusal_names_the_pathology(self, g1, g2, reason):
        with pytest.raises(DomainError, match=reason):
            reduce(g1, g2)


class TestClassify:
    @pytest.mark.parametrize(
        "g1,g2,expected",
        [
            (-0.5, 1.0, RegionClass.NoRepresentation_FallToCenter),
            (-0.5, -1.0, RegionClass.NoRepresentation_FallToCenter),  # center wins
            (0.0, -1.0, RegionClass.NoRepresentation_FallToInfinity),
            (0.0, 0.0, RegionClass.CalogeroOnly),
            (5.0, 0.0, RegionClass.CalogeroOnly),
            (0.75, 1.0, RegionClass.UniqueExtension),
            (2.0, 3.0, RegionClass.UniqueExtension),
            (0.0, 1.0, RegionClass.FamilyKappaPositive),
            (0.7499, 1.0, RegionClass.FamilyKappaPositive),
            (-0.25, 1.0, RegionClass.FamilyKappaZero),
        ],
    )
    def test_taxonomy(self, g1, g2, expected):
        assert classify(g1, g2) is expected

    def test_boundary_kappa_one_is_unique(self):
        # kappa = 1 exactly sits on the essentially-self-adjoint side
        assert classify(0.75, 2.0) is RegionClass.UniqueExtension

    @given(st.floats(min_value=-10, max_value=10, **finite), st.floats(min_value=-10, max_value=10, **finite))
    @settings(max_examples=200)
    def test_total_and_consistent_with_reduce(self, g1, g2):
        region = classify(g1, g2)
        can_reduce = region in (
            RegionClass.UniqueExtension,
            RegionClass.FamilyKappaPositive,
            RegionClass.FamilyKappaZero,
        )
        if can_reduce:
            reduce(g1, g2)  # must not raise
        else:
            with pytest.raises(DomainError):
                reduce(g1, g2)
