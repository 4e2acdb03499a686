"""Special-function layer: frozen reference values, exact closed-form laws,
cross-checks against independent implementations (math / scipy / mpmath were
never used to produce the frozen digits below; those came from 40+ digit
integer-series arithmetic), and property tests for the identities every
downstream module leans on.
"""

import math

import mpmath
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from calogero import specfun
from calogero.errors import ConvergenceError, DomainError
from calogero.specfun import (
    digamma,
    exp_halfline_quad,
    gamma,
    gammaln_shift,
    gammaln_signed,
    kummer_phi,
    rgamma,
    tricomi_psi,
    tricomi_psi_integral,
    tricomi_psi_series,
)

EULER_GAMMA = 0.57721566490153286060651209008240

# hypothesis scalar strategies; poles are fenced off by a distance filter
finite = dict(allow_nan=False, allow_infinity=False)


def off_pole(z: float) -> bool:
    return z > 0.0 or abs(z - round(z)) > 1e-3


class TestGamma:
    def test_frozen_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14, abs=0.0)
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14, abs=0.0)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-14, abs=0.0)
        assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13, abs=0.0)
        assert gamma(-1.5) == pytest.approx(4.0 / 3.0 * math.sqrt(math.pi), rel=1e-13, abs=0.0)

    @given(st.floats(min_value=1e-3, max_value=50.0, **finite))
    @settings(max_examples=200)
    def test_matches_stdlib_on_positive_axis(self, z):
        assert gamma(z) == pytest.approx(math.gamma(z), rel=1e-12, abs=0.0)

    @given(st.floats(min_value=-50.0, max_value=50.0, **finite).filter(off_pole))
    @settings(max_examples=200)
    def test_accuracy_contract_both_signs(self, z):
        # scipy computes through an unrelated code path (Cephes)
        assert gamma(z) == pytest.approx(float(scipy.special.gamma(z)), rel=1e-12, abs=0.0)

    @given(st.floats(min_value=0.5, max_value=49.0, **finite))
    @settings(max_examples=100)
    def test_recurrence(self, z):
        assert gamma(z + 1.0) == pytest.approx(z * gamma(z), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -37.0])
    def test_pole_raises(self, z):
        with pytest.raises(DomainError):
            gamma(z)

    def test_nan_raises(self):
        with pytest.raises(DomainError):
            gamma(float("nan"))


# within 1e-9 of each negative integer, on both sides: the reflection's
# sin(pi z) must keep its digits there (a reduction to [0, 1) leaves
# 8.7e-9 relative at -1 - 1e-9)
NEAR_POLES = [-m + d for m in range(1, 11) for d in (-1e-9, -1e-12, 1e-12, 1e-9)]


@pytest.mark.parametrize("z", NEAR_POLES)
def test_reflection_next_to_the_poles(z):
    with mpmath.workdps(30):
        ref = mpmath.gamma(mpmath.mpf(z))
        ln_ref = float(mpmath.log(abs(ref)))
    assert gamma(z) == pytest.approx(float(ref), rel=1e-13, abs=0.0)
    lg, sg = gammaln_signed(z)
    assert sg == (1.0 if ref > 0 else -1.0)
    assert lg == pytest.approx(ln_ref, rel=1e-13, abs=0.0)


class TestGammalnSigned:
    @given(st.floats(min_value=-40.0, max_value=40.0, **finite).filter(lambda z: off_pole(z) and abs(z) > 1e-2))
    @settings(max_examples=150)
    def test_reconstructs_gamma(self, z):
        lg, sg = gammaln_signed(z)
        assert sg * math.exp(lg) == pytest.approx(gamma(z), rel=1e-12, abs=0.0)

    def test_sign_alternates_between_negative_poles(self):
        # Gamma is negative on (-1, 0), positive on (-2, -1), ...
        assert gammaln_signed(-0.5)[1] == -1.0
        assert gammaln_signed(-1.5)[1] == 1.0
        assert gammaln_signed(-2.5)[1] == -1.0

    def test_no_overflow_at_large_argument(self):
        lg, sg = gammaln_signed(300.0)
        assert sg == 1.0
        assert lg == pytest.approx(math.lgamma(300.0), rel=1e-14)


class TestRgamma:
    @pytest.mark.parametrize("z", [0.0, -1.0, -5.0, -40.0])
    def test_zero_at_poles(self, z):
        assert rgamma(z) == 0.0

    @given(st.floats(min_value=-30.0, max_value=30.0, **finite).filter(lambda z: off_pole(z) and abs(z) > 1e-2))
    @settings(max_examples=100)
    def test_reciprocal(self, z):
        # |z| floor keeps Gamma itself inside float range
        assert rgamma(z) * gamma(z) == pytest.approx(1.0, rel=1e-12)


class TestGammalnShift:
    def test_frozen_huge_arguments(self):
        # references from 40-digit arithmetic; naive lgamma subtraction
        # has zero correct digits at b = 1e12 and cannot even form b + d
        # past 2^53
        assert gammaln_shift(1e12, 0.25) == pytest.approx(6.907755278982043, rel=1e-15, abs=0.0)
        assert gammaln_shift(7.9e16, 0.0234375) == pytest.approx(0.911911505797915, rel=1e-15, abs=0.0)
        assert gammaln_shift(6.4e13, 0.05078125) == pytest.approx(1.6143310726201046, rel=1e-15, abs=0.0)

    def test_zero_shift(self):
        assert gammaln_shift(3.7, 0.0) == 0.0

    def test_unit_shift_is_log(self):
        assert gammaln_shift(1e15, 1.0) == pytest.approx(math.log(1e15), rel=1e-15, abs=0.0)

    @given(
        st.floats(min_value=0.01, max_value=1e6, **finite),
        st.floats(min_value=-5.0, max_value=5.0, **finite),
    )
    @settings(max_examples=200)
    def test_matches_lgamma_at_moderate_scale(self, b, d):
        if b + d <= 0.01:
            return
        # the subtraction is the reference's weak point, not the
        # function's: budget a few ulps of each lgamma term
        ref = math.lgamma(b + d) - math.lgamma(b)
        slack = 1e-14 * (abs(math.lgamma(b + d)) + abs(math.lgamma(b))) + 1e-12
        assert gammaln_shift(b, d) == pytest.approx(ref, rel=1e-11, abs=slack)

    @given(
        st.floats(min_value=1.0, max_value=1e12, **finite),
        st.floats(min_value=0.0, max_value=3.0, **finite),
        st.floats(min_value=0.0, max_value=3.0, **finite),
    )
    @settings(max_examples=150)
    def test_shift_additivity(self, b, d1, d2):
        whole = gammaln_shift(b, d1 + d2)
        split = gammaln_shift(b, d1) + gammaln_shift(b + d1, d2)
        assert whole == pytest.approx(split, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("b,k", [(2.0, 3), (0.5, 5), (1.25, 10), (37.5, 4)])
    def test_integer_shift_is_log_rising_product(self, b, k):
        # (b)_k = b (b + 1) ... (b + k - 1)
        assert gammaln_shift(b, float(k)) == pytest.approx(
            math.log(math.prod(b + i for i in range(k))), rel=1e-13, abs=0.0
        )

    @given(
        st.floats(min_value=0.01, max_value=1e6, **finite),
        st.floats(min_value=0.0, max_value=20.0, **finite),
    )
    @settings(max_examples=100)
    def test_recurrence(self, b, d):
        assert gammaln_shift(b, d + 1.0) == pytest.approx(
            gammaln_shift(b, d) + math.log(b + d), rel=1e-12, abs=1e-12
        )

    def test_reverse_shift_is_negated(self):
        assert gammaln_shift(3.5, 3.75) == pytest.approx(
            math.lgamma(7.25) - math.lgamma(3.5), rel=1e-14, abs=0.0
        )
        assert gammaln_shift(7.25, -3.75) == pytest.approx(-gammaln_shift(3.5, 3.75), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("b,d", [(0.0, 1.0), (-1.0, 5.0), (2.0, -2.0), (1.0, float("inf"))])
    def test_domain_errors(self, b, d):
        with pytest.raises(DomainError):
            gammaln_shift(b, d)


class TestDigamma:
    def test_frozen_values(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-14, abs=0.0)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-14, abs=0.0)
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-14, abs=0.0)

    @given(st.floats(min_value=1e-3, max_value=50.0, **finite))
    @settings(max_examples=200)
    def test_accuracy_contract(self, z):
        assert digamma(z) == pytest.approx(float(scipy.special.digamma(z)), rel=1e-12, abs=1e-12)

    @given(st.floats(min_value=0.01, max_value=49.0, **finite))
    @settings(max_examples=100)
    def test_recurrence(self, z):
        assert digamma(z + 1.0) == pytest.approx(digamma(z) + 1.0 / z, rel=1e-11, abs=1e-12)

    @pytest.mark.parametrize("z", [-0.5, -1.5, -7.3, -22.42])
    def test_negative_nonintegers(self, z):
        assert digamma(z) == pytest.approx(float(scipy.special.digamma(z)), rel=1e-11, abs=0.0)

    @given(
        st.one_of(
            st.floats(min_value=-1e6, max_value=-1e-300, **finite),
            # within 1e-9 of a pole, on either side
            st.tuples(st.integers(0, 10**6), st.floats(1e-15, 1e-9), st.sampled_from((-1.0, 1.0))).map(
                lambda m_d_side: m_d_side[2] * m_d_side[1] - m_d_side[0]
            ),
        ).filter(lambda z: z < 0.0 and z != math.floor(z))
    )
    @settings(max_examples=300)
    def test_reflection_matches_mpmath(self, z):
        # psi(z) = psi(1-z) - pi cot(pi z): each term is good to a few ulps,
        # so the error is a few ulps of |psi(z)| + |psi(1-z)|, which bounds
        # both, plus the absolute error of psi(1-z) itself (a few ulps of the
        # recurrence's partial sums, ~2.3); relative to psi(z) alone it
        # grows near each zero of psi
        with mpmath.workdps(40):
            ref = mpmath.digamma(z)
            scale = 1 + abs(ref) + abs(mpmath.digamma(1 - mpmath.mpf(z)))
        assert abs(digamma(z) - float(ref)) <= 4e-15 * float(scale)

    def test_pole_raises(self):
        with pytest.raises(DomainError):
            digamma(-3.0)


class TestKummerPhi:
    def test_frozen_values(self):
        # Phi(1, 2; rho) = (e^rho - 1)/rho exactly
        assert kummer_phi(1.0, 2.0, 2.0) == pytest.approx(3.1945280494653251136, rel=1e-13, abs=0.0)
        assert kummer_phi(0.75, 1.5, 0.3) == pytest.approx(1.1670690359097991087, rel=1e-13, abs=0.0)

    def test_degenerate_unity(self):
        assert kummer_phi(0.0, 1.5, 7.0) == 1.0
        assert kummer_phi(2.0, 3.0, 0.0) == 1.0

    @given(
        st.floats(min_value=0.01, max_value=10.0, **finite),
        st.floats(min_value=1.0, max_value=8.0, **finite),
        st.floats(min_value=0.0, max_value=30.0, **finite),
    )
    @settings(max_examples=150)
    def test_against_scipy(self, a, b, r):
        assert kummer_phi(a, b, r) == pytest.approx(float(scipy.special.hyp1f1(a, b, r)), rel=1e-10)

    @given(
        st.floats(min_value=0.1, max_value=8.0, **finite),
        st.floats(min_value=1.0, max_value=6.0, **finite),
        st.floats(min_value=0.01, max_value=20.0, **finite),
        st.floats(min_value=1.05, max_value=2.0, **finite),
    )
    @settings(max_examples=100)
    def test_monotone_increasing_in_rho(self, a, b, r, fac):
        # all series terms are positive here, so this must hold strictly
        assert kummer_phi(a, b, r * fac) > kummer_phi(a, b, r)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            kummer_phi(-0.1, 2.0, 1.0)
        with pytest.raises(DomainError):
            kummer_phi(1.0, 0.9, 1.0)
        with pytest.raises(DomainError):
            kummer_phi(1.0, 2.0, -1.0)

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 100)
        with pytest.raises(ConvergenceError):
            kummer_phi(1.0, 1.5, 250.0)


class TestTricomiPsi:
    def test_frozen_values(self):
        assert tricomi_psi(0.75, 1.5, 0.3) == pytest.approx(1.9500932666578341979, rel=1e-12)
        assert tricomi_psi(1.25, 1.0, 2.0) == pytest.approx(0.25929939382797372681, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("rho", [0.2, 1.0, 3.7, 25.0])
    def test_exact_law_beta2(self, rho):
        # Psi(1, 2; rho) = 1/rho
        assert tricomi_psi(1.0, 2.0, rho) == pytest.approx(1.0 / rho, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("rho", [0.5, 2.0, 11.0])
    def test_exact_law_half(self, rho):
        # Psi(1/2, 3/2; rho) = rho^(-1/2): the second series terminates and
        # the first has a vanishing prefactor
        assert tricomi_psi(0.5, 1.5, rho) == pytest.approx(rho**-0.5, rel=1e-12, abs=0.0)

    def test_branches_agree(self):
        # the acceptance grid runs this too; keep a quick local version
        worst = 0.0
        for a in (0.1, 0.6, 1.3, 2.5, 7.5):
            for b in (1.5, 2.25, 3.75):
                for r in (0.1, 1.0, 10.0, 60.0):
                    s = tricomi_psi_series(a, b, r)
                    i = tricomi_psi_integral(a, b, r)
                    worst = max(worst, abs(s - i) / abs(s))
        assert worst <= 1e-8

    def test_integer_beta_routes_to_integral(self):
        # the series form must refuse integer beta; the router must not
        with pytest.raises(DomainError):
            tricomi_psi_series(1.3, 2.0, 1.0)
        assert tricomi_psi(1.3, 2.0, 1.0) > 0.0
        assert tricomi_psi(1.3, 2.0 + 5e-9, 1.0) == pytest.approx(tricomi_psi(1.3, 2.0, 1.0), rel=1e-7)

    @given(
        st.floats(min_value=0.05, max_value=10.0, **finite),
        st.floats(min_value=1.0, max_value=6.0, **finite),
        st.floats(min_value=0.01, max_value=80.0, **finite),
        st.floats(min_value=1.01, max_value=3.0, **finite),
    )
    @settings(max_examples=100, deadline=None)
    def test_positive_and_strictly_decreasing(self, a, b, r, fac):
        v1 = tricomi_psi(a, b, r)
        v2 = tricomi_psi(a, b, r * fac)
        assert v1 > 0.0
        assert v2 > 0.0
        assert v2 < v1

    @pytest.mark.parametrize("a,b", [(0.8, 1.4), (2.0, 3.0), (3.3, 1.2)])
    def test_large_rho_asymptotic(self, a, b):
        # Psi ~ rho^-a (1 + O(1/rho))
        rho = 1e4
        assert tricomi_psi(a, b, rho) == pytest.approx(rho**-a, rel=5e-3, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tricomi_psi(0.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            tricomi_psi(-1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            tricomi_psi(1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            tricomi_psi(1.0, 2.0, 0.0)

    def test_integral_prefactor_overflow_is_typed(self):
        with pytest.raises(ConvergenceError, match="overflows"):
            tricomi_psi_integral(1.97, 1.0, 2e-189)

    def test_quadrature_weight_overflow_is_typed(self):
        # the node weight t^180 e^(-t) passes e^709 near t = 180
        with pytest.raises(ConvergenceError, match="overflows"):
            tricomi_psi(180.0, 1.0, 3.0)

    @pytest.mark.parametrize("rho", [63.0, 79.4, 500.0])
    def test_integral_subnormal_scale_keeps_digits(self, rho):
        # rho^(-95)/Gamma(95) is subnormal or zero here while Psi is not
        ref = float(mpmath.hyperu(95.0, 1.5, rho))
        assert tricomi_psi_integral(95.0, 1.5, rho) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "a,b,r",
        [
            # every digit of the float64 series cancels: handed to the integral
            (59.87, 3.968, 5.139),
            (45.75, 1.5, 1.39),
            # beta near an integer: Gamma(1 - beta) lacks the digits that cancel
            (34.99033301109148, 1.0000314934977732, 0.005068561286593332),
            (45.321335049666764, 3.000000016423612, 4.726267507864416),
        ],
    )
    def test_series_matches_hyperu_where_it_cancels(self, a, b, r):
        with mpmath.workdps(40):
            ref = float(mpmath.hyperu(a, b, r))
        assert tricomi_psi_series(a, b, r) == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_fully_cancelled_series_hands_over_to_the_integral(self, monkeypatch):
        calls = []

        def counting(a, b, r):
            calls.append((a, b, r))
            return tricomi_psi_integral(a, b, r)

        monkeypatch.setattr(specfun, "tricomi_psi_integral", counting)
        tricomi_psi_series(59.87, 3.968, 5.139)
        assert calls == [(59.87, 3.968, 5.139)]
        tricomi_psi_series(1.3, 1.5, 3.0)
        assert len(calls) == 1

    @given(
        st.floats(min_value=math.log(0.05), max_value=math.log(60.0)),
        st.floats(min_value=1.0, max_value=4.0),
        st.floats(min_value=math.log(1e-3), max_value=math.log(60.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_hyperu_or_refuses(self, ln_a, b, ln_r):
        # the dual-route contract, 1e-8 relative, over the box that
        # factorize-check and the ground states reach
        a, r = math.exp(ln_a), math.exp(ln_r)
        try:
            got = tricomi_psi(a, b, r)
        except ConvergenceError:
            return
        with mpmath.workdps(40):
            ref = float(mpmath.hyperu(a, b, r))
        assert got == pytest.approx(ref, rel=1e-8, abs=0.0)

    def test_series_budget_exhaustion_raises(self, monkeypatch):
        # the float64 two-series route needs over 40 terms at rho = 10;
        # reference from mpmath.hyperu at 30 digits (scipy's is off at 1e-10)
        assert tricomi_psi_series(1.3, 1.5, 10.0) == pytest.approx(0.04574487860469938, rel=1e-13, abs=0.0)
        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 10)
        with pytest.raises(ConvergenceError):
            tricomi_psi_series(1.3, 1.5, 10.0)

    @pytest.mark.parametrize("rho", [350.0, 450.0])
    def test_series_refuses_rho_past_300(self, rho):
        # the router sends only rho <= 8 to the series; past 300 its two
        # Phi terms near float64 overflow, and it refuses
        with pytest.raises(ConvergenceError, match="series-form budget"):
            tricomi_psi_series(1.3, 1.5, rho)


class TestQuadratureEngines:
    @pytest.mark.parametrize("p", [-0.9, -0.5, 0.0, 0.5, 2.0, 6.5])
    def test_halfline_gamma_law(self, p):
        # int_0^inf t^p e^-t dt = Gamma(p+1)
        assert exp_halfline_quad(lambda t: 1.0, p) == pytest.approx(gamma(p + 1.0), rel=1e-11)

    def test_halfline_exponential_integral(self):
        # int_0^inf e^-t/(1+t) dt = e * E1(1)
        val = exp_halfline_quad(lambda t: 1.0 / (1.0 + t), 0.0)
        assert val == pytest.approx(0.59634736232319407434, rel=1e-12, abs=0.0)

    def test_halfline_level_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "_QUAD_MAX_LEVEL", 1)
        with pytest.raises(ConvergenceError, match="no convergence at level 1"):
            exp_halfline_quad(lambda t: 1.0 / (1.0 + t), 0.0)

    def test_halfline_power_floor(self):
        with pytest.raises(DomainError):
            exp_halfline_quad(lambda t: 1.0, -0.96)
