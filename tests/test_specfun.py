"""Special-function layer: frozen reference values, exact closed-form laws,
cross-checks against independent implementations (math / scipy / mpmath were
never used to produce the frozen digits below; those came from 40+ digit
integer-series arithmetic), and property tests for the identities every
downstream module leans on.
"""

import math
import random
import sys
from unittest import mock

import mpmath
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from calogero import specfun
from calogero.errors import ConvergenceError, DomainError
from calogero.specfun import (
    digamma,
    digamma_shift,
    gamma,
    gammaln_shift,
    gammaln_signed,
    kummer_phi,
    rgamma,
    tricomi_psi,
    tricomi_psi_on,
    tricomi_psi_series,
    trigamma,
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

    @given(st.floats(min_value=-50.0, max_value=50.0, **finite).filter(off_pole))
    @settings(max_examples=200)
    def test_accuracy_contract_both_signs(self, z):
        # scipy computes through an unrelated code path (Cephes); where
        # Gamma leaves float64 (|z| < 5.6e-309) the answer is a typed refusal
        with mpmath.workdps(40):
            overflows = abs(mpmath.gamma(mpmath.mpf(z))) > sys.float_info.max
        if overflows:
            with pytest.raises(ConvergenceError):
                gamma(z)
        else:
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


def _draws(seed: int, n: int) -> tuple[list[float], list[float]]:
    """n seeded draws uniform on (-50, 171.6), Gamma's float64 range with
    the poles below it, and n/4 within 1e-15 to 0.5 of a pole."""
    rng = random.Random(seed)
    uniform = [rng.uniform(-50.0, 171.6) for _ in range(n)]
    near_pole = []
    for _ in range(n // 4):
        z = -rng.randint(0, 49) + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, -0.3)
        if z != round(z):
            near_pole.append(z)
    return uniform, near_pole


@pytest.mark.parametrize("seed", [1, 2])
def test_gamma_functions_against_40_digit_mpmath(seed):
    """The accuracy contract of gamma, rgamma and gammaln_signed: 2e-15
    relative for Gamma and 1/Gamma, 4e-15 max(1, |ln Gamma|) absolute for
    ln |Gamma| with the right sign.  Next to a pole ln |Gamma(z)| is the
    reflection's difference ln pi - ln |sin pi z| - ln Gamma(1 - z), whose
    terms round on the scale of ln Gamma(1 - z): 9e-15 absolute at
    z = -16 + 3.2e-14, where ln |Gamma| is 0.40 and ln Gamma(1 - z) 30.7,
    so on the draws next to a pole that scale counts too."""
    uniform, near_pole = _draws(seed, 2000)
    worst = {"gamma": 0.0, "rgamma": 0.0, "gammaln_signed": 0.0}
    with mpmath.workdps(40):
        for zs, by_a_pole in ((uniform, False), (near_pole, True)):
            for z in zs:
                ref = mpmath.gamma(mpmath.mpf(z))
                ln_ref = float(mpmath.log(abs(ref)))
                worst["gamma"] = max(worst["gamma"], float(abs(gamma(z) / ref - 1)))
                worst["rgamma"] = max(worst["rgamma"], float(abs(rgamma(z) * ref - 1)))
                lg, sg = gammaln_signed(z)
                assert sg == (1.0 if ref > 0 else -1.0), z
                scale = max(1.0, abs(ln_ref))
                if by_a_pole:
                    scale = max(scale, math.lgamma(1.0 - z))
                worst["gammaln_signed"] = max(worst["gammaln_signed"], abs(lg - ln_ref) / scale)
    assert worst["gamma"] <= 2e-15, worst
    assert worst["rgamma"] <= 2e-15, worst
    assert worst["gammaln_signed"] <= 4e-15, worst


class TestGammaAtTheEdgesOfFloat64:
    def test_gamma_past_float64_is_a_typed_refusal(self):
        # Gamma(z) ~ 1/z passes float64 for |z| < 5.6e-309
        for z in (5e-324, -5e-324, 1e-309, 171.7, 180.75):
            with pytest.raises(ConvergenceError):
                gamma(z)

    def test_gamma_at_the_top_of_float64(self):
        with mpmath.workdps(40):
            ref = mpmath.gamma(171.6)
        assert gamma(171.6) == pytest.approx(float(ref), rel=2e-15, abs=0.0)

    def test_gamma_underflow_is_a_signed_zero(self):
        assert gamma(-200.5) == 0.0 and math.copysign(1.0, gamma(-200.5)) == -1.0

    @pytest.mark.parametrize("z", [-171.5, -200.5, -184.25])
    def test_reciprocal_past_float64_is_a_typed_refusal(self, z):
        # |1/Gamma(-171.5)| ~ 5e308; at -200.5 Gamma underflows to -0.0
        with pytest.raises(ConvergenceError):
            rgamma(z)

    @pytest.mark.parametrize("z", [171.7, 175.0, 5e-324, -5e-324, 1e-310])
    def test_reciprocal_where_gamma_overflows(self, z):
        # 1/Gamma is subnormal there and keeps only the digits its spacing
        # leaves (3e-8 relative at z = 175); exp(-ln |Gamma|) lands on the
        # float that the 40-digit value rounds to
        with mpmath.workdps(40):
            ref = mpmath.rgamma(mpmath.mpf(z))
        assert rgamma(z) == pytest.approx(float(ref), rel=2e-13, abs=0.0)
        assert math.copysign(1.0, rgamma(z)) == math.copysign(1.0, z)

    def test_reciprocal_underflows_past_its_subnormals(self):
        assert rgamma(200.0) == 0.0

    def test_log_gamma_at_the_smallest_subnormal(self):
        # ln Gamma(z) = -ln z - euler z + ..., 744.44 at the smallest subnormal
        with mpmath.workdps(40):
            ref = float(mpmath.loggamma(mpmath.mpf(5e-324)))
        assert gammaln_signed(5e-324) == (pytest.approx(ref, rel=4e-15, abs=0.0), 1.0)
        assert gammaln_signed(-5e-324) == (pytest.approx(ref, rel=4e-15, abs=0.0), -1.0)

    def test_log_gamma_past_float64_is_a_typed_refusal(self):
        with pytest.raises(ConvergenceError):
            gammaln_signed(1e306)

    @pytest.mark.parametrize("name", ["gamma", "rgamma", "gammaln_signed"])
    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
    def test_non_finite_argument_is_a_domain_error(self, name, z):
        with pytest.raises(DomainError):
            getattr(specfun, name)(z)


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


class TestTrigamma:
    def test_frozen_values(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-15, abs=0.0)
        assert trigamma(0.5) == pytest.approx(math.pi**2 / 2.0, rel=1e-15, abs=0.0)

    @given(st.floats(min_value=0.0, max_value=1e3, exclude_min=True, **finite))
    @settings(max_examples=300)
    def test_matches_mpmath_on_the_positive_axis(self, z):
        with mpmath.workdps(30):
            ref = float(mpmath.psi(1, mpmath.mpf(z)))
        if ref == math.inf:  # psi'(z) ~ 1/z^2 leaves float64 below z ~ 7.5e-155
            assert trigamma(z) == math.inf
            return
        assert abs(trigamma(z) - ref) <= 1e-15 * ref

    @given(
        st.tuples(st.integers(0, 10**3), st.floats(1e-150, 1.0, exclude_max=True)).map(
            lambda m_f: m_f[1] - m_f[0] - 1.0
        ).filter(lambda z: z != math.floor(z))
    )
    @settings(max_examples=300)
    def test_reflection_matches_mpmath(self, z):
        # pi^2 / sin^2(pi z) >= pi^2 dominates psi'(1-z) <= pi^2/6, so the
        # reflection keeps the few ulps of its two terms
        with mpmath.workdps(30):
            ref = mpmath.psi(1, mpmath.mpf(z))
        assert abs(trigamma(z) - float(ref)) <= 4e-15 * float(ref)

    @given(st.floats(min_value=0.01, max_value=1e3, **finite))
    @settings(max_examples=100)
    def test_is_the_derivative_of_digamma(self, z):
        # psi(z + h) - psi(z - h) = 2 h psi'(z) + O(h^3), through digamma_shift
        h = 1e-4 * z
        central = digamma_shift(z - h, 2.0 * h) / (2.0 * h)
        assert central == pytest.approx(trigamma(z), rel=1e-7)

    @pytest.mark.parametrize("z", [0.0, -4.0, math.nan, math.inf])
    def test_poles_and_non_finite_raise(self, z):
        with pytest.raises(DomainError):
            trigamma(z)


class TestDigammaShift:
    @given(
        st.floats(min_value=0.0, max_value=1e6, exclude_min=True, **finite),
        # kappa = 0, or a shift whose difference stays a normal float
        st.one_of(st.just(0.0), st.floats(min_value=1e-280, max_value=1.0, exclude_max=True)),
    )
    @settings(max_examples=300)
    def test_matches_mpmath_at_30_digits(self, alpha, kappa):
        # psi(alpha) - psi(alpha - kappa) as the norm of a ground state forms
        # it, a shift of b = alpha - kappa by kappa; the reference takes the
        # same float b, so its rounding is no part of the comparison, and
        # works with as many more digits as its subtraction cancels, so the
        # difference itself keeps 30.  psi(x) = psi(x + 1) - 1/x takes the
        # pole out of that subtraction: the 1/x terms meet as the positive
        # kappa / (b (b + kappa)), and psi(b + 1 + kappa) - psi(b + 1) >=
        # kappa / (b + 2) cancels no more than ~log10((b + 2)^2 / kappa)
        # digits, not the ~log10(1 / (b kappa)) of the unshifted pair, whose
        # working precision reaches ~600 digits and a half-second reference
        b = alpha - kappa
        assume(b > 0.0)
        if kappa == 0.0:
            assert digamma_shift(b, kappa) == 0.0
            return
        lost = math.ceil(math.log10(b + kappa + 2.0) - math.log10(kappa) + math.log10(b + 2.0))
        with mpmath.workdps(30 + max(0, lost)):
            bm, km = mpmath.mpf(b), mpmath.mpf(kappa)
            ref = mpmath.digamma(bm + km + 1) - mpmath.digamma(bm + 1) + km / (bm * (bm + km))
        assert abs(digamma_shift(b, kappa) - float(ref)) <= 4e-15 * abs(float(ref))

    @pytest.mark.parametrize("b, d", [(6.520774560595715e17, 0.05), (1.370189597668985e33, 0.05), (1e17, -0.75)])
    def test_huge_arguments_do_not_cancel(self, b, d):
        # the two digammas agree in every float64 digit here
        assert digamma(b + d) - digamma(b) == 0.0
        with mpmath.workdps(60):
            ref = mpmath.digamma(mpmath.mpf(b) + mpmath.mpf(d)) - mpmath.digamma(mpmath.mpf(b))
        assert digamma_shift(b, d) == pytest.approx(float(ref), rel=1e-15, abs=0.0)

    def test_zero_shift(self):
        assert digamma_shift(3.7, 0.0) == 0.0

    @given(
        st.floats(min_value=0.01, max_value=1e6, **finite),
        st.floats(min_value=-0.005, max_value=5.0, **finite),
    )
    @settings(max_examples=100)
    def test_reverse_shift_is_negated(self, b, d):
        assert digamma_shift(b + d, -d) == pytest.approx(-digamma_shift(b, d), rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("b,d", [(0.0, 1.0), (-1.0, 5.0), (2.0, -2.0), (1.0, float("inf")), (math.nan, 0.5)])
    def test_domain_errors(self, b, d):
        with pytest.raises(DomainError):
            digamma_shift(b, d)


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

    @pytest.mark.parametrize("rho", [676.0, 1e4, math.inf])
    def test_sum_past_float64_is_refused(self, rho):
        # Phi grows like e^rho; the series used to stop on inf <= tol * inf
        with pytest.raises(ConvergenceError, match=rf"Phi\(80\.75, 1\.5; {rho!r}\) overflows float64"):
            kummer_phi(80.75, 1.5, rho)
        assert math.isfinite(kummer_phi(80.75, 1.5, 300.0))  # ~ e^480

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
        # the acceptance grid runs this too; keep a quick local version.  The
        # routes are compared only where the series answers: an over-budget
        # point is refused with a type, and the router's recurrence (from
        # rho = 1, past beta - 2 alpha) or its sweep (below) answers it
        worst, compared = 0.0, 0
        for a in (0.1, 0.6, 1.3, 2.5, 7.5):
            for b in (1.5, 2.25, 3.75):
                for r in (0.1, 1.0, 10.0, 60.0):
                    if r < specfun._psi_cf_floor(a, b):
                        other = tricomi_psi_on(a, b, [r])[0]
                    else:
                        other = math.exp(specfun._psi_log(a, b, r)[0])
                    try:
                        s = tricomi_psi_series(a, b, r)
                    except ConvergenceError:
                        assert tricomi_psi(a, b, r) == other
                        continue
                    worst = max(worst, abs(s - other) / abs(s))
                    compared += 1
        assert compared == 36
        assert worst <= 1e-10  # 1.1e-12 at Psi(1.3, 2.25; 10)

    def test_integer_beta_routes_past_the_series(self):
        # the series form must refuse integer beta; the router must not
        with pytest.raises(DomainError):
            tricomi_psi_series(1.3, 2.0, 1.0)
        assert tricomi_psi(1.3, 2.0, 1.0) > 0.0
        assert tricomi_psi(1.3, 2.0 + 5e-9, 1.0) == pytest.approx(tricomi_psi(1.3, 2.0, 1.0), rel=1e-7)

    def test_past_the_series_psi_and_the_seed_slope_match_40_digit_hyperu(self):
        # every value the series does not answer comes from the recurrence
        # in alpha (from rho = 1) or from the sweep it seeds (below); the
        # seed's Psi' = -alpha Psi(alpha + 1, beta + 1) is e^(ln Psi) Psi'/Psi.
        # alpha and rho are log-uniform, and half the draws take beta = 1
        rng = random.Random(5001)
        worst, values = 0.0, 0
        for i in range(200):
            a = math.exp(rng.uniform(math.log(0.002), math.log(60.0)))
            b = 1.0 if i % 2 else rng.uniform(1.0, 3.5)
            r = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            seed = max(r, specfun._psi_cf_floor(a, b))
            ln_psi, dlog = specfun._psi_log(a, b, seed)
            with mpmath.workdps(40):
                ref = mpmath.hyperu(a, b, r)
                slope = -a * mpmath.hyperu(a + 1, b + 1, seed)
            worst = max(worst, float(abs(math.exp(ln_psi) * dlog / slope - 1)))
            if b != 1.0 and r <= 8.0:
                try:
                    tricomi_psi_series(a, b, r)
                    continue
                except ConvergenceError:
                    pass
            worst = max(worst, float(abs(tricomi_psi(a, b, r) / ref - 1)))
            values += 1
        assert values == 139
        assert worst <= 1e-13, worst  # 4.7e-14, a seed's Psi'; values 2.5e-14

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

    @pytest.mark.parametrize(
        "a,b,r",
        [
            # rho^(-alpha)/Gamma(alpha) passes e^709 while Psi = 438
            (1.97, 1.0, 2e-189),
            # rho^(-95)/Gamma(95) is subnormal or zero while Psi is not
            (95.0, 1.5, 63.0),
            (95.0, 1.5, 79.4),
            (95.0, 1.5, 500.0),
        ],
    )
    def test_scales_past_float64_keep_digits(self, a, b, r):
        with mpmath.workdps(40):
            ref = float(mpmath.hyperu(a, b, r))
        assert tricomi_psi(a, b, r) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "a,b,r",
        [
            # Psi ~ 1e-330 rounds to 0.0, where the Laplace integral's node
            # weight t^180 e^(-t) passed e^709 near t = 180
            (180.0, 1.0, 3.0),
            # Psi is 2.9e-320, and the second series term, whose prefactor
            # holds the subnormal 1/Gamma(172), carries it: the series refuses
            # the underflowed prefactor, and ln Psi gives the nearest subnormal
            (172.0, 1.9, 1.0),
        ],
    )
    def test_psi_past_the_normal_floats_is_hyperu_rounded(self, a, b, r):
        with mpmath.workdps(40):
            ref = float(mpmath.hyperu(a, b, r))
        assert ref < sys.float_info.min
        assert tricomi_psi(a, b, r) == ref

    @pytest.mark.parametrize(
        "a,b,r",
        [
            # every digit of the float64 series cancels: handed to the integral
            (59.87, 3.968, 5.139),
            (45.75, 1.5, 1.39),
            # beta near an integer: Gamma(1 - beta) lacks the digits that cancel
            (34.99033301109148, 1.0000314934977732, 0.005068561286593332),
            (45.321335049666764, 3.000000016423612, 4.726267507864416),
            # 44 digits cancel where the float64 terms show 12.7: mpmath at
            # 38 digits returned -1.2e-280
            (154.94366628595776, 5.744469356588795, 4.30571037432872),
        ],
    )
    def test_router_matches_hyperu_where_the_series_cancels(self, a, b, r):
        with pytest.raises(ConvergenceError, match="digits cancel"):
            tricomi_psi_series(a, b, r)
        with mpmath.workdps(40):
            ref = float(mpmath.hyperu(a, b, r))
        assert tricomi_psi(a, b, r) == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_router_hands_a_fully_cancelled_series_to_the_recurrence(self, monkeypatch):
        calls = []
        recurrence = specfun._psi_log

        def counting(a, b, r):
            calls.append((a, b, r))
            return recurrence(a, b, r)

        monkeypatch.setattr(specfun, "_psi_log", counting)
        with pytest.raises(ConvergenceError, match="digits cancel"):
            tricomi_psi_series(59.87, 3.968, 5.139)
        assert calls == []
        tricomi_psi(59.87, 3.968, 5.139)
        assert calls == [(59.87, 3.968, 5.139)]
        tricomi_psi(1.3, 1.5, 3.0)
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

    @given(
        st.floats(min_value=math.log(1.2), max_value=math.log(100.0)),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1.0, max_value=7.0, exclude_max=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_band_takes_the_recurrence_and_matches_hyperu(self, ln_a, u, b):
        # the two series cancel ~1.74 sqrt(alpha rho) digits: alpha rho in
        # [9, 55] (rho <= 8) puts most draws in the 5-13 digit band, which
        # the series refuses and the router hands to the recurrence, at rho
        # or, below rho = 1, at the seed of its sweep
        a = math.exp(ln_a)
        r = (9.0 + u * (min(55.0, 8.0 * a) - 9.0)) / a
        assume(abs(b - round(b)) > 1e-6)
        with mpmath.workdps(30):
            am, bm, rm = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(r)
            t1 = mpmath.gamma(1 - bm) * mpmath.rgamma(am - bm + 1) * mpmath.hyp1f1(am, bm, rm)
            t2 = (mpmath.gamma(bm - 1) * mpmath.rgamma(am) * rm ** (1 - bm)
                  * mpmath.hyp1f1(am - bm + 1, 2 - bm, rm))
            ref = mpmath.hyperu(am, bm, rm)
            lost = float(mpmath.log10((abs(t1) + abs(t2)) / ref))
        assume(5.5 < lost < 12.5)
        with pytest.raises(ConvergenceError, match="digits cancel"):
            tricomi_psi_series(a, b, r)
        with mock.patch.object(specfun, "_psi_log", wraps=specfun._psi_log) as recurrence:
            got = tricomi_psi(a, b, r)
        assert recurrence.call_count == 1
        assert got == pytest.approx(float(ref), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize(
        "a,b,r",
        [
            # 10.5 digits lost; the Laplace quadrature did not converge here
            (146.3823893585053, 3.8581192521960097, 0.13595920013435034),
            # 11.3 digits lost; (1 + t/rho)^(beta-alpha-1) underflowed over
            # the Laplace integral's whole weight
            (163.5431713875539, 2.0000240385494554, 0.0020309934977136893),
            # the prefactors' own error counts: 4.8 digits cancel, and the
            # rounding of alpha - beta + 1 costs Psi 1.75e-9 through Gamma
            (164.76325816127522, 1.6789447798965293, 0.04575968491309154),
            (21.265, 1.26, 0.370),  # 1.1e-9 through the prefactors
            (88.155, 1.64, 0.0896),  # 4.5e-9 through the prefactors
        ],
    )
    def test_band_below_rho_1_takes_the_sweep(self, a, b, r):
        with pytest.raises(ConvergenceError, match="digits cancel"):
            tricomi_psi_series(a, b, r)
        with mpmath.workdps(40):
            ref = float(mpmath.hyperu(a, b, r))
        assert tricomi_psi(a, b, r) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "a,b,r",
        [
            (171.5, 1.0, 0.01),  # 1.2e-309: past alpha ~ 171 the integral's weight left float64
            (171.5, 1.5, 0.01),  # 1.4e-308
            (172.0, 5.5, 0.01),  # 6.0e-300, 7e-18 from hyperu
            # 1/Gamma(177) ~ 5e-321 keeps three digits: its prefactor is
            # formed at 1/Gamma(171) and divided by (171)_6, 3.6e-16 off
            (175.0, 10.5, 0.01),
            (177.0, 10.5, 0.01),
        ],
    )
    def test_alpha_past_171_matches_hyperu(self, a, b, r):
        # Gamma(beta - 1) and 1/Gamma(alpha), which past 171 is taken at
        # alpha - m <= 171 and divided by (alpha - m)_m, hold the series'
        # prefactors; ln Psi holds for the rest
        with mpmath.workdps(40):
            ref = float(mpmath.hyperu(a, b, r))
        assert tricomi_psi(a, b, r) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @given(
        st.one_of(
            # near an integer beta the series cancel ~log10(1/d) digits at
            # any rho, and the integral refuses below rho ~ 0.01 from alpha ~ 90
            st.tuples(
                st.floats(min_value=90.0, max_value=140.0),
                st.builds(lambda n, u: n + 10.0**u, st.integers(1, 3), st.floats(min_value=-8.0, max_value=-4.5)),
                st.floats(min_value=math.log(1e-4), max_value=math.log(0.01)).map(math.exp),
            ),
            # off it they cancel ~1.74 sqrt(alpha rho) digits, 5 from
            # alpha rho ~ 8, and the Laplace integral refused there from alpha ~ 128
            st.tuples(
                st.floats(min_value=128.0, max_value=140.0),
                st.floats(min_value=1.0, max_value=4.0),
                st.floats(min_value=0.06, max_value=0.12),
            ),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_former_mpmath_band_matches_hyperu_or_refuses(self, args):
        # the band that an elevated-precision re-run of the series once
        # served and the Laplace integral refused: 5 to 13 digits cancel
        a, b, r = args
        assume(abs(b - round(b)) > 1e-9)
        with mpmath.workdps(30):
            am, bm, rm = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(r)
            t1 = mpmath.gamma(1 - bm) * mpmath.rgamma(am - bm + 1) * mpmath.hyp1f1(am, bm, rm)
            t2 = (mpmath.gamma(bm - 1) * mpmath.rgamma(am) * rm ** (1 - bm)
                  * mpmath.hyp1f1(am - bm + 1, 2 - bm, rm))
            ref = mpmath.hyperu(am, bm, rm)
            lost = float(mpmath.log10((abs(t1) + abs(t2)) / ref))
        assume(5.5 < lost < 12.5)
        with pytest.raises(ConvergenceError, match="digits cancel"):
            tricomi_psi_series(a, b, r)
        try:
            got = tricomi_psi(a, b, r)
        except ConvergenceError:
            return
        assert got == pytest.approx(float(ref), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "a,b,r",
        [
            # integer beta: the Laplace integral's sum underflowed and lost
            # 15 % of Psi = 2.1e-170
            (106.88178639949531, 1.0, 0.0010509308007882214),
            # its sum, 5.4e-308, was a normal float whose subnormal terms
            # left it 0.2 % off
            (39.63541224629746, 1.0, 1.6575332545432653e-08),
            # a kappa = 0 ground state at x = 1e-9: rho^(-alpha)/Gamma(alpha)
            # passes e^709 while Psi = 1.7e-163
            (104.1590999387423, 1.0, 1e-18),
            (21.214704053592893, 1.0, 1e-18),
            (60.0, 2.0, 1e-10),
        ],
    )
    def test_sweep_answers_at_integer_beta_below_its_seed(self, a, b, r):
        with mpmath.workdps(30):
            ref = float(mpmath.hyperu(a, b, r))
        assert tricomi_psi(a, b, r) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @given(
        st.floats(min_value=100.0, max_value=180.0),
        st.floats(min_value=1.0, max_value=7.0),
        st.floats(min_value=math.log(1e-4), max_value=math.log(8.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_large_alpha_is_positive_or_refused(self, a, b, ln_r):
        r = math.exp(ln_r)
        try:
            got = tricomi_psi(a, b, r)
        except ConvergenceError:
            return
        if got == 0.0:  # only where Psi itself rounds to zero
            with mpmath.workdps(40):
                assert float(mpmath.hyperu(a, b, r)) == 0.0
        else:
            assert got > 0.0

    def test_series_budget_exhaustion_raises(self, monkeypatch):
        # the float64 two-series route needs over 40 terms at rho = 10, where
        # it cancels 6.3 digits and the router answers from the integral;
        # reference from mpmath.hyperu at 30 digits (scipy's is off at 1e-10)
        with pytest.raises(ConvergenceError, match="digits cancel"):
            tricomi_psi_series(1.3, 1.5, 10.0)
        assert tricomi_psi(1.3, 1.5, 10.0) == pytest.approx(0.04574487860469938, rel=1e-13, abs=0.0)
        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 10)
        with pytest.raises(ConvergenceError, match="no convergence in 10 terms"):
            tricomi_psi_series(1.3, 1.5, 10.0)

    @pytest.mark.parametrize("rho", [350.0, 450.0])
    def test_series_refuses_rho_past_300(self, rho):
        # the router sends only rho <= 8 to the series; past 300 its two
        # Phi terms near float64 overflow, and it refuses
        with pytest.raises(ConvergenceError, match="series-form budget"):
            tricomi_psi_series(1.3, 1.5, rho)


def _psi_from_recurrence(a, b, r):
    return math.exp(specfun._psi_log(a, b, r)[0])


class TestPsiRecurrence:
    def test_floor_keeps_the_fractions_first_denominator_at_least_2(self):
        assert specfun._psi_cf_floor(0.5, 1.0) == 1.0
        assert specfun._psi_cf_floor(1.0, 20.0) == 18.0
        for a, b in ((0.002, 1.0), (0.3, 3.5), (1.0, 20.0), (60.0, 3.0)):
            r = specfun._psi_cf_floor(a, b)
            assert r >= 1.0
            assert r + 2.0 * a + 2.0 - b >= 2.0

    @pytest.mark.parametrize(
        "a,b,r",
        [
            # Wronskian normalisation at all three alphas
            (1.5, 1.0, 1.0),
            (2.5, 2.25, 3.0),
            (7.5, 1.0, 20.0),
            (1.2, 1.0, 5.0),
            # Temme's sum at all three
            (3.0, 1.5, 60.0),
            (12.0, 3.5, 150.0),
        ],
    )
    def test_three_term_recurrence_in_alpha_holds(self, a, b, r):
        # DLMF 13.3.7: Psi(a - 1) + (b - 2a - rho) Psi(a) + a (a - b + 1) Psi(a + 1) = 0
        terms = (
            _psi_from_recurrence(a - 1.0, b, r),
            (b - 2.0 * a - r) * _psi_from_recurrence(a, b, r),
            a * (a - b + 1.0) * _psi_from_recurrence(a + 1.0, b, r),
        )
        assert abs(math.fsum(terms)) <= 1e-14 * math.fsum(map(abs, terms))  # 1.5e-15

    @pytest.mark.parametrize("a,b", [(0.7, 1.0), (3.0, 2.5), (1.5, 3.5), (40.0, 1.0)])
    def test_both_normalisations_meet_at_their_switch(self, a, b):
        # `_psi_log` takes Temme's sum past this rho and the Wronskian up to it
        switch = 16.0 + a + 2.0 * b + a * max(0.0, b - a - 1.0)
        below = specfun._psi_log(a, b, switch)
        above = specfun._psi_log(a, b, math.nextafter(switch, math.inf))
        with mpmath.workdps(40):
            ref = mpmath.hyperu(a, b, switch)
            slope = -a * mpmath.hyperu(a + 1, b + 1, switch) / ref
        for ln_psi, dlog in (below, above):
            assert float(abs(mpmath.exp(ln_psi) / ref - 1)) <= 1e-13  # 3.0e-14 at (40, 1), below
            assert float(abs(dlog / slope - 1)) <= 1e-13

    @pytest.mark.parametrize(
        "a,b,r",
        [
            # Phi ~ e^725 and e^758: the Wronskian's sum passes 1e280 and
            # is carried as a mantissa times 2^-900
            (10.0, 100.0, 1000.0),
            (8.0, 120.0, 1100.0),
        ],
    )
    def test_wronskian_sum_past_float64_keeps_digits(self, a, b, r):
        ln_psi, dlog = specfun._psi_log(a, b, r)
        with mpmath.workdps(40):
            ref = mpmath.hyperu(a, b, r)
            slope = -a * mpmath.hyperu(a + 1, b + 1, r) / ref
            assert float(abs(ln_psi - mpmath.log(ref))) <= 1e-13 * float(abs(mpmath.log(ref)))
        assert float(abs(dlog / slope - 1)) <= 1e-13

    @pytest.mark.parametrize(
        "a,b,r",
        [
            # alpha y and Phi's first term, taken before the sum divided by
            # alpha, rounded onto the subnormal grid: Psi(5e-324, 1.5; 2) read 2.3
            (5e-324, 1.5, 2.0),
            (1e-310, 1.0, 3.0),
            (1e-300, 2.5, 1.0),
        ],
    )
    def test_subnormal_alpha_keeps_its_digits(self, a, b, r):
        # Psi(alpha, beta; rho) = 1 - O(alpha)
        assert _psi_from_recurrence(a, b, r) == pytest.approx(1.0, rel=1e-15, abs=0.0)

    def test_fraction_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "_CF_MAX_TERMS", 50)
        with pytest.raises(ConvergenceError, match="continued fraction needs more than 50 terms"):
            specfun._psi_log(1.3, 1.5, 1.0)
        # integer beta: the router's only route at rho = 1 is the recurrence
        with pytest.raises(ConvergenceError, match="continued fraction needs more than 50 terms"):
            tricomi_psi(1.3, 1.0, 1.0)

    def test_wronskian_sum_budget_exhaustion_raises(self, monkeypatch):
        # the fraction converges in under 20 terms here, and Phi's sum needs ~rho
        monkeypatch.setattr(specfun, "_CF_MAX_TERMS", 300)
        with pytest.raises(ConvergenceError, match="Phi's sum needs more than 300 terms"):
            specfun._psi_log(10.0, 100.0, 1000.0)
