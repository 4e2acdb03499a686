"""Representation layer: the positive solution phi, the superpotential, the
first-order operator pair, and the second-order identity they must satisfy.
"""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calogero import cli, factorization
from calogero.errors import ConvergenceError, DomainError
from calogero.factorization import (
    RepresentationParams,
    apply_a,
    factorization_residual,
    kernel_sweep,
    make_phi,
    residual_sweep,
)
from calogero.params import reduce
from calogero.specfun import tricomi_psi
from calogero.spectral import theta_of

# smooth compactly-decaying probes with hand-derived derivatives
F1 = (
    lambda x: x * x * math.exp(-x * x),
    lambda x: (2.0 * x - 2.0 * x**3) * math.exp(-x * x),
    lambda x: (2.0 - 10.0 * x * x + 4.0 * x**4) * math.exp(-x * x),
)
F2 = (
    lambda x: x**3 * math.exp(-x),
    lambda x: (3.0 * x * x - x**3) * math.exp(-x),
    lambda x: (6.0 * x - 6.0 * x * x + x**3) * math.exp(-x),
)
F3 = (
    lambda x: math.sin(x) ** 2 * math.exp(-x * x),
    lambda x: (math.sin(2.0 * x) - 2.0 * x * math.sin(x) ** 2) * math.exp(-x * x),
    lambda x: (
        2.0 * math.cos(2.0 * x)
        - 4.0 * x * math.sin(2.0 * x)
        + (4.0 * x * x - 2.0) * math.sin(x) ** 2
    )
    * math.exp(-x * x),
)


def rep_of(g1, g2, mu, w):
    return RepresentationParams(mu=mu, w=w, rp=reduce(g1, g2))


class TestRepresentationParams:
    def test_validation(self):
        rp = reduce(0.0, 1.0)
        with pytest.raises(DomainError):
            RepresentationParams(mu=-0.1, w=0.0, rp=rp)
        with pytest.raises(DomainError):
            RepresentationParams(mu=2.0, w=0.0, rp=rp)
        with pytest.raises(DomainError):
            RepresentationParams(mu=0.3, w=rp.w0 - 0.01, rp=rp)

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
    def test_non_finite_shift_refused(self, w):
        with pytest.raises(DomainError, match="must be finite"):
            RepresentationParams(mu=0.3, w=w, rp=reduce(0.0, 1.0))

    def test_shift_wiring(self):
        rep = rep_of(0.0, 16.0, 0.2, -0.5)
        assert rep.u == pytest.approx(4.0 * 4.0 * -0.5, rel=1e-14, abs=0.0)
        assert rep_of(0.0, 1.0, 0.0, reduce(0.0, 1.0).w0).at_floor


class TestFloorSolution:
    def test_value_contract(self):
        # kappa=1, upsilon=1: phi(1) = e^{-1/2} rho^{3/4} = e^{-1/2}
        rep = rep_of(0.75, 1.0, 0.3, reduce(0.75, 1.0).w0)
        assert make_phi(rep).value_at(1.0) == pytest.approx(math.exp(-0.5), rel=1e-14, abs=0.0)

    def test_superpotential_contract(self):
        rp = reduce(0.75, 1.0)
        phi = make_phi(RepresentationParams(0.0, rp.w0, rp))
        assert phi.superpotential_at(1.0) == pytest.approx(0.5, abs=1e-13)
        rp0 = reduce(-0.25, 1.0)
        phi0 = make_phi(RepresentationParams(0.0, rp0.w0, rp0))
        assert phi0.superpotential_at(1.0) == pytest.approx(-0.5, abs=1e-13)

    def test_mu_is_ignored_at_floor(self):
        rp = reduce(0.0, 2.0)
        a = make_phi(RepresentationParams(0.0, rp.w0, rp))
        b = make_phi(RepresentationParams(1.2, rp.w0, rp))
        for x in (0.2, 1.0, 3.0):
            assert a.value_at(x) == b.value_at(x)


PROBE_REPS = [
    (0.0, 1.0, 0.0, -0.25),
    (0.0, 1.0, 0.7, 0.3),
    (0.0, 4.0, math.pi / 2, 0.0),
    (-0.25, 1.0, 0.4, 0.1),
    (-0.25, 2.25, 0.0, -0.2),
    (0.75, 1.0, 0.3, -0.4),
    (-0.1875, 1.0, 1.0, 0.25),
]


class TestSolutionCalculus:
    @pytest.mark.parametrize("g1,g2,mu,w", PROBE_REPS)
    @pytest.mark.parametrize("x", [0.11, 0.6, 1.7])
    def test_derivative_matches_finite_difference(self, g1, g2, mu, w, x):
        sol = make_phi(rep_of(g1, g2, mu, w))
        h = 1e-5 * x
        fd = (sol.value_at(x + h) - sol.value_at(x - h)) / (2.0 * h)
        assert sol.derivative_at(x) == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize("g1,g2,mu,w", PROBE_REPS)
    @pytest.mark.parametrize("x", [0.11, 0.6, 1.7])
    def test_second_derivative_matches_finite_difference(self, g1, g2, mu, w, x):
        sol = make_phi(rep_of(g1, g2, mu, w))
        h = 1e-3 * x
        fd = (sol.value_at(x + h) - 2.0 * sol.value_at(x) + sol.value_at(x - h)) / (h * h)
        # the FD value itself carries eps*phi/h^2 rounding noise, so the
        # comparison scale must include the function, not just phi''
        tol = 1e-4 * (abs(fd) + abs(sol.value_at(x)) / (x * x))
        assert abs(sol._phi_pp(x, *sol._jet(x, 2)) - fd) <= tol

    @pytest.mark.parametrize("g1,g2,mu,w", PROBE_REPS)
    def test_positivity(self, g1, g2, mu, w):
        sol = make_phi(rep_of(g1, g2, mu, w))
        for x in (0.01, 0.1, 0.5, 1.0, 2.0, 4.0):
            assert sol.value_at(x) > 0.0

    @pytest.mark.parametrize("g1,g2,mu,w", PROBE_REPS)
    def test_superpotential_is_log_derivative(self, g1, g2, mu, w):
        sol = make_phi(rep_of(g1, g2, mu, w))
        for x in (0.3, 1.2):
            assert sol.superpotential_at(x) == pytest.approx(
                sol.derivative_at(x) / sol.value_at(x), rel=1e-11, abs=0.0
            )

    @pytest.mark.parametrize("call", [
        lambda phi: phi.value_at(26.0),  # rho = 676: Phi passes float64 where phi ~ e^588 does not
        lambda phi: phi.value_at(100.0),  # the envelope is 0.0 there, so the product was NaN
        lambda phi: phi.derivative_at(26.0),
        lambda phi: phi.values_on([30.0, 2.0]),
        lambda phi: phi.values_on([2.0, 100.0]),  # Phi overflows where the envelope is 0.0
    ])
    def test_phi_past_float64_is_a_typed_refusal(self, call):
        # mu > 0 mixes in Phi(alpha, beta; rho), which grows like e^rho;
        # these calls once returned inf or NaN
        phi = make_phi(RepresentationParams(0.7, 80.0, reduce(0.0, 1.0)))
        with pytest.raises(ConvergenceError, match=r"kummer_phi: Phi\(80\.75, 1\.5; [0-9.]+\) overflows"):
            call(phi)

    def test_rejects_nonpositive_x(self):
        sol = make_phi(rep_of(0.0, 1.0, 0.3, 0.0))
        with pytest.raises(DomainError):
            sol.value_at(0.0)
        with pytest.raises(DomainError):
            sol.value_at(-1.0)


class TestOperatorPair:
    @pytest.mark.parametrize("g1,g2,mu,w", PROBE_REPS)
    @pytest.mark.parametrize("x", [0.15, 0.8, 2.1])
    def test_a_annihilates_phi(self, g1, g2, mu, w, x):
        sol = make_phi(rep_of(g1, g2, mu, w))
        scale = abs(sol.derivative_at(x)) + abs(sol.superpotential_at(x) * sol.value_at(x))
        assert abs(apply_a(sol, sol, x)) <= 1e-10 * scale

    @pytest.mark.parametrize("g1,g2,mu,w", PROBE_REPS)
    @pytest.mark.parametrize("x", [0.15, 0.8, 2.1])
    def test_b_annihilates_inverse_phi(self, g1, g2, mu, w, x):
        # b f = -f' - h f, the left factor of the b a that
        # factorization_residual checks, sends 1/phi to 0 iff the
        # superpotential h is phi'/phi at x
        sol = make_phi(rep_of(g1, g2, mu, w))
        v, d = 1.0 / sol.value_at(x), -sol.derivative_at(x) / sol.value_at(x) ** 2
        scale = abs(d) + abs(sol.superpotential_at(x) * v)
        assert abs(-d - sol.superpotential_at(x) * v) <= 1e-10 * scale

    def test_rejects_bare_callable(self):
        sol = make_phi(rep_of(0.0, 1.0, 0.3, 0.0))
        with pytest.raises(DomainError):
            apply_a(sol, math.exp, 1.0)


class TestFactorizationIdentity:
    @pytest.mark.parametrize("g1,g2,mu,w", PROBE_REPS)
    @pytest.mark.parametrize("probe", [F1, F2, F3])
    def test_residual_vanishes(self, g1, g2, mu, w, probe):
        rep = rep_of(g1, g2, mu, w)
        rp = rep.rp
        phi = make_phi(rep)
        for x in (0.12, 0.55, 1.3, 2.4):
            f, _, fpp = probe
            scale = abs(fpp(x)) + (abs(rp.g1) / x**2 + rp.g2 * x**2 + abs(rep.u)) * abs(f(x)) + 1e-30
            assert abs(factorization_residual(phi, probe, x)) <= 1e-9 * scale

    def test_shift_hook_breaks_identity(self):
        phi = make_phi(rep_of(0.0, 1.0, 0.4, 0.2))
        x = 0.9
        clean = abs(factorization_residual(phi, F1, x))
        broken = abs(factorization_residual(phi, F1, x, h_shift=0.5))
        assert broken > 1e-3
        assert broken > 1e6 * max(clean, 1e-300)

    def test_sweeps_fail_on_nan_and_keep_the_first_worst_x(self):
        # the sweeps behind factorize-check and verify row 6: a NaN anywhere
        # is the worst value, and among equal values the first x is reported
        phi = make_phi(rep_of(0.0, 1.0, 0.4, 0.2))
        worst, x = residual_sweep(phi, lambda phi, f, x, h_shift: math.nan if x == 1.3 else 0.0)
        assert math.isnan(worst) and x == 1.3
        # two NaN points, one of them the last: the first is kept
        worst, x = residual_sweep(phi, lambda phi, f, x, h_shift: math.nan if x in (0.7, 2.1) else 0.0)
        assert math.isnan(worst) and x == 0.7
        # a NaN at one test function only, after a larger finite value
        seen = []

        def one_nan(phi, f, x, h_shift):
            seen.append(f)
            return math.nan if x >= 1.3 and f[0] is factorization._PROBES[2][0] else 1e9

        worst, x = residual_sweep(phi, one_nan)
        assert math.isnan(worst) and x == 1.3 and len(seen) == 12

        # equal worst values: the first test function's wins, although the
        # points are walked outermost
        def tied(phi, f, x, h_shift):
            rhs = -f[2](x) + (phi.rep.rp.g1 / (x * x) + x * x + 4.0 * phi.rep.w) * f[0](x)
            first = (f[0], x) in ((factorization._PROBES[0][0], 0.7), (factorization._PROBES[1][0], 0.3))
            return 2.0 * max(1.0, abs(rhs)) if first else 0.0

        assert residual_sweep(phi, tied) == (2.0, 0.7)
        # a `states` request whose worst residual, one ulp, is tied: the first
        # test function's at z = 0.7 and the third's at z = 0.3
        rep = rep_of(-0.18272211476447528, 494.1945456577101, 0.9794085358672202, -0.6256381679656154)
        assert residual_sweep(make_phi(rep), factorization_residual) == (2.220446049250313e-16, 0.7)
        assert residual_sweep(phi, lambda phi, f, x, h_shift: math.inf) == (math.inf, 0.3)
        assert residual_sweep(phi, lambda phi, f, x, h_shift: 0.0) == (0.0, 0.0)
        assert residual_sweep(phi, factorization_residual, 0.5)[0] > 1e-3
        rp = reduce(0.75, 1.0)
        assert kernel_sweep(make_phi(RepresentationParams(0.3, rp.w0, rp))) <= 1e-12

    @pytest.mark.parametrize("x", [0.3, 0.7, 1.3, 2.1])
    def test_large_shift_far_out(self, x):
        # the residual points of `factorize-check --g1 0 --g2 1000 --mu 0
        # --w 95` while its checks ran in x: z = 1000^(1/4) x reaches
        # rho = 139, where the Psi integral's scale rho^(-alpha)/Gamma(alpha)
        # (alpha = 95.75) is below the subnormals.  Psi(alpha, 3/2; rho) and
        # phi''/phi = V + 4w hold to 1e-11 there, the bound that case had
        phi = make_phi(rep_of(0.0, 1.0, 0.0, 95.0))
        z = 1000.0**0.25 * x
        with mpmath.workdps(40):
            ref = mpmath.hyperu(95.75, 1.5, z * z)
            assert abs(tricomi_psi(95.75, 1.5, z * z) - ref) <= 1e-11 * ref
        v = z * z + 4.0 * 95.0
        assert abs(phi._phi_pp(z, *phi._jet(z, 2)) / phi.value_at(z) - v) <= 1e-11 * v

    def test_residual_at_floor_is_exact_algebra(self):
        rp = reduce(0.75, 1.0)
        phi = make_phi(RepresentationParams(0.0, rp.w0, rp))
        for x in (0.2, 1.0, 3.1):
            assert abs(factorization_residual(phi, F2, x)) <= 1e-12 * (1.0 + abs(F2[2](x)))


class TestBoundaryAngle:
    """The small-x coefficients (A~, B~) of phi fix the boundary angle
    that `spectral.theta_of` computes from the boundary function."""

    def test_angle_vanishes_with_the_gamma_ratio(self):
        # mu=0, kappa=1/2, w=-1/4: alpha-kappa = 0 kills the gamma ratio, so A~ = 0
        assert theta_of(0.0, -0.25, reduce(0.0, 1.0)) == pytest.approx(0.0, abs=1e-14)

    def test_angle_of_actual_small_x_behaviour_kappa_positive(self):
        rep = rep_of(0.0, 1.0, 0.5, 0.15)  # kappa = 1/2
        sol = make_phi(rep)
        k, ups = rep.rp.kappa, rep.rp.upsilon
        q = 0.25 + 0.5 * k

        def S(x):
            rho = (ups * x) ** 2
            return sol.value_at(x) / (math.exp(-0.5 * rho) * rho**q)

        x1, x2 = 1e-3, 5e-4
        r1, r2 = (ups * x1) ** 2, (ups * x2) ** 2
        b_fit = (S(x1) - S(x2)) / (r1**-k - r2**-k)
        a_fit = S(x1) - b_fit * r1**-k
        assert b_fit == pytest.approx(math.cos(rep.mu), rel=1e-5)  # B~ = cos mu
        # A~ extraction carries the next-order O(rho^(1-kappa)) correction,
        # ~1e-3 at rho = 1e-6
        assert math.atan2(a_fit, b_fit) == pytest.approx(theta_of(rep.mu, rep.w, rep.rp), abs=3e-3)

    def test_angle_of_actual_small_x_behaviour_kappa_zero(self):
        rep = rep_of(-0.25, 1.0, 0.6, 0.2)
        sol = make_phi(rep)
        ups = rep.rp.upsilon

        def S(x):
            rho = (ups * x) ** 2
            return sol.value_at(x) / (math.exp(-0.5 * rho) * rho**0.25)

        x1, x2 = 1e-3, 5e-4
        b_fit = (S(x1) - S(x2)) / (math.log(ups * x1) - math.log(ups * x2))
        a_fit = S(x1) - b_fit * math.log(ups * x1)
        assert b_fit == pytest.approx(-2.0 * math.cos(rep.mu), rel=1e-4)  # B~ = -2 cos mu
        # the logarithmic case measures its angle as atan(2 A~/B~)
        assert math.atan(2.0 * a_fit / b_fit) == pytest.approx(theta_of(rep.mu, rep.w, rep.rp), abs=3e-4)

    @staticmethod
    def _mp_theta(mu, w, kappa):
        # theta = atan2(A~, B~) with the gamma ratio in 30-digit arithmetic
        with mpmath.workdps(30):
            alpha = (1 + mpmath.mpf(kappa)) / 2 + mpmath.mpf(w)
            ratio = (
                mpmath.gamma(1 - kappa) / mpmath.gamma(1 + kappa)
                * mpmath.gamma(alpha) * mpmath.rgamma(alpha - kappa)
            )
            return float(mpmath.atan2(mpmath.sin(mu) - mpmath.cos(mu) * ratio, mpmath.cos(mu)))

    @given(
        st.floats(min_value=0.0, max_value=1.4, allow_nan=False),
        st.floats(min_value=-0.6, max_value=1.5, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_angle_is_polar_angle_of_the_coefficients(self, mu, w):
        assert theta_of(mu, w, reduce(0.0, 1.0)) == pytest.approx(self._mp_theta(mu, w, 0.5), abs=1e-13)

    def test_large_shift_stays_finite(self):
        # Gamma(alpha) alone overflows here; the ratio is taken in logs
        got = theta_of(0.3, 200.0, reduce(0.0, 1.0))
        assert got == pytest.approx(self._mp_theta(0.3, 200.0, 0.5), abs=1e-13)
        assert got == pytest.approx(-1.5351, abs=1e-4)


class TestWorkBudget:
    """phi is built once per representation and evaluated once per point:
    counting wrappers on the names `calogero.factorization` and
    `calogero.cli` look up."""

    @staticmethod
    def _count(monkeypatch, module, name):
        calls = []
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_residual_is_one_order_two_evaluation_per_point(self, monkeypatch):
        phi = make_phi(rep_of(0.0, 1.0, 0.7, 0.3))  # both Phi and Psi mixed in
        kummer = self._count(monkeypatch, factorization, "kummer_phi")
        psi = self._count(monkeypatch, factorization, "tricomi_psi")
        xs = (0.12, 0.55, 1.3, 2.4)
        for x in xs:
            factorization_residual(phi, F1, x)
        assert len(kummer) == 3 * len(xs)
        assert len(psi) == 3 * len(xs)

    def test_residual_sweep_is_one_order_two_evaluation_per_point(self, monkeypatch):
        # 3 test functions at 4 points: 12 residuals, but phi's order-2 jet
        # at each point is computed once and shared by the three
        phi = make_phi(rep_of(0.0, 1.0, 0.7, 0.3))  # both Phi and Psi mixed in
        kummer = self._count(monkeypatch, factorization, "kummer_phi")
        psi = self._count(monkeypatch, factorization, "tricomi_psi")
        residuals = self._count(monkeypatch, factorization, "factorization_residual")
        s_calls = self._count(monkeypatch, phi, "_S")
        residual_sweep(phi, factorization.factorization_residual)
        assert len(residuals) == 12
        assert len(s_calls) == 4
        assert [order for _, order in s_calls] == [2] * 4
        assert len(kummer) == len(psi) == 3 * 4
        assert len({rho for _, _, rho in kummer}) == 4

    def test_apply_a_on_phi_is_one_order_one_evaluation_per_point(self, monkeypatch):
        # f', f and h at one z all read phi's one order-1 jet
        phi = make_phi(rep_of(0.0, 1.0, 0.7, 0.3))
        s_calls = self._count(monkeypatch, phi, "_S")
        for z in (0.4, 1.0, 1.7):
            apply_a(phi, phi, z)
        assert [order for _, order in s_calls] == [1] * 3
        other = make_phi(rep_of(0.0, 1.0, 0.2, 0.8))
        f_calls = self._count(monkeypatch, other, "_S")
        apply_a(phi, other, 0.9)
        assert [order for _, order in s_calls[3:]] == [1]
        assert [order for _, order in f_calls] == [1]

    def test_kernel_sweep_is_one_order_one_evaluation_per_point(self, monkeypatch):
        rp = reduce(0.75, 1.0)
        phi = make_phi(RepresentationParams(0.3, rp.w0 + 0.5, rp))
        s_calls = self._count(monkeypatch, phi, "_S")
        kernel_sweep(phi)
        assert [order for _, order in s_calls] == [1] * 3

    def test_kept_jet_gives_the_fresh_floats(self):
        # phi keeps its last point's jet, at the highest order asked there:
        # a lower order at that point reads it, a higher order or another
        # point replaces it, and every answer is a fresh phi's floats
        rep = rep_of(0.3, 1.7, 0.9, 1.4)
        used = make_phi(rep)
        residual_sweep(used, factorization_residual)
        assert used._kept[:2] == (2.1, 2)

        def second(phi, x):
            return phi._phi_pp(x, *phi._jet(x, 2))

        for x in (0.3, 0.7, 1.3, 2.1):
            fresh = make_phi(rep)
            for name in ("value_at", "derivative_at", "superpotential_at"):
                assert getattr(used, name)(x) == getattr(fresh, name)(x)
            assert second(used, x) == second(make_phi(rep), x)
            assert used._kept[:2] == (x, 2)
            assert used.value_at(x) == fresh.value_at(x)
            assert used._kept[:2] == (x, 2)
            assert factorization_residual(used, F2, x) == factorization_residual(make_phi(rep), F2, x)
        used.value_at(0.5)
        assert used._kept[:2] == (0.5, 0)
        assert used.derivative_at(0.5) == make_phi(rep).derivative_at(0.5)
        assert used._kept[:2] == (0.5, 1)

    def test_value_is_one_order_zero_evaluation(self, monkeypatch):
        phi = make_phi(rep_of(0.0, 1.0, 0.7, 0.3))
        kummer = self._count(monkeypatch, factorization, "kummer_phi")
        psi = self._count(monkeypatch, factorization, "tricomi_psi")
        phi.value_at(0.8)
        assert (len(kummer), len(psi)) == (1, 1)

    def test_factorize_check_builds_phi_once(self, monkeypatch, capsys):
        made = self._count(monkeypatch, cli, "make_phi")
        kummer = self._count(monkeypatch, factorization, "kummer_phi")
        psi = self._count(monkeypatch, factorization, "tricomi_psi")
        sweeps = self._count(monkeypatch, factorization, "tricomi_psi_on")
        assert cli.main(["factorize-check", "--g1", "0", "--g2", "1", "--mu", "0.3", "--w", "0.2"]) == 0
        capsys.readouterr()
        assert len(made) == 1
        # 4 residual points at order 2, shared by the 3 test functions, then
        # phi on the 60-point grid: Phi pointwise, Psi from one sweep
        assert len(kummer) == 4 * 3 + 60
        assert len(psi) == 4 * 3
        assert [len(rhos) for _, _, rhos in sweeps] == [60]
