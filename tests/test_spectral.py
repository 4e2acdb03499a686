"""Extension taxonomy, the gamma/digamma eigenvalue equations, and the
normalized ground states.

Every non-trivial eigenvalue below was frozen from a high-precision
(40-60 digit) mpmath root-solve of the same transcendental equations,
done independently of this package's gamma/digamma code.
"""

import contextvars
import dataclasses
import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from calogero import factorization, oracle, specfun, spectral
from calogero.errors import ConvergenceError, DomainError
from calogero.params import reduce
from calogero.spectral import (
    Extension,
    ExtensionLabel,
    GroundState,
    SpectrumResult,
    extension_for,
    ground_state_energy,
    gamma_skew,
    ground_state_wavefunction,
    solve_w,
    spectrum,
    theta_of,
)

HALF_PI = 0.5 * math.pi
EULER_GAMMA = 0.57721566490153286060


def rp_kappa(kappa, g2=1.0):
    # g1 = kappa^2 - 1/4 inverts the reduction exactly for these values
    return reduce(kappa * kappa - 0.25, g2)


def _quad_norm(gs, m=1):
    # integral of u^2 by mpmath's adaptive quadrature, independent of the
    # package's closed-form norm.  m > 1 takes the head (0, 0.05) in
    # v = x^(1/m): there u^2 ~ x^(1 - 2 kappa), which tanh-sinh resolves
    # once m (2 - 2 kappa) is near 1.  The head stops at x = 1e-150, short
    # of where rho = x^2 leaves float64; at kappa = 0.95 the part cut off
    # is ~1e-15 of the norm
    pts = [0.05, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, mpmath.inf]
    if m == 1:
        return mpmath.quad(lambda x: gs(float(x)) ** 2, [0.0] + pts)

    def head(v):
        x = float(v) ** m
        return gs(x) ** 2 * m * float(v) ** (m - 1) if x > 1e-150 else 0.0

    return mpmath.quad(head, [0.0, 0.05 ** (1.0 / m)]) + mpmath.quad(lambda x: gs(float(x)) ** 2, pts)


# ---------------------------------------------------------------------------
# extension selection


class TestExtensionFor:
    def test_unique_above_threshold(self):
        rp = reduce(0.75, 1.0)  # kappa = 1
        assert extension_for(rp).label is ExtensionLabel.UNIQUE
        with pytest.warns(UserWarning, match="essentially self-adjoint"):
            ext = extension_for(rp, nu=0.3)
        assert ext.label is ExtensionLabel.UNIQUE

    def test_friedrichs_flag_and_exact_endpoints(self):
        rp = rp_kappa(0.5)
        assert extension_for(rp, friedrichs=True).label is ExtensionLabel.FRIEDRICHS
        # only |nu| >= pi/2 names Friedrichs, both signs the same extension,
        # and up to 1e-12 past pi/2 is admitted as the endpoint
        for nu in (HALF_PI, -HALF_PI, HALF_PI + 1e-12, -HALF_PI - 1e-12):
            assert extension_for(rp, nu=nu).label is ExtensionLabel.FRIEDRICHS
        # 1.5707963 is pi/2 to 8 digits, and the float below pi/2 is closer
        # still: both are family members
        for nu in (1.5707963, -1.5707963, math.nextafter(HALF_PI, 0.0), -math.nextafter(HALF_PI, 0.0)):
            ext = extension_for(rp, nu=nu)
            assert ext.label is ExtensionLabel.NU
            assert ext.nu == nu

    @given(
        kappa=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        nu=st.floats(HALF_PI - 1e-6, HALF_PI, exclude_max=True),
        sign=st.sampled_from((1.0, -1.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_friedrichs_within_1e6_of_half_pi(self, kappa, nu, sign):
        ext = extension_for(rp_kappa(kappa), nu=sign * nu)
        assert ext.label is ExtensionLabel.NU
        assert ext.nu == sign * nu

    def test_interior_nu(self):
        rp = rp_kappa(0.5)
        ext = extension_for(rp, nu=-0.4)
        assert ext.label is ExtensionLabel.NU
        assert ext.nu == -0.4
        assert not ext.is_ladder

    def test_rejections(self):
        rp = rp_kappa(0.5)
        with pytest.raises(DomainError):
            extension_for(rp)  # kappa < 1 must pick something
        with pytest.raises(DomainError):
            extension_for(rp, nu=1.7)
        with pytest.raises(DomainError):
            extension_for(rp, nu=math.nan)


# ---------------------------------------------------------------------------
# boundary angle and its inversion


class TestSolveW:
    def test_quarter_exact(self):
        # kappa = 1/2, mu = nu = 0: the gamma ratio vanishes at alpha = kappa,
        # i.e. w = (kappa - 1 + ... ) -> w = -1/4 on the nose
        w = solve_w(0.0, 0.0, rp_kappa(0.5))
        assert w == pytest.approx(-0.25, abs=1e-13)

    def test_kappa_zero_frozen(self):
        # psi(1/2 + w) = 2 psi(1) has its unique root at
        w = solve_w(0.0, 0.0, rp_kappa(0.0))
        assert w == pytest.approx(0.22376581000805878878, abs=1e-11)

    def test_generic_frozen(self):
        w = solve_w(0.3, -0.4, rp_kappa(0.5))
        assert w == pytest.approx(0.026978281879964668536, abs=1e-11)

    def test_rejections(self):
        rp = rp_kappa(0.5)
        with pytest.raises(DomainError):
            solve_w(HALF_PI, 0.0, rp)  # mu = pi/2 has no two-sided asymptotic
        with pytest.raises(DomainError):
            solve_w(0.0, HALF_PI, rp)
        with pytest.raises(DomainError):
            solve_w(0.0, 0.0, reduce(0.75, 1.0))

    @given(
        kappa=st.floats(0.05, 0.9),
        mu=st.floats(0.0, 1.3),
        nu=st.floats(-1.4, 1.4),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, kappa, mu, nu):
        rp = rp_kappa(kappa)
        w = solve_w(mu, nu, rp)
        assert w > rp.w0
        assert math.tan(theta_of(mu, w, rp)) == pytest.approx(
            math.tan(nu), rel=1e-8, abs=1e-8
        )

    @given(
        kappa=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        # the whole open interval: every interior nu takes the nu form
        nu=st.floats(-HALF_PI, HALF_PI, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=80, deadline=None)
    def test_optimum_is_the_ground_level(self, kappa, nu):
        # the optimum representation mu = 0 fixes the ground state,
        # E0 = -4 ups^2 w(0, nu): solve_w runs the ground level's own search
        rp = rp_kappa(kappa)
        if nu == 0.0 and rp.kappa > 0.0:
            return  # spectrum takes the closed form there
        try:
            res = spectrum(rp, extension_for(rp, nu=nu), 1)
        except ConvergenceError as exc:
            assert "float64" in str(exc)
            with pytest.raises(ConvergenceError, match="float64"):
                solve_w(0.0, nu, rp)
            return
        assert solve_w(0.0, nu, rp) == -0.25 * res.energies[0]

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_seeded_draws_next_to_half_pi(self, side):
        # kappa uniform in [0, 1), pi/2 - |nu| log-uniform in [1e-16, 1e-3]:
        # wherever spectrum answers a ground state, solve_w(0, nu) accepts
        # the same certified root and returns -e0/4 bit for bit (at +nu a
        # residual bound of 1e-10 (1 + |tan nu|) refused 229 of 298)
        rng = random.Random(5)
        answered = 0
        for _ in range(300):
            kappa = rng.random()
            nu = side * (HALF_PI - math.exp(rng.uniform(math.log(1e-16), math.log(1e-3))))
            rp = rp_kappa(kappa)
            if abs(nu) >= HALF_PI:
                continue  # rounded onto pi/2: the Friedrichs extension
            try:
                res = spectrum(rp, extension_for(rp, nu=nu), 1)
            except ConvergenceError as exc:
                assert "float64" in str(exc)
                continue
            answered += 1
            assert solve_w(0.0, nu, rp) == -0.25 * res.energies[0], (kappa, nu)
        assert answered >= 250

    def test_residual_next_to_half_pi_is_the_ground_levels(self):
        # tan nu ~ 5e5: an atan/tan round trip through theta alone is off
        # by ~5e-5 there, past the 1e-10 * (1 + |tan nu|) bound
        rp = rp_kappa(0.25)
        nu = 1.5707943267948965
        res = spectrum(rp, extension_for(rp, nu=nu), 1)
        assert res.residuals[0] <= 1e-10 * (1.0 + abs(math.tan(nu)))
        assert solve_w(0.0, nu, rp) == -0.25 * res.energies[0]

    @given(kappa=st.floats(0.05, 0.9), w=st.floats(-0.3, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_theta_in_range(self, kappa, w):
        rp = rp_kappa(kappa)
        if w <= rp.w0 + 1e-6:
            w = rp.w0 + 0.5
        th = theta_of(0.7, w, rp)
        assert -HALF_PI <= th <= HALF_PI

    def test_theta_rejections(self):
        rp = rp_kappa(0.5)
        with pytest.raises(DomainError):
            theta_of(0.3, 0.0, reduce(0.75, 1.0))
        with pytest.raises(DomainError):
            theta_of(HALF_PI, 0.0, rp)
        with pytest.raises(DomainError):
            theta_of(0.3, rp.w0, rp)
        for w in (math.nan, math.inf):
            with pytest.raises(DomainError, match="not a finite shift"):
                theta_of(0.3, w, rp)


# ---------------------------------------------------------------------------
# spectra: frozen eigenvalues (scaled e = E / upsilon^2)

QUINTETS = {
    (0.5, 1.0): (
        2.0288157070864675486,
        5.7302559728775074756,
        9.5918951865715825872,
        13.509679449437536909,
        17.453984278385339036,
    ),
    (0.5, -1.0): (
        -2.2512916844818655853,
        4.1789165825431934892,
        8.3731675510580780959,
        12.471913720698192711,
        16.534672104883317963,
    ),
    (0.0, 1.0): (
        -5.8783217171053459053,
        3.8366089856111544907,
        8.127517784935917342,
        12.288280354333208776,
        16.396133978534098901,
    ),
    (0.0, -1.0): (
        0.47908021081796041247,
        4.9603347716893569356,
        9.0756486167658730294,
        13.137372692804194913,
        17.178127842212876342,
    ),
}


class TestSpectrumFrozen:
    @pytest.mark.parametrize("kappa,nu", sorted(QUINTETS))
    def test_five_roots(self, kappa, nu):
        rp = rp_kappa(kappa)
        res = spectrum(rp, extension_for(rp, nu=nu), 5)
        assert res.method == "bracketed-root"
        for got, want in zip(res.energies, QUINTETS[(kappa, nu)]):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert all(r <= 1e-8 for r in res.residuals)

    @pytest.mark.parametrize(
        "kappa,nu,e0",
        [
            (0.25, 1.0, 2.0732356547847891807),
            (0.25, -1.0, -6.9580216846235710982),
            (0.75, 1.0, 1.5737942626091589061),
            (0.75, -1.0, -0.98938109871746838116),
            (0.0, 0.0, -0.89506324003223515510),
        ],
    )
    def test_ground_energies(self, kappa, nu, e0):
        rp = rp_kappa(kappa)
        got = ground_state_energy(rp, extension_for(rp, nu=nu))
        assert got == pytest.approx(e0, rel=1e-12, abs=0.0)

    def test_near_friedrichs_endpoints(self):
        # nu = pi/2 - 0.01 is a family member hugging the ladder from below
        rp = rp_kappa(0.5)
        e0 = ground_state_energy(rp, extension_for(rp, nu=HALF_PI - 0.01))
        assert e0 == pytest.approx(2.9775119888162752608, rel=1e-11)
        rp0 = rp_kappa(0.0)
        e0 = ground_state_energy(rp0, extension_for(rp0, nu=-HALF_PI + 0.01))
        assert e0 == pytest.approx(1.9602346621788350009, rel=1e-11)

    def test_kappa_zero_deep_state(self):
        # approaching +pi/2 at kappa = 0 the ground state plunges like
        # -4 exp(tan nu - 2 gamma); the solver must follow it out to 1e43
        rp0 = rp_kappa(0.0)
        nu = HALF_PI - 0.01
        e0 = ground_state_energy(rp0, extension_for(rp0, nu=nu))
        pred = 2.0 - 4.0 * math.exp(math.tan(nu) - 2.0 * EULER_GAMMA)
        assert e0 == pytest.approx(pred, rel=1e-9)
        assert e0 < -1e43

    def test_kappa_positive_deep_state(self):
        rp = rp_kappa(0.5)
        e0 = ground_state_energy(rp, extension_for(rp, nu=-HALF_PI + 1e-5))
        # F ~ (G(1-k)/G(1+k)) (-e/4)^k = -tan nu, so -e ~ 4 (|t| G(1+k)/G(1-k))^2
        t = abs(math.tan(-HALF_PI + 1e-5))
        pred = -4.0 * (t * math.gamma(1.5) / math.gamma(0.5)) ** 2
        assert e0 == pytest.approx(pred, rel=1e-4)

    def test_root_hugging_the_upper_pole(self):
        # kappa ~ 1.7e-4 puts each gap's zero and pole 4 kappa apart; at nu
        # near pi/2 level 8 sits 1.04e-6 below its pole, 3.1e-8 of its
        # value, and must still be found
        import mpmath as mp

        rp = reduce(-0.24999997, 1.0)
        energies = spectrum(rp, extension_for(rp, nu=1.5693), 21).energies
        assert all(a < b for a, b in zip(energies, energies[1:]))
        e8 = energies[8]
        with mp.workdps(40):
            k = mp.mpf(rp.kappa)
            pole = 2 * (2 * 8 + 1 + k)
            assert 0 < pole - e8 < 1.1e-6

            def boundary(e):  # F(-e/4) + tan nu, the kappa > 0 equation
                a = (1 + k) / 2 - e / 4
                ratio = mp.gamma(1 - k) * mp.gamma(a) / (mp.gamma(1 + k) * mp.gamma(a - k))
                return ratio + mp.tan(mp.mpf(1.5693))

            ref = mp.findroot(boundary, (mp.mpf(e8) - mp.mpf("1e-9"), mp.mpf(e8) + mp.mpf("1e-9")),
                              solver="anderson")
            assert 0 < pole - ref
            assert abs(e8 - ref) <= 1e-14 * ref

    def test_root_within_an_ulp_below_the_upper_pole(self):
        # kappa = 5.3e-9: level 33's root lies 1.4 ulps below the float of
        # its pole 2 (67 + kappa), so no float inside the gap has F(-e/4)
        # below the target; the float below the pole is the answer, as the
        # float of the pole is next to kappa = 1 at the lower end
        import mpmath as mp

        rp = reduce(-0.24999999999999997, 1.0)
        energies = spectrum(rp, extension_for(rp, nu=1.570795), 50).energies
        assert all(a < b for a, b in zip(energies, energies[1:]))
        e33 = energies[33]
        assert e33 == math.nextafter(2.0 * (67 + rp.kappa), 0.0)
        with mp.workdps(40):
            k = mp.mpf(rp.kappa)
            pole = 2 * (67 + k)

            def boundary(e):  # F(-e/4) + tan nu, the kappa > 0 equation
                a = (1 + k) / 2 - e / 4
                return mp.gamma(1 - k) * mp.gamma(a) * mp.rgamma(a - k) / mp.gamma(1 + k) + mp.tan(
                    mp.mpf(1.570795))

            lo, hi = pole - mp.mpf("1e-12"), pole - mp.mpf("1e-30")
            assert boundary(lo) > 0 > boundary(hi)
            ref = mp.findroot(boundary, (lo, hi), solver="anderson", verify=False)
            assert lo < ref < hi
            assert abs(mp.mpf(e33) - ref) <= math.ulp(e33)

    def test_kappa_zero_overflow_refused(self):
        # past tan nu ~ 709.5 the kappa = 0 ground state leaves float64 range
        rp0 = rp_kappa(0.0)
        for nu in (HALF_PI - 1e-5, math.atan(709.6), math.atan(712.0)):
            with pytest.raises(ConvergenceError, match="float64"):
                ground_state_energy(rp0, extension_for(rp0, nu=nu))

    def test_kappa_zero_root_refused_past_float64_in_physical_units(self):
        # tan nu = 709.5: the scaled root -1.71e308 fits float64, but at
        # g2 = 4 (upsilon^2 = 2) E = -3.4e308 does not; at g2 = 1.1 it does
        nu = math.atan(709.5)
        rp4 = rp_kappa(0.0, g2=4.0)
        ext4 = extension_for(rp4, nu=nu)
        for f in (ground_state_energy, ground_state_wavefunction):
            with pytest.raises(ConvergenceError, match="float64 range"):
                f(rp4, ext4)
        rp1 = rp_kappa(0.0, g2=1.0)
        rp11 = rp_kappa(0.0, g2=1.1)
        e1 = ground_state_energy(rp1, extension_for(rp1, nu=nu))
        e11 = ground_state_energy(rp11, extension_for(rp11, nu=nu))
        assert math.isfinite(e11) and e11 == e1 * rp11.energy_scale()

    # ln|E| ~ 701.7, 705.4 and 709.7: the last is -1.7e308, next to the
    # floor -4 e^_LN_DEEPEST - 8
    @pytest.mark.parametrize("tan_nu", [701.5, 705.15, 709.5])
    def test_kappa_zero_roots_down_to_the_float64_floor(self, tan_nu):
        rp0 = rp_kappa(0.0)
        nu = math.atan(tan_nu)
        e0 = ground_state_energy(rp0, extension_for(rp0, nu=nu))
        with mpmath.workdps(40):
            t = mpmath.mpf(math.tan(nu))

            def boundary(y):  # psi(1/2 + w) - 2 psi(1) - tan nu at w = e^y
                return mpmath.digamma(0.5 + mpmath.exp(y)) - 2 * mpmath.digamma(1) - t

            ref = -4 * mpmath.exp(mpmath.findroot(boundary, t - 2 * mpmath.euler))
            assert abs(e0 - ref) <= 1e-12 * abs(ref)

    def test_kappa_positive_root_next_to_the_float64_floor(self):
        # ln w ~ 708.01, just inside the floor at 708.39: the bracket's
        # halving steps toward the floor there pass float64 if they sum
        # before halving
        rp = rp_kappa(0.018503920156066216)
        nu = -(HALF_PI - 2e-6)
        e0 = ground_state_energy(rp, extension_for(rp, nu=nu))
        with mpmath.workdps(40):
            k = mpmath.mpf(rp.kappa)
            c = mpmath.loggamma(1 - k) - mpmath.loggamma(1 + k)
            # G(b + k)/G(b) = b^k (1 + O(1/b)) at b = w + (1 - k)/2 ~ e^708
            ref = -4 * (mpmath.exp((mpmath.log(-mpmath.tan(mpmath.mpf(nu))) - c) / k) - (1 - k) / 2)
            assert abs(e0 - ref) <= 1e-12 * abs(ref)

    # kappa = 0.0019: the ground floor's bound lies ln(1 + 1/target)/kappa
    # ~ 153 e-folds below these roots, past float64; it is clipped there, not
    # refused.  The roots' relative error is the residual of F(w) = target
    # over w dF/dw ~ kappa F (mpmath at 300 digits, which the 1e240-sized
    # Gamma arguments need).  The pinned w lie 6.2e-14 and 1.2e-13 relative
    # from the 300-digit roots 9.6515656237265027e240 and 8.9411700350539032e239
    @pytest.mark.parametrize("mu, nu, want", [
        (1.2483671301265757, 0.0797600065110875, 9.651565623725908e240),
        (0.0, -math.atan(2.9), 8.941170035054964e239),
    ], ids=["solve_w", "spectrum"])
    def test_small_kappa_roots_near_1e240(self, mu, nu, want):
        rp = rp_kappa(0.001923030537107642)
        if mu:
            w = solve_w(mu, nu, rp)
        else:
            w = -0.25 * ground_state_energy(rp, extension_for(rp, nu=nu))
        assert w == pytest.approx(want, rel=1e-14, abs=0.0)
        with mpmath.workdps(300):
            k, a = mpmath.mpf(rp.kappa), (1 + mpmath.mpf(rp.kappa)) / 2 + mpmath.mpf(w)
            f = mpmath.exp(mpmath.loggamma(1 - k) - mpmath.loggamma(1 + k)
                           + mpmath.loggamma(a) - mpmath.loggamma(a - k))
            target = mpmath.tan(mpmath.mpf(mu)) - mpmath.tan(mpmath.mpf(nu))
            assert abs((f - target) / (k * f)) <= 1e-11

    def test_small_kappa_root_past_float64_is_refused(self):
        # kappa = 5e-4, nu = -1.2 puts the root near ln|E| ~ 1890: refused,
        # typed, by the estimate below the clipped floor, before any
        # evaluation of F
        rp = rp_kappa(5e-4)
        with pytest.raises(ConvergenceError, match="float64 range"):
            spectrum(rp, extension_for(rp, nu=-1.2), 1)


class TestGapRefusals:
    """The one-root-per-gap argument needs F(-e/4) to fall from +inf to
    -inf across each gap; a boundary function that does not is refused,
    never solved.  Stand-ins for `_boundary_F` take the shift w and ignore
    any constants handed along with it."""

    def test_rise_is_refused(self, monkeypatch):
        # falls then rises in w, so the scan sees F(-e/4) rise before any
        # sign change
        monkeypatch.setattr(spectral, "_boundary_F", lambda rp, w, *consts: (2.0 * w + 0.8) ** 2 + 0.6)
        rp = rp_kappa(0.5)
        with pytest.raises(ConvergenceError, match="spectral scan not decreasing"):
            spectrum(rp, extension_for(rp, nu=1.0), 1)

    @pytest.mark.parametrize(
        "boundary_F",
        [
            # constants: no rise, and no sign change even after halving toward
            # the ground gap's floor or its pole
            lambda rp, w, *consts: 1e3,
            lambda rp, w, *consts: -1e3,
            # a ground root at e = 2, then no sign change in the first
            # excited gap, whose lower pole is no zero of F
            lambda rp, w, *consts: w + 0.5 - math.tan(1.0) if w > rp.w0 else -1e3,
        ],
        ids=["above", "below", "excited-gap"],
    )
    def test_missing_sign_change_is_refused(self, monkeypatch, boundary_F):
        monkeypatch.setattr(spectral, "_boundary_F", boundary_F)
        rp = rp_kappa(0.5)
        with pytest.raises(ConvergenceError, match="no eigenvalue bracket inside gap"):
            spectrum(rp, extension_for(rp, nu=1.0), 3)


def _mp_boundary_root(kappa, nu, e):
    """The root of the boundary equation at 40 significant digits, from a
    bracket around e inside its gap, and its condition number: the
    root's relative shift per relative change of F.  The working precision
    also carries every digit of e, so that alpha - kappa is exact at
    alpha ~ 1e200."""
    import mpmath as mp

    with mp.workdps(40 + max(0, int(math.log10(abs(e) + 1.0)))):
        k, t = mp.mpf(kappa), mp.tan(mp.mpf(nu))
        if kappa > 0.0:
            ratio = mp.gamma(1 - k) / mp.gamma(1 + k)

            def big_f(x):
                a = (1 + k) / 2 - x / 4
                return ratio * mp.gamma(a) * mp.rgamma(a - k)

            target = -t
        else:

            def big_f(x):
                return mp.digamma(mp.mpf(1) / 2 - x / 4) - 2 * mp.digamma(1)

            target = t
        # +-1e-9 (1 + |e|), kept inside the gap between the poles of F at
        # 2 (2n + 1 + kappa), n >= 0
        x = mp.mpf(e)
        above = 2 * (1 + k) + 4 * max(0, mp.floor((x - 2 * (1 + k)) / 4) + 1)
        d, inside = mp.mpf("1e-9") * (1 + abs(x)), mp.mpf("1e-30") * (1 + abs(x))
        lo, hi = x - d, min(x + d, above - inside)
        if above > 2 * (1 + k):
            lo = max(lo, above - 4 + inside)
        # F(-e/4) falls across the gap: one sign change brackets the root
        assert big_f(lo) > target > big_f(hi)
        # no residual test: next to a pole F is too steep for mpmath's,
        # and the bracketing solver cannot leave the bracket
        ref = mp.findroot(lambda x: big_f(x) - target, (lo, hi), solver="anderson", verify=False)
        assert lo <= ref <= hi
        cond = abs(big_f(ref) / (ref * mp.diff(big_f, ref))) if ref != 0 else mp.inf
        return float(ref), float(cond)


def _stopping_width(rp, n, e):
    """The search's stopping width around a level e, in e: four floats of
    its point v (t = alpha + n, or alpha - kappa on the ground gap), each
    no finer than a quarter ulp of e (`spectral._float_width`), four times
    as wide in e = e0 - 4v, and one ulp of e for forming it."""
    v = (spectral._pole(rp, n) - e) / 4.0 if n else (2.0 * (1.0 - rp.kappa) - e) / 4.0
    return 16.0 * spectral._float_width(v, e) + math.ulp(e)


def _nearer_the_pole(rp, n, e, ref):
    """e is its gap's last float before a pole, and the 40-digit root ref
    lies nearer that pole than e does: no float inside the gap is nearer."""
    hi = spectral._pole(rp, n)
    if e == math.nextafter(hi, -math.inf):
        return hi - ref < hi - e
    lo = spectral._pole(rp, n - 1) if n else -math.inf
    return e == math.nextafter(lo, math.inf) and ref - lo < e - lo


def _f_rounding(rp, ref, cond):
    """How far F's own rounding moves a root: F = e^(c + shift) is good to
    a few ulps of |c| + 1, relative, where c = ln G(1-k) - ln G(1+k) (~37
    at the float below kappa = 1, where the shift cancels it), and the root
    moves by cond times that."""
    c = spectral._boundary_consts(rp)[0]
    return 8.0 * (1.0 + abs(c)) * 2.0**-53 * cond * abs(ref)


def _agrees_with_mpmath(rp, nu, n, e):
    ref, _ = _mp_boundary_root(rp.kappa, nu, e)
    return abs(e - ref) <= _stopping_width(rp, n, e) or _nearer_the_pole(rp, n, e, ref)


class TestBoundarySolver:
    @given(
        # within ~1e-14 of kappa = 1 the zero and the pole at either end of
        # a half-gap are a few ulps apart, and the reference's bracket
        # around e can miss the gap; the last floats below 1 are covered by
        # test_collapsed_gaps_next_to_kappa_one
        kappa=st.one_of(st.just(0.0), st.floats(0.0, 1.0 - 1e-12)),
        nu=st.one_of(
            st.floats(-1.5707, 1.5707),
            # near the dive: the ground state plunges as nu -> -pi/2
            # (kappa > 0) or nu -> +pi/2 (kappa = 0)
            st.floats(1e-5, 0.1).map(lambda d: -(HALF_PI - d)),
            st.floats(1e-5, 0.1).map(lambda d: HALF_PI - d),
        ),
        n=st.integers(1, 50),
        level=st.integers(0, 49),
    )
    @settings(max_examples=60, deadline=None)
    def test_roots_match_mpmath(self, kappa, nu, n, level):
        rp = rp_kappa(kappa)
        try:
            energies = spectrum(rp, extension_for(rp, nu=nu), n).energies
        except ConvergenceError as exc:
            assert "float64" in str(exc)  # the documented refusal past e ~ -1e300
            return
        for e in {energies[0], energies[level % n]}:
            ref, cond = _mp_boundary_root(rp.kappa, nu, e)
            # 1e-13 relative where the root is well conditioned; a root that
            # moves by cond per relative change of F (cond ~ 1/kappa on deep
            # ground states) moves by cond rounding errors of F too
            assert abs(e - ref) <= 1e-13 * max(abs(ref), 1.0) * max(cond, 1.0)

    @pytest.mark.parametrize("ulps_below_one", [1, 2, 3])
    def test_ground_root_next_to_zero_is_found_in_few_evaluations(self, monkeypatch, ulps_below_one):
        # a few ulps below kappa = 1 the ground root lies near 2e-16, where
        # alpha - kappa, formed from the exact 1 - kappa, still has floats
        # 1e-32 apart and F takes them as they are: no plateau of equal F
        # values across the floats of the search.  Its estimate rounds apart
        # from F by ~100 ulps there (c ~ 37 cancels against the shift), so the
        # bracket widens once (9 evaluations; up to 40 when F read e through
        # alpha, which moved in steps of ~4e-16 in e)
        rp = rp_kappa(1.0 - ulps_below_one * 2.0**-53)
        calls = []
        inner = spectral._boundary_F

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(spectral, "_boundary_F", counted)
        (e,) = spectrum(rp, extension_for(rp, nu=-0.3), 1).energies
        assert len(calls) <= 12
        ref, cond = _mp_boundary_root(rp.kappa, -0.3, e)
        assert abs(e - ref) <= _f_rounding(rp, ref, cond)

    def test_evaluations_per_root_on_seeded_draws(self, monkeypatch):
        # 4 000 draws: kappa = 0 for 30 % of them and uniform in (0, 1)
        # otherwise, nu uniform in (-1.4, 1.4), levels 0-2, each root's
        # _boundary_F evaluations counted.  Ground roots with |e| < 0.5 took
        # 6.73 (kappa = 0) and 5.14 (kappa > 0) when the search ran in e and
        # F read it through alpha, flat across many floats of e; excited
        # roots took 2.12.  Now 2.08, 2.90 and 2.02
        calls = []
        inner = spectral._boundary_F

        def counted(*args):
            calls.append(args[2])  # the gap
            return inner(*args)

        monkeypatch.setattr(spectral, "_boundary_F", counted)
        rng = random.Random(7)
        counts = {"ground, kappa = 0": [], "ground, kappa > 0": [], "excited": []}
        for _ in range(4000):
            kappa = 0.0 if rng.random() < 0.3 else rng.random()
            nu = rng.uniform(-1.4, 1.4)
            rp = rp_kappa(kappa)
            calls.clear()
            try:
                energies = spectrum(rp, extension_for(rp, nu=nu), 3).energies
            except ConvergenceError as exc:
                assert "float64" in str(exc)
                continue
            if abs(energies[0]) < 0.5:
                counts["ground, kappa = 0" if kappa == 0.0 else "ground, kappa > 0"].append(calls.count(0))
            counts["excited"] += [calls.count(1), calls.count(2)]
        mean = {key: sum(v) / len(v) for key, v in counts.items()}
        assert len(counts["ground, kappa = 0"]) > 200 and len(counts["ground, kappa > 0"]) > 400
        assert mean["ground, kappa = 0"] <= 3.0 and mean["ground, kappa > 0"] <= 3.0, mean
        assert mean["excited"] <= 2.12, mean

    def test_roots_within_an_ulp_above_their_poles(self):
        # tan nu ~ -1.6e16 puts levels 1 and 2 within an ulp above the poles
        # 2 (1 + k) and 2 (3 + k) at kappa = 1/8, where F is already below
        # the target at the first float of each gap in e; level 2's 40-digit
        # root rounds onto the pole itself
        rp = reduce(0.125**2 - 0.25, 1.0)
        nu = -1.5707963267948961
        energies = spectrum(rp, extension_for(rp, nu=nu), 3).energies
        assert 2.25 < energies[1] < 2.25 + 4e-15 and 6.25 < energies[2] < 6.25 + 4e-15
        for n in (1, 2):
            assert _agrees_with_mpmath(rp, nu, n, energies[n])

    @pytest.mark.parametrize(
        "g1, nu, n",
        [
            # tan nu ~ 3.5e15 puts level 3 within an ulp below the pole
            # 2 (7 + k) at kappa = 0.603 and 0.530, where alpha formed from e
            # rounded onto the pole at its float and, at kappa = 0.603, at the
            # float below it too
            (0.11318955985047002, 1.5707963267948963, 26),
            (0.03127312060734, 1.5707963267948963, 21),
            # level 3 lies 65 ulps below the pole at kappa = 0.0353
            (0.03534361914668904**2 - 0.25, 1.5707963267941578, 6),
        ],
    )
    def test_roots_within_ulps_below_their_poles(self, g1, nu, n):
        rp = reduce(g1, 1.0)
        energies = spectrum(rp, extension_for(rp, nu=nu), n).energies
        for level, e in enumerate(energies):
            assert _agrees_with_mpmath(rp, nu, level, e), level

    def test_roots_above_their_poles_next_to_minus_half_pi(self):
        # next to nu = -pi/2 F(-e/4), read through alpha, held one value over
        # pairs of floats above the pole 2 (5 + k) and wiggled by 0.5 out of
        # -2.3e14 there; F of t has no such plateau, and levels 1-3 lie
        # within a few floats above their poles
        k = 0.39195047351510726
        rp = reduce(k * k - 0.25, 1.0)
        nu = -1.5707963267948957
        energies = spectrum(rp, extension_for(rp, nu=nu), 4).energies
        for n in (1, 2, 3):
            assert 0.0 < energies[n] - spectral._pole(rp, n - 1) <= 4.0 * math.ulp(energies[n])
            assert _agrees_with_mpmath(rp, nu, n, energies[n])

    @pytest.mark.parametrize("g1", [(1.0 - 1e-8) ** 2 - 0.25, 0.75 - 2.0**-52])
    @pytest.mark.parametrize("nu", [-1.0, -0.3, 0.3, 1.0])
    def test_ground_root_next_to_kappa_one_within_the_stopping_width(self, g1, nu):
        # kappa = 1 - 1e-8 and 1 - 2^-53 (the float below 1): the search
        # runs in alpha - kappa, formed from the exact 1 - kappa, so level 0,
        # near 2 (1 - kappa), agrees with the 40-digit root to F's own
        # rounding, 1e-14 relative (4 ulps of 2^-20, ~8.5e-22 absolute, when
        # the search ran in e; up to 27 % off when F formed alpha_of(w) - kappa)
        rp = reduce(g1, 1.0)
        (e,) = spectrum(rp, extension_for(rp, nu=nu), 1).energies
        ref, cond = _mp_boundary_root(rp.kappa, nu, e)
        assert abs(e - ref) <= _stopping_width(rp, 0, e) + _f_rounding(rp, ref, cond)

    @given(
        kappa=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
        # every interior nu, up to the floats next to +-pi/2
        nu=st.floats(-HALF_PI, HALF_PI, exclude_min=True, exclude_max=True),
        n=st.integers(1, 30),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_root_is_certified_by_a_sign_change(self, kappa, nu, n):
        # F - target at a returned point v of gap n and at a point of the
        # gap within four floats of v (each no finer than a quarter ulp of
        # e, `spectral._float_width`) have opposite signs, or v is an exact
        # zero; a gap's ends, the poles, count with their limits from inside
        rp = rp_kappa(kappa)
        if nu == 0.0 and rp.kappa > 0.0:
            return  # closed form
        try:
            energies = spectrum(rp, extension_for(rp, nu=nu), n).energies
        except ConvergenceError as exc:
            assert "float64" in str(exc)
            return
        c, skew = spectral._boundary_consts(rp)
        target = -math.tan(nu) if rp.kappa > 0.0 else math.tan(nu)
        for level, e in enumerate(energies):
            v, _ = spectral._root_in_gap(rp, target, level, c, skew)
            assert spectral._energy(rp, level, v) == e

            def g(x):
                return spectral._boundary_F(rp, x, level, c, skew) - target

            lo, hi = (0.0, 1.0) if level else (-rp.kappa, math.inf)
            u = spectral._float_width(v, e)
            near = [min(max(v + s * u * j, lo), hi) for s in (1.0, -1.0) for j in (1, 2, 3, 4)]
            gv = g(v)
            assert gv == 0.0 or any((g(x) > 0.0) != (gv > 0.0) for x in near), (level, e)

    @pytest.mark.parametrize("ulps_below_one", range(1, 13))
    @pytest.mark.parametrize("nu", [1.0, -1.0, 0.3, 1.5])
    def test_collapsed_gaps_next_to_kappa_one(self, ulps_below_one, nu):
        # over the last 12 floats below kappa = 1 the pole 2(2n - 1 + kappa)
        # and the zero 2(2n + 1 - kappa) of F round to one float in some
        # gaps; the root is that float, within the solver's 4 ulps
        rp = rp_kappa(1.0 - ulps_below_one * 2.0**-53)
        energies = spectrum(rp, extension_for(rp, nu=nu), 6).energies
        for n, e in enumerate(energies):
            # the reference finds the gap from the point it is given, and a
            # root on the float of a collapsed pole can sit below the pole
            pole_below = 2.0 * (2 * n - 1 + rp.kappa)
            inside = max(e, math.nextafter(pole_below, math.inf)) if n else e
            ref, _ = _mp_boundary_root(rp.kappa, nu, inside)
            assert abs(e - ref) <= 4.0 * math.ulp(max(abs(ref), 1.0))


class TestReflectedGammaRatio:
    @given(
        # kappa and t = alpha + n on a 2^-20 grid, so that alpha = t - n is
        # an exact float for n <= 1e4 and the mpmath reference takes the
        # same point
        kappa=st.integers(1, 2**20 - 1).map(lambda i: i / 2**20),
        n=st.integers(1, 10**4),
        t=st.integers(1, 2**20 - 1).map(lambda i: i / 2**20),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_mpmath(self, kappa, n, t):
        rp = rp_kappa(kappa)
        alpha = t - n
        assert rp.kappa == kappa
        got = spectral._boundary_F(rp, t, n, spectral._boundary_consts(rp)[0], 0.0)
        with mpmath.workdps(30):
            k = mpmath.mpf(kappa)
            ref = mpmath.gamma(1 - k) / mpmath.gamma(1 + k) * mpmath.gamma(alpha) * mpmath.rgamma(alpha - k)
        assert abs(got - ref) <= 1e-13 * abs(ref)


class TestLaddersAndClosedForms:
    def test_friedrichs_ladder(self):
        rp = rp_kappa(0.5)
        res = spectrum(rp, extension_for(rp, friedrichs=True), 4)
        assert res.energies == (3.0, 7.0, 11.0, 15.0)
        assert res.method == "pole-enumeration"
        assert res.residuals == (0.0,) * 4

    def test_friedrichs_endpoint_energy(self):
        # the ladder value 3.0 belongs to nu = +-pi/2 alone.  nu = 1.5707963
        # lies d = 2.7e-8 below pi/2 on the continuous side: next to the pole
        # F ~ -1/(sqrt(pi) alpha) = -1/d puts E0 at 3 - 4 d / sqrt(pi) + O(d^2)
        rp = rp_kappa(0.5)
        assert ground_state_energy(rp, extension_for(rp, nu=HALF_PI)) == 3.0
        assert ground_state_energy(rp, extension_for(rp, nu=-HALF_PI)) == 3.0
        d = HALF_PI - 1.5707963
        e0 = ground_state_energy(rp, extension_for(rp, nu=1.5707963))
        assert e0 == pytest.approx(3.0 - 4.0 * d / math.sqrt(math.pi), rel=0.0, abs=1e-14)

    def test_unique_ladder(self):
        rp = reduce(0.75, 1.0)  # kappa = 1
        res = spectrum(rp, extension_for(rp), 3)
        assert res.energies == (4.0, 8.0, 12.0)

    def test_nu_zero_closed_form(self):
        rp = rp_kappa(0.5)
        res = spectrum(rp, extension_for(rp, nu=0.0), 3)
        assert res.energies == (1.0, 5.0, 9.0)
        assert res.method == "closed-form"

    def test_physical_units(self):
        # g2 = 16 means upsilon^2 = 4: physical energies are 4x those at g2 = 1
        rp = rp_kappa(0.5, g2=16.0)
        es = spectrum(rp, extension_for(rp, nu=1.0), 3).energies
        rp1 = rp_kappa(0.5)
        ss = spectrum(rp1, extension_for(rp1, nu=1.0), 3).energies
        for e, s in zip(es, ss):
            assert e == pytest.approx(4.0 * s, rel=1e-14, abs=0.0)

    def test_ladder_past_float64_is_refused_naming_its_level(self):
        # E = 2 (1 + kappa) ups^2 passes float64; it was returned as inf
        rp = reduce(1.7e308, 1.7e308)
        message = r"^level 0 above float64 range for this extension \(ln E ~ 710\)$"
        with pytest.raises(ConvergenceError, match=message):
            spectrum(rp, extension_for(rp), 1)
        with pytest.raises(ConvergenceError, match=message):
            ground_state_wavefunction(rp, extension_for(rp))

    def test_closed_forms_past_float64_are_refused_naming_their_level(self):
        # ups^2 = 1e308: level 0 at e = 1 fits, level 1 at e = 5 does not,
        # on the nu = 0 closed form and on the bracketed roots alike
        rp = dataclasses.replace(rp_kappa(0.5), upsilon=1e154)
        assert spectrum(rp, extension_for(rp, nu=0.0), 1).energies == (1e154**2,)
        for nu in (0.0, -0.5):
            with pytest.raises(ConvergenceError, match=r"^level 1 above float64 range for this extension"):
                spectrum(rp, extension_for(rp, nu=nu), 2)

    def test_rejections(self):
        rp = rp_kappa(0.5)
        with pytest.raises(DomainError):
            spectrum(rp, extension_for(rp, nu=0.5), 0)
        with pytest.raises(DomainError):
            spectrum(rp, Extension(ExtensionLabel.NU, nu=HALF_PI), 2)
        with pytest.raises(DomainError):
            spectrum(reduce(0.75, 1.0), Extension(ExtensionLabel.NU, nu=0.3), 2)


class TestNextToHalfPi:
    """Every |nu| < pi/2 takes the nu form, however close to the endpoint.

    As nu -> +pi/2 (kappa > 0) or -pi/2 (kappa = 0) each level runs into
    its pole, the ladder value; from the other side the ground state dives
    to -infinity and the levels above it take the ladder's places."""

    @pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("kappa", [0.0, 0.25, 0.5])
    def test_continuous_side_agrees_with_the_oracle(self, kappa, delta):
        rp = rp_kappa(kappa)
        nu = HALF_PI - delta if kappa > 0.0 else -(HALF_PI - delta)
        ext = extension_for(rp, nu=nu)
        got = spectrum(rp, ext, 3).energies
        shot = oracle.shoot_spectrum(rp, ext, 3).energies
        for n, (e, o) in enumerate(zip(got, shot)):
            assert abs(e - o) <= 1e-13 * abs(o)
            assert 0.0 < spectral._pole(rp, n) - e <= 5.0 * delta

    def test_dive_side_keeps_its_deep_ground_state(self):
        # nu = -1.5707955 is 8.3e-7 above -pi/2 at kappa = 1/4: a ground
        # state near -2.6e24 below levels 1 and 2 just above the ladder's
        # 2.5 and 6.5
        rp = rp_kappa(0.25)
        res = spectrum(rp, extension_for(rp, nu=-1.5707955), 3)
        assert res.method == "bracketed-root"
        assert res.energies[0] < -1e23
        assert res.energies[1] == pytest.approx(2.5, rel=0.0, abs=1e-5)
        assert res.energies[2] == pytest.approx(6.5, rel=0.0, abs=1e-5)

    @pytest.mark.parametrize("nu", [-1.5707963267948961, math.nextafter(-HALF_PI, 0.0)])
    @pytest.mark.parametrize("kappa", [0.25, 0.5, 0.75])
    def test_dive_floor_lies_below_the_ground_root_ulps_from_half_pi(self, kappa, nu):
        # tan nu ~ -2e15: ln(1 + 1/target) falls under the rounding of F,
        # and a floor at that margin alone read F short of the target
        # (kappa = 1/2 refused with "no eigenvalue bracket")
        rp = rp_kappa(kappa)
        target = -math.tan(nu)
        c, skew = spectral._boundary_consts(rp)
        top = spectral._lowest_gap_floor(rp, target, c)
        assert spectral._boundary_F(rp, top, 0, c, skew) > target
        res = spectrum(rp, extension_for(rp, nu=nu), 1)
        assert spectral._energy(rp, 0, top) < res.energies[0] < -1e19
        assert res.residuals[0] <= 1e-10 * (1.0 + abs(math.tan(nu)))
        assert solve_w(0.0, nu, rp) == -0.25 * res.energies[0]

    @pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-12])
    def test_kappa_zero_dive_past_float64_is_refused(self, delta):
        # at kappa = 0 the ground state is -4 exp(tan nu - 2 gamma) deep
        rp = rp_kappa(0.0)
        with pytest.raises(ConvergenceError, match="deeper than float64"):
            spectrum(rp, extension_for(rp, nu=HALF_PI - delta), 3)


class TestGammaSkew:
    def test_default_is_no_skew(self):
        assert gamma_skew.get() == 0.0

    @pytest.mark.parametrize("kappa", [0.5, 0.0])
    def test_skew_reaches_only_its_own_context(self, kappa):
        rp = rp_kappa(kappa)
        ext = extension_for(rp, nu=1.0)
        clean = spectrum(rp, ext, 3).energies

        def skewed():
            gamma_skew.set(0.01)
            return spectrum(rp, ext, 3).energies

        moved = contextvars.copy_context().run(skewed)
        assert all(abs(m - c) > 1e-6 * abs(c) for m, c in zip(moved, clean))
        assert spectrum(rp, ext, 3).energies == clean

    @pytest.mark.parametrize("kappa", [0.5, 0.0])
    def test_skew_moves_the_boundary_angle_and_its_inverse(self, kappa):
        rp = rp_kappa(kappa)

        def angle_and_shift():
            return theta_of(0.3, 0.2, rp), solve_w(0.3, -0.4, rp)

        clean = angle_and_shift()

        def skewed():
            gamma_skew.set(0.01)
            return angle_and_shift()

        moved = contextvars.copy_context().run(skewed)
        assert all(abs(m - c) > 1e-6 * abs(c) for m, c in zip(moved, clean))
        assert angle_and_shift() == clean


class TestSpectrumProperties:
    @given(
        kappa=st.floats(0.02, 0.98),
        nu=st.floats(-1.45, 1.45),
    )
    @settings(max_examples=40, deadline=None)
    def test_interlaces_ladder(self, kappa, nu):
        rp = rp_kappa(kappa)
        es = spectrum(rp, extension_for(rp, nu=nu), 4).energies
        poles = [2.0 * (2 * n + 1 + kappa) for n in range(4)]
        assert es[0] < poles[0]
        for n in range(1, 4):
            assert poles[n - 1] < es[n] < poles[n]

    @given(
        kappa=st.floats(0.05, 0.95),
        nu1=st.floats(-1.4, 1.3),
        dnu=st.floats(0.05, 0.2),
    )
    @settings(max_examples=40, deadline=None)
    def test_flow_increasing_kappa_positive(self, kappa, nu1, dnu):
        rp = rp_kappa(kappa)
        a = ground_state_energy(rp, extension_for(rp, nu=nu1))
        b = ground_state_energy(rp, extension_for(rp, nu=nu1 + dnu))
        assert a < b < 2.0 * (1.0 + kappa)

    @given(nu1=st.floats(-1.4, 1.3), dnu=st.floats(0.05, 0.2))
    @settings(max_examples=40, deadline=None)
    def test_flow_decreasing_kappa_zero(self, nu1, dnu):
        rp = rp_kappa(0.0)
        a = ground_state_energy(rp, extension_for(rp, nu=nu1))
        b = ground_state_energy(rp, extension_for(rp, nu=nu1 + dnu))
        assert a > b
        assert a < 2.0

    @given(kappa=st.floats(0.05, 0.9), nu=st.floats(-1.3, 1.3))
    @settings(max_examples=30, deadline=None)
    def test_ground_root_solves_the_boundary_match(self, kappa, nu):
        # the ground state's decaying solution must carry boundary angle nu:
        # theta_of(mu=0, w=-e0/4) = nu.  Only the ground root keeps
        # w = -e/4 above the floor w0, so excited roots have no positive
        # representation to ask this of.
        rp = rp_kappa(kappa)
        e0 = ground_state_energy(rp, extension_for(rp, nu=nu))
        th = theta_of(0.0, -0.25 * e0, rp)
        assert math.tan(th) == pytest.approx(math.tan(nu), rel=1e-7, abs=1e-7)


# ---------------------------------------------------------------------------
# ground-state wavefunctions


class TestGroundState:
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("g2", [1.0, 5.0])
    def test_friedrichs_closed_form(self, kappa, g2):
        # the floor representation's phi is c (ups x)^(1/2+k) e^(-rho/2),
        # checked on 801 points from 0.02/ups to 8/ups
        rp = rp_kappa(kappa, g2)
        gs = ground_state_wavefunction(rp, extension_for(rp, friedrichs=True))
        assert gs.energy == pytest.approx(2.0 * (1.0 + kappa) * rp.energy_scale(), rel=1e-14, abs=0.0)
        ups = rp.upsilon
        c = math.sqrt(2.0 * ups / math.gamma(1.0 + kappa))
        x_min, x_max = 0.02 / ups, 8.0 / ups
        n = 801
        for x in (x_min + (x_max - x_min) * i / (n - 1) for i in range(n)):
            want = c * (ups * x) ** (0.5 + kappa) * math.exp(-0.5 * (ups * x) ** 2)
            assert gs(x) == pytest.approx(want, rel=1e-14, abs=0.0), x

    def test_unique_closed_form_units(self):
        # kappa = 2, upsilon^2 = 2: U = c (ups x)^{5/2} e^{-(ups x)^2/2}
        rp = reduce(3.75, 4.0)
        gs = ground_state_wavefunction(rp, extension_for(rp))
        ups = rp.upsilon
        c = math.sqrt(2.0 * ups / math.gamma(3.0))
        x = 0.9
        want = c * (ups * x) ** 2.5 * math.exp(-0.5 * (ups * x) ** 2)
        assert gs(x) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_ladder_normalized(self):
        rp = reduce(3.75, 4.0)
        gs = ground_state_wavefunction(rp, extension_for(rp))
        xs = np.linspace(1e-9, 10.0, 4001)
        vals = np.array([gs(float(x)) for x in xs])
        assert simpson(vals * vals, x=xs) == pytest.approx(1.0, abs=1e-8)

    def test_nu_state_normalized(self):
        rp = rp_kappa(0.5)
        gs = ground_state_wavefunction(rp, extension_for(rp, nu=-0.4))
        xs = np.linspace(1e-9, 14.0, 4001)
        vals = np.array([gs(float(x)) for x in xs])
        assert simpson(vals * vals, x=xs) == pytest.approx(1.0, abs=1e-7)

    def test_nu_state_solves_the_ode(self):
        # -phi'' + (g1/z^2 + z^2) phi = e0 phi in z = ups x, e0 = E0/ups^2,
        # with the analytic second derivative of the representation
        # solution, not finite differences
        rp = rp_kappa(0.5, g2=4.0)
        ext = extension_for(rp, nu=0.7)
        gs = ground_state_wavefunction(rp, ext)
        g1, e0 = 0.5 * 0.5 - 0.25, gs.energy / rp.energy_scale()
        for x in (0.3, 0.8, 1.4, 2.5):
            z = rp.upsilon * x
            phi, phipp = gs.solution.value_at(z), gs.solution._phi_pp(z, *gs.solution._jet(z, 2))
            assert gs(x) == gs.norm_constant * math.sqrt(rp.upsilon) * phi
            resid = -phipp + (g1 / (z * z) + z * z) * phi - e0 * phi
            assert abs(resid) <= 1e-9 * (1.0 + abs(phi) + abs(phipp))

    def test_nu_state_matches_energy_and_angle(self):
        rp = rp_kappa(0.25)
        ext = extension_for(rp, nu=-1.0)
        gs = ground_state_wavefunction(rp, ext)
        assert gs.energy == pytest.approx(
            ground_state_energy(rp, ext), rel=1e-14, abs=0.0
        )
        w = -gs.energy / (4.0 * rp.energy_scale())
        assert math.tan(theta_of(0.0, w, rp)) == pytest.approx(
            math.tan(-1.0), rel=1e-9
        )

    def test_nodeless(self):
        rp = rp_kappa(0.25)
        gs = ground_state_wavefunction(rp, extension_for(rp, nu=-1.0))
        vals = [gs(x) for x in np.geomspace(1e-3, 8.0, 200)]
        assert all(v > 0.0 for v in vals) or all(v < 0.0 for v in vals)

    def test_derivative_consistent(self):
        rp = rp_kappa(0.5)
        for ext in (extension_for(rp, friedrichs=True), extension_for(rp, nu=0.7)):
            gs = ground_state_wavefunction(rp, ext)
            x, h = 1.1, 1e-6
            fd = (gs(x + h) - gs(x - h)) / (2.0 * h)
            assert gs.derivative(x) == pytest.approx(fd, rel=1e-7)

    @staticmethod
    def _interior_state(monkeypatch):
        # alpha = 6.29: on 801 points of the oracle's window, 195 of the
        # state's 282 Psi values at rho <= 8 lose more than 5 digits of the
        # two-series form, and the recurrence in alpha or its sweep answers
        # them and every value past rho = 8; mpmath is blocked, so a route
        # that imported it would raise ImportError
        monkeypatch.setitem(sys.modules, "mpmath", None)
        spectral._nu_state_norm.cache_clear()
        rp = rp_kappa(0.19)
        gs = ground_state_wavefunction(rp, extension_for(rp, nu=-1.05))
        x_min, x_max = 0.02 / rp.upsilon, 8.0 / rp.upsilon
        n = 801
        return gs, [x_min + (x_max - x_min) * i / (n - 1) for i in range(n)]

    def test_interior_state_samples_without_mpmath(self, monkeypatch):
        # the Psi router, one call per point: sample_on_grid would sweep
        gs, grid = self._interior_state(monkeypatch)
        vals = [gs(x) for x in grid]
        assert len(vals) == 801 and all(v > 0.0 for v in vals)

    def test_interior_state_sweeps_without_mpmath(self, monkeypatch):
        # the same grid through sample_on_grid: the sweep's seed, from the
        # recurrence, is all the Psi it takes from outside the sweep, and it
        # agrees with the router within the router's 1e-8
        gs, grid = self._interior_state(monkeypatch)
        calls = []
        inner = specfun.tricomi_psi

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(specfun, "tricomi_psi", counted)
        monkeypatch.setattr(factorization, "tricomi_psi", counted)
        sampled = oracle.sample_on_grid(gs, grid)
        assert len(calls) <= 4
        vals = sampled.values
        assert len(vals) == 801 and all(v > 0.0 for v in vals)
        swept = gs.values_on(grid)
        for x, v in zip(grid, swept):
            assert abs(v - gs(x)) <= 1e-8 * abs(v)

    def test_deep_state_has_unit_norm(self):
        # alpha ~ 50.5: near the origin every digit of the float64 Psi series
        # cancels, and the recurrence in alpha or its sweep answers instead
        rp = rp_kappa(0.5)
        gs = ground_state_wavefunction(rp, extension_for(rp, nu=-1.5))
        assert float(_quad_norm(gs)) == pytest.approx(1.0, abs=1e-12)

    # alpha ~ 95, ~ 99, ~ 110 and ~ 151: Psi^2 nears the subnormals, and
    # Gamma(alpha)^2 overflows past alpha ~ 100; Gamma(alpha) itself holds
    # to alpha = 171.6, so each state is built, and has unit norm to 3e-15
    @pytest.mark.parametrize("nu", [-1.51934, -1.5204, -1.523, -1.53])
    def test_deepest_states_have_unit_norm(self, nu):
        rp = rp_kappa(0.5)
        gs = ground_state_wavefunction(rp, extension_for(rp, nu=nu))
        assert math.isfinite(gs.norm_constant)
        assert float(_quad_norm(gs)) == pytest.approx(1.0, abs=1e-10)

    @given(kappa=st.floats(0.0, 1.0, exclude_max=True), nu=st.floats(-1.57, 1.57))
    @settings(max_examples=40, deadline=None)
    def test_norm_constant_finite_or_refused(self, kappa, nu):
        rp = rp_kappa(kappa)
        try:
            gs = ground_state_wavefunction(rp, extension_for(rp, nu=nu))
        except (ConvergenceError, DomainError):
            return
        assert math.isfinite(gs.norm_constant) and gs.norm_constant > 0.0

    @pytest.mark.parametrize("nu", [0.95, 1.0, 1.2, 1.4, 1.45])
    def test_kappa_zero_psi_overflow_refused_not_crashed(self, nu):
        # the closed-form norm answers every kappa = 0 state whose scale
        # Gamma(alpha) fits float64, and those states have unit norm: at
        # nu = 1.4 (alpha ~ 104) the Psi values at small rho, where
        # rho^(-alpha) / Gamma(alpha) overflows, come from the inward sweep.
        # At nu = 1.45 Gamma(alpha ~ 1193) overflows: a typed refusal, not a
        # raw OverflowError
        rp = rp_kappa(0.0)
        ext = extension_for(rp, nu=nu)
        if nu <= 1.4:
            gs = ground_state_wavefunction(rp, ext)
            assert float(_quad_norm(gs)) == pytest.approx(1.0, abs=1e-12)
            return
        with pytest.raises(ConvergenceError, match="overflows"):
            ground_state_wavefunction(rp, ext)

    @pytest.mark.parametrize("nu", [-1.5707, -1.5, -0.8, -0.3, 0.0, 0.4, 0.8, 1.2])
    def test_kappa_zero_states_have_unit_norm(self, nu):
        # Q0 = psi'(alpha) / (2 ups) at kappa = 0, from alpha ~ 9.6e-5 next
        # to the Friedrichs end to alpha ~ 4.6 on the way to the deep dive
        rp = rp_kappa(0.0, g2=3.0)
        gs = ground_state_wavefunction(rp, extension_for(rp, nu=nu))
        assert float(_quad_norm(gs)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("g2", [1.0, 57.6])
    @pytest.mark.parametrize("nu", [-1.45, -1.55])
    def test_deep_small_kappa_state_refused_not_crashed(self, nu, g2):
        # alpha ~ 6.5e17 and ~ 1.4e33: psi(alpha) - psi(alpha - k) rounds
        # to 0 when formed as a difference, and 1/sqrt(Q0) would divide by
        # zero; the shift form keeps Q0 ~ 1e-20 and ~ 1e-35, and the state
        # is refused where its scale Gamma(alpha) overflows
        rp = rp_kappa(0.05, g2)
        ext = extension_for(rp, nu=nu)
        w = -ground_state_energy(rp, ext) / (4.0 * rp.energy_scale())
        assert 0.0 < spectral._nu_state_norm(rp.kappa, w) < 1e-19
        with pytest.raises(ConvergenceError, match="Gamma"):
            ground_state_wavefunction(rp, ext)

    def test_high_kappa_family_refused(self):
        # the closed-form norm holds at any kappa in [0, 1): at kappa = 0.95
        # the state has unit norm, with u^2 ~ x^(1 - 2 kappa) at the origin
        # taken in v = x^(1/10)
        rp = rp_kappa(0.95)
        for nu in (0.3, -1.2):
            gs = ground_state_wavefunction(rp, extension_for(rp, nu=nu))
            assert float(_quad_norm(gs, m=10)) == pytest.approx(1.0, abs=1e-12)
        # ladders stay exact at any kappa
        gs = ground_state_wavefunction(reduce(8.75, 1.0), extension_for(reduce(8.75, 1.0)))
        assert gs.energy == pytest.approx(8.0, rel=1e-14, abs=0.0)
