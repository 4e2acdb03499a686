"""Shooting-method oracle tests.

The frozen quintets below were computed from the transcendental boundary
equations (Gamma-ratio root finding in 50-digit arithmetic) and are the
same constants test_spectral.py pins. The oracle must reproduce them from
nothing but the ODE and the boundary data, which is the whole point: two
routes, one spectrum.
"""

import ast
import math
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calogero import oracle
from calogero.errors import ConvergenceError, DomainError
from calogero.oracle import sample_on_grid, shoot_spectrum
from calogero.params import reduce
from calogero.rk45 import integrate
from calogero.spectral import extension_for, ground_state_wavefunction, spectrum

# scaled energies e = E / ups^2, keyed by (kappa, nu)
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


def _rp_for_kappa(kappa, g2=1.0):
    return reduce(kappa * kappa - 0.25, g2)


def _window_for(rp, ext):
    """The (x_min, x_match) shoot_spectrum uses for this extension."""
    return oracle._window(rp, oracle._scan_floor(rp, ext))


class TestFrozenSpectra:
    @pytest.mark.parametrize("kappa,nu", sorted(QUINTETS))
    def test_quintet(self, kappa, nu):
        rp = _rp_for_kappa(kappa)
        ext = extension_for(rp, nu=nu)
        spec = shoot_spectrum(rp, ext, 5)
        assert len(spec.match_states) == 5
        for got, ref in zip(spec.energies, QUINTETS[(kappa, nu)]):
            assert got == pytest.approx(ref, rel=5e-9)
        assert max(spec.mismatch_residuals) < 1e-12
        assert list(spec.energies) == sorted(spec.energies)

    def test_nu_zero_digamma_ground_state(self):
        # kappa = 0, nu = 0 is the pure-log boundary condition; the
        # reference root comes from psi(1/2 - e/4) = 2 psi(1)
        rp = _rp_for_kappa(0.0)
        ext = extension_for(rp, nu=0.0)
        spec = shoot_spectrum(rp, ext, 1)
        assert spec.energies[0] == pytest.approx(-0.89506324003223515510, rel=1e-8)


class TestLadders:
    def test_friedrichs_ladder(self):
        rp = reduce(0.0, 1.0)  # kappa = 1/2
        ext = extension_for(rp, nu=None, friedrichs=True)
        spec = shoot_spectrum(rp, ext, 3)
        for got, ref in zip(spec.energies, (3.0, 7.0, 11.0)):
            assert got == pytest.approx(ref, rel=1e-8)

    def test_unique_extension_ladder(self):
        rp = reduce(2.0, 1.0)  # kappa = 3/2, no boundary freedom left
        ext = extension_for(rp, nu=None)
        spec = shoot_spectrum(rp, ext, 3)
        for got, ref in zip(spec.energies, (5.0, 9.0, 13.0)):
            assert got == pytest.approx(ref, rel=1e-8)

    def test_unique_kappa_one(self):
        rp = reduce(0.75, 1.0)
        ext = extension_for(rp, nu=None)
        spec = shoot_spectrum(rp, ext, 3)
        for got, ref in zip(spec.energies, (4.0, 8.0, 12.0)):
            assert got == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("kappa", [1.0 + 0.1 * i for i in range(76)], ids="{:.1f}".format)
    def test_large_kappa_ladders(self, kappa):
        # at kappa in [6.9, 8.4] seven ground states reach a Newton step below
        # one ulp of E while |Theta| is still above the 1e-13 stop
        rp = _rp_for_kappa(kappa)
        spec = shoot_spectrum(rp, extension_for(rp, nu=None), 3)
        for n, got in enumerate(spec.energies):
            assert got == pytest.approx(2.0 * (2 * n + 1 + kappa), rel=1e-10)

    def test_physical_units(self):
        # g2 = 16 means upsilon^2 = 4; physical energies are 4x the scaled ones
        rp = reduce(0.0, 16.0)
        ext = extension_for(rp, nu=None, friedrichs=True)
        spec = shoot_spectrum(rp, ext, 2)
        assert spec.energies[0] == pytest.approx(12.0, rel=1e-8)
        assert spec.energies[1] == pytest.approx(28.0, rel=1e-8)


class TestWindowInvariance:
    # contract: boundary truncation must not matter. Shrinking x_min moves
    # the first eigenvalues by <= 1e-4 relative, and the match point inside
    # [0.5/ups, 2/ups] by <= 1e-6.

    def _first3(self):
        rp = reduce(0.0, 1.0)
        ext = extension_for(rp, nu=1.0)
        return shoot_spectrum(rp, ext, 3).energies

    def test_truncation_insensitive(self, monkeypatch):
        base = self._first3()
        monkeypatch.setattr(oracle, "_X_MIN", 0.01)
        tight = self._first3()
        for b, t in zip(base, tight):
            assert abs(t - b) / abs(b) <= 1e-4

    @pytest.mark.parametrize("x_match", [0.5, 2.0])
    def test_match_point_invariant(self, monkeypatch, x_match):
        base = self._first3()
        monkeypatch.setattr(oracle, "_X_MATCH", x_match)
        moved = self._first3()
        for b, m in zip(base, moved):
            assert abs(m - b) / abs(b) <= 1e-6


def _pair_gap(got, want):
    """max(|du|, |du'|) / hypot(u, u') of two (u, u') pairs."""
    return max(abs(got[0] - want[0]), abs(got[1] - want[1])) / math.hypot(*want)


def _laguerre_state(rp, n, x):
    """(u, u') at x of ladder level n from the closed form
    u = rho^(1/4 + kappa/2) e^(-rho/2) L_n^kappa(rho), rho = (ups x)^2,
    normalized by int u^2 dx = Gamma(n + kappa + 1) / (2 ups n!)."""
    from scipy.special import eval_genlaguerre

    k, ups = rp.kappa, rp.upsilon
    rho = (ups * x) ** 2
    a = 0.25 + 0.5 * k
    lag = eval_genlaguerre(n, k, rho)
    dlag = -eval_genlaguerre(n - 1, k + 1.0, rho) if n else 0.0
    c = math.sqrt(2.0 * ups * math.factorial(n) / math.gamma(n + k + 1.0))
    u = c * rho ** a * math.exp(-0.5 * rho) * lag
    du_drho = c * rho ** a * math.exp(-0.5 * rho) * ((a / rho - 0.5) * lag + dlag)
    return u, du_drho * 2.0 * ups * ups * x


# row 9's threshold on the gap between two (u, u') pairs
_PAIR_TOL = 1e-7


class TestMatchState:
    # each level's L2-normalized (u, u') at the match point, from the last
    # refinement evaluation: (sin phi_L, cos phi_L) / sqrt(dTheta/dE)

    @pytest.mark.parametrize(
        "g1,g2,kwargs",
        [
            (0.75, 1.0, dict(nu=None)),  # unique, kappa = 1
            (0.0, 1.0, dict(nu=None, friedrichs=True)),
            (-0.25, 1.0, dict(nu=None, friedrichs=True)),  # kappa = 0
            (0.0, 1.0, dict(nu=0.0)),  # Tricomi-function form
        ],
    )
    def test_ground_state_pair(self, g1, g2, kwargs):
        rp = reduce(g1, g2)
        ext = extension_for(rp, **kwargs)
        spec = shoot_spectrum(rp, ext, 1)
        gs = ground_state_wavefunction(rp, ext)
        x = spec.x_match
        assert x == 1.0 / rp.upsilon
        assert _pair_gap(spec.match_states[0], (gs(x), gs.derivative(x))) <= _PAIR_TOL

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("g2", [1.0, 4.0])
    def test_ladder_pairs_are_laguerre_states(self, kappa, g2):
        # an independent reference for every level, up to sign
        rp = _rp_for_kappa(kappa, g2)
        spec = shoot_spectrum(rp, extension_for(rp, nu=None, friedrichs=True), 4)
        for n, got in enumerate(spec.match_states):
            u, du = _laguerre_state(rp, n, spec.x_match)
            assert got[0] >= 0.0
            assert min(_pair_gap(got, (u, du)), _pair_gap(got, (-u, -du))) <= _PAIR_TOL, n

    def test_deep_ground_state_at_its_match_point(self):
        # the pair is reported at the moved match point, 4 / sqrt(-e_floor)
        g1, g2, nu = DEEP["kappa-0.3"]
        rp = reduce(g1, g2)
        ext = extension_for(rp, nu=nu)
        spec = shoot_spectrum(rp, ext, 1)
        x = _window_for(rp, ext)[1]
        assert spec.x_match == x < 1.0 / rp.upsilon
        gs = ground_state_wavefunction(rp, ext)
        assert _pair_gap(spec.match_states[0], (gs(x), gs.derivative(x))) <= _PAIR_TOL

    @pytest.mark.parametrize("g1,nu,n", [(0.0, 1.0, 3), (-0.25, -1.0, 2)])
    def test_pairs_agree_across_match_points(self, monkeypatch, g1, nu, n):
        # each level's pair at x_match = 1, carried to 0.5 by the ODE, is the
        # pair matched at 0.5: the same state with the same norm (the
        # kappa = 0 levels run on the log boundary data)
        rp = reduce(g1, 1.0)
        ext = extension_for(rp, nu=nu)
        here = shoot_spectrum(rp, ext, n)
        monkeypatch.setattr(oracle, "_X_MATCH", 0.5)
        there = shoot_spectrum(rp, ext, n)
        assert (here.x_match, there.x_match) == (1.0, 0.5)
        for E, pair, want in zip(here.energies, here.match_states, there.match_states):
            res = integrate(rp.g1, rp.g2, E, 1.0, pair, 0.5, rel_tol=1e-12)
            got = tuple(v * math.exp(res.log_scale) for v in res.y)
            assert min(_pair_gap(got, want), _pair_gap(got, (-want[0], -want[1]))) <= 1e-8


def test_sample_on_grid_normalizes():
    grid = [0.01 * i for i in range(1, 402)]
    f = sample_on_grid(lambda x: x * math.exp(-x * x / 2.0), grid)
    assert oracle._simpson([v * v for v in f.values], grid) == pytest.approx(1.0, abs=1e-12)


# ground states far below the rung: kappa = 0.3 at nu = -1.3 (scaled
# e0 ~ -84), and kappa = 0.742 at nu = -1.5613, g2 = 57.6 (e0 ~ -349).  At
# the default match point 1/ups their theta is a step at float precision;
# the oracle matches them four decay lengths out instead; (g1, g2, nu)
DEEP = {
    "kappa-0.3": (-0.16, 1.0, -1.3),
    "kappa-0.742": (0.300564, 57.6, -1.5613),
}


# deep ground states the old step rule was slow on: (g1, g2, nu, pinned
# energies); the kappa = 0.466 cell is a benchmark draw (E0 = -98.6).  The
# pins are from the left branch's start where its series hold: from x_min =
# 0.02/ups the ground states lay 1.8e-10, 3.5e-10 and 1.5e-10 (relative)
# from the spectrum, the error the left branch carried
CLIFFS = {
    "kappa-0.3": (-0.16, 1.0, -1.3, ("-0x1.4efc539421847p+6", "0x1.89aa708a55ce3p+1")),
    "kappa-0.466": (
        -0.032835996078904306, 133.97456812019843, -1.2134807836065487,
        ("-0x1.8a4eb2fd779b5p+6", "0x1.5aa5481db03dfp+5", "0x1.7168b70d4dd8cp+6"),
    ),
    "kappa-0.742": (0.300564, 57.6, -1.5613, ("-0x1.4b0a336b529ddp+11", "0x1.aabc77ae72686p+4")),
}


class TestDeepGroundStates:
    @pytest.mark.parametrize("name", sorted(DEEP))
    def test_ground_state_matches_spectrum(self, name):
        g1, g2, nu = DEEP[name]
        rp = reduce(g1, g2)
        ext = extension_for(rp, nu=nu)
        got = shoot_spectrum(rp, ext, 1)
        assert got.energies[0] == pytest.approx(spectrum(rp, ext, 1).energies[0], rel=1e-8)
        assert got.mismatch_residuals[0] <= 1e-10

    # limits: a secant finish on the Wronskian spent 140 and 148
    # integrations on two levels, a bracketed finish 98 and 154; Newton on
    # the smooth angle takes 40 and 54
    @pytest.mark.parametrize("name", sorted(DEEP))
    def test_integration_budget(self, monkeypatch, name):
        calls = [0]
        real = oracle.integrate

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "integrate", counting)
        g1, g2, nu = DEEP[name]
        rp = reduce(g1, g2)
        shoot_spectrum(rp, extension_for(rp, nu=nu), 2)
        assert calls[0] <= 100

    @pytest.mark.parametrize("name", sorted(CLIFFS))
    def test_matching_angle_budget(self, monkeypatch, name):
        # Theta evaluations at the scan tolerance before the ground state's
        # refinement starts: floor, estimate, rung and the solve.  The energies
        # are pinned from the regula-falsi iteration the lever secant replaced,
        # which spent 12, 36 and 20 scan evaluations on these ground states
        g1, g2, nu, pins = CLIFFS[name]
        tols = []
        real = oracle._theta

        def counting(rp_, ext_, E, window, tol):
            tols.append(tol)
            return real(rp_, ext_, E, window, tol)

        monkeypatch.setattr(oracle, "_theta", counting)
        rp = reduce(g1, g2)
        got = shoot_spectrum(rp, extension_for(rp, nu=nu), len(pins))
        ground_scan = tols.index(oracle._REFINE_TOL)
        assert ground_scan <= 7
        assert len(tols) <= 8 * len(pins)
        for e, pin in zip(got.energies, pins):
            assert e == pytest.approx(float.fromhex(pin), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("name", sorted(CLIFFS))
    def test_cliff_ground_states_match_the_spectrum(self, name):
        g1, g2, nu, _ = CLIFFS[name]
        rp = reduce(g1, g2)
        ext = extension_for(rp, nu=nu)
        got = shoot_spectrum(rp, ext, 1).energies[0]
        assert got == pytest.approx(spectrum(rp, ext, 1).energies[0], rel=5e-11, abs=0.0)

    def test_one_match_point_per_call(self, monkeypatch):
        # every Theta evaluation of a deep call, excited levels included,
        # matches at the ground state's point, four decay lengths of the floor
        g1, g2, nu = DEEP["kappa-0.3"]
        rp = reduce(g1, g2)
        ext = extension_for(rp, nu=nu)
        seen = []
        real = oracle._theta

        def spy(rp_, ext_, E, window, tol):
            seen.append(window)
            return real(rp_, ext_, E, window, tol)

        monkeypatch.setattr(oracle, "_theta", spy)
        spec = shoot_spectrum(rp, ext, 2)
        assert set(seen) == {_window_for(rp, ext)}
        assert spec.x_match == _window_for(rp, ext)[1] < 1.0 / rp.upsilon


class TestSolve:
    # oracle._solve on model angles: (E, theta - target, slope) comes back

    def test_newton_needs_no_bracket(self):
        calls = []

        def theta(E):
            calls.append(E)
            return math.atan(E - 0.3), 1.0 / (1.0 + (E - 0.3) ** 2)

        E, miss, _ = oracle._solve(theta, 0.0, 0.9, *theta(0.9), None, None, 1e-13, 1e-11)
        assert abs(miss) <= 1e-13
        assert E == pytest.approx(0.3, abs=1e-13)
        assert len(calls) <= 6

    def test_stalling_newton_brackets_the_root(self):
        # a slope three times too steep: Newton creeps, twice its step
        # crosses the root, and the bracketed steps finish
        def theta(E):
            return math.atan(E - 0.3), 3.0 / (1.0 + (E - 0.3) ** 2)

        E, miss, _ = oracle._solve(theta, 0.0, 2.0, *theta(2.0), None, None, 1e-13, 1e-11)
        assert E == pytest.approx(0.3, abs=1e-11)

    def test_a_newton_step_below_one_ulp_ends_the_solve(self):
        # the root lies 0.4 ulp below 0.3, where theta is still 2.2e-12 off
        # target: 0.3 is the answer, after one evaluation
        calls = []

        def theta(E):
            calls.append(E)
            return 1e5 * (E - 0.3) + 1e5 * 0.4 * 2.0 ** -54, 1e5

        E, miss, _ = oracle._solve(theta, 0.0, 0.3, *theta(0.3), None, None, 1e-13, 1e-11)
        assert E == 0.3
        assert miss > 1e-13
        assert len(calls) == 1

    def test_a_step_ends_on_the_bracket_width(self):
        def theta(E):
            return (0.5 if E > 1.0 else -0.5), 1e-3

        lo, hi = (0.0, *theta(0.0)), (3.0, *theta(3.0))
        E, _, _ = oracle._solve(theta, 0.0, 0.0, *theta(0.0), lo, hi, 1e-8, 1e-6)
        assert abs(E - 1.0) <= 2e-6

    @pytest.mark.parametrize("target_n", [0, 2])
    @pytest.mark.parametrize("below, above", [(12.0, 8.0), (200.0, 350.0)])
    def test_a_cliff_from_its_shallow_side(self, target_n, below, above):
        # a deep ground state's angle: -pi + b below e_c, +b above it, and a
        # rise by pi over about 1/c.  tan(theta) is a Moebius function of E,
        # so the lever sin(theta - n pi) / sqrt(slope) is a straight line.
        # From the flat upper shoulder Newton leaves the bracket; a regula
        # falsi on theta took 12 evaluations on the narrow bracket and ran
        # out of its 100 steps on the wide one
        b, c, e_c = 0.04, 200.0, -350.0
        calls = []

        def theta(E):
            calls.append(E)
            z = c * (E - e_c)
            return target_n * math.pi + b - 0.5 * math.pi + math.atan(z), c / (1.0 + z * z)

        root = e_c + math.tan(0.5 * math.pi - b) / c
        lo, hi = (e_c - below, *theta(e_c - below)), (e_c + above, *theta(e_c + above))
        calls.clear()
        E, miss, _ = oracle._solve(theta, target_n * math.pi, *hi, lo, hi, 1e-13, 1e-15)
        assert abs(miss) <= 1e-13
        assert E == pytest.approx(root, rel=1e-14, abs=0.0)
        assert len(calls) <= 3


class TestReach:
    # the right branch starts past each level's own turning point, so the
    # oracle reaches levels far above the old 8/ups cap: 30 levels, the
    # top one turning at 11/ups (kappa = 1/2 ladder, e = 119)

    @pytest.mark.parametrize("g1, ext_args", [(0.0, {"nu": 1.0}), (-0.25, {"nu": 1.0}),
                                              (0.0, {"nu": None, "friedrichs": True})],
                             ids=["kappa-0.5-nu-1", "kappa-0-nu-1", "kappa-0.5-friedrichs"])
    def test_thirty_levels_match_the_spectrum(self, g1, ext_args):
        rp = reduce(g1, 1.0)
        ext = extension_for(rp, **ext_args)
        got = shoot_spectrum(rp, ext, 30)
        for n, (g, w) in enumerate(zip(got.energies, spectrum(rp, ext, 30).energies)):
            assert g == pytest.approx(w, rel=1e-9, abs=0.0), n


class TestRefusals:
    def test_too_deep_for_window(self):
        # tan(1.55) ~ 48: the kappa = 0 ground state sits around -4 e^49,
        # hopeless for any double-precision shooting window
        rp = reduce(-0.25, 1.0)
        ext = extension_for(rp, nu=1.55)
        with pytest.raises(DomainError, match="too deep"):
            shoot_spectrum(rp, ext, 1)

    @pytest.mark.parametrize("g1, g2", [(3e4, 1.0), (532.0221370307443, 7.0)])
    def test_right_data_past_float64_are_refused(self, g1, g2):
        # energies whose right data e^(ln chi) overflow are refused, typed
        # and not a raw OverflowError; the root hunt no longer runs to them
        # from these ladders, whose ground states it answers
        rp = reduce(g1, g2)
        ext = extension_for(rp)
        with pytest.raises(ConvergenceError, match="right boundary data .* float64 range"):
            oracle._theta(rp, ext, 1e4 * rp.g2 ** 0.5 * (1.0 + rp.kappa), _window_for(rp, ext), oracle._SCAN_TOL)
        got = shoot_spectrum(rp, ext, 1).energies[0]
        assert got == pytest.approx(2.0 * (1.0 + rp.kappa) * rp.energy_scale(), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("g1", [4e4, 1e6])
    def test_left_power_underflow_is_refused_at_the_first_evaluation(self, monkeypatch, g1):
        # kappa = 200 and 1000: (ups x_min)^(1/2 + kappa) underflows to 0, so
        # the floor's evaluation already refuses
        calls = []
        theta = oracle._theta

        def counted(*args):
            calls.append(args)
            return theta(*args)

        monkeypatch.setattr(oracle, "_theta", counted)
        rp = reduce(g1, 1.0)
        with pytest.raises(ConvergenceError, match="left solution .* float64 range"):
            shoot_spectrum(rp, extension_for(rp), 1)
        assert len(calls) == 1

    def test_scan_out_of_steps_is_refused(self, monkeypatch):
        # an unconverged energy is an error, not a result
        monkeypatch.setattr(oracle, "_SOLVE_MAX_STEPS", 1)
        rp = reduce(0.0, 1.0)
        with pytest.raises(ConvergenceError, match="0 pi is still"):
            shoot_spectrum(rp, extension_for(rp, nu=1.0), 1)

    def test_refinement_out_of_steps_is_refused(self, monkeypatch):
        # a refinement Theta that lies 0.5 above and below the ground state's
        # target in turn: no evaluation meets the stop, the bracket stays
        # wide and no Newton step falls below an ulp, so its steps run out
        real = oracle._theta
        refine = []

        def off(rp_, ext_, E, window, tol):
            t, slope, phi = real(rp_, ext_, E, window, tol)
            if tol == oracle._REFINE_TOL:
                refine.append(E)
                t = 0.5 if len(refine) % 2 else -0.5
            return t, slope, phi

        monkeypatch.setattr(oracle, "_theta", off)
        monkeypatch.setattr(oracle, "_SOLVE_MAX_STEPS", 8)
        rp = reduce(0.0, 1.0)
        with pytest.raises(ConvergenceError, match="0 pi is still"):
            shoot_spectrum(rp, extension_for(rp, nu=1.0), 1)
        assert len(refine) == 1 + 8  # the start and every step

    @pytest.mark.parametrize("kappa", [20.0, 50.0, 100.0])
    def test_large_kappa_ladders_answer_or_refuse_quickly(self, monkeypatch, kappa):
        # Theta is a float-precision step here; the refinement's first Newton
        # step off it once ran to E = -39 144 (kappa = 141) or to where the
        # right data overflow, deciding arbitrarily between an answer and a
        # refusal in up to 6 s.  Its steps without a bracket now reach no
        # farther than the scan's last bracket is wide (doubling per cut)
        calls = []
        real = oracle._theta

        def counting(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(oracle, "_theta", counting)
        rp = _rp_for_kappa(kappa)
        try:
            got = shoot_spectrum(rp, extension_for(rp, nu=None), 3).energies
        except ConvergenceError:
            got = None
        if got is not None:
            for n, e in enumerate(got):
                assert e == pytest.approx(2.0 * (2 * n + 1 + kappa), rel=1e-10, abs=0.0)
        # 26, 14 and 16 refinement evaluations (0.16, 0.27 and 0.52 s on a
        # 2-vCPU VM), against 88, 2 and 93 before
        assert calls.count(oracle._REFINE_TOL) <= 10 * 3

    def test_ladder_next_to_the_float64_limits_is_answered(self):
        # kappa = 141: theta is a float-precision step whose bracket closes
        # on the ladder level 2(1 + kappa) before any evaluation overflows
        rp = reduce(2e4, 1.0)
        got = shoot_spectrum(rp, extension_for(rp), 1).energies[0]
        assert got == pytest.approx(2.0 * (1.0 + rp.kappa) * rp.energy_scale(), rel=1e-11, abs=0.0)

    def test_rejects_bad_n_max(self):
        rp = reduce(0.0, 1.0)
        ext = extension_for(rp, nu=None, friedrichs=True)
        with pytest.raises(DomainError, match="n_max"):
            shoot_spectrum(rp, ext, 0)

    def test_rejects_nu_extension_above_kappa_one(self):
        from calogero.spectral import Extension, ExtensionLabel

        rp = reduce(2.0, 1.0)
        bogus = Extension(ExtensionLabel.NU, 0.3)
        with pytest.raises(DomainError, match="kappa < 1"):
            shoot_spectrum(rp, bogus, 1)


def _leading_order(rp, E, x):
    """(chi, chi') of the leading-order decaying data
    chi = (ups x)^(2k - 1/2) e^(-(ups x)^2 / 2), k = E / (4 ups^2)."""
    ups = rp.upsilon
    k, z = E / (4.0 * ups * ups), ups * x
    chi = math.exp((2.0 * k - 0.5) * math.log(z) - 0.5 * z * z)
    return chi, (2.0 * k - 0.5 - z * z) / x * chi


def _check_start(rp, ext, e, tol, z_ref=12.0):
    """The right branch's start x_s against a reference from leading-order
    data z_ref/ups out, carried in to x_s at 1e-13.  Theta's part is the
    start data's own: the Wronskian W of the two states at x_s, constant
    along the branch, over the product of their amplitudes r at the match
    point (carried there at tol) is the sine of the gap between their angles
    there, with no step of the branch's own integration in it.  The slope's
    reference integrates the whole branch from z_ref/ups; both slopes are
    taken at the refinement tolerance, since the start does not depend on
    tol and at the scan's the two carry the u^2 integral's own error.  Also
    checks that q > 0 from x_s to z_ref/ups."""
    E = e * rp.energy_scale()
    ups = rp.upsilon
    window = _window_for(rp, ext)
    x_match = window[1]
    x_s, start, _ = oracle._right_start(rp, E, x_match)
    x_ref = z_ref / ups
    assert x_match < x_s < x_ref
    for i in range(101):
        x = x_s + (x_ref - x_s) * i / 100
        assert rp.g1 / (x * x) + rp.g2 * x * x - E > 0.0, x
    far = _leading_order(rp, E, x_ref)
    near = integrate(rp.g1, rp.g2, E, x_ref, far, x_s, rel_tol=1e-13).y

    def r_match(y):
        res = integrate(rp.g1, rp.g2, E, x_s, y, x_match, rel_tol=tol)
        return math.hypot(*res.y) * math.exp(res.log_scale)

    assert start[0] * near[0] + start[1] * near[1] > 0.0  # not opposite
    wronskian = start[0] * near[1] - start[1] * near[0]
    # the start's leak is at most 1e-17; 1e-15 is the data's own rounding
    assert abs(wronskian) / (r_match(start) * r_match(near)) <= 1e-15
    slope = oracle._theta(rp, ext, E, window, oracle._REFINE_TOL)[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_right_start", lambda *args: (x_ref, far, 0.0))
        want = oracle._theta(rp, ext, E, window, oracle._REFINE_TOL)[1]
    assert slope == pytest.approx(want, rel=1e-6, abs=0.0)


# (g1, g2, nu or None for the ladder, ups x_ref of the reference data,
# scaled energies): a ground state near -349 (matched four decay lengths
# out, as shoot_spectrum does), a deep kappa = 0 ground state at the scan
# floor, the kappa = 1/2 Friedrichs and kappa = 2.5 unique ladders,
# kappa = 1/2, nu = 1 levels up to 35.5, and levels 24 and 30 of the
# Friedrichs ladder, whose turning points lie past 8/ups and where the
# series' terms grow to about 2000 before they fall
START_CASES = {
    "kappa-0.742-ground": (0.300564, 57.6, -1.5613, 12.0, (-349.3, -348.9, -340.0)),
    "kappa-0-floor": (-0.25, 1.0, 1.2, 12.0, (-170.0, -40.0)),
    "kappa-0.5-friedrichs": (0.0, 1.0, None, 12.0, (3.0, 7.0, 19.0, 31.0)),
    "kappa-2.5-ladder": (6.0, 1.0, None, 12.0, (7.0, 11.0, 27.0)),
    "kappa-0.5-nu-1": (0.0, 1.0, 1.0, 12.0, (2.03, 13.51, 29.36, 33.34, 35.5)),
    "kappa-0.5-wide": (0.0, 1.0, None, 18.0, (99.0, 123.0)),
}


class TestRightStart:
    # the right branch starts where its data's leak along the inward-decaying
    # mode into the match point is at most 1e-17

    @pytest.mark.parametrize("tol", [oracle._SCAN_TOL, oracle._REFINE_TOL])
    @pytest.mark.parametrize("name", sorted(START_CASES))
    def test_start_matches_a_wide_window(self, name, tol):
        g1, g2, nu, z_ref, es = START_CASES[name]
        rp = reduce(g1, g2)
        ext = extension_for(rp, nu=nu, friedrichs=nu is None and rp.kappa < 1.0)
        for e in es:
            _check_start(rp, ext, e, tol, z_ref)

    def test_the_start_moves_in(self):
        # the deep ground state starts within 2/ups of the origin, the
        # ladder's ground level halfway to 8/ups, e = 35.5 inside 8/ups
        rp = reduce(0.300564, 57.6)
        ups = rp.upsilon
        x_match = _window_for(rp, extension_for(rp, nu=-1.5613))[1]
        assert ups * oracle._right_start(rp, -349.0 * ups * ups, x_match)[0] < 2.0
        rp = reduce(0.0, 1.0)
        assert oracle._right_start(rp, 3.0, 1.0)[0] < 5.0
        assert oracle._right_start(rp, 35.5, 1.0)[0] < 8.0

    def test_start_past_a_double_root_of_q(self):
        # kappa = 1.5 at E = 2: q = 1/x^2 + x^2 - 2 = (x - 1/x)^2 has a double
        # root at x = 1, the match point, where the general closed form of
        # the decay exponent is singular
        rp = reduce(1.0, 1.0)
        x_s, (u, du), y_e = oracle._right_start(rp, 2.0, 1.0)
        assert 1.0 < x_s < 8.0
        assert all(rp.g1 / (x * x) + rp.g2 * x * x - 2.0 > 0.0
                   for x in (x_s + 0.05 * i for i in range(200)))
        assert u > 0.0 and du < 0.0 and y_e > 0.0

    @given(
        kappa=st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.5]),
        nu=st.floats(-1.2, 1.2),
        ups=st.floats(0.5, 3.0),
        e=st.floats(-3.0, 35.5),
        tol=st.sampled_from([oracle._SCAN_TOL, oracle._REFINE_TOL]),
    )
    @settings(max_examples=25, deadline=None)
    # at the scan tolerance this draw's slope was once compared with its
    # reference's, 1.02e-6 apart: both carried the u^2 integral's own error
    @example(kappa=0.0, nu=1.0, ups=1.0, e=0.59375, tol=1e-7)
    def test_start_in_physical_units(self, kappa, nu, ups, e, tol):
        rp = reduce(kappa * kappa - 0.25, ups ** 4)
        ext = extension_for(rp, nu=None if kappa >= 1.0 else nu)
        _check_start(rp, ext, max(e, oracle._scan_floor(rp, ext)), tol)

    @pytest.mark.parametrize("g1, e", [(0.0, 17.45), (6.0, 9.0), (-0.2, 30.0), (0.3, -349.0),
                                       (1e4, 201.0), (1e4, 2.0 * math.sqrt(1e4) * (1.0 - 1e-9)),
                                       (1.0, 2.0)])
    def test_decay_exponent_is_the_integral(self, g1, e):
        # 2 int sqrt(q) dz from the outer turning point (or, in the last two
        # cases, from the near-double and the double root of q at z^2 = e/2)
        # against scipy's quadrature
        from scipy.integrate import quad

        z_turn = math.sqrt(max(0.5 * (e + math.sqrt(max(e * e - 4.0 * g1, 0.0))), 0.0))
        for z1, z2 in ((z_turn + 0.1, z_turn + 0.6), (max(z_turn, 0.3), z_turn + 3.0)):
            want = 2.0 * quad(lambda z: math.sqrt(max(g1 / (z * z) + z * z - e, 0.0)), z1, z2,
                              epsabs=1e-13, epsrel=1e-12)[0]
            got = oracle._decay_exponent(g1, e, z2 * z2) - oracle._decay_exponent(g1, e, z1 * z1)
            assert got == pytest.approx(want, rel=1e-10)


def _check_left_start(rp, ext, e):
    """Theta at both tolerances and its slope at the refinement's, with the
    left branch started at x_s, against a reference integrated at 1e-12 from
    x_ref = x_min / 10, where the same tables give the series.  For Theta the
    reference branch starts at x_s from the state it reaches there, so only
    the start's data differ; the slope's reference runs the whole branch from
    x_ref.  The reference's own error is 1e-12 times the growth of the mode
    its steps excite, (x_s / x_ref)^(2 kappa) against F-, so Theta is held to
    1e-11 times that, and no tighter than 1e-9.  Also checks that the sign
    rule at x_s counts the nodes the reference crosses below x_s."""
    E = e * rp.energy_scale()
    window = _window_for(rp, ext)
    x_min, x_match = window
    x_s, (u, _), _ = oracle._left_start(rp, ext, E, x_min, x_match)
    assert x_min <= x_s <= x_match
    x_ref = x_min / 10.0
    ref = oracle._left_start(rp, ext, E, x_ref, x_ref)
    assert ref[0] == x_ref
    res = integrate(rp.g1, rp.g2, E, x_ref, ref[1], x_s, rel_tol=1e-12)
    lead = -1.0 if not ext.is_ladder and rp.kappa == 0.0 else 1.0
    assert res.sign_changes + (lead * ref[1][0] < 0.0) == (lead * u < 0.0)
    growth = (x_s / x_ref) ** (2.0 * rp.kappa) if not ext.is_ladder else 1.0
    for tol in (oracle._SCAN_TOL, oracle._REFINE_TOL):
        theta, slope, _ = oracle._theta(rp, ext, E, window, tol)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_left_start", lambda *args: (x_s, res.y, 0.0))
            want = oracle._theta(rp, ext, E, window, tol)[0]
            assert theta == pytest.approx(want, rel=0.0, abs=max(1e-11 * growth, 1e-9))
            mp.setattr(oracle, "_left_start", lambda *args: ref)
            if tol == oracle._REFINE_TOL:
                assert slope == pytest.approx(oracle._theta(rp, ext, E, window, tol)[1], rel=1e-6, abs=0.0)


# (g1, g2, nu or None for the ladder, scaled energies): the verify row 3
# worst cell kappa = 3/4, nu = 0 (pure F-), kappa = 1/4 and the log series
# at kappa = 0 up to level 5 or 6, the kappa = 0 scan floor, a deep ground
# state's match point (off its cliff, where Theta is a float-precision mix),
# the node that leaves through x_min next to kappa = 1, and two ladders
LEFT_START_CASES = {
    "kappa-0.75-nu-0": (0.3125, 1.0, 0.0, (0.5, 4.9, 8.2, 16.0)),
    "kappa-0.25-nu-m0.7": (-0.1875, 1.0, -0.7, (-1.0, 3.0, 9.0, 21.0)),
    "kappa-0-nu-0.3": (-0.25, 1.0, 0.3, (-2.0, 4.0, 12.0, 30.0)),
    "kappa-0-floor": (-0.25, 1.0, 1.2, (-170.0, -40.0)),
    "kappa-0.742-deep": (0.300564, 57.6, -1.5613, (-340.0, -300.0)),
    "kappa-near-1": (0.74980001, 1.0, 0.72, (0.5, 2.0, 6.0, 9.0, 20.0)),
    "kappa-0.5-friedrichs": (0.0, 1.0, None, (3.0, 7.0, 19.0, 31.0)),
    "kappa-2.5-ladder": (6.0, 1.0, None, (7.0, 11.0, 27.0)),
}


class TestLeftStart:
    # the left branch starts where its series' leak into the match point is
    # at most the refinement's stop on Theta, short of any node of u

    @pytest.mark.parametrize("name", sorted(LEFT_START_CASES))
    def test_start_matches_a_deeper_reference(self, name):
        g1, g2, nu, es = LEFT_START_CASES[name]
        rp = reduce(g1, g2)
        ext = extension_for(rp, nu=nu, friedrichs=nu is None and rp.kappa < 1.0)
        for e in es:
            _check_left_start(rp, ext, e)

    def test_the_start_moves_out(self):
        # row 3's worst cell starts at the match point; a node next to kappa
        # = 1 and a level where two nodes could fit between trial points keep
        # the start at x_min
        def start(g1, nu, e):
            rp = reduce(g1, 1.0)
            ext = extension_for(rp, nu=nu, friedrichs=nu is None)
            return oracle._left_start(rp, ext, e, 0.02, 1.0)[0]

        assert start(0.3125, 0.0, 0.5) == 1.0
        assert start(-0.1875, -0.7, 3.0) == 0.5
        assert start(0.74980001, 0.72, 0.5) == 0.02
        assert start(0.0, None, 31.0) == 0.02

    def test_head_is_the_integral_from_the_origin(self):
        # u' u_E - u u'_E at x_s is the integral of u^2 over (0, x_s): the
        # same head at x_ref = 1e-3 plus the integral over (x_ref, x_s), for
        # the pure F- combination at kappa = 3/4, whose u^2 is singular at 0
        rp = reduce(0.3125, 1.0)
        ext = extension_for(rp, nu=0.0)
        x_s, _, head = oracle._left_start(rp, ext, 0.5, 0.02, 1.0)
        x_ref, state, head_ref = oracle._left_start(rp, ext, 0.5, 1e-3, 1e-3)
        res = integrate(rp.g1, rp.g2, 0.5, x_ref, state, x_s, rel_tol=1e-12)
        got = head_ref + res.u2_integral * math.exp(2.0 * res.log_scale)
        assert head == pytest.approx(got, rel=1e-8, abs=0.0)


def _levels_below(rp, ext, e):
    """Levels below the scaled energy e by the oracle's own count:
    floor(Theta / pi) + 1, Theta being its matching angle."""
    theta, _, _ = oracle._theta(rp, ext, e * rp.energy_scale(), _window_for(rp, ext), oracle._SCAN_TOL)
    assert theta > -math.pi
    return math.floor(theta / math.pi) + 1


def _grid_off_levels(lo, hi, levels, step=0.7, gap=1e-6):
    """A grid over [lo, hi] plus points 1e-5 either side of every level,
    keeping at least `gap` (relative) away from each level."""
    es = [lo + step * i for i in range(int((hi - lo) / step) + 1)]
    es += [e * (1.0 + d) for e in levels for d in (-1e-5, 1e-5)]
    return [e for e in sorted(es)
            if all(abs(e - lev) > gap * (1.0 + abs(lev)) for lev in levels)]


class TestOscillationCount:
    # the oracle indexes levels by its matching angle, so the count must be
    # exact everywhere off the levels, not only at the roots it finds

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.5])
    def test_ladder_count(self, kappa):
        rp = reduce(kappa * kappa - 0.25, 1.0)
        ext = extension_for(rp, nu=None, friedrichs=True)
        levels = [4 * n + 2 + 2 * kappa for n in range(11)]
        for e in _grid_off_levels(-3.0, 45.0, levels):
            assert _levels_below(rp, ext, e) == sum(lev < e for lev in levels), e

    @pytest.mark.parametrize("kappa", [0.0, 0.3, 0.7])
    @pytest.mark.parametrize("nu", [-1.0, 0.4, 1.2])
    def test_extension_count(self, kappa, nu):
        rp = reduce(kappa * kappa - 0.25, 1.0)
        ext = extension_for(rp, nu=nu)
        levels = spectrum(rp, ext, 12).energies
        lo = oracle._scan_floor(rp, ext)
        for e in _grid_off_levels(lo, 45.0, [lev for lev in levels if lev < 46.0], step=1.3):
            assert _levels_below(rp, ext, e) == sum(lev < e for lev in levels), e

    @pytest.mark.parametrize("kappa,nu", [(0.5, None), (1.0, None), (2.5, None)]
                             + [(k, nu) for k in (0.0, 0.3, 0.7) for nu in (-1.0, 0.4, 1.2)])
    def test_slope_is_the_derivative(self, kappa, nu):
        # dTheta/dE from the integrals of u^2 against a central difference
        rp = reduce(kappa * kappa - 0.25, 1.0)
        ext = extension_for(rp, nu=nu, friedrichs=nu is None)
        window = _window_for(rp, ext)
        for e in (oracle._scan_floor(rp, ext) + 0.5, 1.3, 6.1, 17.9, 30.3):
            h = 1e-4 * (1.0 + abs(e))
            _, slope, _ = oracle._theta(rp, ext, e, window, oracle._REFINE_TOL)
            up, _, _ = oracle._theta(rp, ext, e + h, window, oracle._REFINE_TOL)
            down, _, _ = oracle._theta(rp, ext, e - h, window, oracle._REFINE_TOL)
            assert slope == pytest.approx((up - down) / (2.0 * h), rel=1e-2), e

    @given(
        kappa=st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.5]),
        nu=st.floats(-1.2, 1.2),
        ups=st.floats(0.5, 3.0),
        e=st.floats(-3.0, 40.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_count_in_physical_units(self, kappa, nu, ups, e):
        rp = reduce(kappa * kappa - 0.25, ups ** 4)
        ext = extension_for(rp, nu=None if kappa >= 1.0 else nu)
        levels = [lev / rp.energy_scale() for lev in spectrum(rp, ext, 12).energies]
        if any(abs(e - lev) <= 1e-6 * (1.0 + abs(lev)) for lev in levels):
            return
        assert _levels_below(rp, ext, e) == sum(lev < e for lev in levels)


class TestNextToKappaOne:
    # F-'s first Frobenius coefficient -E / (4 (1 - kappa)) drives a node of
    # the left solution out through x_min as E rises; Theta counts it from the
    # sign of u(x_min), or the ground state goes missing and levels 1..3 come
    # back as levels 0..2

    @pytest.mark.parametrize("kappa", [0.9999, 1.0 - 1e-6, 1.0 - 1e-7])
    @pytest.mark.parametrize("nu", [-1.2, -0.4, 0.72, 1.3])
    def test_first_levels_match_the_spectrum(self, kappa, nu):
        rp = _rp_for_kappa(kappa)
        ext = extension_for(rp, nu=nu)
        got = shoot_spectrum(rp, ext, 3).energies
        want = spectrum(rp, ext, 3).energies
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * max(abs(w), rp.energy_scale())

    @given(
        kappa=st.one_of(st.floats(0.0, 0.999), st.floats(3.0, 7.0).map(lambda d: 1.0 - 10.0 ** -d)),
        nu=st.floats(-1.4, 1.4),
        g2=st.floats(0.1, 10.0),
        shift=st.floats(0.0, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_theta_does_not_decrease(self, kappa, nu, g2, shift):
        # on a grid of step 0.7 ups^2 from the scan floor to level 2 or 3
        rp = _rp_for_kappa(kappa, g2)
        ext = extension_for(rp, nu=nu)
        try:
            lo = oracle._scan_floor(rp, ext)
        except DomainError:  # a ground state too deep for the window
            return
        ups2 = rp.energy_scale()
        window = oracle._window(rp, lo)
        es = [lo + 0.7 * (i + shift) for i in range(int((14.0 - lo) / 0.7))]
        thetas = [oracle._theta(rp, ext, e * ups2, window, oracle._SCAN_TOL)[0] for e in es]
        assert thetas[0] > -math.pi
        for e, t1, t2 in zip(es[1:], thetas, thetas[1:]):
            assert t2 >= t1 - 1e-6, e


def test_oracle_imports_nothing_it_checks():
    # the oracle knows the ODE and its boundary data, not the spectral
    # equations, special functions or representations it cross-checks
    package = set()
    for node in ast.walk(ast.parse(pathlib.Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name.startswith((".", "calogero")):
                package.add(name.lstrip(".").removeprefix("calogero").lstrip("."))
    assert package == {"errors", "params", "rk45"}
