"""Shooting-method oracle tests.

The frozen quintets below were computed from the transcendental boundary
equations (Gamma-ratio root finding in 50-digit arithmetic) and are the
same constants test_spectral.py pins. The oracle must reproduce them from
nothing but the ODE and the boundary data, which is the whole point: two
routes, one spectrum.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calogero import oracle
from calogero.errors import ConvergenceError, DomainError
from calogero.oracle import (
    OracleEigenfunction,
    ShootingConfig,
    eigenfunction_overlap,
    sample_on_grid,
    shoot_spectrum,
)
from calogero.params import reduce
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


class TestShootingConfig:
    def test_defaults_scale_with_upsilon(self):
        x_min, x_max, x_match = ShootingConfig().resolved(2.0)
        assert x_min == pytest.approx(0.01)
        assert x_max == pytest.approx(4.0)
        assert x_match == pytest.approx(0.5)

    def test_explicit_window_wins(self):
        cfg = ShootingConfig(x_min=0.05, x_max=12.0, x_match=1.5)
        assert cfg.resolved(1.0) == (0.05, 12.0, 1.5)

    def test_rejects_disordered_window(self):
        with pytest.raises(DomainError, match="x_min < x_match < x_max"):
            ShootingConfig(x_min=2.0, x_match=1.0).resolved(1.0)
        with pytest.raises(DomainError):
            ShootingConfig(x_min=0.0).resolved(1.0)


class TestFrozenSpectra:
    @pytest.mark.parametrize("kappa,nu", sorted(QUINTETS))
    def test_quintet(self, kappa, nu):
        rp = _rp_for_kappa(kappa)
        ext = extension_for(rp, nu=nu)
        spec = shoot_spectrum(rp, ext, 5, scaled=True)
        assert spec.scaled
        assert spec.eigenfunctions is None
        for got, ref in zip(spec.energies, QUINTETS[(kappa, nu)]):
            assert got == pytest.approx(ref, rel=5e-9)
        assert max(spec.mismatch_residuals) < 1e-12
        assert list(spec.energies) == sorted(spec.energies)

    def test_nu_zero_digamma_ground_state(self):
        # kappa = 0, nu = 0 is the pure-log boundary condition; the
        # reference root comes from psi(1/2 - e/4) = 2 psi(1)
        rp = _rp_for_kappa(0.0)
        ext = extension_for(rp, nu=0.0)
        spec = shoot_spectrum(rp, ext, 1, scaled=True)
        assert spec.energies[0] == pytest.approx(-0.89506324003223515510, rel=1e-8)


class TestLadders:
    def test_friedrichs_ladder(self):
        rp = reduce(0.0, 1.0)  # kappa = 1/2
        ext = extension_for(rp, nu=None, friedrichs=True)
        spec = shoot_spectrum(rp, ext, 3, scaled=True)
        for got, ref in zip(spec.energies, (3.0, 7.0, 11.0)):
            assert got == pytest.approx(ref, rel=1e-8)

    def test_unique_extension_ladder(self):
        rp = reduce(2.0, 1.0)  # kappa = 3/2, no boundary freedom left
        ext = extension_for(rp, nu=None)
        spec = shoot_spectrum(rp, ext, 3, scaled=True)
        for got, ref in zip(spec.energies, (5.0, 9.0, 13.0)):
            assert got == pytest.approx(ref, rel=1e-8)

    def test_unique_kappa_one(self):
        rp = reduce(0.75, 1.0)
        ext = extension_for(rp, nu=None)
        spec = shoot_spectrum(rp, ext, 3, scaled=True)
        for got, ref in zip(spec.energies, (4.0, 8.0, 12.0)):
            assert got == pytest.approx(ref, rel=1e-8)

    def test_physical_units(self):
        # g2 = 16 means upsilon^2 = 4; physical energies are 4x the scaled ones
        rp = reduce(0.0, 16.0)
        ext = extension_for(rp, nu=None, friedrichs=True)
        spec = shoot_spectrum(rp, ext, 2)
        assert not spec.scaled
        assert spec.energies[0] == pytest.approx(12.0, rel=1e-8)
        assert spec.energies[1] == pytest.approx(28.0, rel=1e-8)


class TestWindowInvariance:
    # contract: boundary truncation must not matter. Shrinking x_min or
    # growing x_max moves the first eigenvalues by <= 1e-4 relative, and
    # the match point inside [0.5/ups, 2/ups] by <= 1e-6.

    def _first3(self, cfg):
        rp = reduce(0.0, 1.0)
        ext = extension_for(rp, nu=1.0)
        return shoot_spectrum(rp, ext, 3, cfg, scaled=True).energies

    def test_truncation_insensitive(self):
        base = self._first3(ShootingConfig())
        tight = self._first3(ShootingConfig(x_min=0.01, x_max=16.0))
        for b, t in zip(base, tight):
            assert abs(t - b) / abs(b) <= 1e-4

    @pytest.mark.parametrize("x_match", [0.5, 2.0])
    def test_match_point_invariant(self, x_match):
        base = self._first3(ShootingConfig())
        moved = self._first3(ShootingConfig(x_match=x_match))
        for b, m in zip(base, moved):
            assert abs(m - b) / abs(b) <= 1e-6


@pytest.fixture(scope="module")
def nu_family():
    rp = reduce(0.0, 1.0)  # kappa = 1/2: cos-nu part stays finite at 0
    ext = extension_for(rp, nu=1.0)
    return shoot_spectrum(rp, ext, 3, want_eigenfunctions=True)


class TestEigenfunctions:
    def test_node_counts_match_level_index(self, nu_family):
        assert [f.nodes for f in nu_family.eigenfunctions] == [0, 1, 2]

    def test_grid_sane(self, nu_family):
        for f in nu_family.eigenfunctions:
            xs = f.grid
            assert all(a < b for a, b in zip(xs, xs[1:]))
            assert xs[0] < 1e-6  # the origin tail reaches well below x_min
            assert all(math.isfinite(v) for v in f.values)

    def test_self_overlap_is_one(self, nu_family):
        for f in nu_family.eigenfunctions:
            assert eigenfunction_overlap(f, f) == pytest.approx(1.0, abs=1e-8)

    def test_distinct_states_orthogonal(self, nu_family):
        fs = nu_family.eigenfunctions
        for i in range(3):
            for j in range(i + 1, 3):
                assert eigenfunction_overlap(fs[i], fs[j]) <= 1e-4

    def test_kappa_zero_log_states_orthogonal(self):
        rp = reduce(-0.25, 1.0)
        ext = extension_for(rp, nu=-1.0)
        fs = shoot_spectrum(rp, ext, 2, want_eigenfunctions=True).eigenfunctions
        assert [f.nodes for f in fs] == [0, 1]
        assert eigenfunction_overlap(fs[0], fs[1]) <= 1e-4

    def test_grid_mismatch_rejected(self, nu_family):
        f = nu_family.eigenfunctions[0]
        other = OracleEigenfunction(tuple(x + 1.0 for x in f.grid), f.values, f.nodes)
        with pytest.raises(DomainError, match="different grids"):
            eigenfunction_overlap(f, other)


class TestAnalyticFidelity:
    # the closed-form ground states and the shot ones must be the same
    # function, not merely the same energy

    @pytest.mark.parametrize(
        "g1,g2,kwargs",
        [
            (0.75, 1.0, dict(nu=None)),  # unique, kappa = 1
            (0.0, 1.0, dict(nu=None, friedrichs=True)),
            (-0.25, 1.0, dict(nu=None, friedrichs=True)),  # kappa = 0
            (0.0, 1.0, dict(nu=0.0)),  # Tricomi-function form
        ],
    )
    def test_ground_state_overlap(self, g1, g2, kwargs):
        rp = reduce(g1, g2)
        ext = extension_for(rp, **kwargs)
        spec = shoot_spectrum(rp, ext, 1, want_eigenfunctions=True)
        analytic = sample_on_grid(ground_state_wavefunction(rp, ext), spec.eigenfunctions[0].grid)
        assert eigenfunction_overlap(analytic, spec.eigenfunctions[0]) >= 0.9999

    def test_sample_on_grid_normalizes(self):
        grid = [0.01 * i for i in range(1, 402)]
        f = sample_on_grid(lambda x: x * math.exp(-x * x / 2.0), grid)
        assert eigenfunction_overlap(f, f) == pytest.approx(1.0, abs=1e-12)
        assert f.nodes == 0


# ground states far below the rung: kappa = 0.3 at nu = -1.3 (scaled
# e0 ~ -84), and kappa = 0.742 at nu = -1.5613, g2 = 57.6 (e0 ~ -349).  At
# the default match point 1/ups their theta is a step at float precision;
# the oracle matches them four decay lengths out instead; (g1, g2, nu)
DEEP = {
    "kappa-0.3": (-0.16, 1.0, -1.3),
    "kappa-0.742": (0.300564, 57.6, -1.5613),
}


# deep ground states the old step rule was slow on: (g1, g2, nu, pinned
# energies); the kappa = 0.466 cell is a benchmark draw (E0 = -98.6)
CLIFFS = {
    "kappa-0.3": (-0.16, 1.0, -1.3, ("-0x1.4efc53952795ep+6", "0x1.89aa708a37e24p+1")),
    "kappa-0.466": (
        -0.032835996078904306, 133.97456812019843, -1.2134807836065487,
        ("-0x1.8a4eb2ffc7818p+6", "0x1.5aa5481d73228p+5", "0x1.7168b70d2efc2p+6"),
    ),
    "kappa-0.742": (0.300564, 57.6, -1.5613, ("-0x1.4b0a336a8152bp+11", "0x1.aabc77ae6793bp+4")),
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

        def counting(rp_, ext_, E, cfg, tol):
            tols.append(tol)
            return real(rp_, ext_, E, cfg, tol)

        monkeypatch.setattr(oracle, "_theta", counting)
        rp = reduce(g1, g2)
        got = shoot_spectrum(rp, extension_for(rp, nu=nu), len(pins))
        ground_scan = tols.index(oracle._REFINE_TOL)
        assert ground_scan <= 7
        assert len(tols) <= 8 * len(pins)
        for e, pin in zip(got.energies, pins):
            assert e == pytest.approx(float.fromhex(pin), rel=1e-13, abs=0.0)

    def test_explicit_match_point_wins(self):
        g1, g2, nu = DEEP["kappa-0.3"]
        rp = reduce(g1, g2)
        ext = extension_for(rp, nu=nu)
        seen = []
        real = oracle._theta

        def spy(rp_, ext_, E, cfg, tol):
            seen.append(cfg.resolved(rp_.upsilon)[2])
            return real(rp_, ext_, E, cfg, tol)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_theta", spy)
            shoot_spectrum(rp, ext, 1)
            deep = set(seen)
            seen.clear()
            shoot_spectrum(rp, ext, 1, ShootingConfig(x_match=1.0))
        # one match point per call: 4 / sqrt(-e_floor) by default
        e_lo = oracle._scan_floor(rp, ext)
        assert len(deep) == 1
        assert deep.pop() == pytest.approx(4.0 / math.sqrt(-e_lo), rel=1e-15, abs=0.0)
        assert set(seen) == {1.0}


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


class TestRefusals:
    def test_too_deep_for_window(self):
        # tan(1.55) ~ 48: the kappa = 0 ground state sits around -4 e^49,
        # hopeless for any double-precision shooting window
        rp = reduce(-0.25, 1.0)
        ext = extension_for(rp, nu=1.55)
        with pytest.raises(DomainError, match="too deep"):
            shoot_spectrum(rp, ext, 1)

    def test_levels_past_the_window_are_refused(self):
        # the right boundary data assume the turning point sits inside
        # x_max = 8 / ups; the rung of level 15, e = 63, turns 0.06 / ups
        # before it (the count used to stop there, after 15 solves)
        rp = reduce(0.0, 1.0)
        ext = extension_for(rp, nu=None, friedrichs=True)
        with pytest.raises(ConvergenceError, match=r"level 15 \(scaled >= 63\) .* widen x_max"):
            shoot_spectrum(rp, ext, 16)

    @pytest.mark.parametrize("g1, ext_args, n", [(1e4, {}, 3), (0.0, {"nu": 1.0}, 13)])
    def test_top_level_past_the_window_is_refused_before_any_solve(self, monkeypatch, g1, ext_args, n):
        # kappa = 100: every unique-ladder level lies at 2(2n+1+kappa) >= 202
        # (scaled), far past the (8 - 2)^2 = 36 the default window holds, and
        # the refusal used to take a solve of the ground state first; at
        # kappa = 1/2, nu = 1 level 12 lies above the pole at 47
        calls = []
        theta = oracle._theta

        def counted(*args):
            calls.append(args)
            return theta(*args)

        monkeypatch.setattr(oracle, "_theta", counted)
        rp = reduce(g1, 1.0)
        with pytest.raises(ConvergenceError, match=f"level {n - 1} .* widen x_max"):
            shoot_spectrum(rp, extension_for(rp, **ext_args), n)
        assert calls == []

    def test_scan_out_of_steps_is_refused(self, monkeypatch):
        # an unconverged energy is an error, not a result
        monkeypatch.setattr(oracle, "_SOLVE_MAX_STEPS", 1)
        rp = reduce(0.0, 1.0)
        with pytest.raises(ConvergenceError, match="0 pi is still"):
            shoot_spectrum(rp, extension_for(rp, nu=1.0), 1)

    def test_refinement_out_of_steps_is_refused(self, monkeypatch):
        # a stop the refinement cannot reach: its steps run out
        monkeypatch.setattr(oracle, "_SOLVE_MAX_STEPS", 8)
        monkeypatch.setattr(oracle, "_REFINE_STOP", (-1.0, -1.0))
        rp = reduce(0.0, 1.0)
        with pytest.raises(ConvergenceError, match="0 pi is still"):
            shoot_spectrum(rp, extension_for(rp, nu=1.0), 1)

    def test_levels_the_window_truncates_are_refused(self):
        # level 12 turns 0.98 / ups before x_max = 8 / ups (9.2e-6 off)
        rp = reduce(0.0, 1.0)
        ext = extension_for(rp, nu=1.0)
        with pytest.raises(ConvergenceError, match="level 12 .* widen x_max"):
            shoot_spectrum(rp, ext, 13, scaled=True)
        wide = shoot_spectrum(rp, ext, 13, ShootingConfig(x_max=11.0), scaled=True)
        for got, ref in zip(wide.energies, spectrum(rp, ext, 13, scaled=True).energies):
            assert got == pytest.approx(ref, rel=1e-9)

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


def _levels_below(rp, ext, e):
    """Levels below the scaled energy e by the oracle's own count:
    floor(Theta / pi) + 1, Theta being its matching angle."""
    theta, _ = oracle._theta(rp, ext, e * rp.energy_scale(), ShootingConfig(), oracle._SCAN_TOL)
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
        levels = spectrum(rp, ext, 12, scaled=True).energies
        lo = oracle._scan_floor(rp, ext)
        for e in _grid_off_levels(lo, 45.0, [lev for lev in levels if lev < 46.0], step=1.3):
            assert _levels_below(rp, ext, e) == sum(lev < e for lev in levels), e

    @pytest.mark.parametrize("kappa,nu", [(0.5, None), (1.0, None), (2.5, None)]
                             + [(k, nu) for k in (0.0, 0.3, 0.7) for nu in (-1.0, 0.4, 1.2)])
    def test_slope_is_the_derivative(self, kappa, nu):
        # dTheta/dE from the integrals of u^2 against a central difference
        rp = reduce(kappa * kappa - 0.25, 1.0)
        ext = extension_for(rp, nu=nu, friedrichs=nu is None)
        cfg = ShootingConfig()
        for e in (oracle._scan_floor(rp, ext) + 0.5, 1.3, 6.1, 17.9, 30.3):
            h = 1e-4 * (1.0 + abs(e))
            _, slope = oracle._theta(rp, ext, e, cfg, oracle._REFINE_TOL)
            up, _ = oracle._theta(rp, ext, e + h, cfg, oracle._REFINE_TOL)
            down, _ = oracle._theta(rp, ext, e - h, cfg, oracle._REFINE_TOL)
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
        levels = spectrum(rp, ext, 12, scaled=True).energies
        if any(abs(e - lev) <= 1e-6 * (1.0 + abs(lev)) for lev in levels):
            return
        assert _levels_below(rp, ext, e) == sum(lev < e for lev in levels)
