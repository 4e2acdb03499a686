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


# ground states far below the rung, where theta is a step at float
# precision: kappa = 0.3 at nu = -1.3 (scaled e0 ~ -84), and kappa = 0.742
# at nu = -1.5613, g2 = 57.6 (e0 ~ -349); (g1, g2, nu)
DEEP = {
    "kappa-0.3": (-0.16, 1.0, -1.3),
    "kappa-0.742": (0.300564, 57.6, -1.5613),
}


class TestDeepGroundStates:
    @pytest.mark.parametrize("name", sorted(DEEP))
    def test_ground_state_matches_spectrum(self, name):
        g1, g2, nu = DEEP[name]
        rp = reduce(g1, g2)
        ext = extension_for(rp, nu=nu)
        got = shoot_spectrum(rp, ext, 1).energies[0]
        assert got == pytest.approx(spectrum(rp, ext, 1).energies[0], rel=1e-8)

    # limits: fewer than the 140, and at most 10 % more than the 148,
    # integrations that a secant finish on the Wronskian spent on two levels
    @pytest.mark.parametrize("name,limit", [("kappa-0.3", 139), ("kappa-0.742", 162)])
    def test_integration_budget(self, monkeypatch, name, limit):
        calls = [0]
        real = oracle.integrate

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "integrate", counting)
        g1, g2, nu = DEEP[name]
        rp = reduce(g1, g2)
        shoot_spectrum(rp, extension_for(rp, nu=nu), 2)
        assert calls[0] <= limit


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
        # x_max = 8 / ups; past e ~ 64 the count stops at level 15
        rp = reduce(0.0, 1.0)
        ext = extension_for(rp, nu=None, friedrichs=True)
        with pytest.raises(ConvergenceError, match="found 15 of 16 eigenvalues"):
            shoot_spectrum(rp, ext, 16)

    def test_refinement_bracket_exhausted(self, monkeypatch):
        monkeypatch.setattr(oracle, "_STEP_OUT_MAX", 0)
        rp = reduce(0.0, 1.0)
        with pytest.raises(ConvergenceError, match="keeps its sign"):
            shoot_spectrum(rp, extension_for(rp, nu=1.0), 1)

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
    theta = oracle._theta(rp, ext, e * rp.energy_scale(), ShootingConfig(), oracle._SCAN_TOL)
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
