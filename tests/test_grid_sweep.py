"""Psi along a grid: the inward Taylor sweep of Kummer's equation
(`specfun.tricomi_psi_on`), the solutions and ground states built on it
(`values_on`) and `oracle.sample_on_grid`, checked against mpmath's hyperu
and hyp1f1 and against the pointwise path they replace.
"""

import math

import mpmath
import pytest

from calogero import factorization, oracle, specfun
from calogero.errors import ConvergenceError, DomainError
from calogero.factorization import RepresentationParams, make_phi
from calogero.params import reduce
from calogero.spectral import extension_for, ground_state_wavefunction, spectrum
from calogero.specfun import tricomi_psi, tricomi_psi_on

REL = 1e-12


def oracle_grid(ups: float) -> list[float]:
    """The oracle's default window (0.02, 8) / upsilon at its 801 points."""
    x_min, x_max = 0.02 / ups, 8.0 / ups
    return [x_min + (x_max - x_min) * i / 800 for i in range(801)]


def checked(n: int) -> list[int]:
    # every 20th point of an 801-point grid and the three next to the origin,
    # where the sweep ends and its steps are largest relative to rho
    return sorted(set(range(0, n, 20)) | {0, 1, 2, n - 1})


def ground_alpha(g1: float, g2: float, nu: float) -> tuple[float, float, float]:
    """(alpha, beta, upsilon) of the mu = 0 ground state of one extension."""
    rp = reduce(g1, g2)
    e0 = spectrum(rp, extension_for(rp, nu=nu), 1).energies[0]
    return rp.alpha_of(-e0 / (4.0 * rp.energy_scale())), rp.beta, rp.upsilon


def assert_psi_close(alpha, beta, rhos, vals):
    with mpmath.workdps(30):
        for i in checked(len(rhos)):
            ref = mpmath.hyperu(alpha, beta, rhos[i])
            assert abs(vals[i] - ref) <= REL * ref, (alpha, beta, rhos[i], vals[i], ref)


# (kappa, alpha): kappa = 0 is the integer beta the two-series form cannot take
SWEEP_CASES = [
    (kappa, alpha)
    for kappa in (0.0, 0.19, 0.5, 0.9)
    for alpha in (0.05, 0.7, 6.29, 21.27, 88.15)
]


@pytest.mark.parametrize("kappa, alpha", SWEEP_CASES)
def test_sweep_matches_hyperu(kappa, alpha):
    rhos = [x * x for x in oracle_grid(1.0)]
    assert_psi_close(alpha, 1.0 + kappa, rhos, tricomi_psi_on(alpha, 1.0 + kappa, rhos))


@pytest.mark.parametrize(
    "g1, g2, nu",
    [
        (0.19**2 - 0.25, 1.0, -1.05),  # alpha ~ 6.3
        (-0.1824, 61.44, -1.25),  # alpha ~ 21.3, the pointwise router reads 1.1e-9 off
        (0.1596, 237.4, -1.55),  # alpha ~ 88.2, the pointwise router reads 4.5e-9 off
    ],
)
def test_sweep_matches_hyperu_on_states_cells(g1, g2, nu):
    alpha, beta, ups = ground_alpha(g1, g2, nu)
    rhos = [ups * ups * x * x for x in oracle_grid(ups)]
    assert_psi_close(alpha, beta, rhos, tricomi_psi_on(alpha, beta, rhos))


def test_seed_is_the_router_value():
    # past rho = 8 the first value is the seed, bit for bit
    rhos = [9.0, 3.0, 0.5]
    assert tricomi_psi_on(2.3, 1.4, rhos)[0] == tricomi_psi(2.3, 1.4, 9.0)


def test_grid_below_the_seed_starts_past_8():
    rhos = [0.01 * (i + 1) for i in range(300)]  # rho_max = 3, seed just past 8
    assert_psi_close(4.2, 1.3, rhos, tricomi_psi_on(4.2, 1.3, rhos))


def test_any_order_and_repeats():
    rhos = [2.5, 0.04, 7.0, 0.04, 11.0, 2.5, 0.3]
    vals = tricomi_psi_on(3.1, 1.6, rhos)
    ordered = tricomi_psi_on(3.1, 1.6, sorted(set(rhos)))
    by_rho = dict(zip(sorted(set(rhos)), ordered))
    assert vals == [by_rho[r] for r in rhos]
    assert_psi_close(3.1, 1.6, rhos, vals)


def test_one_point_and_empty_grids():
    assert tricomi_psi_on(1.7, 1.0, []) == []
    (v,) = tricomi_psi_on(1.7, 1.0, [0.2])
    assert abs(v - float(mpmath.hyperu(1.7, 1.0, 0.2))) <= REL * v


@pytest.mark.parametrize(
    "args",
    [(0.0, 1.5, [1.0]), (1.0, 0.5, [1.0]), (1.0, math.inf, [1.0]), (1.0, 1.5, [1.0, 0.0]),
     (1.0, 1.5, [-1.0]), (1.0, 1.5, [math.nan]), (1.0, 1.5, [math.inf])],
)
def test_sweep_domain_errors(args):
    with pytest.raises(DomainError):
        tricomi_psi_on(*args)


def test_underflowing_seed_is_refused():
    # Psi(80, 1.5; 1e4) ~ 1e-320 is subnormal: no digits to sweep from
    with pytest.raises(ConvergenceError, match="normal float"):
        tricomi_psi_on(80.0, 1.5, [1e4, 1.0])


def test_step_budget_is_refused():
    # ~1e6 steps of at most one unit from rho = 1e6 down to 1
    with pytest.raises(ConvergenceError, match="steps"):
        tricomi_psi_on(0.01, 1.5, [1e6, 1.0])


# ---------------------------------------------------------------------------
# solutions and ground states


def mp_phi(rep: RepresentationParams, x: float) -> mpmath.mpf:
    """phi from its definition, in mpmath."""
    rp = rep.rp
    k = mpmath.mpf(rp.kappa)
    rho = mpmath.mpf(rp.upsilon) ** 2 * mpmath.mpf(x) ** 2
    env = mpmath.exp(-rho / 2) * rho ** (mpmath.mpf(0.25) + k / 2)
    if rep.at_floor:
        return env
    a, b = mpmath.mpf(rp.alpha_of(rep.w)), 1 + k
    scale = mpmath.gamma(a) / mpmath.gamma(k) if rp.kappa > 0.0 else mpmath.gamma(a)
    s = mpmath.sin(rep.mu) * mpmath.hyp1f1(a, b, rho) + mpmath.cos(rep.mu) * scale * mpmath.hyperu(a, b, rho)
    return env * s


@pytest.mark.parametrize("mu", [0.0, 0.4, 1.1])
@pytest.mark.parametrize("kappa, w", [(0.0, 0.7), (0.19, 5.6), (0.5, 30.0), (0.9, 60.0)])
def test_values_on_matches_mpmath(kappa, w, mu):
    rep = RepresentationParams(mu, w, reduce(kappa**2 - 0.25, 2.0))
    xs = oracle_grid(rep.rp.upsilon)
    vals = make_phi(rep).values_on(xs)
    with mpmath.workdps(30):
        for i in checked(len(xs)):
            ref = mp_phi(rep, xs[i])
            assert abs(vals[i] - ref) <= REL * abs(ref), (xs[i], vals[i], ref)


def test_values_on_at_the_floor_is_value_at():
    rp = reduce(0.3**2 - 0.25, 3.0)
    phi = make_phi(RepresentationParams(0.7, rp.w0, rp))
    xs = oracle_grid(rp.upsilon)
    assert phi.values_on(xs) == [phi.value_at(x) for x in xs]


def test_pure_phi_mixture_is_value_at(monkeypatch):
    # mu = pi/2 has no Psi: no sweep, each value the pointwise one
    phi = make_phi(RepresentationParams(0.5 * math.pi, 0.8, reduce(0.2, 1.0)))
    monkeypatch.setattr(factorization, "tricomi_psi_on", None)
    xs = [0.3, 1.1, 0.05]
    assert phi.values_on(xs) == [phi.value_at(x) for x in xs]


def test_values_on_takes_any_order():
    phi = make_phi(RepresentationParams(0.4, 1.3, reduce(0.1, 1.0)))
    xs = [1.5, 0.1, 1.5, 3.0, 0.02]
    by_x = dict(zip(sorted(xs), phi.values_on(sorted(xs))))
    assert phi.values_on(xs) == [by_x[x] for x in xs]
    (one,) = phi.values_on([0.7])
    assert one == pytest.approx(phi.value_at(0.7), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("x", [0.0, -0.5, math.nan, math.inf])
def test_values_on_refuses_x_as_value_at_does(x):
    phi = make_phi(RepresentationParams(0.0, 1.3, reduce(0.1, 1.0)))
    with pytest.raises(DomainError) as pointwise:
        phi.value_at(x)
    with pytest.raises(DomainError) as swept:
        phi.values_on([1.0, x])
    assert str(swept.value) == str(pointwise.value)


def test_values_on_envelope_overflow_is_typed():
    # kappa ~ 10 at g2 = 1e300: rho^q leaves float64, as factorize-check refuses it
    rp = reduce(100.0, 1e300)
    phi = make_phi(RepresentationParams(0.0, rp.w0, rp))
    with pytest.raises(ConvergenceError, match="overflows"):
        phi.value_at(1.0)
    with pytest.raises(ConvergenceError, match="overflows"):
        phi.values_on([0.5, 1.0])


def test_refused_sweep_gives_the_pointwise_values():
    # the grid reaches rho = 1e4, where the seed Psi(~81, 1.5) is subnormal;
    # every value is then value_at's (there, e^(-rho/2) makes it 0.0)
    rp = reduce(0.0, 1.0)
    phi = make_phi(RepresentationParams(0.0, 80.0, rp))
    xs = [100.0, 2.0, 0.5]
    with pytest.raises(ConvergenceError):
        tricomi_psi_on(rp.alpha_of(80.0), rp.beta, [x * x for x in xs])
    assert phi.values_on(xs) == [phi.value_at(x) for x in xs]


def test_ground_state_values_on_is_the_norm_times_the_solution():
    rp = reduce(0.3**2 - 0.25, 2.0)
    gs = ground_state_wavefunction(rp, extension_for(rp, nu=0.4))
    xs = oracle_grid(rp.upsilon)
    assert gs.values_on(xs) == [gs.norm_constant * v for v in gs.solution.values_on(xs)]


def test_sample_on_grid_sweeps_states_and_loops_over_callables(monkeypatch):
    calls = []
    inner = specfun.tricomi_psi

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(specfun, "tricomi_psi", counted)
    monkeypatch.setattr(factorization, "tricomi_psi", counted)
    rp = reduce(0.7**2 - 0.25, 0.5)
    gs = ground_state_wavefunction(rp, extension_for(rp, nu=-1.0))
    calls.clear()
    grid = oracle_grid(rp.upsilon)
    oracle.sample_on_grid(gs, grid)
    assert len(calls) == 2
    oracle.sample_on_grid(lambda x: gs(x), grid)
    assert len(calls) == 2 + 801
