"""Psi along a grid: the inward Taylor sweep of Kummer's equation
(`specfun.tricomi_psi_on`), the solutions and ground states built on it
(`values_on`) and `oracle.sample_on_grid`, checked against mpmath's hyperu
and hyp1f1 and against the pointwise path they replace.  Two ground states
are also built and checked in a fresh interpreter, which must not load
mpmath, and one state's 801 sampled floats are pinned.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
    # past rho = 8 the first value is the seed: the router's ln Psi, taken
    # as a mantissa over the power of two nearest Psi, within an ulp
    rhos = [9.0, 3.0, 0.5]
    assert tricomi_psi_on(2.3, 1.4, rhos)[0] == pytest.approx(tricomi_psi(2.3, 1.4, 9.0), rel=3e-16, abs=0.0)


def test_grid_below_the_seed_starts_at_1():
    rhos = [0.003 * (i + 1) for i in range(300)]  # rho_max = 0.9, seed at rho = 1
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


def test_underflowing_seed_is_swept_from_its_scaled_mantissa():
    # the seed Psi(150, 1.5; 64) ~ 1.8e-334 is no float; the sweep starts
    # from its mantissa over an exact power of two, and the values it
    # carries back into float64 match hyperu
    rhos = [64.0 * 0.9**i for i in range(80)]
    vals = tricomi_psi_on(150.0, 1.5, rhos)
    assert vals[0] == 0.0
    with mpmath.workdps(30):
        for rho, v in zip(rhos, vals):
            ref = mpmath.hyperu(150.0, 1.5, rho)
            if ref >= sys.float_info.min:
                assert abs(v - ref) <= 1e-12 * ref, (rho, v, ref)
    assert vals[-1] > sys.float_info.min


def test_deep_ground_state_grid_is_swept():
    # kappa = 0.34, nu = -1.45: alpha ~ 141.7 and the seed Psi(alpha, 1.34; 64)
    # ~ 2.8e-314 is subnormal; hyperu checks the points where it is a normal float
    alpha, beta, ups = ground_alpha(0.34**2 - 0.25, 1.0, -1.45)
    assert 141.0 < alpha < 142.0
    rhos = [ups * ups * x * x for x in oracle_grid(ups)]
    vals = tricomi_psi_on(alpha, beta, rhos)
    normal = 0
    with mpmath.workdps(30):
        for i in checked(len(rhos)):
            ref = mpmath.hyperu(alpha, beta, rhos[i])
            if ref >= sys.float_info.min:
                normal += 1
                assert abs(vals[i] - ref) <= REL * ref, (rhos[i], vals[i], ref)
    assert normal >= 30


@pytest.mark.parametrize("kappa, alpha", [(0.19, 6.29), (0.5, 88.15), (0.34, 141.7)])
def test_subgrid_values_agree(kappa, alpha):
    # dense output: a point's value depends on where the steps end, which
    # its neighbours move; every other point of a grid reads the same
    rhos = [x * x for x in oracle_grid(1.0)]
    full = tricomi_psi_on(alpha, 1.0 + kappa, rhos)
    half = tricomi_psi_on(alpha, 1.0 + kappa, rhos[::2])
    for rho, a, b in zip(rhos[::2], full[::2], half):
        assert abs(a - b) <= 1e-13 * abs(b), (rho, a, b)


def test_seed_past_alpha_171_is_swept():
    # ln Psi holds past alpha ~ 171, where the Laplace integral's weight
    # t^alpha e^(-t) passed float64: Psi(171.5, 1.5; 64) underflows to 0.0,
    # Psi(171.5, 1.5; 1) is subnormal and Psi(171.5, 1.5; 0.001) is normal
    rhos = [64.0, 1.0, 0.001]
    vals = tricomi_psi_on(171.5, 1.5, rhos)
    with mpmath.workdps(30):
        refs = [float(mpmath.hyperu(171.5, 1.5, rho)) for rho in rhos]
    assert vals[:2] == refs[:2] and refs[0] == 0.0 and 0.0 < refs[1] < sys.float_info.min
    assert vals[2] == pytest.approx(refs[2], rel=1e-12, abs=0.0) and refs[2] > sys.float_info.min


def test_step_budget_is_refused_below_the_floor():
    # the floor is beta - 2 alpha = 299.98; below it a step reaches about
    # rho / beta, so the walk down to 1e-3 would take ~3 500 steps
    assert specfun._psi_cf_floor(0.01, 300.0) == 299.98
    with pytest.raises(ConvergenceError, match="more than 1016 steps"):
        tricomi_psi_on(0.01, 300.0, [1e-3])


@pytest.mark.parametrize("alpha, beta, rhos", [(0.5, 1.0, [0.01, 2000.0]), (0.01, 1.5, [1e6, 1.0])])
def test_a_long_gap_above_the_floor_is_seeded_again(alpha, beta, rhos, monkeypatch):
    # steps of about one unit from rho = 2000 down to 0.01 once passed the
    # budget of 1000 + 16 per point, and ~1e6 from 1e6 down to 1: past 256
    # reaches the sweep seeds again at the floor (1 and 1.48)
    seeds = []
    real = specfun._psi_log
    monkeypatch.setattr(specfun, "_psi_log", lambda *args: seeds.append(args[2]) or real(*args))
    vals = tricomi_psi_on(alpha, beta, rhos)
    assert seeds == [max(rhos), specfun._psi_cf_floor(alpha, beta)]
    with mpmath.workdps(40):
        for rho, v in zip(rhos, vals):
            ref = mpmath.hyperu(alpha, beta, rho)
            assert abs(v - ref) <= 1e-13 * ref, (rho, v, ref)
            assert abs(tricomi_psi(alpha, beta, rho) - ref) <= 1e-13 * ref


def test_a_gap_is_seeded_at_its_far_point(monkeypatch):
    # 799 down to 20 is ~1 000 reaches of ~0.8 above the floor 1: the second
    # seed is at the point itself, which then takes the router's value
    seeds = []
    real = specfun._psi_log
    monkeypatch.setattr(specfun, "_psi_log", lambda *args: seeds.append(args[2]) or real(*args))
    vals = tricomi_psi_on(3.5, 1.25, [800.0, 799.0, 20.0, 19.5])
    assert seeds == [800.0, 20.0]
    assert vals[2] == pytest.approx(tricomi_psi(3.5, 1.25, 20.0), rel=3e-16, abs=0.0)
    assert_psi_close(3.5, 1.25, [800.0, 799.0, 20.0, 19.5], vals)


@pytest.mark.parametrize(
    "alpha, beta, rho",
    [
        (106.83713198668079, 83.05340885128872, 1.5890519283755537e-4),  # Psi = 7.0e262
        (96.32271919659243, 41.98056400761075, 9.153967413765684e-10),  # Psi = 4.2e269
    ],
)
def test_psi_growing_past_2_1023_along_the_sweep_is_swept(alpha, beta, rho):
    # from the seed at rho = 1 Psi grows by more than 2^1023: the sweep moves
    # its power of two where the mantissa leaves 2^+-600, so both routes
    # answer; with one power of two for the whole sweep both refused
    with mpmath.workdps(40):
        ref = mpmath.hyperu(alpha, beta, rho)
    assert specfun._psi_cf_floor(alpha, beta) == 1.0
    assert abs(specfun._psi_log(alpha, beta, 1.0)[0] - float(mpmath.log(ref))) > 1023 * math.log(2.0)
    (swept,) = tricomi_psi_on(alpha, beta, [rho])
    for v in (swept, tricomi_psi(alpha, beta, rho)):
        assert abs(v - ref) <= 1e-13 * ref, (v, ref)


@pytest.mark.parametrize("alpha, beta, rho", [(2.5, 1.75, 1e-200), (1.5, 2.0, 1e-200), (50.0, 2.0, 1e-160)])
def test_sweep_carries_rho_psi_prime(alpha, beta, rho):
    # Psi ~ 9.2e149, 1.1e200 and 1.6e97 are floats, but Psi' ~ Psi / rho is
    # not: the sweep carries rho Psi' instead
    with mpmath.workdps(30):
        ref = float(mpmath.hyperu(alpha, beta, rho))
    (v,) = tricomi_psi_on(alpha, beta, [rho])
    assert v == pytest.approx(ref, rel=REL, abs=0.0)


# ---------------------------------------------------------------------------
# solutions and ground states


def mp_phi(rep: RepresentationParams, z: float) -> mpmath.mpf:
    """phi(z) from its definition, in mpmath."""
    rp = rep.rp
    k = mpmath.mpf(rp.kappa)
    rho = mpmath.mpf(z) ** 2
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
    # phi is a function of z = ups x alone: g2 = 2 gives the g2 = 1 phi
    rep = RepresentationParams(mu, w, reduce(kappa**2 - 0.25, 2.0))
    zs = oracle_grid(1.0)
    vals = make_phi(rep).values_on(zs)
    with mpmath.workdps(30):
        for i in checked(len(zs)):
            ref = mp_phi(rep, zs[i])
            assert abs(vals[i] - ref) <= REL * abs(ref), (zs[i], vals[i], ref)


def test_values_on_at_the_floor_is_value_at():
    rp = reduce(0.3**2 - 0.25, 3.0)
    phi = make_phi(RepresentationParams(0.7, rp.w0, rp))
    zs = oracle_grid(1.0)
    assert phi.values_on(zs) == [phi.value_at(z) for z in zs]


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
    # kappa ~ 10 at z = 1e75 (x = 1 at g2 = 1e300): rho^q leaves float64
    rp = reduce(100.0, 1.0)
    phi = make_phi(RepresentationParams(0.0, rp.w0, rp))
    with pytest.raises(ConvergenceError, match="overflows"):
        phi.value_at(1e75)
    with pytest.raises(ConvergenceError, match="overflows"):
        phi.values_on([0.5, 1e75])


def test_refused_sweep_gives_the_pointwise_values(monkeypatch):
    # the grid reaches rho = 1369, where the envelope is still a float; where
    # the sweep refuses (here made to), every value is value_at's
    rp = reduce(0.0, 1.0)
    phi = make_phi(RepresentationParams(0.0, 80.0, rp))
    xs = [37.0, 2.0, 0.5]
    assert phi._envelope(37.0**2) > 0.0
    swept = phi.values_on(xs)

    def refused(*args):
        raise ConvergenceError("tricomi_psi_on: refused")

    monkeypatch.setattr(factorization, "tricomi_psi_on", refused)
    pointwise = phi.values_on(xs)
    assert pointwise == [phi.value_at(x) for x in xs]
    # the sweep seeds again at rho = 4 past ~900 reaches above the floor
    assert swept == [pytest.approx(v, rel=1e-13, abs=0.0) for v in pointwise]


def test_psi_prime_past_float64_is_swept():
    # alpha = 2.5, beta = 1.75: at rho = 1e-200 Psi' leaves float64, and
    # the sweep, which carries rho Psi', gives Psi ~ 9.2e149 and phi ~ 1e25
    # as value_at's series does
    rp = reduce(0.3125, 1.0)
    phi = make_phi(RepresentationParams(0.0, 1.625, rp))
    assert (rp.alpha_of(1.625), rp.beta) == (2.5, 1.75)
    want = phi.value_at(1e-100)
    assert want == pytest.approx(1e25, rel=1e-12)
    assert phi.values_on([1e-100]) == [pytest.approx(want, rel=1e-13, abs=0.0)]


def test_points_with_a_zero_envelope_stay_out_of_the_sweep(monkeypatch):
    # at rho = 1e4 and 3600 e^(-rho/2) rho^q is 0.0: such a point is +0.0,
    # since S > 0, with no Psi of its own, and the sweep starts from the
    # largest rho left instead of walking ~1e4 unit steps into its budget
    rp = reduce(0.0, 1.0)
    phi = make_phi(RepresentationParams(0.0, 80.0, rp))
    sweeps, psis = [], []
    inner_on, inner, inner_seed = factorization.tricomi_psi_on, specfun.tricomi_psi, specfun._psi_log

    def swept(alpha, beta, rhos):
        sweeps.append(list(rhos))
        return inner_on(alpha, beta, rhos)

    def counted(*args):
        psis.append(args)
        return inner(*args)

    def seeded(*args):
        psis.append(args)
        return inner_seed(*args)

    monkeypatch.setattr(factorization, "tricomi_psi_on", swept)
    monkeypatch.setattr(factorization, "tricomi_psi", counted)
    monkeypatch.setattr(specfun, "_psi_log", seeded)
    vals = phi.values_on([100.0, 2.0, 0.5, 60.0])
    assert sweeps == [[4.0, 0.25]]
    assert [rho for _, _, rho in psis] == [4.0]  # the sweep's seed at its largest rho
    alone = phi.values_on([2.0, 0.5])
    assert vals == [0.0] + alone + [0.0]
    assert all(math.copysign(1.0, v) == 1.0 for v in vals)
    for z, v in zip((2.0, 0.5), alone):
        assert v == pytest.approx(phi.value_at(z), rel=1e-12, abs=0.0)
    # a grid of zero envelopes only sweeps no point and calls no Psi
    psis.clear()
    assert phi.values_on([100.0, 60.0]) == [0.0, 0.0]
    assert [rhos for rhos in sweeps if rhos] == [[4.0, 0.25]] * 2 and psis == []


def test_ground_state_values_on_is_the_norm_times_the_solution():
    # u(x) = c sqrt(ups) phi(ups x): the one conversion from z
    rp = reduce(0.3**2 - 0.25, 2.0)
    ups = rp.upsilon
    gs = ground_state_wavefunction(rp, extension_for(rp, nu=0.4))
    xs = oracle_grid(ups)
    scale = gs.norm_constant * math.sqrt(ups)
    assert gs.values_on(xs) == [scale * v for v in gs.solution.values_on([ups * x for x in xs])]


def test_sample_on_grid_sweeps_where_the_state_calls_the_router_per_point(monkeypatch):
    calls, seeds = [], []
    inner, inner_seed = specfun.tricomi_psi, specfun._psi_log

    def counted(*args):
        calls.append(args)
        return inner(*args)

    def seeded(*args):
        seeds.append(args)
        return inner_seed(*args)

    monkeypatch.setattr(specfun, "tricomi_psi", counted)
    monkeypatch.setattr(factorization, "tricomi_psi", counted)
    monkeypatch.setattr(specfun, "_psi_log", seeded)
    rp = reduce(0.7**2 - 0.25, 0.5)
    gs = ground_state_wavefunction(rp, extension_for(rp, nu=-1.0))
    calls.clear()
    seeds.clear()
    grid = oracle_grid(rp.upsilon)
    oracle.sample_on_grid(gs, grid)
    assert (len(calls), len(seeds)) == (0, 1)
    [gs(x) for x in grid]
    assert len(calls) == 801


def _in_a_fresh_interpreter(script: str) -> dict:
    """The JSON dict that script prints last, run where no test has imported
    mpmath, so that it is loaded only if the package loads it."""
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_INTERIOR_STATE = """
import json, sys
from calogero.oracle import sample_on_grid
from calogero.params import reduce
from calogero.spectral import extension_for, ground_state_wavefunction
rp = reduce(0.19**2 - 0.25, 1.0)
gs = ground_state_wavefunction(rp, extension_for(rp, nu=-1.05))
grid = [0.02 + (8.0 - 0.02) * i / 800 for i in range(801)]
swept = sample_on_grid(gs, grid).values
pointwise = [gs(x) for x in grid]
print(json.dumps({"points": len(swept), "mpmath": "mpmath" in sys.modules,
                  "worst": max(abs(s - p) / abs(p) for s, p in zip(swept, pointwise))}))
"""


def test_interior_ground_state_sweep_agrees_with_the_router_without_mpmath():
    # sample_on_grid takes Psi from one inward sweep; the per-point loop over
    # gs(x) takes it from the router, whose contract is 1e-8
    found = _in_a_fresh_interpreter(_INTERIOR_STATE)
    assert found["points"] == 801
    assert found["worst"] <= 1e-8
    assert not found["mpmath"], "the ground state loaded mpmath"


def test_interior_ground_state_grid_is_pinned():
    # Phi's series, the Psi sweep and Psi's recurrence in alpha, float for
    # float: the kappa = 0.19, nu = -1.05 state above
    rp = reduce(0.19**2 - 0.25, 1.0)
    gs = ground_state_wavefunction(rp, extension_for(rp, nu=-1.05))
    text = "".join(f"{v.hex()}\n" for v in oracle.sample_on_grid(gs, oracle_grid(1.0)).values)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "07e0f0e0d61ac601e6790f55fd30eabf96205262461c685db11c484255d78e8f")


_KAPPA_ZERO_STATE = """
import json, math, sys
import numpy as np
from calogero.oracle import sample_on_grid
from calogero.params import reduce
from calogero.spectral import extension_for, ground_state_wavefunction
rp = reduce(-0.25, 1.0)
gs = ground_state_wavefunction(rp, extension_for(rp, nu=0.3))
grid = [0.02 + (8.0 - 0.02) * i / 800 for i in range(801)]
sampled = sample_on_grid(gs, grid).values
t, wt = np.polynomial.legendre.leggauss(64)
def gauss(f, a, b, panels):
    h = (b - a) / panels
    return sum(0.5 * h * sum(wi * f(a + h * (j + 0.5 + 0.5 * ti)) for ti, wi in zip(t, wt))
               for j in range(panels))
norm = gauss(lambda s: math.exp(s) * gs(math.exp(s)) ** 2, math.log(1e-12), 0.0, 16)
norm += gauss(lambda x: gs(x) ** 2, 1.0, 9.0, 8)
print(json.dumps({"points": len(sampled), "positive": all(v > 0.0 for v in sampled),
                  "mpmath": "mpmath" in sys.modules, "norm": norm}))
"""


def test_kappa_zero_ground_state_has_unit_norm_without_mpmath():
    # its norm is the closed form psi'(alpha) / (2 ups), checked by
    # Gauss-Legendre in ln x over (1e-12, 1) and in x over (1, 9); the head
    # below x = 1e-12, where u^2 ~ x ln^2 x, holds ~1e-21
    found = _in_a_fresh_interpreter(_KAPPA_ZERO_STATE)
    assert found["points"] == 801 and found["positive"]
    assert abs(found["norm"] - 1.0) <= 1e-10, found["norm"]
    assert not found["mpmath"], "the ground state loaded mpmath"
