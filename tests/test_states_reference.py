"""The `states` path's inner loops against their verbatim reference.

`specfun.tricomi_psi_on` and `specfun._phi_series` read their loop
constants from tables, bind what they call once and compare magnitudes
without `abs`; `states_reference.py` keeps them as they were.  Both take the same float operations in the same order, so on every
draw they must give the same floats (`float.hex`, which tells -0.0 and NaN
apart) or raise the same exception with the same message.  The draws are
seeded: 1 500 in all, over the `states` cells
(kappa in [0, 2.5], w up to 60 above the floor, rho = z^2 on the ground
states' and `factorize-check`'s z grids), deep and underflowing Psi seeds
with alpha up to 170, and grids of one point, with repeats, in any order.
"""

import math
import random

import pytest
import states_reference as ref

from calogero import specfun
from calogero.errors import ConvergenceError, DomainError
from calogero.factorization import EvaluableSolution, RepresentationParams
from calogero.params import reduce


def _hex(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(_hex(v) for v in value)
    return [v.hex() for v in value]  # a list of floats, or an array('d')


def _outcome(fn, *args):
    """("value", hex floats) of a return, ("raise", type, message) of a raise."""
    try:
        return "value", _hex(fn(*args))
    except Exception as exc:  # the reference decides which exceptions are right
        return "raise", type(exc), str(exc)


def _compare(draws, new, old):
    """Run every draw through both; return the share that returned values."""
    values = 0
    for args in draws:
        got = _outcome(new, *args)
        assert got == _outcome(old, *args), args
        values += got[0] == "value"
    return values / len(draws)


def _kappa(rng):
    return rng.choice((0.0, rng.uniform(0.0, 1.0), rng.uniform(1.0, 2.5), float(rng.randint(1, 2))))


def _alpha(rng):
    # the states cells: alpha = (1 + kappa)/2 + w, w from just above the
    # floor w0 = -(1 + kappa)/2 to 60 above it; and deep shifts up to 170
    if rng.random() < 0.25:
        return rng.uniform(60.0, 170.0)
    return math.exp(rng.uniform(math.log(1e-3), math.log(60.0)))


def _z_grid(n, lo, hi):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


# the ground states' z grid and factorize-check's
_WAVE_RHOS = [z * z for z in _z_grid(801, 0.02, 8.0)]
_CHECK_RHOS = [z * z for z in _z_grid(61, 0.05, 6.0)]


def _rhos(rng):
    kind = rng.randrange(9)
    if kind == 0:
        return _WAVE_RHOS
    if kind == 1:
        return rng.sample(_CHECK_RHOS, rng.randint(1, len(_CHECK_RHOS)))
    if kind == 2:
        return [rng.uniform(1e-4, 64.0)]  # one point
    if kind == 3:  # repeats, in any order
        pts = [rng.uniform(1e-3, 40.0) for _ in range(rng.randint(1, 6))]
        return [rng.choice(pts) for _ in range(rng.randint(2, 20))]
    if kind == 4:  # past rho = 8, where the seed moves out
        return [rng.uniform(8.0, 400.0) for _ in range(rng.randint(1, 8))]
    if kind == 5:  # tiny rho: long walks, and Psi' past float64
        return [math.exp(rng.uniform(math.log(1e-250), 0.0)) for _ in range(rng.randint(1, 5))]
    if kind == 6:  # refused points
        pts = [rng.uniform(0.1, 9.0) for _ in range(rng.randint(1, 5))]
        pts.insert(rng.randrange(len(pts) + 1), rng.choice((0.0, -1.0, math.inf, math.nan)))
        return pts
    if kind == 7:
        return []
    return [rng.uniform(1e-3, 64.0) for _ in range(rng.randint(2, 40))]


def test_tricomi_psi_on_matches_reference():
    rng = random.Random(4901)
    draws = []
    for _ in range(700):
        draws.append((_alpha(rng), 1.0 + _kappa(rng), _rhos(rng)))
    # a seed whose Psi underflows, one past alpha = 171, a grid seeded again
    # at the floor, a Psi' past float64 and two domain errors
    draws += [(170.0, 1.5, [64.0, 9.0, 0.5]), (175.0, 1.0, [2.0]), (0.5, 1.0, _z_grid(40, 0.01, 2000.0)),
              (2.5, 1.75, [1e-200]), (0.0, 1.0, [1.0]), (1.0, 0.5, [1.0])]
    # Psi growing past 2^1023 along the sweep, whose power of two moves
    draws += [(106.83713198668079, 83.05340885128872, [1.0, 0.5, 1.5890519283755537e-4]),
              (96.32271919659243, 41.98056400761075, [9.153967413765684e-10])]
    assert 0.6 < _compare(draws, specfun.tricomi_psi_on, ref.tricomi_psi_on) < 1.0


def test_phi_series_matches_reference():
    rng = random.Random(4902)
    draws = []
    for _ in range(800):
        d = rng.randint(0, 2)  # Phi, Phi' and Phi'' shift alpha and beta by one each
        a, b = _alpha(rng) + d, 1.0 + _kappa(rng) + d
        kind = rng.randrange(5)
        if kind == 0:
            rho = rng.choice(_WAVE_RHOS)
        elif kind == 1:
            rho = rng.choice(_CHECK_RHOS)
        elif kind == 2:  # past float64 from rho ~ 700, and past the term budget
            rho = rng.uniform(64.0, 2000.0)
        elif kind == 3:  # a < 0: alternating terms, exact zeros and -0.0 at integer a
            a, rho = rng.choice((-float(rng.randint(0, 6)), rng.uniform(-30.0, 0.0))), rng.uniform(-40.0, 40.0)
        else:
            rho = rng.choice((0.0, -0.0, -rng.uniform(0.0, 30.0), math.nan, math.inf))
        draws.append((a, b, rho))
    assert 0.5 < _compare(draws, specfun._phi_series, ref._phi_series) < 1.0


def _solution(kappa, mu, w):
    rp = reduce(kappa * kappa - 0.25, 1.0)
    return EvaluableSolution(RepresentationParams(mu, rp.w0 + w, rp))


@pytest.mark.parametrize("bad", [0.0, -0.5, math.inf, math.nan])
def test_values_on_refuses_the_first_bad_z_as_rho_does(bad):
    phi = _solution(9.5, 0.5, 1.0)  # q = 5
    with pytest.raises(DomainError) as got:
        phi._rho(bad)
    # a bad z refuses before an envelope that overflows at an earlier point
    with pytest.raises(DomainError) as refused:
        phi.values_on([1.0, 1e35, bad, -2.0])
    assert str(refused.value) == str(got.value)


def test_values_on_refuses_an_overflowing_envelope_as_envelope_does():
    phi = _solution(9.5, 0.5, 1.0)  # q = 5: rho^q passes float64 from rho ~ 1e62
    with pytest.raises(ConvergenceError) as got:
        phi._envelope(1e70)
    with pytest.raises(ConvergenceError) as refused:
        phi.values_on([1.0, 1e35, 1e40])
    assert str(refused.value) == str(got.value)
