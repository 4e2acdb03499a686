"""The `states` path's inner loops as they were written before their
per-term overhead was taken out: the tests' reference for
`specfun.tricomi_psi_on`, `specfun._phi_series`, `specfun._de_level` and
`oracle._simpson`, kept verbatim.

The Psi seeds come from the package's own `tricomi_psi` and
`_scaled_seed`, as in the package's sweep.  The package's functions must
return the same floats for every argument, and raise where these raise
(the same exception type).  `test_states_reference.py` compares the two.
"""

import math
import sys
from array import array
from functools import lru_cache

from calogero.errors import ConvergenceError, DomainError
from calogero.specfun import _scaled_seed, tricomi_psi

_SERIES_REL_TOL = 1e-15
_SERIES_MAX_TERMS = 800


def _phi_series(a: float, b: float, rho: float) -> float:
    """Raw Kummer series with the stagnation stop.

    Termination: |term| <= _SERIES_REL_TOL * |sum| for three consecutive
    terms (the series may alternate transiently when a < 0, a single small
    term proves nothing there); past _SERIES_MAX_TERMS terms it refuses.
    """
    term = 1.0
    total = 1.0
    small = 0
    for k in range(_SERIES_MAX_TERMS):
        term = term * (a + k) / ((b + k) * (k + 1)) * rho
        total += term
        if abs(term) <= _SERIES_REL_TOL * abs(total):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"kummer series: no convergence in {_SERIES_MAX_TERMS} terms (a={a}, b={b}, rho={rho})"
    )


# the u window and the level-0 step; the window is 28 level-0 steps wide
_QUAD_U_LO, _QUAD_U_HI = -6.56, 7.4
_QUAD_H0 = 0.5


@lru_cache(maxsize=16)
def _de_level(p1: float, level: int) -> tuple[array, array]:
    """Abscissae t and weights t^p1 e^(-t) (1 + e^(-u)) of the nodes that
    `level` adds to the trapezoid in u: all of them at level 0, the odd
    multiples of the halved step after.

    Nodes with t < 1e-305 or a weight below e^-745 are left out; they
    added an exact 0.0 to the sum.  The weight is exp(ln_w) * (1 + e^-u),
    the left part of the product exp(ln_w) * (1 + e^-u) * g(t), so
    w * g(t) is that product's float.  Raises OverflowError where the
    weight peaks past e^709 (p ~ 171 and up).
    """
    h = math.ldexp(_QUAD_H0, -level)
    n = int(math.ceil((_QUAD_U_HI - _QUAD_U_LO) / _QUAD_H0)) << level
    ts, ws = array("d"), array("d")
    for i in range(n + 1) if level == 0 else range(1, n, 2):
        u = _QUAD_U_LO + i * h
        emu = math.exp(-u)
        lt = u - emu
        if lt < -702.0:  # t below 1e-305
            continue
        t = math.exp(lt)
        ln_w = p1 * lt - t
        if ln_w < -745.0:
            continue
        ts.append(t)
        ws.append(math.exp(ln_w) * (1.0 + emu))
    return ts, ws


# the sweep's seed lies at least just past rho = 8, where the router takes
# the Laplace integral for Psi and Psi'; two Taylor terms running below
# _SWEEP_REL_TOL of their sums end a step; past _SWEEP_MAX_TERMS terms in a
# step, or past _SWEEP_MAX_STEPS steps plus 16 per point, the sweep refuses
_SWEEP_SEED = math.nextafter(8.0, math.inf)
_SWEEP_REL_TOL = 1e-17
_SWEEP_MAX_TERMS = 400
_SWEEP_MAX_STEPS = 1000
_LN2 = math.log(2.0)


def tricomi_psi_on(alpha: float, beta: float, rhos) -> list[float]:
    """Psi(alpha, beta; rho) at every rho of rhos, in their order (any
    order, repeats allowed), by one inward Taylor sweep of Kummer's
    equation seeded by two `tricomi_psi` calls (see "Psi along a grid"
    above).  alpha > 0, beta >= 1 and every rho > 0, as for `tricomi_psi`.

    A step ends on the farthest point within its reach, or at its reach
    when no point lies inside it; the points it passes take its Taylor
    polynomial (dense output).  A step never reaches past half its own
    rho, so every point minus the step's start is an exact float.  A seed
    whose Psi or Psi' is not a normal float is replaced by the mantissas
    of the Laplace integral's log form, scaled by an exact power of two
    that the output takes back.  Raises ConvergenceError where that log
    form refuses too (its integrand overflows from alpha ~ 171), where the
    sweep would take more than _SWEEP_MAX_STEPS + 16 steps per point, or
    where a value leaves float64.  Both refusals can fall where every
    `tricomi_psi` value exists: a wide grid runs out of steps (Psi(0.5, 1;
    rho) on [0.01, 2000], whose steps are about one unit long near 2000),
    and Psi' can leave float64 while Psi does not (Psi(2.5, 1.75; 1e-200) ~
    9.2e149, with Psi' ~ rho^-1.75).  A caller that needs those values
    takes them from `tricomi_psi`, as `values_on` does.
    """
    if not (alpha > 0.0):
        raise DomainError(f"tricomi_psi_on: alpha must be > 0, got {alpha}")
    if not (1.0 <= beta < math.inf):
        raise DomainError(f"tricomi_psi_on: beta must be finite and >= 1, got {beta}")
    rs = [float(r) for r in rhos]
    if not all(0.0 < r < math.inf for r in rs):
        raise DomainError("tricomi_psi_on: every rho must be finite and > 0")
    n = len(rs)
    out = [0.0] * n
    if not rs:
        return out
    order = sorted(range(n), key=rs.__getitem__, reverse=True)
    desc = [rs[i] for i in order]
    r = max(desc[0], _SWEEP_SEED)
    s = tricomi_psi(alpha, beta, r)
    sp = -alpha * tricomi_psi(alpha + 1.0, beta + 1.0, r)
    e = 0
    if not (s >= sys.float_info.min and -sp >= sys.float_info.min):
        s, sp, e = _scaled_seed(alpha, beta, r)
    budget, steps, j = _SWEEP_MAX_STEPS + 16 * n, 0, 0
    while True:
        while j < n and desc[j] == r:
            out[order[j]] = s
            j += 1
        if j == n:
            break
        steps += 1
        if steps > budget:
            raise ConvergenceError(
                f"tricomi_psi_on: more than {budget} steps from rho={r} to {desc[-1]}"
            )
        # the step ends on the farthest point within its reach, or at its reach
        end = lo = r - r / max(2.0, math.hypot(r - beta, 2.0 * math.sqrt(alpha * r)))
        i = j
        while i < n and desc[i] >= lo:
            end = desc[i]
            i += 1
        # the Taylor terms d_k = c_k h^k of S about r; the equation gives
        #   d_{k+2} = [(k + alpha) h d_k / (k + 1) - (k + beta - r) d_{k+1}] (h / r) / (k + 2),
        # S(r + h) = sum d_k and h S'(r + h) = sum k d_k.  For Psi and h < 0
        # every term and both sums are positive.
        h = end - r
        hr, ah, br = h / r, alpha * h, beta - r
        d0, d1 = s, sp * h
        ds = [d0, d1]
        total, dtotal = d0 + d1, d1
        small = False
        for k in range(_SWEEP_MAX_TERMS):
            k1 = k + 1.0
            k2 = k1 + 1.0
            d2 = ((k * h + ah) * d0 / k1 - (k + br) * d1) * hr / k2
            ds.append(d2)
            total += d2
            kd = k2 * d2
            dtotal += kd
            if abs(kd) <= _SWEEP_REL_TOL * dtotal and abs(d2) <= _SWEEP_REL_TOL * total:
                if small:
                    break
                small = True
            else:
                small = False
            d0, d1 = d1, d2
        else:
            raise ConvergenceError(
                f"tricomi_psi_on: Taylor step {h:.4g} at rho={r:.4g} needs more than "
                f"{_SWEEP_MAX_TERMS} terms (alpha={alpha}, beta={beta})"
            )
        # dense output: a point the step passes takes sum d_k t^k, t = (rho - r) / h
        ds.reverse()
        while desc[j] > end:
            t = (desc[j] - r) / h
            v = 0.0
            for d in ds:
                v = v * t + d
            out[order[j]] = v
            j += 1
        r, s, sp = end, total, dtotal / h
    if not (math.isfinite(s) and math.isfinite(sp)):
        raise ConvergenceError(f"tricomi_psi_on: Psi leaves float64 by rho={r}")
    return [math.ldexp(v, e) for v in out] if e else out


def _simpson(vals: list[float], xs: list[float]) -> float:
    """Composite Simpson on a possibly non-uniform grid.

    Each adjacent interval pair gets the quadratic through its three
    points; an odd leftover interval gets the parabola through the last
    three points. Reduces to classic Simpson for uniform spacing.
    """
    n = len(vals) - 1
    acc = 0.0
    i = 0
    while i + 2 <= n:
        h0 = xs[i + 1] - xs[i]
        h1 = xs[i + 2] - xs[i + 1]
        acc += (h0 + h1) / 6.0 * (
            vals[i] * (2.0 - h1 / h0)
            + vals[i + 1] * (h0 + h1) ** 2 / (h0 * h1)
            + vals[i + 2] * (2.0 - h0 / h1)
        )
        i += 2
    if i < n:  # one interval left
        h0 = xs[n - 1] - xs[n - 2]
        h1 = xs[n] - xs[n - 1]
        acc += vals[n] * (2.0 * h1 * h1 + 3.0 * h0 * h1) / (6.0 * (h0 + h1))
        acc += vals[n - 1] * (h1 * h1 + 3.0 * h0 * h1) / (6.0 * h0)
        acc -= vals[n - 2] * h1 ** 3 / (6.0 * h0 * (h0 + h1))
    return acc
