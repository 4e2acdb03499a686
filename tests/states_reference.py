"""The `states` path's inner loops as they were written before their
per-term overhead was taken out: the tests' reference for
`specfun.tricomi_psi_on` and `specfun._phi_series`, their loops kept as
written then.

The sweep's seeds come from the package's own `_psi_cf_floor` and
`_psi_log`, taken as a mantissa over 2^e as in the package's sweep, which
also moves 2^e where the mantissa leaves 2^+-600 and seeds again past a
gap of more than 256 reaches above the floor; this sweep does the same
with its plain loops.  The package's functions must return the same
floats for every argument, and raise where these raise (the same
exception type).
`test_states_reference.py` compares the two.
"""

import math

from calogero.errors import ConvergenceError, DomainError
from calogero.specfun import _psi_cf_floor, _psi_log

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


# two Taylor terms running below _SWEEP_REL_TOL of their sums end a step;
# past _SWEEP_MAX_TERMS terms in a step, or past _SWEEP_MAX_STEPS steps plus
# 16 per point, the sweep refuses
_SWEEP_REL_TOL = 1e-17
_SWEEP_MAX_TERMS = 400
_SWEEP_MAX_STEPS = 1000
_SWEEP_GAP = 256.0
_LN2 = math.log(2.0)


def _seed(alpha: float, beta: float, rho: float) -> tuple[float, float, int]:
    ln_psi, dlog = _psi_log(alpha, beta, rho)
    e = round(ln_psi / _LN2)
    s = math.exp(ln_psi - e * _LN2)
    return s, s * dlog * rho, e  # rho Psi', which stays a float where Psi' ~ Psi / rho does not


def tricomi_psi_on(alpha: float, beta: float, rhos) -> list[float]:
    """Psi(alpha, beta; rho) at every rho of rhos, in their order (any
    order, repeats allowed), by one inward Taylor sweep of Kummer's
    equation seeded by one `_psi_log` call.  alpha > 0, beta >= 1 and every
    rho finite and > 0.

    A step ends on the farthest point within its reach, or at its reach
    when no point lies inside it; the points it passes take its Taylor
    polynomial (dense output).  A step never reaches past half its own
    rho, so every point minus the step's start is an exact float.  The
    seed is Psi and rho Psi' as mantissas over the exact power of two 2^e
    nearest Psi; e takes the mantissa's exponent where the mantissa leaves
    2^+-600, and each value goes back at the e of its step.  A gap of more
    than _SWEEP_GAP reaches down to the next point, or to the floor above
    it, is seeded again at its far end.  Raises ConvergenceError where a
    seed refuses, where the sweep would take more than _SWEEP_MAX_STEPS +
    16 steps per point, or where a value leaves float64.
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
    floor = _psi_cf_floor(alpha, beta)
    r = max(desc[0], floor)
    s, rsp, e = _seed(alpha, beta, r)
    budget, steps, j = _SWEEP_MAX_STEPS + 16 * n, 0, 0
    while True:
        while j < n and desc[j] == r:
            out[order[j]] = _scaled(s, e, r)
            j += 1
        if j == n:
            break
        reach = r / max(2.0, math.hypot(r - beta, 2.0 * math.sqrt(alpha * r)))
        if r - max(desc[j], floor) > _SWEEP_GAP * reach:
            r = max(desc[j], floor)
            s, rsp, e = _seed(alpha, beta, r)
            continue
        steps += 1
        if steps > budget:
            raise ConvergenceError(
                f"tricomi_psi_on: more than {budget} steps from rho={r} to {desc[-1]}"
            )
        # the step ends on the farthest point within its reach, or at its reach
        end = lo = r - reach
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
        d0, d1 = s, rsp * hr
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
            out[order[j]] = _scaled(v, e, r)
            j += 1
        r, s, rsp = end, total, dtotal / (h / end)
        if not 2.0**-600 <= s <= 2.0**600:
            k = math.frexp(s)[1]
            s, rsp, e = math.ldexp(s, -k), math.ldexp(rsp, -k), e + k
    if not (math.isfinite(s) and math.isfinite(rsp)):
        raise ConvergenceError(f"tricomi_psi_on: Psi leaves float64 by rho={r}")
    return out


def _scaled(v: float, e: int, r: float) -> float:
    try:
        return math.ldexp(v, e)
    except OverflowError:
        raise ConvergenceError(f"tricomi_psi_on: Psi leaves float64 by rho={r}") from None
