"""Embedded Cash-Karp Runge-Kutta 4(5) integrator on plain Python floats.

This exists so the shooting-method eigenvalue oracle shares no numerical
machinery with the gamma-function spectral code it is checking: no numpy,
no scipy, just the textbook tableau and proportional step control.

Solutions of the radial problem sweep hundreds of orders of magnitude
under a potential barrier, so the state vector is renormalized to unit
scale whenever its magnitude passes `_RENORM_THRESHOLD`, and the running
log of the extracted factors is reported as `log_scale`: the true
solution is y * exp(log_scale).  Renormalization commutes with the
linear ODEs this package integrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ConvergenceError, DomainError

__all__ = ["IntegrationResult", "integrate"]

# Cash-Karp tableau
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 3.0 / 5.0, 1.0, 7.0 / 8.0)
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0),
    (-11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0),
    (1631.0 / 55296.0, 175.0 / 512.0, 575.0 / 13824.0, 44275.0 / 110592.0, 253.0 / 4096.0),
)
_B5 = (37.0 / 378.0, 0.0, 250.0 / 621.0, 125.0 / 594.0, 0.0, 512.0 / 1771.0)
_B4 = (2825.0 / 27648.0, 0.0, 18575.0 / 48384.0, 13525.0 / 55296.0, 277.0 / 14336.0, 1.0 / 4.0)
_E = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))

_RENORM_THRESHOLD = 1e100
# accepted plus rejected steps before a call gives up
_MAX_STEPS = 200_000


@dataclass(frozen=True)
class IntegrationResult:
    x: float
    y: tuple[float, ...]
    log_scale: float
    n_steps: int
    n_rejected: int


def integrate(
    f: Callable[[float, Sequence[float]], Sequence[float]],
    x0: float,
    y0: Sequence[float],
    x1: float,
    rel_tol: float = 1e-10,
) -> IntegrationResult:
    """Integrate y' = f(x, y) from x0 to x1 (either direction).

    The error control is purely relative, which is the right frame for
    solutions that pass through 1e-200 on their way up a barrier;
    components near a simple zero are still guarded because the error is
    weighed against the max of old and new magnitudes.  The first step is
    1/128 of the span; more than `_MAX_STEPS` attempted steps raise
    ConvergenceError.
    """
    if math.isnan(x0) or math.isnan(x1):
        raise DomainError("integrate: NaN endpoint")
    if x1 == x0:
        return IntegrationResult(x0, tuple(float(v) for v in y0), 0.0, 0, 0)
    if rel_tol < 1e-14 or rel_tol > 1e-2:
        raise DomainError(f"integrate: rel_tol {rel_tol} outside [1e-14, 1e-2]")

    direction = 1.0 if x1 > x0 else -1.0
    span = abs(x1 - x0)
    h = span / 128.0

    x = float(x0)
    y = [float(v) for v in y0]
    n = len(y)
    log_scale = 0.0
    n_steps = 0
    n_rejected = 0
    k = [[0.0] * n for _ in range(6)]

    while (x1 - x) * direction > 0.0:
        if n_steps + n_rejected >= _MAX_STEPS:
            raise ConvergenceError(
                f"integrate: {_MAX_STEPS} steps exhausted at x = {x:.6g} "
                f"(target {x1:.6g})"
            )
        h = min(h, abs(x1 - x))
        hs = h * direction

        k[0] = list(f(x, y))
        for i in range(1, 6):
            yi = y[:]
            for j, a in enumerate(_A[i]):
                if a != 0.0:
                    ah = a * hs
                    kj = k[j]
                    for m in range(n):
                        yi[m] += ah * kj[m]
            k[i] = list(f(x + _C[i] * hs, yi))

        y_new = y[:]
        err = [0.0] * n
        for i in range(6):
            b, e, ki = _B5[i], _E[i], k[i]
            for m in range(n):
                if b != 0.0:
                    y_new[m] += hs * b * ki[m]
                err[m] += hs * e * ki[m]

        # relative error norm; the floor guards tiny and crossing components
        norm = 0.0
        for m in range(n):
            sc = rel_tol * max(abs(y[m]), abs(y_new[m]), 1e-290)
            norm = max(norm, abs(err[m]) / sc)

        if norm <= 1.0 or h <= 1e-13 * span:
            x = x1 if abs(x1 - (x + hs)) < 1e-14 * span else x + hs
            y = y_new
            n_steps += 1
            big = max(abs(v) for v in y)
            if big > _RENORM_THRESHOLD:
                log_scale += math.log(big)
                y = [v / big for v in y]
        else:
            n_rejected += 1

        grow = 0.9 * norm ** -0.2 if norm > 0.0 else 5.0
        h *= min(5.0, max(0.2, grow))

    return IntegrationResult(x, tuple(y), log_scale, n_steps, n_rejected)
