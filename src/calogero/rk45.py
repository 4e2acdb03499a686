"""Embedded Cash-Karp Runge-Kutta 4(5) integrator on plain Python floats.

This exists so the shooting-method eigenvalue oracle shares no numerical
machinery with the gamma-function spectral code it is checking: no numpy,
no scipy, just the textbook tableau and proportional step control.

Every system this package integrates is a second-order linear ODE written
as a two-component state (u, u'), so `integrate` is a fused kernel for
exactly two components: the six stages, the 5th-order update, the error
estimate and its norm are unrolled into scalar locals, with no per-stage
lists or copies.  It does the same float operations in the same order as
the textbook loop over stages and components -- the (a*h) products, the
stage sums left to right, (h*b)*k, the error summed from 0.0 including
its zero second term, the norm maximized over component 0 then 1 -- so
its results are bit-identical to that loop's.  `tests/test_rk45_pinned.py`
keeps that loop as the reference and pins its results with `float.hex`.

Solutions of the radial problem sweep hundreds of orders of magnitude
under a potential barrier, so the state vector is renormalized to unit
scale whenever its magnitude passes `_RENORM_THRESHOLD`, and the running
log of the extracted factors is reported as `log_scale`: the true
solution is y * exp(log_scale).  Renormalization commutes with the
linear ODEs this package integrates.

`sign_changes` counts the strict sign changes of the first component
between accepted steps (a step landing exactly on 0 is bridged to the
next non-zero value).  Renormalization divides by a positive number, so
it keeps every sign; for the oracle's (u, u') states this is the node
count that indexes the eigenvalues.

`u2_integral` is the integral of the first component squared over the
span, in the units of the returned state (divided by the square of every
renormalization factor): Simpson's rule on each accepted step, with the
midpoint value (u + u_new)/2 + h (u' - u'_new)/8 of the cubic Hermite
interpolant of the step's end values (about 1e-8 relative on a sine
squared at rel_tol 1e-10).  It costs a few flops per step, and the
(u, u') arithmetic does not read it, so every other bit is unchanged.
The oracle divides it by u^2 + u'^2 for the energy derivative of its
matching angle.
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

# the same tableau as scalars for the unrolled kernel, numbered from 1 as
# in Cash & Karp; the zero 5th-order weights of stages 2 and 5 drop out of
# the update
_C2, _C3, _C4, _C5, _C6 = _C[1:]
(_A21,) = _A[1]
_A31, _A32 = _A[2]
_A41, _A42, _A43 = _A[3]
_A51, _A52, _A53, _A54 = _A[4]
_A61, _A62, _A63, _A64, _A65 = _A[5]
_B51, _B53, _B54, _B56 = _B5[0], _B5[2], _B5[3], _B5[5]
_E1, _E2, _E3, _E4, _E5, _E6 = _E

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
    sign_changes: int  # strict sign changes of y[0] over accepted steps
    u2_integral: float  # integral of y[0]^2 dx, in the units of the returned y


def integrate(
    f: Callable[[float, Sequence[float]], Sequence[float]],
    x0: float,
    y0: Sequence[float],
    x1: float,
    rel_tol: float = 1e-10,
) -> IntegrationResult:
    """Integrate y' = f(x, y) for a two-component y from x0 to x1 (either
    direction); f(x, (y0, y1)) returns (dy0, dy1).

    The error control is purely relative, which is the right frame for
    solutions that pass through 1e-200 on their way up a barrier;
    components near a simple zero are still guarded because the error is
    weighed against the max of old and new magnitudes.  The first step is
    1/128 of the span; more than `_MAX_STEPS` attempted steps raise
    ConvergenceError.
    """
    if math.isnan(x0) or math.isnan(x1):
        raise DomainError("integrate: NaN endpoint")
    if len(y0) != 2:
        raise DomainError(f"integrate: state must have 2 components, got {len(y0)}")
    u, v = float(y0[0]), float(y0[1])
    if x1 == x0:
        return IntegrationResult(x0, (u, v), 0.0, 0, 0, 0, 0.0)
    if rel_tol < 1e-14 or rel_tol > 1e-2:
        raise DomainError(f"integrate: rel_tol {rel_tol} outside [1e-14, 1e-2]")

    max_steps = _MAX_STEPS
    threshold = _RENORM_THRESHOLD
    direction = 1.0 if x1 > x0 else -1.0
    span = abs(x1 - x0)
    h = span / 128.0
    h_floor = 1e-13 * span
    x_snap = 1e-14 * span

    x = float(x0)
    log_scale = 0.0
    n_steps = 0
    n_rejected = 0
    sign_changes = 0
    last = u  # the last non-zero u, so a step landing on 0 hides no crossing
    u2 = 0.0

    while (x1 - x) * direction > 0.0:
        if n_steps + n_rejected >= max_steps:
            raise ConvergenceError(
                f"integrate: {max_steps} steps exhausted at x = {x:.6g} "
                f"(target {x1:.6g})"
            )
        h = min(h, abs(x1 - x))
        hs = h * direction

        ku1, kv1 = f(x, (u, v))
        a21 = _A21 * hs
        ku2, kv2 = f(x + _C2 * hs, (u + a21 * ku1, v + a21 * kv1))
        a31, a32 = _A31 * hs, _A32 * hs
        ku3, kv3 = f(
            x + _C3 * hs,
            (u + a31 * ku1 + a32 * ku2, v + a31 * kv1 + a32 * kv2),
        )
        a41, a42, a43 = _A41 * hs, _A42 * hs, _A43 * hs
        ku4, kv4 = f(
            x + _C4 * hs,
            (
                u + a41 * ku1 + a42 * ku2 + a43 * ku3,
                v + a41 * kv1 + a42 * kv2 + a43 * kv3,
            ),
        )
        a51, a52, a53, a54 = _A51 * hs, _A52 * hs, _A53 * hs, _A54 * hs
        ku5, kv5 = f(
            x + _C5 * hs,
            (
                u + a51 * ku1 + a52 * ku2 + a53 * ku3 + a54 * ku4,
                v + a51 * kv1 + a52 * kv2 + a53 * kv3 + a54 * kv4,
            ),
        )
        a61, a62, a63, a64, a65 = (
            _A61 * hs, _A62 * hs, _A63 * hs, _A64 * hs, _A65 * hs
        )
        ku6, kv6 = f(
            x + _C6 * hs,
            (
                u + a61 * ku1 + a62 * ku2 + a63 * ku3 + a64 * ku4 + a65 * ku5,
                v + a61 * kv1 + a62 * kv2 + a63 * kv3 + a64 * kv4 + a65 * kv5,
            ),
        )

        b1, b3, b4, b6 = hs * _B51, hs * _B53, hs * _B54, hs * _B56
        u_new = u + b1 * ku1 + b3 * ku3 + b4 * ku4 + b6 * ku6
        v_new = v + b1 * kv1 + b3 * kv3 + b4 * kv4 + b6 * kv6
        e1, e2, e3, e4, e5, e6 = (
            hs * _E1, hs * _E2, hs * _E3, hs * _E4, hs * _E5, hs * _E6
        )
        err_u = 0.0 + e1 * ku1 + e2 * ku2 + e3 * ku3 + e4 * ku4 + e5 * ku5 + e6 * ku6
        err_v = 0.0 + e1 * kv1 + e2 * kv2 + e3 * kv3 + e4 * kv4 + e5 * kv5 + e6 * kv6

        # relative error norm; the floor guards tiny and crossing components.
        # The comparisons are max(norm, |err| / (rel_tol * max(|y|, |y_new|,
        # 1e-290))) over component 0 then 1, spelled out with the builtin's
        # argument order (and so its NaN and tie behaviour) but no calls.
        scale = abs(u)
        if abs(u_new) > scale:
            scale = abs(u_new)
        if 1e-290 > scale:
            scale = 1e-290
        ratio = abs(err_u) / (rel_tol * scale)
        norm = ratio if ratio > 0.0 else 0.0
        scale = abs(v)
        if abs(v_new) > scale:
            scale = abs(v_new)
        if 1e-290 > scale:
            scale = 1e-290
        ratio = abs(err_v) / (rel_tol * scale)
        if ratio > norm:
            norm = ratio

        if norm <= 1.0 or h <= h_floor:
            x = x1 if abs(x1 - (x + hs)) < x_snap else x + hs
            # Simpson's rule on u^2, with u at the midpoint from the cubic
            # Hermite interpolant of both ends' (u, u')
            um = 0.5 * (u + u_new) + 0.125 * hs * (v - v_new)
            u2 += h * (u * u + 4.0 * um * um + u_new * u_new) / 6.0
            u, v = u_new, v_new
            n_steps += 1
            if u < 0.0 < last or last < 0.0 < u:
                sign_changes += 1
            if u != 0.0:
                last = u
            big = max(abs(u), abs(v))
            if big > threshold:
                log_scale += math.log(big)
                u, v = u / big, v / big
                u2 = u2 / big / big
        else:
            n_rejected += 1

        # h *= min(5.0, max(0.2, grow)), likewise spelled out
        grow = 0.9 * norm ** -0.2 if norm > 0.0 else 5.0
        if not grow > 0.2:
            grow = 0.2
        h *= grow if grow < 5.0 else 5.0

    return IntegrationResult(x, (u, v), log_scale, n_steps, n_rejected, sign_changes, u2)
