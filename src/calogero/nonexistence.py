"""Oscillation counting outside the admissible coupling cone.

For g1 < -1/4 every real solution of

    -phi'' + (g1/x^2 + g2 x^2 + u) phi = 0

oscillates infinitely often on the way to the origin: with
sigma = sqrt(-g1 - 1/4) the solutions behave like
x^(1/2) cos(sigma ln x + delta), so zeros accumulate uniformly in ln x
with density sigma/pi per unit of ln x. For g2 < 0 the same happens on
the way to infinity, with omega = sqrt(-g2) and phase omega x^2 / 2, so
the density is omega x / pi per unit length. No solution that oscillates
can stay positive, and without a positive solution there is nothing to
factor a representation from. This module demonstrates the obstruction
numerically: integrate, count sign changes, compare with the predicted
density.

Counting is arranged so a zero cannot be skipped: the adaptive
Runge-Kutta engine counts the sign changes between its accepted steps,
which its 1e-9 error control keeps to a small fraction of a wavelength
whatever drives the oscillation (either coupling, or u). The interval
is cut into segments each advancing the asymptotic phase by at most
pi/8, which keeps every engine call inside its step budget. The engine
integrates only the radial equation, here with E = -u. Toward the origin
the segments are uniform in s = ln x, where the oscillation has a uniform
wavelength, and each uses the equation's scale invariance: on [x_a, x_b],
xi = x / x_a turns it into

    d^2 phi / dxi^2 = (g1/xi^2 + g2 x_a^4 xi^2 + u x_a^2) phi,

the radial equation with couplings (g1, g2 x_a^4) and E = -u x_a^2,
integrated from xi = 1 to x_b / x_a. The state carried across knots is
(phi, dphi/ds) = (phi, xi dphi/dxi), so the 1/x^2 term stays g1/xi^2 and
intervals down to 1e-300 keep every coefficient in range. A segment spans
at most a factor e^4 in x: the engine's step floor, 1e-13 of the span,
would bind once xi fell below about 1e-11.

Inside the admissible cone the same counter doubles as an existence
check: seeded with a positive-solution sample it must report zero sign
changes over any interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .rk45 import integrate

__all__ = ["ZeroCountReport", "count_zeros"]

# per-segment phase budget: one engine call across ~4 400 zeros would
# exhaust its step budget
_PHASE_CAP = math.pi / 8.0
# widest segment toward the origin, in ln x (module docstring)
_LOG_WIDTH = 4.0
# segment budget: 12 500 zeros, about 7 s of integration on a 2-vCPU VM; a
# phase past it is refused before any knot is built (the default interval
# at g1 = -1e300 would ask for 3.5e151 of them)
_MAX_SEGMENTS = 100_000


@dataclass(frozen=True)
class ZeroCountReport:
    """Sign-change census of one solution over one interval."""

    interval: tuple[float, float]
    observed_zeros: int
    predicted_zeros: float
    u: float
    sigma_or_omega: float
    mode: str  # "origin" | "infinity" | "existence"


def count_zeros(
    c,
    u: float,
    interval: tuple[float, float],
    init: tuple[float, float] = (1.0, 0.0),
) -> ZeroCountReport:
    """Count strict sign changes of the solution seeded by `init`.

    `c` carries the couplings (anything with .g1/.g2). The mode picks
    itself: g1 < -1/4 integrates toward the origin (init given at x_hi),
    otherwise g2 < 0 integrates outward (init given at x_lo), otherwise
    the admissible-cone existence check runs inward from x_hi. `init` is
    (phi, phi') at the seeding end. The segment count follows from the
    phase budget `_PHASE_CAP`, with a floor of 16 segments and, toward the
    origin, of one per `_LOG_WIDTH` of ln x; a phase that needs more than
    `_MAX_SEGMENTS` is refused with ConvergenceError, and so is an x_hi
    where g2 x^4 - u x^2 overflows.
    """
    g1, g2 = float(c.g1), float(c.g2)
    if not (math.isfinite(g1) and math.isfinite(g2) and math.isfinite(u)):
        raise DomainError(f"count_zeros: need finite g1, g2, u, got ({g1!r}, {g2!r}, {u!r})")
    x_lo, x_hi = float(interval[0]), float(interval[1])
    if not (0.0 < x_lo < x_hi < math.inf):
        raise DomainError(f"count_zeros: need 0 < x_lo < x_hi, got ({x_lo!r}, {x_hi!r})")
    v0, d0 = float(init[0]), float(init[1])
    if not (math.isfinite(v0) and math.isfinite(d0)) or (v0 == 0.0 and d0 == 0.0):
        raise DomainError(f"count_zeros: init must be finite and nonzero, got {init!r}")

    if g1 < -0.25:
        mode = "origin"
        rate = math.sqrt(-g1 - 0.25)
        phase = rate * (math.log(x_hi) - math.log(x_lo))  # x_hi / x_lo may overflow
    elif g2 < 0.0:
        mode = "infinity"
        rate = math.sqrt(-g2)
        phase = 0.5 * rate * (x_hi * x_hi - x_lo * x_lo)
    else:
        mode = "existence"
        rate = 0.0
        phase = 0.0
    predicted = phase / math.pi

    if not phase <= _MAX_SEGMENTS * _PHASE_CAP:
        raise ConvergenceError(
            f"count_zeros: phase {phase:.3g} over ({x_lo!r}, {x_hi!r}) needs more than "
            f"{_MAX_SEGMENTS} segments of at most pi/8"
        )
    n_seg = max(16, math.ceil(phase / _PHASE_CAP))

    zeros = 0
    if mode == "infinity":
        # outward, uniform in x^2 so every segment carries equal phase
        t_lo, t_hi = x_lo * x_lo, x_hi * x_hi
        knots = [math.sqrt(t_lo + (t_hi - t_lo) * i / n_seg) for i in range(n_seg + 1)]
        y = (v0, d0)
        for a, b in zip(knots, knots[1:]):
            res = integrate(g1, g2, -u, a, y, b, rel_tol=1e-9)
            zeros += res.sign_changes
            y = res.y  # renormalized is fine, the ODE is linear
    else:
        # inward, uniform in s = ln x; each segment [x_a, x_b] in xi = x / x_a
        s_lo, s_hi = math.log(x_lo), math.log(x_hi)
        n_seg = max(n_seg, math.ceil((s_hi - s_lo) / _LOG_WIDTH))
        x2 = x_hi * x_hi
        if not math.isfinite(g2 * x2 * x2 - u * x2):
            raise ConvergenceError(f"count_zeros: g2 x^4 - u x^2 overflows at x_hi = {x_hi!r}")
        knots = [s_hi + (s_lo - s_hi) * i / n_seg for i in range(n_seg + 1)]
        y = (v0, d0 * x_hi)  # (phi, dphi/ds), dphi/ds = x phi'
        for a, b in zip(knots, knots[1:]):
            xa2, xi_b = math.exp(2.0 * a), math.exp(b - a)
            res = integrate(g1, g2 * xa2 * xa2, -u * xa2, 1.0, y, xi_b, rel_tol=1e-9)
            zeros += res.sign_changes
            y = (res.y[0], xi_b * res.y[1])  # dphi/ds = xi dphi/dxi

    return ZeroCountReport(
        interval=(x_lo, x_hi),
        observed_zeros=zeros,
        predicted_zeros=predicted,
        u=u,
        sigma_or_omega=rate,
        mode=mode,
    )
