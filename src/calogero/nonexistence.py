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

The count is exact by construction: `taylor.integrate` counts the strict
sign changes of phi between its steps, and each step keeps |h| K <= 3 < pi
with K^2 bounding the coefficient, so by Sturm comparison a step holds at
most one zero whatever drives the oscillation (either coupling, or u).
The propagator integrates the radial equation, here with E = -u, and its
E-derivative, here started at (0, 0), where it stays.

The interval is cut into segments uniform in s = ln x, inward from x_hi
(or outward from x_lo when g2 < 0 drives the count), because near the
origin g1/x^2 leaves the float range (x = 1e-300 squares to 0). Each
segment [x_a, x_b] uses the equation's scale invariance: xi = x / x_a
turns it into

    d^2 phi / dxi^2 = (g1/xi^2 + g2 x_a^4 xi^2 + u x_a^2) phi,

the radial equation with couplings (g1, g2 x_a^4) and E = -u x_a^2,
integrated from xi = 1 to x_b / x_a. The state carried across knots is
(phi, dphi/ds) = (phi, xi dphi/dxi), so the 1/x^2 term stays g1/xi^2.

Inside the admissible cone the same counter doubles as an existence
check: seeded with a positive-solution sample it must report zero sign
changes over any interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .params import RegionClass, classify
from .taylor import _MAX_STEPS, _STEP_PHASE, integrate

__all__ = ["ZeroCountReport", "count_zeros"]

# widest segment, in ln x: 1/xi^2 stays below e^8, so g1/xi^2 is finite for
# every g1 the step bound in count_zeros admits (counts and times measured
# the same at a width of 40)
_LOG_WIDTH = 4.0
# zero budget: a count that predicts more is refused before it integrates
# (g1 = -1e300 over the default interval would predict 4.4e150 zeros); a
# count at the budget takes about 0.5 s on a 2-vCPU VM
_MAX_ZEROS = 12_500


@dataclass(frozen=True)
class ZeroCountReport:
    """Sign-change census of one solution over one interval."""

    interval: tuple[float, float]
    observed_zeros: int
    predicted_zeros: float
    u: float
    sigma_or_omega: float
    mode: str  # "origin" | "infinity" | "existence"

    @property
    def slack(self) -> float:
        """The |observed - predicted| that the CLI's check and verify row 8 allow."""
        return 1.0 + 0.1 * self.predicted_zeros


def count_zeros(g1: float, g2: float, u: float, interval: tuple[float, float],
                init: tuple[float, float] = (1.0, 0.0)) -> ZeroCountReport:
    """Count strict sign changes of the solution seeded by `init`.

    The mode follows `params.classify`: fall to the center integrates
    toward the origin (init given at x_hi), fall to infinity outward (init
    given at x_lo), and every other region runs the existence check inward
    from x_hi. `init` is (phi, phi') at the seeding end. Refused with
    ConvergenceError before any step: a phase that predicts more than
    `_MAX_ZEROS` zeros, an x_hi where g2 x^4 - u x^2 overflows, and a
    segment that needs more steps than one propagator call may take.
    """
    g1, g2 = float(g1), float(g2)
    if not (math.isfinite(g1) and math.isfinite(g2) and math.isfinite(u)):
        raise DomainError(f"count_zeros: need finite g1, g2, u, got ({g1!r}, {g2!r}, {u!r})")
    x_lo, x_hi = float(interval[0]), float(interval[1])
    if not (0.0 < x_lo < x_hi < math.inf):
        raise DomainError(f"count_zeros: need 0 < x_lo < x_hi, got ({x_lo!r}, {x_hi!r})")
    v0, d0 = float(init[0]), float(init[1])
    if not (math.isfinite(v0) and math.isfinite(d0)) or (v0 == 0.0 and d0 == 0.0):
        raise DomainError(f"count_zeros: init must be finite and nonzero, got {init!r}")

    s_lo, s_hi = math.log(x_lo), math.log(x_hi)
    region = classify(g1, g2)
    if region is RegionClass.NoRepresentation_FallToCenter:
        mode = "origin"
        rate = math.sqrt(-g1 - 0.25)
        phase = rate * (s_hi - s_lo)  # x_hi / x_lo may overflow
    elif region is RegionClass.NoRepresentation_FallToInfinity:
        mode = "infinity"
        rate = math.sqrt(-g2)
        phase = 0.5 * rate * (x_hi * x_hi - x_lo * x_lo)
    else:
        mode = "existence"
        rate = 0.0
        phase = 0.0
    predicted = phase / math.pi

    if not predicted <= _MAX_ZEROS:
        raise ConvergenceError(
            f"count_zeros: phase {phase:.3g} over ({x_lo!r}, {x_hi!r}) predicts more than "
            f"{_MAX_ZEROS} zeros"
        )
    x2 = x_hi * x_hi
    if not math.isfinite(g2 * x2 * x2 - u * x2):
        raise ConvergenceError(f"count_zeros: g2 x^4 - u x^2 overflows at x_hi = {x_hi!r}")
    n_seg = max(1, math.ceil((s_hi - s_lo) / _LOG_WIDTH))
    # a step is at most _STEP_PHASE / K long, and K >= sqrt|g1| / x, sqrt|g2| x
    # and sqrt|u| on it, so a segment takes at least this many; the top one most
    width = (s_hi - s_lo) / n_seg
    x_top = math.exp(s_hi - width)
    steps = max(math.sqrt(abs(g1)) * width, 0.5 * math.sqrt(abs(g2)) * (x2 - x_top * x_top),
                math.sqrt(abs(u)) * (x_hi - x_top)) / _STEP_PHASE
    if steps > _MAX_STEPS:
        raise ConvergenceError(
            f"count_zeros: x in ({x_top:.6g}, {x_hi!r}) needs at least {steps:.3g} steps, "
            f"more than the {_MAX_STEPS} one call may take"
        )

    # each segment [x_a, x_b] in xi = x / x_a, outward when g2 < 0 drives the count
    s0, s1, x0 = (s_lo, s_hi, x_lo) if mode == "infinity" else (s_hi, s_lo, x_hi)
    knots = [s0 + (s1 - s0) * i / n_seg for i in range(n_seg + 1)]
    y = (v0, d0 * x0)  # (phi, dphi/ds), dphi/ds = x phi'
    zeros = 0
    for a, b in zip(knots, knots[1:]):
        xa2, xi_b = math.exp(2.0 * a), math.exp(b - a)
        res = integrate(g1, g2 * xa2 * xa2, -u * xa2, 1.0, y, (0.0, 0.0), xi_b)
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
