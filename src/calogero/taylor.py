"""Taylor-series propagator for the radial equation and its E-derivative.

The shooting oracle integrates

    x^2 u'' = (g1 - E x^2 + g2 x^4) u

together with u_E = du/dE, which solves the same equation with the source
-x^2 u.  About a point x0, with t = x - x0 and u = sum_k c_k t^k, the
right-hand side is the quartic p(t) = p_0 + p_1 t + ... + p_4 t^4,

    p_0 = g1 - E x0^2 + g2 x0^4,   p_1 = -2 E x0 + 4 g2 x0^3,
    p_2 = -E + 6 g2 x0^2,          p_3 = 4 g2 x0,             p_4 = g2,

and x^2 = x0^2 + 2 x0 t + t^2 on the left, so matching powers of t gives

    x0^2 (k+2)(k+1) c_{k+2} = sum_j p_j c_{k-j}
                              - 2 x0 (k+1) k c_{k+1} - k (k-1) c_k,

with the source -(x0^2 c_k + 2 x0 c_{k-1} + c_{k-2}) added for the
coefficients of u_E.  The loop works with the scaled coefficients
C_k = c_k h^k of a step h (r = h / x0), whose sums at s = t/h = 1 are the
state at x0 + h: u = sum C_k, h u' = sum k C_k.  A step ends after two
consecutive terms k |C_k| fall below rel_tol times the largest term of
h u' (|C_0| counted too), and the same holds for u_E's series.  The
terms fall geometrically once they have peaked (below), so a rel_tol
under float64 rounding just runs each sum until its terms stop moving it.

Step size.  The recurrence is singular at x = 0, so |h| <= x0 / 2 keeps
the radius of convergence at twice the step.  With x_lo, x_hi the step's
ends and K^2 = |g1| / x_lo^2 + |g2| x_hi^2 + |E| >= |q| on it,
q = g1/x^2 + g2 x^2 - E, a step also keeps |h| K <= _STEP_PHASE < pi:
the terms then fall like (|h| K)^k / k! past their peak, and since
u'' = q u with q >= -K^2 has its zeros at least pi / K apart (Sturm
comparison with u'' = -K^2 u), a step holds at most one zero of u.  The
strict sign changes of u between the steps' ends therefore count the
nodes exactly (a step that lands on 0 is bridged to the next non-zero
value); `nonexistence.count_zeros` counts zeros this way too.  Where K
is so large that 3/K no longer moves x (K^2 past float64 included), or an
endpoint's square underflows to 0, the call is refused with
`ConvergenceError`.

Renormalization.  The state passes through hundreds of orders of
magnitude under a barrier, so whenever max(|u|, |u'|) exceeds
_RENORM_THRESHOLD all four components are divided by it, one common
factor, and its log is added to `log_scale`.  The equations are linear,
so the Wronskian-type product u_E u' - u u'_E and u^2 + u'^2 pick up the
same factor and their ratio is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConvergenceError, DomainError

__all__ = ["TaylorResult", "integrate"]

# |h| K per step; below pi, so that a step holds at most one zero of u
_STEP_PHASE = 3.0
_RENORM_THRESHOLD = 1e100
_MAX_STEPS = 100_000  # steps before a call gives up
_MAX_TERMS = 200  # series terms before a step gives up (about 60 reach 1e-16)
# per term k of the recurrence: k (k-1), k (k+1), 1 / ((k+1)(k+2)), k + 2
_TERMS = tuple((float(k * (k - 1)), float(k * (k + 1)), 1.0 / ((k + 1) * (k + 2)), float(k + 2))
               for k in range(_MAX_TERMS))


@dataclass(frozen=True)
class TaylorResult:
    x: float
    y: tuple[float, float]  # (u, u')
    ye: tuple[float, float]  # (u_E, u'_E), in the units of y
    log_scale: float  # the true state is (y, ye) * exp(log_scale)
    n_steps: int
    n_rejected: int  # always 0: a step's size is fixed before it is taken
    sign_changes: int  # strict sign changes of u between steps


def integrate(
    g1: float,
    g2: float,
    E: float,
    x0: float,
    y0: Sequence[float],
    ye0: Sequence[float],
    x1: float,
    rel_tol: float = 1e-16,
) -> TaylorResult:
    """Carry (u, u') = y0 and (u_E, u'_E) = ye0 of x^2 u'' = (g1 - E x^2 +
    g2 x^4) u from x0 to x1 (either direction) on the half-line x > 0 by
    Taylor steps (see the module docstring); rel_tol is the truncation
    tolerance of each step's series."""
    if not (0.0 < x0 < math.inf and 0.0 < x1 < math.inf):  # NaN included
        raise DomainError(f"integrate: endpoints must lie in (0, inf), got ({x0!r}, {x1!r})")
    if min(x0, x1) * min(x0, x1) == 0.0:
        raise ConvergenceError(f"integrate: x = {min(x0, x1):.3g} squares to 0 in float64, so K^2 is no float")
    if len(y0) != 2 or len(ye0) != 2:
        raise DomainError(f"integrate: states must have 2 components, got {len(y0)} and {len(ye0)}")
    if not 0.0 < rel_tol <= 1e-2:  # NaN included
        raise DomainError(f"integrate: rel_tol {rel_tol} outside (0, 1e-2]")
    u, v = float(y0[0]), float(y0[1])
    ue, ve = float(ye0[0]), float(ye0[1])
    direction = 1.0 if x1 > x0 else -1.0
    c2 = _STEP_PHASE * _STEP_PHASE
    x = float(x0)
    log_scale = 0.0
    n_steps = 0
    sign_changes = 0
    last = u  # the last non-zero u, so a step landing on 0 hides no crossing
    while x != x1:
        if n_steps >= _MAX_STEPS:
            raise ConvergenceError(
                f"integrate: {_MAX_STEPS} steps exhausted at x = {x:.6g} (target {x1:.6g})"
            )
        rest = (x1 - x) * direction
        h = 0.5 * x
        if rest < h:
            h = rest
        lo, hi = (x, x + h) if direction > 0.0 else (x - h, x)
        k2 = abs(g1) / (lo * lo) + abs(g2) * hi * hi + abs(E)
        if h * h * k2 > c2:
            h = _STEP_PHASE / math.sqrt(k2)
            if x + h * direction == x:
                raise ConvergenceError(
                    f"integrate: a step of 3/K no longer moves x = {x:.6g} (K^2 = {k2:.3g})"
                )
        hs = h * direction

        # the scaled quartic P_j = p_j h^(j+2) / x0^2 and the source's h^2
        r = hs / x
        rr = r * r
        h2 = hs * hs
        gx = g2 * x * x
        p0 = g1 * rr + (gx - E) * h2
        p1 = (4.0 * gx - 2.0 * E) * h2 * r
        p2 = (6.0 * gx - E) * h2 * rr
        p3 = 4.0 * gx * h2 * rr * r
        p4 = gx * h2 * rr * rr
        r2 = 2.0 * r
        # C_k and D_k (of u_E) from k - 4 to k + 1, at k = 0
        c0, c1 = u, hs * v
        d0, d1 = ue, hs * ve
        cm1 = cm2 = cm3 = cm4 = dm1 = dm2 = dm3 = dm4 = 0.0
        su, sv, se, sve = c0 + c1, c1, d0 + d1, d1
        big_c = abs(c0) if abs(c0) > abs(c1) else abs(c1)
        big_d = abs(d0) if abs(d0) > abs(d1) else abs(d1)
        lim_c, lim_d = rel_tol * big_c, rel_tol * big_d
        small = False
        for kk1, kk2, inv, m in _TERMS:
            a = p0 - rr * kk1
            b = r2 * kk2
            cn = (a * c0 - b * c1 + p1 * cm1 + p2 * cm2 + p3 * cm3 + p4 * cm4) * inv
            dn = (a * d0 - b * d1 + p1 * dm1 + p2 * dm2 + p3 * dm3 + p4 * dm4
                  - h2 * (c0 + r2 * cm1 + rr * cm2)) * inv
            su += cn
            se += dn
            tc = m * cn
            td = m * dn
            sv += tc
            sve += td
            if tc < 0.0:
                tc = -tc
            if td < 0.0:
                td = -td
            if tc > big_c:
                big_c = tc
                lim_c = rel_tol * tc
            if td > big_d:
                big_d = td
                lim_d = rel_tol * td
            if tc <= lim_c and td <= lim_d:
                if small:
                    break
                small = True
            else:
                small = False
            cm4, cm3, cm2, cm1, c0, c1 = cm3, cm2, cm1, c0, c1, cn
            dm4, dm3, dm2, dm1, d0, d1 = dm3, dm2, dm1, d0, d1, dn
        else:
            raise ConvergenceError(
                f"integrate: Taylor series at x = {x:.6g}, step {hs:.3g}, "
                f"not converged in {_MAX_TERMS} terms"
            )

        x = x1 if h == rest else x + hs
        u, v, ue, ve = su, sv / hs, se, sve / hs
        n_steps += 1
        if u < 0.0 < last or last < 0.0 < u:
            sign_changes += 1
        if u != 0.0:
            last = u
        big = abs(u) if abs(u) > abs(v) else abs(v)
        if big > _RENORM_THRESHOLD:
            log_scale += math.log(big)
            u, v, ue, ve = u / big, v / big, ue / big, ve / big

    return TaylorResult(x, (u, v), (ue, ve), log_scale, n_steps, 0, sign_changes)
