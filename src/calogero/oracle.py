"""Shooting-method eigenvalue oracle, numerically independent of the
gamma-function spectral equations.

The radial problem -u'' + (g1/x^2 + g2 x^2) u = E u is integrated with
the package's own Cash-Karp RK45 from both ends toward an interior match
point.  Left data comes from the Frobenius series fixed by the extension
angle nu, right data from the leading decaying asymptotics; E is an
eigenvalue exactly when the two solutions are proportional, i.e. their
Wronskian at the match point vanishes.

Left boundary data.  With s_pm = 1/2 +- kappa, the two Frobenius
solutions are F_s = (ups x)^s sum_k a_k x^{2k},

    a_0 = 1,   a_k = (-E a_{k-1} + g2 a_{k-2}) / (2k (2s + 2k - 1)),

and the extension nu selects  sin(nu) F_{s+} + cos(nu) F_{s-}  (for
kappa >= 1 or Friedrichs, pure F_{s+}).  At kappa = 0 the exponents
collide and the second solution grows a logarithm,

    L = F_{1/2} ln(ups x) + (ups x)^{1/2} sum_k b_k x^{2k},
    b_0 = 0,   b_k = (-4k a_k - E b_{k-1} + g2 b_{k-2}) / (4 k^2),

with the combination  sin(nu) F_{1/2} + 2 cos(nu) L  carrying boundary
angle nu.

Right boundary data.  chi = (ups x)^{-1/2 - 2w} exp(-(ups x)^2 / 2) with
w = -E/(4 ups^2) is the decaying solution to leading order; the O(1/x^2)
corrections it drops excite only the growing-at-infinity mode, which the
inward integration suppresses by exp(-(x_max^2 - x_match^2) ups^2 / 2),
around 1e-14 for the default window.

Matching angle and level count.  Write each solution in Pruefer form,
u = r sin(theta), u' = r cos(theta), and let phi = atan2(u, u') mod pi be
its angle at the match point.  The integrator counts the strict sign
changes Z of u along each branch, so

    Theta(E) = pi (Z_L + Z_R) + phi_L - phi_R

is the continuous angle of the left solution minus that of the right
one.  Z_L also counts one node in (0, x_min) where u(x_min) has the sign
opposite to the boundary combination's leading term at 0+ (2 cos nu L < 0
for nu at kappa = 0, cos nu F- or F+ > 0 otherwise): next to kappa = 1,
F-'s first coefficient -E / (4 (1 - kappa)) drives a node out through
x_min as E rises (from E ~ ups^2 at kappa = 0.9999).  The sign gives only
the parity of the nodes below x_min; while there is at most one, Theta
increases strictly with E (the left angle rises, the right one falls), it
lies in (-pi, 0) below the ground state, and level n is the root of
Theta(E) = n pi: floor(Theta / pi) + 1 levels lie below E, so no level
can be missed or found twice.

Derivative.  Differentiating -u'' + (q - E) u = 0 in E gives
(u u'_E - u' u_E)' = -u^2, and dphi/dE = -(u u'_E - u' u_E) / r^2 with
r^2 = u^2 + u'^2, so

    dTheta/dE = (int_{x_min}^{x_match} u_L^2 dx + head) / r_L^2
                + int_{x_match}^{x_max} u_R^2 dx / r_R^2.

The integrator accumulates both integrals along the branches.  head =
u' u_E - u u'_E at x_min, from the series data and their central
difference in E (step ups^2), is the exact [0, x_min) part of the left
integral; without it the slope is off by up to a few per cent.  The
right data's own term, of order chi(x_max)^2, is left out.

Deep ground states.  A ground state far below its rung decays like
exp(-sqrt(-E) x) from the origin, so at the default match point 1/ups
the left solution is a float-precision mix of the decaying and growing
modes and Theta is a step.  Where the scan floor (below) lies under -16
(scaled), the match point moves, once per call and for every level, to
four decay lengths of the floor, 4 / (ups sqrt(-e_floor)); at -16 that
is 1/ups.  An explicit ShootingConfig.x_match wins.  Theta is still a
cliff there: it sits at -pi + b below the root and at +b above it, b a
few hundredths, and rises by pi within about 0.5 ups^2 of the root at
e = -349.  Near the origin such a state sees only g1/x^2, so it is
sqrt(x) K_kappa(sqrt(-E) x); matching the small-x form of K_kappa to the
boundary combination gives the estimate

    e0 = -4 (-tan(nu) Gamma(1+kappa) / Gamma(1-kappa))^(1/kappa),   kappa > 0,
    e0 = -4 exp(tan(nu) - 2 gamma),                                kappa = 0,

3e-6 off at e0 = -350 and 1 % at -8 for kappa >= 0.4, 12 % at kappa = 0,
e0 = -2.  The scan floor is the same asymptotics with a margin:
ln(1 - tan nu) for ln(-tan nu), resp. tan nu + 2 gamma, and 8 more.

Root hunt.  Each level is bracketed between evaluated energies on either
side of n pi -- the floor below the ground state, the rung
2 ups^2 (2n+1+kappa) + 0.2 ups^2 that every level n sits below, and the
points of earlier solves -- and started from the end nearest to n pi.
Before the rung two probes start each level near its root: a deep ground
state's estimate e0 above, and for level n >= 1 one ladder spacing above
the last level, E_{n-1} + 4 ups^2, which lies below the rung (for nu it
is skipped where it does not clear the pole 2 ups^2 (2n-1+kappa) that
level n lies above).  The solve is a safeguarded Newton iteration on
Theta.  Newton's step from a shoulder of a cliff overshoots, so where it
leaves the bracket or stalls the step is a secant on the lever

    L(E) = sin(Theta - n pi) / sqrt(dTheta/dE),

which is linear in E wherever tan(Theta) is a Moebius function of E:
tan(Theta) = (alpha E + beta) / (gamma E + delta) gives dTheta/dE =
(alpha delta - beta gamma) / R^2 and sin(Theta) = +-(alpha E + beta) / R.
Across the cliff at e = -349, L's slope stays within 5 % over
[-352.1, -346.7] while Theta rises by 3.1.  The secant runs through the
bracket's ends, halving the L of an end kept on two steps in a row
(Illinois); where an end lies pi or more from n pi, past which sin has
lost the sign of Theta - n pi, the step bisects instead.  Two steps that
fail to halve |Theta - n pi|, with no Newton step between them that did,
turn the rest into bisection.  The scan tolerance needs
only |Theta - n pi| <= 1e-4: the refinement starts from the Newton step
off the scan's last point and runs the same iteration on Theta
integrated at the refinement tolerance, with twice the Newton step while
it has no bracket; regular levels take two evaluations there.  A solve
that runs out of steps raises ConvergenceError.

The residual returned is |sin(Theta - n pi)| at the returned energy:
sin(phi_L - phi_R) is the Wronskian at the match point normalized by the
solution magnitudes, which also cancels the integrator's renormalization
factors, so it vanishes exactly at the eigenvalues.

Window.  The right boundary data hold only where the top level's turning
point sqrt(e_n)/ups lies at least 2/ups inside x_max; past that the
truncation error grows beyond 1e-9 relative, and the oracle raises
ConvergenceError instead of returning the level.  The lowest energy the
top level can have (its rung on a ladder, the pole below its gap for nu)
is checked before any level is solved, the level itself after.  It raises
the same where a branch leaves the float64 range: the right data's
exponential overflows, or at large kappa the left power
(ups x_min)^(1/2 + kappa) underflows to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConvergenceError, DomainError
from .params import Extension, ExtensionLabel, ReducedParams
from .rk45 import integrate

__all__ = [
    "ShootingConfig",
    "OracleEigenfunction",
    "OracleSpectrum",
    "shoot_spectrum",
    "eigenfunction_overlap",
    "sample_on_grid",
]

_EULER_GAMMA = 0.5772156649015328606

_REFINE_TOL = 1e-10  # refinement and eigenfunction integration tolerance
_SCAN_TOL = 1e-7  # bracketing integration tolerance
# |theta - n pi| and bracket width (relative to 1 + |E|) that end the
# solve at each integration tolerance; the refinement starts from the scan's
# last Newton step, whose error at 1e-4 is below the two tolerances' offset
_SCAN_STOP = (1e-4, 1e-6)
_REFINE_STOP = (1e-13, 1e-11)
_SOLVE_MAX_STEPS = 100  # matching-angle evaluations per solve
# scaled floor below which the match point follows the ground state's decay
_DEEP_FLOOR = -16.0
# least ups x_max - sqrt(e) of the top level: from 2.0 down the truncation
# error passes 1e-9 relative (6.5e-11 at 2.23, 2.1e-9 at 1.89)
_DECAY_MARGIN = 2.0
_N_GRID = 801  # eigenfunction sample points on the window (odd)
_SERIES_MAX_TERMS = 60  # Frobenius series terms at the left boundary


@dataclass(frozen=True)
class ShootingConfig:
    """Integration window, in physical x units (None means the
    upsilon-scaled default)."""

    x_min: float | None = None  # default 0.02 / upsilon
    x_max: float | None = None  # default 8 / upsilon
    x_match: float | None = None  # default 1 / upsilon

    def resolved(self, ups: float) -> tuple[float, float, float]:
        x_min = self.x_min if self.x_min is not None else 0.02 / ups
        x_max = self.x_max if self.x_max is not None else 8.0 / ups
        x_match = self.x_match if self.x_match is not None else 1.0 / ups
        if not (0.0 < x_min < x_match < x_max):
            raise DomainError(
                f"ShootingConfig: need 0 < x_min < x_match < x_max, got "
                f"({x_min}, {x_match}, {x_max})"
            )
        return x_min, x_max, x_match


@dataclass(frozen=True)
class OracleEigenfunction:
    grid: tuple[float, ...]
    values: tuple[float, ...]  # L2-normalized over the grid
    nodes: int


@dataclass(frozen=True)
class OracleSpectrum:
    energies: tuple[float, ...]
    mismatch_residuals: tuple[float, ...]
    eigenfunctions: tuple[OracleEigenfunction, ...] | None


# ---------------------------------------------------------------------------
# boundary data


def _frobenius(s: float, g2: float, E: float, ups: float, x: float):
    """(F_s, F_s') at x from the series around the origin."""
    a_km1, a_km2 = 1.0, 0.0
    x2 = x * x
    P = 1.0
    dP = 0.0
    xk = 1.0  # x^{2k}
    for k in range(1, _SERIES_MAX_TERMS + 1):
        a_k = (-E * a_km1 + g2 * a_km2) / (2.0 * k * (2.0 * s + 2.0 * k - 1.0))
        xk *= x2
        term = a_k * xk
        P += term
        dP += 2.0 * k * a_k * xk / x
        a_km2, a_km1 = a_km1, a_k
        if abs(term) <= 1e-18 * abs(P) and k >= 3:
            break
    else:
        raise ConvergenceError(
            f"left boundary series stalled at x = {x:.4g}, E = {E:.4g}; shrink x_min"
        )
    pw = (ups * x) ** s
    return pw * P, pw * (s * P / x + dP)


def _frobenius_log(g2: float, E: float, ups: float, x: float):
    """kappa = 0 solutions (F_{1/2}, F_{1/2}', L, L') at x from one series
    loop; see the module docstring."""
    x2 = x * x
    a_km1, a_km2 = 1.0, 0.0
    b_km1, b_km2 = 0.0, 0.0
    P, dP = 1.0, 0.0
    B, dB = 0.0, 0.0
    xk = 1.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        a_k = (-E * a_km1 + g2 * a_km2) / (4.0 * k * k)
        b_k = (-4.0 * k * a_k - E * b_km1 + g2 * b_km2) / (4.0 * k * k)
        xk *= x2
        P += a_k * xk
        dP += 2.0 * k * a_k * xk / x
        B += b_k * xk
        dB += 2.0 * k * b_k * xk / x
        a_km2, a_km1 = a_km1, a_k
        b_km2, b_km1 = b_km1, b_k
        if abs(a_k * xk) <= 1e-18 * abs(P) and abs(b_k * xk) <= 1e-18 * (abs(B) + 1e-30) and k >= 3:
            break
    else:
        raise ConvergenceError(
            f"left boundary log-series stalled at x = {x:.4g}, E = {E:.4g}; shrink x_min"
        )
    pw = (ups * x) ** 0.5
    F = pw * P
    dF = pw * (0.5 * P / x + dP)
    ell = math.log(ups * x)
    L = F * ell + pw * B
    dL = dF * ell + F / x + pw * (0.5 * B / x + dB)
    return F, dF, L, dL


def _left_state(rp: ReducedParams, ext: Extension, E: float, x: float):
    k, ups, g2 = rp.kappa, rp.upsilon, rp.g2
    sp = 0.5 + k
    if ext.is_ladder:
        return _frobenius(sp, g2, E, ups, x)
    nu = ext.nu
    if k > 0.0:
        fp, dfp = _frobenius(sp, g2, E, ups, x)
        fm, dfm = _frobenius(0.5 - k, g2, E, ups, x)
        sn, cn = math.sin(nu), math.cos(nu)
        return sn * fp + cn * fm, sn * dfp + cn * dfm
    f, df, L, dL = _frobenius_log(g2, E, ups, x)
    sn, cn = math.sin(nu), math.cos(nu)
    return sn * f + 2.0 * cn * L, sn * df + 2.0 * cn * dL


def _right_state(rp: ReducedParams, E: float, x: float):
    ups = rp.upsilon
    w = -E / (4.0 * ups * ups)
    z = ups * x
    ln_chi = (-0.5 - 2.0 * w) * math.log(z) - 0.5 * z * z
    try:
        chi = math.exp(ln_chi) if ln_chi > -700.0 else 1e-300
    except OverflowError:
        raise ConvergenceError(
            f"shoot_spectrum: the right boundary data e^{ln_chi:.4g} at E = {E:.6g} "
            "leave the float64 range"
        ) from None
    dchi = (-ups * ups * x - (0.5 + 2.0 * w) / x) * chi
    return chi, dchi


# ---------------------------------------------------------------------------
# matching angle and root hunt


def _theta(
    rp: ReducedParams, ext: Extension, E: float, cfg: ShootingConfig, tol: float
) -> tuple[float, float]:
    """Matching angle pi (Z_L + Z_R) + phi_L - phi_R of the two solutions
    integrated to the match point at tol, and its derivative in E; level n
    is the root at n pi."""
    x_min, x_max, x_match = cfg.resolved(rp.upsilon)
    g1, g2 = rp.g1, rp.g2

    def f(x, y):
        return (y[1], (g1 / (x * x) + g2 * x * x - E) * y[0])

    u0, v0 = _left_state(rp, ext, E, x_min)
    left = integrate(f, x_min, (u0, v0), x_match, rel_tol=tol)
    right = integrate(f, x_max, _right_state(rp, E, x_max), x_match, rel_tol=tol)
    ul, vl = left.y
    ur, vr = right.y
    # a node in (0, x_min) puts u(x_min) against the leading term at 0+
    lead = -1.0 if not ext.is_ladder and rp.kappa == 0.0 else 1.0
    z_left = left.sign_changes + (lead * u0 < 0.0)
    theta = (math.pi * (z_left + right.sign_changes)
             + math.atan2(ul, vl) % math.pi - math.atan2(ur, vr) % math.pi)
    # head = u' u_E - u u'_E at x_min, the [0, x_min) part of the integral
    # of u^2, brought to the units of the left branch's end state
    h = rp.energy_scale()
    up, vp = _left_state(rp, ext, E + h, x_min)
    um, vm = _left_state(rp, ext, E - h, x_min)
    head = (v0 * (up - um) - u0 * (vp - vm)) / (2.0 * h) * math.exp(-2.0 * left.log_scale)
    r2_left, r2_right = ul * ul + vl * vl, ur * ur + vr * vr
    if r2_left == 0.0 or r2_right == 0.0:
        # at large kappa the Frobenius power (ups x_min)^s underflows, and a
        # right start clamped at 1e-300 can end below 1e-162, whose square is 0
        side = "left" if r2_left == 0.0 else "right"
        raise ConvergenceError(
            f"shoot_spectrum: the {side} solution at E = {E:.6g} leaves the float64 range"
        )
    slope = (left.u2_integral + head) / r2_left + right.u2_integral / r2_right
    return theta, slope


def _scan_floor(rp: ReducedParams, ext: Extension) -> float:
    """Scaled energy below the ground state, from the e -> -inf asymptotics
    of the boundary condition (estimation only; the roots come from the
    shooting itself)."""
    if ext.is_ladder:
        return 0.0
    k, t = rp.kappa, math.tan(ext.nu)
    if k > 0.0:
        if t >= 0.0:
            return -2.0 - 2.0 * k
        ln_r = (math.log(-t + 1.0) + math.lgamma(1.0 + k) - math.lgamma(1.0 - k)) / k
    else:
        if t <= 0.0:
            return -4.0
        ln_r = t + 2.0 * _EULER_GAMMA
    if ln_r > math.log(100.0):
        raise DomainError(
            f"shoot_spectrum: estimated ground state near -4 e^{ln_r:.1f} "
            "(scaled) is too deep for the shooting window"
        )
    return -4.0 * math.exp(ln_r) - 8.0


def _ground_estimate(rp: ReducedParams, ext: Extension) -> float:
    """Scaled estimate of a ground state below a deep scan floor (see the
    module docstring)."""
    k, t = rp.kappa, math.tan(ext.nu)
    if k > 0.0:
        return -4.0 * math.exp((math.log(-t) + math.lgamma(1.0 + k) - math.lgamma(1.0 - k)) / k)
    return -4.0 * math.exp(t - 2.0 * _EULER_GAMMA)


def shoot_spectrum(
    rp: ReducedParams,
    ext: Extension,
    n_max: int,
    cfg: ShootingConfig | None = None,
    want_eigenfunctions: bool = False,
) -> OracleSpectrum:
    """First n_max eigenvalues by double shooting; ascending order."""
    if n_max < 1:
        raise DomainError(f"shoot_spectrum: n_max must be >= 1, got {n_max}")
    if ext.label is ExtensionLabel.NU:
        if ext.nu is None or not (-0.5 * math.pi < ext.nu < 0.5 * math.pi):
            raise DomainError(f"shoot_spectrum: interior nu required, got {ext.nu!r}")
        if rp.kappa >= 1.0:
            raise DomainError("shoot_spectrum: nu extensions exist only for kappa < 1")
    cfg = cfg or ShootingConfig()
    # the lowest energy the top level can have, its rung on a ladder or the
    # pole below its gap for nu, must leave the window room to decay before
    # any level is solved
    n_top = n_max - 1
    if ext.is_ladder:
        _check_decay_room(rp, cfg, n_top, 2.0 * (2 * n_top + 1 + rp.kappa), ">= ")
    elif n_top > 0:
        _check_decay_room(rp, cfg, n_top, 2.0 * (2 * n_top - 1 + rp.kappa), "> ")
    ups2 = rp.energy_scale()
    e_lo = _scan_floor(rp, ext)
    deep = e_lo < _DEEP_FLOOR
    if cfg.x_match is None and deep:
        # four decay lengths 1/sqrt(-E) of the deepest ground state in reach
        cfg = replace(cfg, x_match=4.0 / (rp.upsilon * math.sqrt(-e_lo)))

    known: list[tuple[float, float, float]] = []  # every (E, Theta, dTheta/dE) evaluated

    def theta(E: float) -> tuple[float, float]:
        t, slope = _theta(rp, ext, E, cfg, _SCAN_TOL)
        known.append((E, t, slope))
        return t, slope

    def fine(E: float) -> tuple[float, float]:
        return _theta(rp, ext, E, cfg, _REFINE_TOL)

    theta(e_lo * ups2)
    if deep:  # a start next to the cliff
        theta(_ground_estimate(rp, ext) * ups2)
    roots: list[float] = []
    resids: list[float] = []
    for n in range(n_max):
        target = n * math.pi
        if n and all(t <= target for _, t, _ in known):
            # one ladder spacing above the last level, below the rung; for nu
            # only where it clears the pole 2(2n-1+kappa) below level n
            probe = roots[-1] + 4.0 * ups2
            if ext.is_ladder or probe > 2.0 * (2 * n - 1 + rp.kappa) * ups2:
                theta(probe)
        if all(t <= target for _, t, _ in known):
            # every level sits below its rung 2(2n+1+kappa), the ladders on it
            e_top = 2.0 * (2 * n + 1 + rp.kappa) + 0.2
            if theta(e_top * ups2)[0] <= target:
                raise ConvergenceError(
                    f"shoot_spectrum: found {n} of {n_max} eigenvalues in "
                    f"scaled window ({e_lo:.3g}, {e_top:.3g})"
                )
        # the tightest bracket among the energies evaluated so far
        below = [p for p in known if p[1] <= target]
        if not below:
            raise ConvergenceError(
                f"shoot_spectrum: the window floor {e_lo:.3g} (scaled) lies "
                "above the ground state"
            )
        lo = max(below)
        hi = min(p for p in known if p[1] > target)
        start = min(lo, hi, key=lambda p: abs(p[1] - target))
        E, miss, slope = _solve(theta, target, *start, lo, hi, *_SCAN_STOP)
        if abs(miss) <= _SCAN_STOP[0]:  # not stopped by the bracket width
            E -= miss / slope
        root, miss, _ = _solve(fine, target, E, *fine(E), None, None, *_REFINE_STOP)
        roots.append(root)
        resids.append(abs(math.sin(miss)))

    # the right boundary data hold only where the top level's turning point
    # sits well inside the window
    _check_decay_room(rp, cfg, n_top, roots[-1] / ups2)

    funcs = None
    if want_eigenfunctions:
        funcs = tuple(_eigenfunction(rp, ext, E, cfg) for E in roots)
    return OracleSpectrum(tuple(roots), tuple(resids), funcs)


def _check_decay_room(rp: ReducedParams, cfg: ShootingConfig, n: int, e: float, bound: str = "") -> None:
    """Refuse level n at scaled energy e (bound: "" for the level itself, or
    the relation of the level to e) when its turning point lies within
    `_DECAY_MARGIN` / ups of x_max."""
    margin = rp.upsilon * cfg.resolved(rp.upsilon)[1] - math.sqrt(max(e, 0.0))
    if margin < _DECAY_MARGIN:
        raise ConvergenceError(
            f"shoot_spectrum: level {n} (scaled {bound}{e:.4g}) turns "
            f"{margin:.3g}/ups before x_max, short of the {_DECAY_MARGIN:g}/ups "
            "its decay needs; widen x_max"
        )


def _solve(theta, target, E, t, slope, lo, hi, tol, width) -> tuple[float, float, float]:
    """Root of theta(E) = target by a safeguarded Newton iteration, from E
    where theta = t with derivative slope; returns E, theta - target and
    the slope of the last evaluation.

    lo and hi are (E, theta, slope) with theta(lo) <= target < theta(hi),
    or None while that side is unknown.  Each step is Newton's from the
    latest point while the last step halved |theta - target| and the Newton
    point lies inside the bracket.  Otherwise it is a secant step through
    the bracket's ends on the lever L = sin(theta - target) / sqrt(slope)
    (module docstring), halving the L of an end kept on two steps in a row
    (Illinois); it is bisection where an end lies pi or more from the
    target, and once two steps have failed to halve |theta - target| since
    the last Newton step that did.  While one side is still unknown, it is
    twice the Newton step.
    Ends at |theta - target| <= tol or a bracket of width * (1 + |E|).
    """
    a, la = _end(lo, target, -math.inf)
    b, lb = _end(hi, target, math.inf)
    f = t - target
    lever = _lever(f, slope)
    if f > 0.0:
        b, lb = E, lever
    else:
        a, la = E, lever
    side = 0
    stalls = 0
    halved = True
    for _ in range(_SOLVE_MAX_STEPS):
        if abs(f) <= tol or b - a <= width * (1.0 + abs(E)):
            return E, f, slope
        x = E - f / slope
        newton = halved and a < x < b
        if not newton:
            if math.isinf(b - a):
                x = 2.0 * x - E
            elif stalls >= 2 or la is None or lb is None or la == lb:
                x = 0.5 * (a + b)
            else:
                x = b - lb * (b - a) / (lb - la)
                if not a < x < b:  # rounding on a collapsed bracket
                    x = 0.5 * (a + b)
        t, slope = theta(x)
        halved = abs(t - target) <= 0.5 * abs(f)
        if not halved:
            stalls += 1
        elif newton:
            stalls = 0
        E, f = x, t - target
        lever = _lever(f, slope)
        if f > 0.0:
            b, lb = E, lever
            if side == 1 and la is not None:
                la *= 0.5
            side = 1
        else:
            a, la = E, lever
            if side == -1 and lb is not None:
                lb *= 0.5
            side = -1
    raise ConvergenceError(
        f"shoot_spectrum: theta - {target / math.pi:.0f} pi is still {f:.3g} "
        f"at E = {E:.6g}, bracket ({a:.6g}, {b:.6g})"
    )


def _lever(f: float, slope: float) -> float | None:
    """L = sin(f) / sqrt(slope) at theta - target = f, or None where
    |f| >= pi and L no longer carries the sign of f."""
    if abs(f) < math.pi and slope > 0.0:
        return math.sin(f) / math.sqrt(slope)
    return None


def _end(point, target, missing) -> tuple[float, float | None]:
    """(E, L) of a bracket end (E, theta, slope), or (missing, None)."""
    if point is None:
        return missing, None
    return point[0], _lever(point[1] - target, point[2])


# ---------------------------------------------------------------------------
# eigenfunctions


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


# sampled eigenfunctions carry a geometric tail below x_min, filled from the
# series initial data directly (it converges for arbitrarily small x); without
# it the overlap quadrature drops the [0, x_min) mass of states that stay
# finite at the origin (s- = 1/2 - kappa <= 0 near kappa = 1/2) and distinct
# states stop looking orthogonal
_ORIGIN_DEPTH = 2.0 ** 24
_ORIGIN_POINTS = 96


def _eigenfunction(rp, ext, E, cfg) -> OracleEigenfunction:
    x_min, x_max, x_match = cfg.resolved(rp.upsilon)
    n = _N_GRID
    grid = [x_min + (x_max - x_min) * i / (n - 1) for i in range(n)]
    i_match = min(range(n), key=lambda i: abs(grid[i] - x_match))
    g1, g2 = rp.g1, rp.g2

    def f(x, y):
        return (y[1], (g1 / (x * x) + g2 * x * x - E) * y[0])

    # sample left branch up to the match index, right branch down to it,
    # tracking the renormalization ledger per sample
    def sweep(i_from, i_to, state, step_dir):
        out = {}
        x = grid[i_from]
        y = state
        ls = 0.0
        out[i_from] = (y[0], ls)
        i = i_from
        while i != i_to:
            j = i + step_dir
            res = integrate(f, x, y, grid[j], rel_tol=_REFINE_TOL)
            x, y, ls = grid[j], list(res.y), ls + res.log_scale
            out[j] = (y[0], ls)
            i = j
        return out, y, ls

    left_vals, yl, lsl = sweep(0, i_match, list(_left_state(rp, ext, E, x_min)), +1)
    right_vals, yr, lsr = sweep(n - 1, i_match, list(_right_state(rp, E, x_max)), -1)

    # proportionality factor, from values unless the state nearly vanishes
    # at the match point, then from derivatives
    if abs(yl[0]) * abs(yr[0]) >= abs(yl[1]) * abs(yr[1]):
        lam, ls_lam = yr[0] / yl[0], lsr - lsl
    else:
        lam, ls_lam = yr[1] / yl[1], lsr - lsl

    merged = []
    ls_ref = max(lsl + ls_lam, lsr)  # common ledger offset, keeps exp finite
    for i in range(n):
        if i <= i_match:
            v, ls = left_vals[i]
            merged.append(v * lam * math.exp(ls + ls_lam - ls_ref))
        else:
            v, ls = right_vals[i]
            merged.append(v * math.exp(ls - ls_ref))

    # origin tail: raw series values share the left sweep's scale (ledger 0)
    head = [x_min * _ORIGIN_DEPTH ** (k / _ORIGIN_POINTS - 1.0)
            for k in range(_ORIGIN_POINTS)]
    head_scale = lam * math.exp(ls_lam - ls_ref)
    head_vals = [_left_state(rp, ext, E, x)[0] * head_scale for x in head]
    grid = head + grid
    merged = head_vals + merged

    peak = max(abs(v) for v in merged)
    if peak == 0.0:
        raise ConvergenceError(f"eigenfunction identically zero at E = {E:.6g}")
    merged = [v / peak for v in merged]
    norm2 = _simpson([v * v for v in merged], grid)
    merged = [v / math.sqrt(norm2) for v in merged]
    return OracleEigenfunction(tuple(grid), tuple(merged), _count_nodes(merged))


def _count_nodes(vals) -> int:
    nodes = 0
    prev = 0.0
    for v in vals:
        if abs(v) < 1e-9:
            continue
        if prev != 0.0 and (v > 0.0) != (prev > 0.0):
            nodes += 1
        prev = v
    return nodes


def sample_on_grid(fn, grid) -> OracleEigenfunction:
    """Sample a callable u(x) on a grid and L2-normalize it with the same
    quadrature rule the oracle eigenfunctions use, so overlaps against them
    are apples to apples."""
    xs = [float(x) for x in grid]
    vals = [float(fn(x)) for x in xs]
    norm2 = _simpson([v * v for v in vals], xs)
    if not math.isfinite(norm2) or norm2 <= 0.0:
        raise DomainError(f"sample_on_grid: bad norm^2 = {norm2!r}")
    scale = 1.0 / math.sqrt(norm2)
    vals = [v * scale for v in vals]
    return OracleEigenfunction(tuple(xs), tuple(vals), _count_nodes(vals))


def eigenfunction_overlap(f1: OracleEigenfunction, f2: OracleEigenfunction) -> float:
    """|integral f1 f2 dx| over the shared grid (Simpson)."""
    if f1.grid != f2.grid:
        raise DomainError("eigenfunction_overlap: eigenfunctions on different grids")
    xs = list(f1.grid)
    return abs(_simpson([a * b for a, b in zip(f1.values, f2.values)], xs))
