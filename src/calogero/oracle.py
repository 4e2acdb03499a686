"""Shooting-method eigenvalue oracle, numerically independent of the
gamma-function spectral equations.

The radial problem -u'' + (g1/x^2 + g2 x^2) u = E u is integrated with
the package's own Cash-Karp RK45 from both ends toward an interior match
point.  Left data comes from the Frobenius series fixed by the extension
angle nu, right data from the asymptotics of the solution that decays at
infinity; E is an eigenvalue exactly when the two solutions are
proportional, i.e. their Wronskian at the match point vanishes.

Left boundary data.  With s_pm = 1/2 +- kappa, the two Frobenius
solutions are F_s = (ups x)^s sum_k a_k x^{2k},

    a_0 = 1,   a_k = (-E a_{k-1} + g2 a_{k-2}) / (2k (2s + 2k - 1)),

and the extension nu selects  sin(nu) F_{s+} + cos(nu) F_{s-}  (for
kappa >= 1 or Friedrichs, pure F_{s+}).  At kappa = 0 the exponents
collide and the second solution grows a logarithm,

    L = F_{1/2} ln(ups x) + (ups x)^{1/2} sum_k b_k x^{2k},
    b_0 = 0,   b_k = (-4k a_k - E b_{k-1} + g2 b_{k-2}) / (4 k^2),

with the combination  sin(nu) F_{1/2} + 2 cos(nu) L  carrying boundary
angle nu.  Each series loop also carries the coefficients' E-derivatives,

    da_k/dE = (-a_{k-1} - E da_{k-1}/dE + g2 da_{k-2}/dE) / (2k (2s + 2k - 1))

(db_k/dE likewise), so the table depends on E alone and one table per
Theta serves every trial start.

Left start.  A sum carries the first term it leaves out plus its
rounding, eps times its largest term; over |u| that is the data's error.
It excites the other Frobenius mode, which grows against a combination
holding F- like (x_match/x)^(2 kappa) on the way to the match point
(against pure F+, a ladder, it decays).  The left branch starts at x_s,
the largest of x_min and j x_match / 4 (j = 1..4) where the error times
that growth is at most 1e-13, the refinement's stop on Theta (the right
branch's 1e-17 lies below the series' own rounding).  The trial points are
scanned outward from x_min, the floor, which is taken whatever its data
claim; the scan stops at the first sign change of u, at the first point
whose error alone exceeds the bound, and before a step in s = ln x across
which u could turn twice: with u = sqrt(x) phi(s), phi'' = (kappa^2 + g2 x^4
- E x^2) phi, so two nodes need ln(x_b/x_a) sqrt(E x_b^2 - kappa^2) >= pi
(Sturm).  No node of u then lies between x_min and x_s.

Right boundary data.  In z = ups x, t = z^2, k = E/(4 ups^2) the
solution decaying at infinity is z^(-1/2) W_{k,kappa/2}(t), whose
asymptotic series (DLMF 13.19.3) gives

    u = z^(2k - 1/2) e^(-t/2) sum_s T_s,   T_s = (a)_s (b)_s / s! (-t)^-s,

a, b = 1/2 +- kappa/2 - k.  While s - 1 + b < 0 its terms may grow and
shrink again (the series terminates at a ladder level, where a is a
non-positive integer); past that it is summed up to its smallest term,
or to the first term below the error the start allows.  The first term
left out (with its E-derivative, which the slope below uses) is the
error the series claims.  Where it is not small -- deep ground states and
large kappa, for which the series diverges from its first term -- WKB
data serve instead,

    u'/u = -sqrt(q) - q'/(4q),   q = g1/x^2 + g2 x^2 - E,

whose next order, over the modes' gap 2 sqrt(q), is the error they claim.
An error in either excites the mode that grows at infinity, which the
inward integration suppresses, relative to the wanted one, by
exp(-2 int sqrt(q) dx) from the start down to x_lo, the outer turning
point or the match point, whichever lies farther out; in y = z^2 that
integral is int sqrt(y^2 - e y + g1) / y dy, in closed form (logarithms
and, for g1 < 0, an arcsine).  The right branch starts at the first
x_s = x_lo + j / (4 ups), j >= 1, where the error times the suppression
is at most 1e-17 (no data claim less than 1e-15, their rounding).  Starts
lie past the turning point, so q > 0 on [x_s, inf) and the branch has no
sign change to miss.  Data are scaled to u = sum T_s (or 1):
the scale z^(2k - 1/2) e^(-t/2) is only checked, and refused past the
float64 range.

Matching angle and level count.  Write each solution in Pruefer form,
u = r sin(theta), u' = r cos(theta), and let phi = atan2(u, u') mod pi be
its angle at the match point.  The integrator counts the strict sign
changes Z of u along each branch, so

    Theta(E) = pi (Z_L + Z_R) + phi_L - phi_R

is the continuous angle of the left solution minus that of the right
one.  Z_L also counts one node in (0, x_s) where u(x_s) has the sign
opposite to the boundary combination's leading term at 0+ (2 cos nu L < 0
for nu at kappa = 0, cos nu F- or F+ > 0 otherwise): next to kappa = 1,
F-'s first coefficient -E / (4 (1 - kappa)) drives a node out through
x_min as E rises (from E ~ ups^2 at kappa = 0.9999).  The sign gives only
the parity of the nodes below x_s, none of which lies past x_min (Left
start); while there is at most one below x_min, Theta
increases strictly with E (the left angle rises, the right one falls), it
lies in (-pi, 0) below the ground state, and level n is the root of
Theta(E) = n pi: floor(Theta / pi) + 1 levels lie below E, so no level
can be missed or found twice.

Derivative.  Differentiating -u'' + q u = 0 in E (dq/dE = -1) gives
(u u'_E - u' u_E)' = -u^2, and dphi/dE = -(u u'_E - u' u_E) / r^2 with
r^2 = u^2 + u'^2, so

    dTheta/dE = (int_{x_s}^{x_match} u_L^2 dx + head) / r_L^2
                + int_{x_match}^{inf} u_R^2 dx / r_R^2.

The integrator accumulates both integrals along the branches.  head =
u' u_E - u u'_E at the left start x_s, from the series and their own
E-derivative, is the exact [0, x_s) part of the left integral (all of it
where x_s is the match point).  The right integral's [x_s, inf) part is
u u'_E - u' u_E = u^2 d(u'/u)/dE at the right start (u and u_E decay),
from the E-derivative of the data's own terms.

Deep ground states.  A ground state far below its rung decays like
exp(-sqrt(-E) x) from the origin, so at the default match point 1/ups
the left solution is a float-precision mix of the decaying and growing
modes and Theta is a step.  Where the scan floor (below) lies under -16
(scaled), the match point moves, once per call and for every level, to
four decay lengths of the floor, 4 / (ups sqrt(-e_floor)); at -16 that
is 1/ups.  Theta is still a cliff there: it sits at -pi + b below the
root and at +b above it, b a few hundredths, and rises by pi within about
0.5 ups^2 of the root at e = -349.  Near the origin such a state sees
only g1/x^2, so it is sqrt(x) K_kappa(sqrt(-E) x); matching the small-x
form of K_kappa to the boundary combination gives the estimate

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
it has no bracket; regular levels take two evaluations there.  A step
without a bracket goes no farther than the scan's last bracket is wide,
doubling that reach each time it cuts one: at large kappa Theta is a
float-precision step whose slope throws Newton's step thousands of ups^2
off (to E = -39 144 at kappa = 141).  A scan that narrows such a step to
the refinement's bracket width, 1e-11 (1 + |E|), leaves the refinement
two evaluations.  A Newton step below one ulp of E also ends a solve (at
large kappa the last |Theta - n pi| can stay above 1e-13 there); a solve
that runs out of steps raises ConvergenceError.

The residual returned is |sin(Theta - n pi)| at the returned energy:
sin(phi_L - phi_R) is the Wronskian at the match point normalized by the
solution magnitudes, which also cancels the integrator's renormalization
factors, so it vanishes exactly at the eigenvalues.

State at the match point.  A solution at E is fixed by (u, u') at one
point.  At an eigenvalue the two branches, each scaled to r = 1 at the
match point, are one solution up to sign, and by the Lagrange identity
above the two integrals of dTheta/dE add up to its exact int_0^inf u^2
dx.  The L2-normalized level at the match point is therefore

    (u, u') = (sin phi_L, cos phi_L) / sqrt(dTheta/dE),

phi_L in [0, pi), which signs it u >= 0 there (the ground state's sign).
The pair comes from the refinement's last evaluation, the one whose
energy is returned, at no extra integration.

Window.  Nothing configures it: x_min = 0.02/ups, and x_match = 1/ups,
or four decay lengths of a deep scan floor (above), both worked out once
per call from the couplings and the extension.  Neither branch has a
fixed start: each starts where its own data hold (above), the left one no
deeper than x_min, the right one past each level's turning point
sqrt(e_n)/ups.  The oracle raises ConvergenceError where a branch
leaves the float64 range: the right data's scale overflows, or at large
kappa the left power (ups x_min)^(1/2 + kappa) underflows to zero at the
floor, whose sign the left scan needs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .params import Extension, ExtensionLabel, ReducedParams
from .rk45 import integrate

__all__ = [
    "OracleEigenfunction",
    "OracleSpectrum",
    "shoot_spectrum",
    "sample_on_grid",
]

_EULER_GAMMA = 0.5772156649015328606

# the left branch's deepest start and the match point, in units of 1/ups
_X_MIN = 0.02
_X_MATCH = 1.0

# refinement integration tolerance; where the left branch starts at the
# match point the right one carries all of Theta's integration error, which
# at 1e-10 put the kappa = 1/2, nu = 1 ground state 1.1e-11 off (5e-12 here)
_REFINE_TOL = 4e-11
_SCAN_TOL = 1e-7  # bracketing integration tolerance
# |theta - n pi| and bracket width (relative to 1 + |E|) that end the
# solve at each integration tolerance; the refinement starts from the scan's
# last Newton step, whose error at 1e-4 is below the two tolerances' offset.
# A scan ends on the width only on a float-precision step of Theta, which
# it narrows as far as the refinement would.  The refinement's 1e-13 is
# also the leak into Theta the left branch's start allows
_SCAN_STOP = (1e-4, 1e-11)
_REFINE_STOP = (1e-13, 1e-11)
_SOLVE_MAX_STEPS = 100  # matching-angle evaluations per solve
# scaled floor below which the match point follows the ground state's decay
_DEEP_FLOOR = -16.0
# a right branch starts where its data's error along the inward-decaying
# mode, times that mode's suppression down to the match point or the
# turning point, is this small
_START_LEAK = 1e-17
# the trial starts of a branch lie this far apart: in ups x past the right
# one's x_lo, in units of x_match below the match point for the left one
_START_STEP = 0.25
_DATA_FLOOR = 1e-15  # rounding of the right data, relative to their largest term
_LN_FLOAT_MAX = math.log(sys.float_info.max)
_SERIES_MAX_TERMS = 60  # series terms in the boundary data at either end


@dataclass(frozen=True)
class OracleEigenfunction:
    grid: tuple[float, ...]
    values: tuple[float, ...]  # L2-normalized over the grid


@dataclass(frozen=True)
class OracleSpectrum:
    energies: tuple[float, ...]
    mismatch_residuals: tuple[float, ...]
    # (u, u') of each L2-normalized level at x_match, signed so that u >= 0
    match_states: tuple[tuple[float, float], ...]
    x_match: float  # the match point used, a deep ground state's included


# ---------------------------------------------------------------------------
# boundary data


def _frobenius_table(s: float, g2: float, E: float, y_top: float, log: bool):
    """Columns (a_k, da_k/dE) of F_s, at kappa = 0 (log) with (b_k, db_k/dE)
    of L, from one recurrence loop: up to the first k >= 3 whose terms at
    y_top = x^2 lie below the rounding of their largest, or
    _SERIES_MAX_TERMS."""
    eps = sys.float_info.epsilon
    a, da, b, db = [1.0], [0.0], [0.0], [0.0]
    a1, a2, da1, da2, b1, b2, db1, db2 = 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
    big_a, big_b, yk = 1.0, 0.0, 1.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        den = 2.0 * k * (2.0 * s + 2.0 * k - 1.0)  # 4 k^2 at s = 1/2
        a1, a2 = (-E * a1 + g2 * a2) / den, a1
        da1, da2 = (-a2 - E * da1 + g2 * da2) / den, da1
        a.append(a1)
        da.append(da1)
        yk *= y_top
        t_a = abs(a1) * yk
        big_a = max(big_a, t_a)
        small = k >= 3 and t_a <= eps * big_a
        if log:
            b1, b2 = (-4.0 * k * a1 - E * b1 + g2 * b2) / den, b1
            db1, db2 = (-4.0 * k * da1 - b2 - E * db1 + g2 * db2) / den, db1
            b.append(b1)
            db.append(db1)
            t_b = abs(b1) * yk
            big_b = max(big_b, t_b)
            small = small and t_b <= eps * big_b
        if small:
            break
    return (a, da, b, db) if log else (a, da)


def _sums(c, dc, y: float):
    """(S, S1, SE, SE1, err) with S = sum_k c_k y^k, S1 = sum_k k c_k y^k and
    SE, SE1 the same of dc, up to the first term (k >= 3) below the rounding
    of the largest; err is that term plus the rounding, or inf where the
    columns run out first."""
    eps = sys.float_info.epsilon
    s = s1 = se = se1 = big = 0.0
    yk = 1.0
    for k in range(len(c)):
        t, te = c[k] * yk, dc[k] * yk
        m = t if t >= 0.0 else -t
        if k >= 3 and m <= eps * big:
            return s, s1, se, se1, m + eps * big
        if m > big:
            big = m
        s += t
        s1 += k * t
        se += te
        se1 += k * te
        yk *= y
    return s, s1, se, se1, math.inf


def _frobenius(s: float, cols, ups: float, x: float):
    """[(F, F', F_E, F'_E, err)] at x from a table, with L's after F's at
    kappa = 0; err bounds |dF| (|dL|) from truncation and rounding."""
    pw = (ups * x) ** s
    p, p1, pe, pe1, err = _sums(cols[0], cols[1], x * x)
    f = (pw * p, pw * (s * p + 2.0 * p1) / x, pw * pe, pw * (s * pe + 2.0 * pe1) / x, pw * err)
    if len(cols) == 2:
        return (f,)
    # L = F ln(ups x) + (ups x)^(1/2) sum_k b_k x^(2k)
    q, q1, qe, qe1, err_b = _sums(cols[2], cols[3], x * x)
    ell = math.log(ups * x)
    return f, (
        f[0] * ell + pw * q, f[1] * ell + f[0] / x + pw * (0.5 * q + 2.0 * q1) / x,
        f[2] * ell + pw * qe, f[3] * ell + f[2] / x + pw * (0.5 * qe + 2.0 * qe1) / x,
        f[4] * abs(ell) + pw * err_b,
    )


def _left_start(rp: ReducedParams, ext: Extension, E: float, x_min: float, x_match: float):
    """(x_s, (u, u'), head): the left branch's start (see the module
    docstring) and head = u' u_E - u u'_E there, the [0, x_s) part of the
    integral of u^2."""
    k = rp.kappa
    if ext.is_ladder:
        parts = ((0.5 + k, (1.0,)),)
    elif k > 0.0:
        parts = ((0.5 + k, (math.sin(ext.nu),)), (0.5 - k, (math.cos(ext.nu),)))
    else:
        parts = ((0.5, (math.sin(ext.nu), 2.0 * math.cos(ext.nu))),)
    # the trial starts, up to a step in s = ln x across which u could turn twice
    xs = [x_min]
    for x in (j * _START_STEP * x_match for j in range(1, round(1.0 / _START_STEP) + 1)):
        if x > x_min:
            if math.log(x / xs[-1]) * math.sqrt(max(E * x * x - k * k, 0.0)) >= math.pi:
                break
            xs.append(x)
    tables = [(s, w, _frobenius_table(s, rp.g2, E, xs[-1] * xs[-1], len(w) == 2)) for s, w in parts]
    growth = 2.0 * k if len(parts) == 2 else 0.0  # of the mode an error excites
    for x in xs:
        u = du = u_e = du_e = err = 0.0
        for s, weights, cols in tables:
            for w, f in zip(weights, _frobenius(s, cols, rp.upsilon, x)):
                u, du, u_e, du_e = u + w * f[0], du + w * f[1], u_e + w * f[2], du_e + w * f[3]
                err += abs(w) * f[4]
        if x == x_min:
            if math.isinf(err):
                raise ConvergenceError(f"left boundary series stalled at x = {x:.4g}, E = {E:.4g}")
        elif u * start[1] <= 0.0 or err > _REFINE_STOP[0] * abs(u):
            break  # past a node, or where no later start holds either
        elif err * (x_match / x) ** growth > _REFINE_STOP[0] * abs(u):
            continue
        start = (x, u, du, u_e, du_e)
    x, u, du, u_e, du_e = start
    return x, (u, du), du * u_e - u * du_e


def _right_state(rp: ReducedParams, E: float, x: float, need: float = 0.0):
    """((u, u'), y_E, error) of the solution decaying at infinity at x:
    y_E = d(u'/u)/dE, which makes u^2 y_E the integral of u^2 over
    [x, inf), and error the relative amplitude of the inward-decaying mode
    the data carry.  The data are the W-series, stopped at its smallest
    term or at the first term below need, or WKB where that claims the
    smaller error (see the module docstring)."""
    ups = rp.upsilon
    k = E / (4.0 * ups * ups)
    z = ups * x
    t = z * z
    a, b = 0.5 + 0.5 * rp.kappa - k, 0.5 - 0.5 * rp.kappa - k
    # the terms T_s of sum_s (a)_s (b)_s / s! (-t)^-s, their k-derivatives
    # dT_s, and the sums of T_s, s T_s, dT_s and s dT_s.  While a factor
    # s - 1 + b <= s - 1 + a is negative the terms may grow and shrink
    # again, so the series stops only past it, where |T_s| + |dT_s| falls
    # below need or stops falling (the dT_s go on where a T_s is 0 and the
    # series terminates).  The error adds the rounding of the largest term.
    term, dterm, big = 1.0, 0.0, 1.0
    ser, ser_s, ser_k, ser_sk = 1.0, 0.0, 0.0, 0.0
    for s in range(1, _SERIES_MAX_TERMS + 1):
        ratio = (s - 1 + a) * (s - 1 + b) / (-s * t)
        nxt = term * ratio
        dnxt = dterm * ratio + term * (2 * s - 1 - 2.0 * k) / (s * t)
        size = abs(nxt) + abs(dnxt)
        if s - 1 + b > 0.0 and (size <= need or size >= abs(term) + abs(dterm)):
            break
        term, dterm = nxt, dnxt
        ser += term
        ser_s += s * term
        ser_k += dterm
        ser_sk += s * dterm
        if abs(term) > big:
            big = abs(term)
    err = (size + _DATA_FLOOR * big) / abs(ser)
    # z d(ln u)/dz of u = z^(2k - 1/2) e^(-t/2) ser, and its k-derivative
    dlog = 2.0 * k - 0.5 - t - 2.0 * ser_s / ser
    dlog_k = 2.0 - 2.0 * (ser_sk * ser - ser_s * ser_k) / (ser * ser)
    p = rp.g1 + t * (t - 4.0 * k)  # z^2 q, q = g1/z^2 + z^2 - e
    if err > need and p > 0.0:
        dp, ddp = 2.0 * (t * t - rp.g1), 2.0 * (t * t + 3.0 * rp.g1)  # z^3 q', z^4 q''
        # the next WKB order of u'/u, over the modes' gap 2 sqrt(q)
        err_wkb = abs(5.0 * dp * dp / (64.0 * p) - ddp / 16.0) / (p * p)
        if err_wkb < err:
            ser, err = 1.0, err_wkb
            root = math.sqrt(p)
            dlog = -root - 0.25 * dp / p
            dlog_k = 2.0 * t / root - t * dp / (p * p)
    # the data are scaled to u = ser; their leading-order scale
    # z^(2k - 1/2) e^(-t/2) is only checked, and refused past float64
    ln_chi = (2.0 * k - 0.5) * math.log(z) - 0.5 * t
    if ln_chi > _LN_FLOAT_MAX:
        raise ConvergenceError(
            f"shoot_spectrum: the right boundary data e^{ln_chi:.4g} at E = {E:.6g} "
            "leave the float64 range"
        )
    return (ser, dlog / x * ser), dlog_k / (4.0 * ups * ups * x), err


def _decay_exponent(g1: float, e: float, y: float) -> float:
    """2 int^z sqrt(q) dz, q = g1/z^2 + z^2 - e, at y = z^2 where q >= 0,
    in closed form up to a constant that depends on (g1, e) alone: with
    R = y^2 - e y + g1 it is int sqrt(R) / y dy.  Each logarithm's
    argument is a sum that cancels on one side of a sign change; there it
    is rationalized with a product equal to y^2 (e^2 - 4 g1) or e^2 - 4 g1.
    At a double root of R (e^2 = 4 g1), where those products vanish,
    sqrt(R) = y - e/2 for y >= e/2, and the integral is y - (e/2) ln y."""
    c = g1
    disc = e * e - 4.0 * c
    if disc == 0.0:
        return y - 0.5 * e * math.log(y)
    r = math.sqrt(max(y * y - e * y + c, 0.0))
    s = 2.0 * y - e  # (2r + s)(2r - s) = -disc
    out = r - 0.5 * e * math.log(2.0 * r + s if s >= 0.0 else -disc / (2.0 * r - s))
    if c > 0.0:
        rc, d = 2.0 * math.sqrt(c) * r, 2.0 * c - e * y  # |rc + d| |rc - d| = y^2 |disc|
        out -= math.sqrt(c) * math.log((rc + d) / y if d >= 0.0 else y * abs(disc) / (rc - d))
    elif c < 0.0:
        arg = (2.0 * c - e * y) / (y * math.sqrt(disc))
        out -= math.sqrt(-c) * math.asin(max(-1.0, min(1.0, arg)))
    return out


def _right_start(rp: ReducedParams, E: float, x_match: float):
    """(x_s, (u, u'), y_E): the right branch's start, the first of x_lo + j
    _START_STEP / ups (j = 1, 2, ...) whose data leak at most _START_LEAK
    into the match point.  x_lo is the match point or the outer turning
    point, whichever lies farther out."""
    ups = rp.upsilon
    e = E / (ups * ups)
    disc = e * e - 4.0 * rp.g1
    y_turn = 0.5 * (e + math.sqrt(disc)) if disc >= 0.0 else 0.0
    z_lo = max(math.sqrt(max(y_turn, 0.0)), ups * x_match)
    z = z_lo + _START_STEP
    base = _decay_exponent(rp.g1, e, z_lo * z_lo)
    # the loop ends: past x_lo, need grows like exp(2 int sqrt(q)) (clipped
    # at e^700) while the data's error falls
    while True:
        need = _START_LEAK * math.exp(min(_decay_exponent(rp.g1, e, z * z) - base, 700.0))
        if need >= _DATA_FLOOR:  # no data are better than their rounding
            state, y_e, err = _right_state(rp, E, z / ups, need)
            if err <= need:
                return z / ups, state, y_e
        z += _START_STEP


# ---------------------------------------------------------------------------
# matching angle and root hunt


def _window(rp: ReducedParams, e_lo: float) -> tuple[float, float]:
    """(x_min, x_match) below a scan floor e_lo (scaled): under _DEEP_FLOOR
    the match point lies four decay lengths 1/sqrt(-e_lo) of the deepest
    ground state in reach from the origin (see the module docstring)."""
    if e_lo < _DEEP_FLOOR:
        return _X_MIN / rp.upsilon, 4.0 / (rp.upsilon * math.sqrt(-e_lo))
    return _X_MIN / rp.upsilon, _X_MATCH / rp.upsilon


def _theta(
    rp: ReducedParams, ext: Extension, E: float, window: tuple[float, float], tol: float
) -> tuple[float, float, float]:
    """Matching angle pi (Z_L + Z_R) + phi_L - phi_R of the two solutions
    integrated at tol to the match point of window = (x_min, x_match), its
    derivative in E, and phi_L; level n is the root at n pi."""
    x_min, x_match = window
    x_l, (u0, v0), head = _left_start(rp, ext, E, x_min, x_match)
    left = integrate(rp.g1, rp.g2, E, x_l, (u0, v0), x_match, rel_tol=tol)
    x_s, start, y_e = _right_start(rp, E, x_match)
    right = integrate(rp.g1, rp.g2, E, x_s, start, x_match, rel_tol=tol)
    ul, vl = left.y
    ur, vr = right.y
    # a node in (0, x_l) puts u(x_l) against the leading term at 0+
    lead = -1.0 if not ext.is_ladder and rp.kappa == 0.0 else 1.0
    z_left = left.sign_changes + (lead * u0 < 0.0)
    phi_left = math.atan2(ul, vl) % math.pi
    theta = math.pi * (z_left + right.sign_changes) + phi_left - math.atan2(ur, vr) % math.pi
    # head, the [0, x_l) part of the integral of u^2, in the units of the
    # left branch's end state
    head *= math.exp(-2.0 * left.log_scale)
    r2_left, r2_right = ul * ul + vl * vl, ur * ur + vr * vr
    if r2_left == 0.0 or r2_right == 0.0:
        # at large kappa the Frobenius power (ups x_min)^s underflows
        side = "left" if r2_left == 0.0 else "right"
        raise ConvergenceError(
            f"shoot_spectrum: the {side} solution at E = {E:.6g} leaves the float64 range"
        )
    # the [x_s, inf) part of the right integral, u^2 d(u'/u)/dE at x_s (as
    # u and u_E decay there), in the units of the right branch's end state
    tail = y_e * (start[0] * math.exp(-right.log_scale)) ** 2
    slope = (left.u2_integral + head) / r2_left + (right.u2_integral + tail) / r2_right
    return theta, slope, phi_left


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


def shoot_spectrum(rp: ReducedParams, ext: Extension, n_max: int) -> OracleSpectrum:
    """First n_max eigenvalues by double shooting, ascending, with each
    level's L2-normalized state at the match point."""
    if n_max < 1:
        raise DomainError(f"shoot_spectrum: n_max must be >= 1, got {n_max}")
    if ext.label is ExtensionLabel.NU:
        if ext.nu is None or not (-0.5 * math.pi < ext.nu < 0.5 * math.pi):
            raise DomainError(f"shoot_spectrum: interior nu required, got {ext.nu!r}")
        if rp.kappa >= 1.0:
            raise DomainError("shoot_spectrum: nu extensions exist only for kappa < 1")
    ups2 = rp.energy_scale()
    e_lo = _scan_floor(rp, ext)
    window = _window(rp, e_lo)

    known: list[tuple[float, float, float]] = []  # every (E, Theta, dTheta/dE) evaluated
    phi_left: dict[float, float] = {}  # the left angle of every refinement evaluation

    def theta(E: float) -> tuple[float, float]:
        t, slope, _ = _theta(rp, ext, E, window, _SCAN_TOL)
        known.append((E, t, slope))
        return t, slope

    def fine(E: float) -> tuple[float, float]:
        t, slope, phi_left[E] = _theta(rp, ext, E, window, _REFINE_TOL)
        return t, slope

    theta(e_lo * ups2)
    if e_lo < _DEEP_FLOOR:  # a start next to the cliff
        theta(_ground_estimate(rp, ext) * ups2)
    roots: list[float] = []
    resids: list[float] = []
    states: list[tuple[float, float]] = []
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
        # the refinement's steps without a bracket reach as far as the scan's
        # last bracket is wide
        reach = (min(p for p in known if p[1] > target)[0]
                 - max(p for p in known if p[1] <= target)[0])
        root, miss, slope = _solve(fine, target, E, *fine(E), None, None, *_REFINE_STOP, reach)
        roots.append(root)
        resids.append(abs(math.sin(miss)))
        # the solve ends on an evaluated energy; dTheta/dE there is the
        # integral of u^2 for r = 1 at the match point
        norm = math.sqrt(slope)
        states.append((math.sin(phi_left[root]) / norm, math.cos(phi_left[root]) / norm))

    return OracleSpectrum(tuple(roots), tuple(resids), tuple(states), window[1])


def _solve(
    theta, target, E, t, slope, lo, hi, tol, width, reach=math.inf
) -> tuple[float, float, float]:
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
    twice the Newton step, cut to at most reach from E; each cut doubles
    reach.
    Ends at |theta - target| <= tol, a bracket of width * (1 + |E|), or a
    Newton step below one ulp of E.
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
        if x == E:  # the Newton step is below one ulp of E
            return E, f, slope
        newton = halved and a < x < b
        if math.isinf(b - a):
            if not newton:
                x = 2.0 * x - E
            if abs(x - E) > reach:
                x = E + math.copysign(reach, x - E)
                reach *= 2.0
        elif not newton:
            if stalls >= 2 or la is None or lb is None or la == lb:
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
# sampled functions


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


def sample_on_grid(fn, grid) -> OracleEigenfunction:
    """Sample u(x) on a grid and L2-normalize it on the grid (composite
    Simpson).  fn is a callable, or an object with `values_on(xs)` (a
    `GroundState`, an `EvaluableSolution`), which then gives the whole
    grid at once: the analytic states take their Psi from one inward
    sweep of Kummer's equation, two Psi calls per grid, not one per point."""
    xs = [float(x) for x in grid]
    if hasattr(fn, "values_on"):
        vals = [float(v) for v in fn.values_on(xs)]
    else:
        vals = [float(fn(x)) for x in xs]
    norm2 = _simpson([v * v for v in vals], xs)
    if not math.isfinite(norm2) or norm2 <= 0.0:
        raise DomainError(f"sample_on_grid: bad norm^2 = {norm2!r}")
    scale = 1.0 / math.sqrt(norm2)
    vals = [v * scale for v in vals]
    return OracleEigenfunction(tuple(xs), tuple(vals))
