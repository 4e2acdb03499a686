"""Shooting-method eigenvalue oracle, numerically independent of the
gamma-function spectral equations.

The dilation z = ups x (ups = g2^(1/4)) maps H(g1, g2) onto ups^2 H(g1, 1),
so the oracle solves -u'' + (g1/z^2 + z^2 - e) u = 0, e = E / ups^2, and
converts once, on return: E = ups^2 e, x_match = z_match / ups, and each
level's pair (u, u') there is (sqrt(ups) u, ups^(3/2) u'), int u^2 dx = 1.
Everything below is in z and e.  The problem is propagated, with its
e-derivative u_e, by the package's own Taylor-series steps (`taylor`) from
both ends toward an interior match point.  Left data comes from the
Frobenius series fixed by the extension angle nu, right data from the
asymptotics of the solution that decays at infinity; e is an eigenvalue
exactly when the two solutions are proportional, i.e. their Wronskian at
the match point vanishes.

Left boundary data.  With s_pm = 1/2 +- kappa, the two Frobenius
solutions are F_s = z^s sum_k a_k z^{2k},

    a_0 = 1,   a_k = (-e a_{k-1} + a_{k-2}) / (2k (2s + 2k - 1)),

and the extension nu selects  sin(nu) F_{s+} + cos(nu) F_{s-}  (for
kappa >= 1 or Friedrichs, pure F_{s+}).  At kappa = 0 the exponents
collide and the second solution grows a logarithm,

    L = F_{1/2} ln z + z^{1/2} sum_k b_k z^{2k},
    b_0 = 0,   b_k = (-4k a_k - e b_{k-1} + b_{k-2}) / (4 k^2),

with the combination  sin(nu) F_{1/2} + 2 cos(nu) L  carrying boundary
angle nu.  Each series loop also carries the coefficients' e-derivatives,

    da_k/de = (-a_{k-1} - e da_{k-1}/de + da_{k-2}/de) / (2k (2s + 2k - 1))

(db_k/de likewise), so the table depends on e alone and one table per
Theta serves every trial start.

Left start.  A sum carries the first term it leaves out plus its
rounding, eps times its largest term; over |u| that is the data's error.
It excites the other Frobenius mode, which grows against a combination
holding F- like (z_match/z)^(2 kappa) on the way to the match point
(against pure F+, a ladder, it decays).  The left branch starts at z_s,
the largest of z_min and j z_match / 4 (j = 1..4) where the error times
that growth is at most 1e-13, the refinement's stop on Theta (the right
branch's 1e-17 lies below the series' own rounding).  The trial points are
scanned outward from z_min, the floor, which is taken whatever its data
claim; the scan stops at the first sign change of u, at the first point
whose error alone exceeds the bound, and before a step in s = ln z across
which u could turn twice: with u = sqrt(z) phi(s), phi'' = (kappa^2 + z^4
- e z^2) phi, so two nodes need ln(z_b/z_a) sqrt(e z_b^2 - kappa^2) >= pi
(Sturm).  No node of u then lies between z_min and z_s.

Right boundary data.  With t = z^2 and k = e/4 the solution decaying at
infinity is z^(-1/2) W_{k,kappa/2}(t), whose asymptotic series
(DLMF 13.19.3) gives

    u = z^(2k - 1/2) e^(-t/2) sum_s T_s,   T_s = (a)_s (b)_s / s! (-t)^-s,

a, b = 1/2 +- kappa/2 - k.  While s - 1 + b < 0 its terms may grow and
shrink again (the series terminates at a ladder level, where a is a
non-positive integer); past that it is summed up to its smallest term,
or to the first term below the error the start allows.  The first term
left out (with its e-derivative, which the slope below uses) is the
error the series claims.  Where it is not small -- deep ground states and
large kappa, for which the series diverges from its first term -- WKB
data serve instead,

    u'/u = -sqrt(q) - q'/(4q),   q = g1/z^2 + z^2 - e,

whose next order, over the modes' gap 2 sqrt(q), is the error they claim.
An error in either excites the mode that grows at infinity, which the
inward integration suppresses, relative to the wanted one, by
exp(-2 int sqrt(q) dz) from the start down to z_lo, the outer turning
point or the match point, whichever lies farther out; in t that integral
is int sqrt(t^2 - e t + g1) / t dt, in closed form (logarithms and, for
g1 < 0, an arcsine).  The right branch starts at the first
z_s = z_lo + j / 4, j >= 1, where the error times the suppression
is at most 1e-17 (no data claim less than 1e-15, their rounding).  Starts
lie past the turning point, so q > 0 on [z_s, inf) and the branch has no
sign change to miss.  Data are scaled to u = sum T_s (or 1):
the scale z^(2k - 1/2) e^(-t/2) is only checked, and refused past the
float64 range.

Matching angle and level count.  Write each solution in Pruefer form,
u = r sin(theta), u' = r cos(theta), and let phi = atan2(u, u') mod pi be
its angle at the match point.  The propagator counts the strict sign
changes Z of u along each branch, exactly, since no step holds two zeros
(Sturm), so

    Theta(e) = pi (Z_L + Z_R) + phi_L - phi_R

is the continuous angle of the left solution minus that of the right
one.  Z_L also counts one node in (0, z_s) where u(z_s) has the sign
opposite to the boundary combination's leading term at 0+ (2 cos nu L < 0
for nu at kappa = 0, cos nu F- or F+ > 0 otherwise): next to kappa = 1,
F-'s first coefficient -e / (4 (1 - kappa)) drives a node out through
z_min as e rises (from e ~ 1 at kappa = 0.9999).  The sign gives only
the parity of the nodes below z_s, none of which lies past z_min (Left
start); while there is at most one below z_min, Theta
increases strictly with e (the left angle rises, the right one falls), it
lies in (-pi, 0) below the ground state, and level n is the root of
Theta(e) = n pi: floor(Theta / pi) + 1 levels lie below e, so no level
can be missed or found twice.

Derivative.  Differentiating -u'' + q u = 0 in e (dq/de = -1) gives the
Lagrange identity W' = u^2 for W = u_e u' - u u'_e, and
dphi/de = W / r^2 with r^2 = u^2 + u'^2, so

    dTheta/de = W_L / r_L^2 - W_R / r_R^2

at the match point, with W_L = int_0^{z_match} u_L^2 dz and W_R =
-int_{z_match}^inf u_R^2 dz.  The propagator carries (u_e, u'_e) along
each branch next to (u, u'), so W comes out of the last step with no
quadrature.  The start data set W's initial value: at the left start z_s
it is head = u' u_e - u u'_e from the series and their own e-derivative,
the exact [0, z_s) part of the integral (all of it where z_s is the match
point), carried by u_e data (u', -u) head / r^2; at the right start,
-u^2 d(u'/u)/de (u and u_e decay), the [z_s, inf) part, carried by
u_e = 0, u'_e = u d(u'/u)/de from the e-derivative of the data's own
terms.  W_L >= 0 >= W_R, and the slope adds their magnitudes, which keeps
it positive where only rounding is left of W_R (on a float-precision step
of Theta at large kappa).

Deep ground states.  A ground state far below its rung decays like
exp(-sqrt(-e) z) from the origin, so at the default match point z = 1
the left solution is a float-precision mix of the decaying and growing
modes and Theta is a step.  Where the scan floor (below) lies under -16,
the match point moves, once per call and for every level, to four decay
lengths of the floor, z = 4 / sqrt(-e_floor); at -16 that is 1.  Theta
is still a cliff there: it sits at -pi + b below the root and at +b above
it, b a few hundredths, and rises by pi within about 0.5 of the root at
e = -349.  Near the origin such a state sees only g1/z^2, so it is
sqrt(z) K_kappa(sqrt(-e) z); matching the small-z form of K_kappa to the
boundary combination gives the estimate

    e0 = -4 (-tan(nu) Gamma(1+kappa) / Gamma(1-kappa))^(1/kappa),   kappa > 0,
    e0 = -4 exp(tan(nu) - 2 gamma),                                kappa = 0,

3e-6 off at e0 = -350 and 1 % at -8 for kappa >= 0.4, 12 % at kappa = 0,
e0 = -2.  The scan floor is the same asymptotics with a margin:
ln(1 - tan nu) for ln(-tan nu), resp. tan nu + 2 gamma, and 8 more.

Root hunt.  Each level is bracketed between evaluated energies on either
side of n pi -- the floor below the ground state, the rung
2 (2n+1+kappa) + 0.2 that every level n sits below, and the points of
earlier solves -- and started from the end nearest to n pi.  Before the
rung two probes start each level near its root: a deep ground state's
estimate e0 above, and for level n >= 1 one ladder spacing above the last
level, e_{n-1} + 4, which lies below the rung (for nu it is skipped where
it does not clear the pole 2 (2n-1+kappa) that level n lies above).  The
solve is a safeguarded Newton iteration on Theta.  Newton's step from a
shoulder of a cliff overshoots, so where it leaves the bracket or stalls
the step is a secant on the lever

    L(e) = sin(Theta - n pi) / sqrt(dTheta/de),

which is linear in e wherever tan(Theta) is a Moebius function of e:
tan(Theta) = (alpha e + beta) / (gamma e + delta) gives dTheta/de =
(alpha delta - beta gamma) / R^2 and sin(Theta) = +-(alpha e + beta) / R.
Across the cliff at e = -349, L's slope stays within 5 % over
[-352.1, -346.7] while Theta rises by 3.1.  The secant runs through the
bracket's ends, halving the L of an end kept on two steps in a row
(Illinois); where an end lies pi or more from n pi, past which sin has
lost the sign of Theta - n pi, the step bisects instead.  Two steps that
fail to halve |Theta - n pi|, with no Newton step between them that did,
turn the rest into bisection.  The scan tolerance needs
only |Theta - n pi| <= 1e-4: the refinement starts from the Newton step
off the scan's last point and runs the same iteration on Theta
propagated at the refinement tolerance, with twice the Newton step while
it has no bracket; regular levels take two evaluations there.  A step
without a bracket goes no farther than the scan's last bracket is wide,
doubling that reach each time it cuts one: at large kappa Theta is a
float-precision step whose slope throws Newton's step thousands off (to
e = -39 144 at kappa = 141).  A scan that narrows such a step to the
refinement's bracket width, 1e-11 (1 + |e|), leaves the refinement
two evaluations.  A Newton step below one ulp of e also ends a solve (at
large kappa the last |Theta - n pi| can stay above 1e-13 there); a solve
that runs out of steps raises ConvergenceError.

The residual returned is |sin(Theta - n pi)| at the returned energy:
sin(phi_L - phi_R) is the Wronskian at the match point normalized by the
solution magnitudes, which also cancels the propagator's renormalization
factors, so it vanishes exactly at the eigenvalues.

State at the match point.  A solution at e is fixed by (u, u') at one
point.  At an eigenvalue the two branches, each scaled to r = 1 at the
match point, are one solution up to sign, and by the Lagrange identity
above the two parts of dTheta/de add up to its exact int_0^inf u^2
dz.  The L2-normalized level at the match point is therefore

    (u, u') = (sin phi_L, cos phi_L) / sqrt(dTheta/de),

phi_L in [0, pi), which signs it u >= 0 there (the ground state's sign).
The pair comes from the refinement's last evaluation, the one whose
energy is returned, at no extra integration.

Window.  Nothing configures it: z_min = 0.02, and z_match = 1 or four
decay lengths of a deep scan floor (above), once per call.  Each branch
starts where its own data hold (above), the left one no deeper than
z_min, the right one past each level's turning point sqrt(e_n).  A branch
that leaves the float64 range raises ConvergenceError (the right data's
scale overflows, or at large kappa the left power z_min^(1/2 + kappa)
underflows to zero), as does a level whose e ups^2 leaves it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .params import Extension, ExtensionLabel, ReducedParams
from .taylor import integrate

__all__ = [
    "OracleEigenfunction",
    "OracleSpectrum",
    "shoot_spectrum",
    "sample_on_grid",
]

_EULER_GAMMA = 0.5772156649015328606

# the left branch's deepest start and the match point, in z
_X_MIN = 0.02
_X_MATCH = 1.0

# truncation tolerances of the Taylor steps while bracketing and while
# refining; the refinement's is below float64 rounding, so each step's
# series runs until its terms no longer move the sum.  The scan's own
# tolerance pays: one bracketed 1e-16 solve per level cut `cross-check`
# goodput 4.3 % and `verify` 8.6 % (10 alternating pairs, 2-core VM)
_SCAN_TOL = 1e-10
_REFINE_TOL = 1e-16
# |theta - n pi| and bracket width (relative to 1 + |e|) that end the
# solve at each truncation tolerance; the refinement starts from the scan's
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
# the trial starts of a branch lie this far apart: in z past the right
# one's z_lo, in units of z_match below the match point for the left one
_START_STEP = 0.25
_DATA_FLOOR = 1e-15  # rounding of the right data, relative to their largest term
_LN_FLOAT_MAX = math.log(sys.float_info.max)
_SERIES_MAX_TERMS = 60  # series terms in the boundary data at either end


@dataclass(frozen=True)
class OracleEigenfunction:
    grid: tuple[float, ...]
    values: tuple[float, ...]


@dataclass(frozen=True)
class OracleSpectrum:
    energies: tuple[float, ...]
    mismatch_residuals: tuple[float, ...]
    # (u, u') of each L2-normalized level at x_match, signed so that u >= 0
    match_states: tuple[tuple[float, float], ...]
    x_match: float  # the match point used, a deep ground state's included


# ---------------------------------------------------------------------------
# boundary data


def _frobenius_table(s: float, e: float, y_top: float, log: bool):
    """Columns (a_k, da_k/de) of F_s, at kappa = 0 (log) with (b_k, db_k/de)
    of L, from one recurrence loop: up to the first k >= 4 whose terms at
    y_top = z^2, and those of k - 1, lie below the rounding of their
    largest (near e = 0 the odd a_k alone vanish), or _SERIES_MAX_TERMS."""
    eps = sys.float_info.epsilon
    a, da, b, db = [1.0], [0.0], [0.0], [0.0]
    a1, a2, da1, da2, b1, b2, db1, db2 = 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
    big_a, big_b, yk, was_small = 1.0, 0.0, 1.0, False
    for k in range(1, _SERIES_MAX_TERMS + 1):
        den = 2.0 * k * (2.0 * s + 2.0 * k - 1.0)  # 4 k^2 at s = 1/2
        a1, a2 = (-e * a1 + a2) / den, a1
        da1, da2 = (-a2 - e * da1 + da2) / den, da1
        a.append(a1)
        da.append(da1)
        yk *= y_top
        t_a = abs(a1) * yk
        big_a = max(big_a, t_a)
        small = k >= 3 and t_a <= eps * big_a
        if log:
            b1, b2 = (-4.0 * k * a1 - e * b1 + b2) / den, b1
            db1, db2 = (-4.0 * k * da1 - b2 - e * db1 + db2) / den, db1
            b.append(b1)
            db.append(db1)
            t_b = abs(b1) * yk
            big_b = max(big_b, t_b)
            small = small and t_b <= eps * big_b
        if small and was_small:
            break
        was_small = small
    return (a, da, b, db) if log else (a, da)


def _sums(c, dc, y: float):
    """(S, S1, SE, SE1, err) with S = sum_k c_k y^k, S1 = sum_k k c_k y^k and
    SE, SE1 the same of dc, up to the first term (k >= 4) that follows
    another below the rounding of the largest; err is that term plus the
    rounding, or inf where the columns run out first."""
    eps = sys.float_info.epsilon
    s = s1 = se = se1 = big = prev = 0.0
    yk = 1.0
    for k in range(len(c)):
        t, te = c[k] * yk, dc[k] * yk
        m = t if t >= 0.0 else -t
        if k >= 4 and m <= eps * big and prev <= eps * big:
            return s, s1, se, se1, m + eps * big
        prev = m
        if m > big:
            big = m
        s += t
        s1 += k * t
        se += te
        se1 += k * te
        yk *= y
    return s, s1, se, se1, math.inf


def _frobenius(s: float, cols, z: float):
    """[(F, F', F_e, F'_e, err)] at z from a table, with L's after F's at
    kappa = 0; err bounds |dF| (|dL|) from truncation and rounding."""
    pw = z ** s
    p, p1, pe, pe1, err = _sums(cols[0], cols[1], z * z)
    f = (pw * p, pw * (s * p + 2.0 * p1) / z, pw * pe, pw * (s * pe + 2.0 * pe1) / z, pw * err)
    if len(cols) == 2:
        return (f,)
    # L = F ln z + z^(1/2) sum_k b_k z^(2k)
    q, q1, qe, qe1, err_b = _sums(cols[2], cols[3], z * z)
    ell = math.log(z)
    return f, (
        f[0] * ell + pw * q, f[1] * ell + f[0] / z + pw * (0.5 * q + 2.0 * q1) / z,
        f[2] * ell + pw * qe, f[3] * ell + f[2] / z + pw * (0.5 * qe + 2.0 * qe1) / z,
        f[4] * abs(ell) + pw * err_b,
    )


def _left_start(rp: ReducedParams, ext: Extension, e: float, z_min: float, z_match: float):
    """(z_s, (u, u'), head): the left branch's start (see the module
    docstring) and head = u' u_e - u u'_e there, the [0, z_s) part of the
    integral of u^2."""
    k = rp.kappa
    if ext.is_ladder:
        parts = ((0.5 + k, (1.0,)),)
    elif k > 0.0:
        parts = ((0.5 + k, (math.sin(ext.nu),)), (0.5 - k, (math.cos(ext.nu),)))
    else:
        parts = ((0.5, (math.sin(ext.nu), 2.0 * math.cos(ext.nu))),)
    # the trial starts, up to a step in s = ln z across which u could turn twice
    zs = [z_min]
    for z in (j * _START_STEP * z_match for j in range(1, round(1.0 / _START_STEP) + 1)):
        if z > z_min:
            if math.log(z / zs[-1]) * math.sqrt(max(e * z * z - k * k, 0.0)) >= math.pi:
                break
            zs.append(z)
    tables = [(s, w, _frobenius_table(s, e, zs[-1] * zs[-1], len(w) == 2)) for s, w in parts]
    growth = 2.0 * k if len(parts) == 2 else 0.0  # of the mode an error excites
    for z in zs:
        u = du = u_e = du_e = err = 0.0
        for s, weights, cols in tables:
            for w, f in zip(weights, _frobenius(s, cols, z)):
                u, du, u_e, du_e = u + w * f[0], du + w * f[1], u_e + w * f[2], du_e + w * f[3]
                err += abs(w) * f[4]
        if z == z_min:
            if math.isinf(err):
                raise ConvergenceError(f"left boundary series stalled at z = {z:.4g}, e = {e:.4g}")
        elif u * start[1] <= 0.0 or err > _REFINE_STOP[0] * abs(u):
            break  # past a node, or where no later start holds either
        elif err * (z_match / z) ** growth > _REFINE_STOP[0] * abs(u):
            continue
        start = (z, u, du, u_e, du_e)
    z, u, du, u_e, du_e = start
    return z, (u, du), du * u_e - u * du_e


def _right_state(rp: ReducedParams, e: float, z: float, need: float = 0.0):
    """((u, u'), y_e, error) of the solution decaying at infinity at z:
    y_e = d(u'/u)/de, which makes u^2 y_e the integral of u^2 over
    [z, inf), and error the relative amplitude of the inward-decaying mode
    the data carry.  The data are the W-series, stopped at its smallest
    term or at the first term below need, or WKB where that claims the
    smaller error (see the module docstring)."""
    k = e / 4.0
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
            f"shoot_spectrum: the right boundary data e^{ln_chi:.4g} at e = {e:.6g} "
            "leave the float64 range"
        )
    if not all(map(math.isfinite, (ser, dlog, dlog_k, err))):
        raise ConvergenceError(f"shoot_spectrum: the right boundary data at e = {e:.6g} are not finite")
    return (ser, dlog / z * ser), dlog_k / (4.0 * z), err


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


def _right_start(rp: ReducedParams, e: float, z_match: float):
    """(z_s, (u, u'), y_e): the right branch's start, the first of z_lo + j
    _START_STEP (j = 1, 2, ...) whose data leak at most _START_LEAK into
    the match point.  z_lo is the match point or the outer turning point,
    whichever lies farther out."""
    disc = e * e - 4.0 * rp.g1
    y_turn = 0.5 * (e + math.sqrt(disc)) if disc >= 0.0 else 0.0
    z_lo = max(math.sqrt(max(y_turn, 0.0)), z_match)
    z = z_lo + _START_STEP
    base = _decay_exponent(rp.g1, e, z_lo * z_lo)
    # past z_lo, need grows like exp(2 int sqrt(q)) while the data's error
    # falls; past need's clip, e^700, or where z stops moving, none holds
    while True:
        gain = _decay_exponent(rp.g1, e, z * z) - base
        need = _START_LEAK * math.exp(min(gain, 700.0))
        if need >= _DATA_FLOOR:  # no data are better than their rounding
            state, y_e, err = _right_state(rp, e, z, need)
            if err <= need:
                return z, state, y_e
        if not gain < 700.0 or z + _START_STEP == z:
            raise ConvergenceError(f"shoot_spectrum: no right boundary data at e = {e:.6g} hold")
        z += _START_STEP


# ---------------------------------------------------------------------------
# matching angle and root hunt


def _window(e_lo: float) -> tuple[float, float]:
    """(z_min, z_match) below a scan floor e_lo: under _DEEP_FLOOR the
    match point lies four decay lengths 1/sqrt(-e_lo) of the deepest ground
    state in reach from the origin (see the module docstring)."""
    return _X_MIN, (4.0 / math.sqrt(-e_lo) if e_lo < _DEEP_FLOOR else _X_MATCH)


def _theta(
    rp: ReducedParams, ext: Extension, e: float, window: tuple[float, float], tol: float
) -> tuple[float, float, float]:
    """Matching angle pi (Z_L + Z_R) + phi_L - phi_R of the two solutions
    carried at truncation tolerance tol to the match point of window =
    (z_min, z_match), its derivative in e, and phi_L; level n is the root
    at n pi."""
    z_min, z_match = window
    z_l, (u0, v0), head = _left_start(rp, ext, e, z_min, z_match)
    big = max(abs(u0), abs(v0))
    if big == 0.0:
        # at large kappa the Frobenius power z_min^s underflows
        raise ConvergenceError(f"shoot_spectrum: the left solution at e = {e:.6g} leaves the float64 range")
    # u_e data whose W = u_e u' - u u'_e is head: (v0, -u0) head / r0^2,
    # with r0^2 = u0^2 + v0^2 formed from the scaled pair so it cannot underflow
    a, b = u0 / big, v0 / big
    w0 = head / ((a * a + b * b) * big)
    left = integrate(rp.g1, 1.0, e, z_l, (u0, v0), (w0 * b, -w0 * a), z_match, tol)
    # the right data have u_e = 0 and u'_e = u y_e, so W = -u^2 y_e there:
    # minus the integral of u^2 over [z_s, inf)
    z_s, start, y_e = _right_start(rp, e, z_match)
    right = integrate(rp.g1, 1.0, e, z_s, start, (0.0, start[0] * y_e), z_match, tol)
    ul, vl = left.y
    ur, vr = right.y
    # a node in (0, z_l) puts u(z_l) against the leading term at 0+
    lead = -1.0 if not ext.is_ladder and rp.kappa == 0.0 else 1.0
    z_left = left.sign_changes + (lead * u0 < 0.0)
    phi_left = math.atan2(ul, vl) % math.pi
    theta = math.pi * (z_left + right.sign_changes) + phi_left - math.atan2(ur, vr) % math.pi
    r2_left, r2_right = ul * ul + vl * vl, ur * ur + vr * vr
    if r2_left == 0.0 or r2_right == 0.0:
        side = "left" if r2_left == 0.0 else "right"
        raise ConvergenceError(f"shoot_spectrum: the {side} solution at e = {e:.6g} leaves the float64 range")
    # W' = u^2 along each branch (Lagrange), so W_L = int_0^z_match u_L^2
    # >= 0 and W_R = -int_z_match^inf u_R^2 <= 0, each in its branch's
    # units; their magnitudes keep the slope positive where rounding alone
    # is left of W_R (on a float-precision step of Theta at large kappa)
    w_left = left.ye[0] * vl - ul * left.ye[1]
    w_right = right.ye[0] * vr - ur * right.ye[1]
    slope = abs(w_left) / r2_left + abs(w_right) / r2_right
    if not (math.isfinite(theta) and math.isfinite(slope)):  # a NaN no bracket may compare
        raise ConvergenceError(f"shoot_spectrum: the matching angle at e = {e:.6g} is not finite")
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
    e_lo = _scan_floor(rp, ext)
    window = _window(e_lo)

    known: list[tuple[float, float, float]] = []  # every (e, Theta, dTheta/de) evaluated
    phi_left: dict[float, float] = {}  # the left angle of every refinement evaluation

    def theta(e: float) -> tuple[float, float]:
        t, slope, _ = _theta(rp, ext, e, window, _SCAN_TOL)
        known.append((e, t, slope))
        return t, slope

    def fine(e: float) -> tuple[float, float]:
        t, slope, phi_left[e] = _theta(rp, ext, e, window, _REFINE_TOL)
        return t, slope

    theta(e_lo)
    if e_lo < _DEEP_FLOOR:  # a start next to the cliff
        theta(_ground_estimate(rp, ext))
    roots: list[float] = []
    resids: list[float] = []
    states: list[tuple[float, float]] = []
    for n in range(n_max):
        target = n * math.pi
        if n and all(t <= target for _, t, _ in known):
            # one ladder spacing above the last level, below the rung; for nu
            # only where it clears the pole 2(2n-1+kappa) below level n
            probe = roots[-1] + 4.0
            if ext.is_ladder or probe > 2.0 * (2 * n - 1 + rp.kappa):
                theta(probe)
        if all(t <= target for _, t, _ in known):
            # every level sits below its rung 2(2n+1+kappa), the ladders on it
            e_top = 2.0 * (2 * n + 1 + rp.kappa) + 0.2
            if theta(e_top)[0] <= target:
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
        e, miss, slope = _solve(theta, target, *start, lo, hi, *_SCAN_STOP)
        if abs(miss) <= _SCAN_STOP[0]:  # not stopped by the bracket width
            e -= miss / slope
        # the refinement's steps without a bracket reach as far as the scan's
        # last bracket is wide
        reach = (min(p for p in known if p[1] > target)[0]
                 - max(p for p in known if p[1] <= target)[0])
        root, miss, slope = _solve(fine, target, e, *fine(e), None, None, *_REFINE_STOP, reach)
        roots.append(root)
        resids.append(abs(math.sin(miss)))
        # the solve ends on an evaluated energy; dTheta/de there is the
        # integral of u^2 for r = 1 at the match point
        norm = math.sqrt(slope)
        states.append((math.sin(phi_left[root]) / norm, math.cos(phi_left[root]) / norm))

    # the one conversion to physical units (module docstring)
    ups, unit = rp.upsilon, rp.energy_scale()
    energies = tuple(e * unit for e in roots)
    if not all(map(math.isfinite, energies)):
        raise ConvergenceError(f"shoot_spectrum: a level e ups^2 leaves float64 (ups^2 = {unit:.3g})")
    root_ups = math.sqrt(ups)
    states = [(root_ups * u, ups * root_ups * du) for u, du in states]
    return OracleSpectrum(energies, tuple(resids), tuple(states), window[1] / ups)


def _solve(
    theta, target, e, t, slope, lo, hi, tol, width, reach=math.inf
) -> tuple[float, float, float]:
    """Root of theta(e) = target by a safeguarded Newton iteration, from e
    where theta = t with derivative slope; returns e, theta - target and
    the slope of the last evaluation.

    lo and hi are (e, theta, slope) with theta(lo) <= target < theta(hi),
    or None while that side is unknown.  Each step is Newton's from the
    latest point while the last step halved |theta - target| and the Newton
    point lies inside the bracket.  Otherwise it is a secant step through
    the bracket's ends on the lever L = sin(theta - target) / sqrt(slope)
    (module docstring), halving the L of an end kept on two steps in a row
    (Illinois); it is bisection where an end lies pi or more from the
    target, and once two steps have failed to halve |theta - target| since
    the last Newton step that did.  While one side is still unknown, it is
    twice the Newton step, cut to at most reach from e; each cut doubles
    reach.
    Ends at |theta - target| <= tol, a bracket of width * (1 + |e|), or a
    Newton step below one ulp of e.
    """
    a, la = _end(lo, target, -math.inf)
    b, lb = _end(hi, target, math.inf)
    f = t - target
    lever = _lever(f, slope)
    if f > 0.0:
        b, lb = e, lever
    else:
        a, la = e, lever
    side = 0
    stalls = 0
    halved = True
    for _ in range(_SOLVE_MAX_STEPS):
        if abs(f) <= tol or b - a <= width * (1.0 + abs(e)):
            return e, f, slope
        x = e - f / slope
        if x == e:  # the Newton step is below one ulp of e
            return e, f, slope
        newton = halved and a < x < b
        if math.isinf(b - a):
            if not newton:
                x = 2.0 * x - e
            if abs(x - e) > reach:
                x = e + math.copysign(reach, x - e)
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
        e, f = x, t - target
        lever = _lever(f, slope)
        if f > 0.0:
            b, lb = e, lever
            if side == 1 and la is not None:
                la *= 0.5
            side = 1
        else:
            a, la = e, lever
            if side == -1 and lb is not None:
                lb *= 0.5
            side = -1
    raise ConvergenceError(
        f"shoot_spectrum: theta - {target / math.pi:.0f} pi is still {f:.3g} "
        f"at e = {e:.6g}, bracket ({a:.6g}, {b:.6g})"
    )


def _lever(f: float, slope: float) -> float | None:
    """L = sin(f) / sqrt(slope) at theta - target = f, or None where
    |f| >= pi and L no longer carries the sign of f."""
    if abs(f) < math.pi and slope > 0.0:
        return math.sin(f) / math.sqrt(slope)
    return None


def _end(point, target, missing) -> tuple[float, float | None]:
    """(e, L) of a bracket end (e, theta, slope), or (missing, None)."""
    if point is None:
        return missing, None
    return point[0], _lever(point[1] - target, point[2])


# ---------------------------------------------------------------------------
# sampled functions


def sample_on_grid(state, grid) -> OracleEigenfunction:
    """state.values_on(grid) as an OracleEigenfunction: the analytic states
    are normalised in closed form, and nothing here re-normalises them.  Kept
    in this module, under this name, only for the benchmark's `states`
    workload, which imports it.  An object without `values_on` is a
    DomainError, a value that is not finite a ConvergenceError."""
    if not hasattr(state, "values_on"):
        raise DomainError(f"sample_on_grid needs an object with values_on, got {type(state).__name__}")
    vals = tuple(state.values_on(grid))
    if not all(map(math.isfinite, vals)):
        raise ConvergenceError("sample_on_grid: a sampled value is not finite")
    return OracleEigenfunction(tuple(grid), vals)
