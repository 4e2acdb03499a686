"""Self-adjoint extensions and their discrete spectra.

For kappa in [0, 1) the operator has deficiency indices (1,1) and a
one-parameter family of self-adjoint extensions, labelled by an angle
nu in [-pi/2, pi/2] with the endpoints identified; nu = +-pi/2 is the
Friedrichs extension.  For kappa >= 1 the operator is essentially
self-adjoint: one Hamiltonian, no choice to make.

Working in the scaled energy e = E / upsilon^2, everything reduces to
one boundary function F of the shift w = -e/4 of the decaying solution,

    kappa in (0,1):   F(w) = G(1-k) G((1+k)/2 + w) / [G(1+k) G((1-k)/2 + w)]
    kappa = 0:        F(w) = psi(1/2 + w) - 2 psi(1),

and the eigenvalue equations F(-e/4) = -tan(nu) (kappa > 0), resp.
F(-e/4) = tan(nu) (kappa = 0).  F(-e/4) sweeps every real value exactly
once per "gap" between consecutive poles of the numerator (at
e = 2(2n+1+kappa), resp. 2(2n+1)), strictly decreasing in e, so each gap
carries exactly one eigenvalue and a bracketed solver cannot miss it.  At
nu = +-pi/2 the roots sit on the poles themselves and the spectrum is the
exact ladder E_n = 2 upsilon^2 (2n+1+kappa) (also the kappa >= 1
spectrum); at nu=0, kappa > 0, the roots are the zeros
E_n = 2 upsilon^2 (2n+1-kappa) in closed form.

The same F fixes the small-z coefficients (A~, B~) of a representation
solution (see the factorization module), hence its boundary angle
theta(mu, w) and the inverse problem w(mu, nu), used to build the
representation that generates a given extension.  All three go through
`_boundary_F`, the one evaluation of F, with the kappa-only constant and
fault skew that `_boundary_consts` builds once per call.  Every root is
found by the one Brent-Dekker solver `_brent`, started on a sign change
whose two values are known.

Each gap is searched in a variable of its own, measured from a pole,
whose floats F takes as they are: t = alpha + n in [0, 1] on gap n >= 1,
where the reflection formula G(z) G(1-z) = pi / sin(pi z) (DLMF 5.5.3)
leaves sin pi(t-k) / sin pi t (pi cot pi t at kappa = 0) and a slowly
varying factor, and alpha - kappa, from the exact 1 - kappa, on the ground
gap.  So F cannot round onto a pole, and at t = 0, 1 it is its limit from
inside.  Freezing the slowly varying factor inverts F in closed form; the
fixed point of that inversion is the level's estimate (`_level_estimate`),
and F at it and at its neighbour one float toward the root (no finer than a
quarter ulp of e) change sign: that certificate is the root, in two
evaluations.  Otherwise the bracket widens toward the gap's end, the pole
included.  e is formed once, clamped into the open gap (`_energy`).
`solve_w` is the same search on the ground gap, target shifted by tan mu.
"""

from __future__ import annotations

import contextvars
import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConvergenceError, DomainError
from .factorization import EvaluableSolution, RepresentationParams, make_phi
from .params import Extension, ExtensionLabel, ReducedParams, reduce
from .specfun import (
    digamma,
    digamma_shift,
    gamma,
    gammaln_shift,
    gammaln_signed,
    rgamma,
    sinpi,
    trigamma,
)

__all__ = [
    "extension_for",
    "theta_of",
    "solve_w",
    "SpectrumResult",
    "spectrum",
    "ground_state_energy",
    "GroundState",
    "ground_state_wavefunction",
    "gamma_skew",
]

_HALF_PI = 0.5 * math.pi
# ln|e/4| of the deepest ground floor: -4 e^708.39 - 8 = -1.786e308 lies
# just inside float64 (ln(DBL_MAX/4) = 708.396), and a ground state
# estimated below it is refused.  This bounds the scaled e only: `spectrum`
# refuses a root whose E = e upsilon^2 passes float64 (upsilon^2 > ~1.006)
_LN_DEEPEST = 708.39


def extension_for(rp: ReducedParams, nu: float | None = None, friedrichs: bool = False) -> Extension:
    """Normalize user extension input against the coupling region.

    kappa >= 1 always yields the unique extension; a nu given there is
    ignored with a warning.  Below it only |nu| >= pi/2 names Friedrichs
    (the two signs are the same extension; up to 1e-12 past pi/2 is
    admitted).  Every interior nu, however close to +-pi/2, is a family
    member: on one side its levels run into the ladder, on the other its
    ground state dives toward -infinity.
    """
    if rp.kappa >= 1.0:
        if nu is not None:
            warnings.warn(
                f"kappa={rp.kappa:.6g} >= 1: operator is essentially self-adjoint, nu={nu} ignored",
                stacklevel=2,
            )
        return Extension(ExtensionLabel.UNIQUE)
    if friedrichs:
        return Extension(ExtensionLabel.FRIEDRICHS)
    if nu is None:
        raise DomainError("extension_for: only kappa >= 1 has one extension; "
                          f"kappa={rp.kappa:.6g} needs nu or friedrichs")
    if not math.isfinite(nu) or abs(nu) > _HALF_PI + 1e-12:
        raise DomainError(f"extension_for: nu={nu!r} outside [-pi/2, pi/2]")
    if abs(nu) >= _HALF_PI:
        return Extension(ExtensionLabel.FRIEDRICHS)
    return Extension(ExtensionLabel.NU, nu=float(nu))


# ---------------------------------------------------------------------------
# boundary angle of a representation and its inversion


# integrity hook: a nonzero value skews the boundary function, so
# cross-validation against the shooting oracle must fail; it exists to
# prove the verification rows are not vacuous.  Set it with a token and
# reset it afterwards; it reaches only the current context.
gamma_skew: contextvars.ContextVar[float] = contextvars.ContextVar("gamma_skew", default=0.0)


def _boundary_consts(rp: ReducedParams) -> tuple[float, float]:
    """(c, skew): the kappa-only constant of the boundary function,

        kappa > 0:  c = ln G(1-k) - ln G(1+k)
        kappa = 0:  c = 2 psi(1),

    and the gamma_skew in force.  theta_of, solve_w and spectrum build
    them once per call and hand them to every `_boundary_F` evaluation.
    c is the log of the gammas' ratio, 1.2e-15 off at worst; the difference
    of their logs, next to ln G's zeros at 1 and 2, is up to 2.6e-15 off.
    """
    k = rp.kappa
    if k > 0.0:
        c = math.log(gamma(1.0 - k) / gamma(1.0 + k))
    else:
        c = 2.0 * digamma(1.0)
    return c, gamma_skew.get()


def _gamma_shift(k: float, x: float) -> float:
    # ln G(x+k) - ln G(x), resp. psi(x) at kappa = 0: the special function
    # of F's reflected and shifted forms and of their fixed-point steps
    return gammaln_shift(x, k) if k > 0.0 else digamma(x)


def _boundary_F(rp: ReducedParams, v: float, n: int, c: float, skew: float, shift=_gamma_shift) -> float:
    """The boundary function at the point v of gap n, increasing in v:

        kappa > 0:  G(1-k) G(alpha) / [G(1+k) G(alpha-k)]
        kappa = 0:  psi(alpha) - 2 psi(1)

    with (c, skew) from `_boundary_consts`, skew perturbing it here.  On
    gap n >= 1 v = t = alpha + n in [0, 1], and by the reflection formula

        kappa > 0:  e^(c + ln G(x+k) - ln G(x)) sin pi(t-k) / sin pi t,  x = 1 + n - t
        kappa = 0:  psi(x) - pi cot pi t - c,

    c = ln G(1-k) - ln G(1+k), resp. 2 psi(1).  On the ground gap
    v = alpha - kappa, and the ratio is a shift of v by kappa (never a
    difference of two lgamma values: past alpha = 1e16 alpha - k is not
    even a distinct float).  F is 0.0 at v = 0 there, the pole of
    G(alpha - k), and at the poles of G(alpha) that end each gap its limit
    from inside: -inf at t = 0 and alpha = 0, +inf at t = 1; +-inf also on
    overflow.  shift is `_gamma_shift`, or a root search's cached one.
    """
    k = rp.kappa
    if n:
        if v == 0.0 or v == 1.0:
            value = math.inf if v else -math.inf
        elif k > 0.0:
            ratio = sinpi(v - k) / sinpi(v)
            ln_r = c + shift(k, 1.0 + n - v)
            value = ratio * math.exp(ln_r) if ln_r <= 709.0 else math.copysign(math.inf, ratio)
        else:
            # the reflection psi(z) = psi(1-z) - pi cot(pi z) of `digamma`,
            # with z - round(z) taken as t minus its nearest integer
            value = shift(k, 1.0 + n - v) - math.pi / math.tan(math.pi * (v - round(v))) - c
    elif k == 0.0:
        value = shift(k, v) - c if v > 0.0 else -math.inf
    elif v > 0.0:
        ln_r = c + shift(k, v)
        value = math.exp(ln_r) if ln_r <= 709.0 else math.inf
    elif v == 0.0:
        value = 0.0
    elif (a := v + k) > 0.0:
        lg3, s3 = gammaln_signed(a)
        lg4, s4 = gammaln_signed(v)
        ln_r = c + lg3 - lg4
        value = math.inf * s3 * s4 if ln_r > 709.0 else s3 * s4 * math.exp(ln_r)
    else:
        value = -math.inf
    if skew != 0.0 and math.isfinite(value):
        return value + skew * (1.0 + abs(value))
    return value


def _brent(f, a: float, fa: float, b: float, fb: float, u: float) -> tuple[float, float]:
    """Brent-Dekker zeroin on a bracket whose values are already known:
    fa and fb of opposite signs, a zero counting with the negatives.

    Inverse quadratic or secant steps while they stay inside the bracket
    and shrink fast enough, bisection otherwise (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4).  Stops on an exact
    zero or once the bracket spans at most four ulps of b, or four u where
    u is wider, and returns the end with the smaller |f| with its value
    (root, f(root)); an infinite end only ever bisects.
    The builtins max and min are written out as the comparisons they make,
    which give the same floats, NaN included, without a call.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = math.ulp(b)
        tol = 2.0 * (u if u > tol else tol)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b, fb
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            bound, eq = 3.0 * m * q - abs(tol * q), abs(e * q)
            if 2.0 * p < (eq if eq < bound else bound):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)


def theta_of(mu: float, w: float, rp: ReducedParams) -> float:
    """Boundary angle theta of the (mu, w) solution; kappa in [0,1) only.

    With F the boundary function of w,
    kappa > 0: theta = atan2(sin mu - cos mu * F, cos mu);
    kappa = 0: theta = atan(F - tan mu).
    """
    if rp.kappa >= 1.0:
        raise DomainError(f"theta_of: kappa={rp.kappa} >= 1 has no boundary angle")
    if not (0.0 <= mu <= _HALF_PI + 1e-15):
        raise DomainError(f"theta_of: mu={mu} outside [0, pi/2]")
    if not (rp.w0 < w < math.inf):
        raise DomainError(f"theta_of: w={w} not a finite shift above the floor w0={rp.w0}")
    if abs(mu - _HALF_PI) < 1e-12:
        raise DomainError("theta_of: mu = pi/2 solution has a one-sided asymptotic")
    # w > w0 is the ground gap, whose point is alpha - kappa from the exact 1 - kappa
    f = _boundary_F(rp, 0.5 * (1.0 - rp.kappa) + w, 0, *_boundary_consts(rp))
    if rp.kappa > 0.0:
        smu, cmu = math.sin(mu), math.cos(mu)
        return math.atan2(smu - cmu * f, cmu)
    return math.atan(f - math.tan(mu))


def solve_w(mu: float, nu: float, rp: ReducedParams) -> float:
    """Invert theta(mu, .): the w > w0 with boundary angle nu.

    Unique because the boundary function F is increasing in w and sweeps
    all of R, and tan theta is tan mu - F (kappa > 0) or F - tan mu
    (kappa = 0).  With e = -4w, F(-e/4) = target is the ground gap's
    boundary equation, so this is the ground level's root search in
    `spectrum` with the target shifted by tan mu; at mu = 0 it returns
    -e0/4 of the ground level bit for bit at g2 = 1, where the energy
    unit upsilon^2 is exactly 1.  The root is accepted on that search's
    certificate, a sign change of F - target across at most four ulps of
    alpha - kappa, as `spectrum` accepts it: a residual bound would refuse
    roots next to nu = +-pi/2, where F is steep and four ulps span a large
    residual.
    """
    if rp.kappa >= 1.0:
        raise DomainError(f"solve_w: kappa={rp.kappa} >= 1 has no extension family")
    if not (0.0 <= mu < _HALF_PI - 1e-12):
        raise DomainError(f"solve_w: mu={mu} outside [0, pi/2)")
    if not (-_HALF_PI < nu < _HALF_PI):
        raise DomainError(f"solve_w: nu={nu} must be interior to (-pi/2, pi/2)")
    tnu = math.tan(nu)
    tmu = math.tan(mu)
    target = tmu - tnu if rp.kappa > 0.0 else tnu + tmu
    v = _root_in_gap(rp, target, 0, *_boundary_consts(rp))[0]
    return -0.25 * _energy(rp, 0, v)


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class SpectrumResult:
    """The lowest eigenvalues of one extension, ascending.

    energies are physical: upsilon^2 times the scaled roots e, so at
    g2 = 1 they are the roots themselves bit for bit.  residuals hold
    |lhs - rhs| of the defining equation at each root (identically 0.0
    for ladder/closed-form spectra).
    """

    energies: tuple[float, ...]
    residuals: tuple[float, ...]
    method: str


def _pole(rp: ReducedParams, n: int) -> float:
    return 2.0 * (2 * n + 1 + rp.kappa)


def _float_width(v: float, e: float) -> float:
    # one float of the point v, or of its energy e = e0 - 4v where that is
    # coarser: the search resolves its root no finer than its answer
    u, ue = math.ulp(v), 0.25 * math.ulp(e)
    return ue if ue > u else u


def _energy(rp: ReducedParams, n: int, v: float) -> float:
    """The scaled e of the point v of gap n (see `_boundary_F`), clamped
    into the open gap: e = 2 (2n + 1 + k) - 4t on gap n >= 1, and
    e = 2 (1 - k) - 4 (alpha - kappa) on the ground gap.  A root nearer a
    pole than e can express lands on the gap's last float."""
    hi = _pole(rp, n)
    if n:
        e, lo = hi - 4.0 * v, _pole(rp, n - 1)
    else:
        e, lo = 2.0 * (1.0 - rp.kappa) - 4.0 * v, -math.inf
    first, last = math.nextafter(lo, hi), math.nextafter(hi, lo)
    return first if first > e else (last if last < e else e)


def _lowest_gap_floor(rp: ReducedParams, target: float, c: float) -> float:
    # alpha - kappa with F > target, past the ground root: the ground gap's
    # floor in e, to which its bracket may widen.  F's zero at alpha = kappa
    # splits the gap: a root with target <= 0 lies at or below it; target > 0
    # pushes it toward e -> -inf, and the asymptotics of F are inverted in
    # logs, with c from `_boundary_consts`.  That bound lies
    # ln(1 + 1/target)/kappa e-folds past the root, so it is clipped at
    # _LN_DEEPEST, past which `_level_estimate` refuses the root.  Past
    # target ~ 1e9 ln(1 + 1/target) sinks toward the rounding of ln F at the
    # floor: the margin in ln F is kept at 1e-9 at least
    k = rp.kappa
    if target <= 0.0:
        return 0.5 if k > 0.0 else 1.225
    if k > 0.0:
        ln_t = math.log(target)
        ln_r = (max(math.log(target + 1.0), ln_t + 1e-9) - c) / k
    else:
        ln_r = target + abs(c)
    return math.exp(min(ln_r, _LN_DEEPEST)) + 2.0


def _level_estimate(rp: ReducedParams, target: float, n: int, c: float, shift) -> tuple[float, float]:
    """(v, h): the point of gap n (see `_boundary_F`) where F = target,
    from a fixed point of F's reflected or asymptotic form, and a bound on
    its error; c from `_boundary_consts`.

    In gap n >= 1, with x = 1 + n - t, F is a slowly varying factor times
    cot(pi t):

        kappa > 0:  F = S(x) (cos pi k - sin pi k cot pi t),  S = e^(c + ln G(x+k) - ln G(x))
        kappa = 0:  F = psi(x) - pi cot pi t - c,

    so with S (resp. psi(x)) frozen, pi t = atan2(sin pi k, cos pi k -
    target/S), resp. atan2(pi, psi(x) - c - target), solves for t in
    closed form, to full relative precision next to either pole.  Three
    such steps start it with no special-function call: S from the
    difference of two `math.lgamma` values, which loses ~|ln G(x)| ulps,
    resp. psi(x) ~ ln z + 1/(24 z^2), z = x - 1/2.  The ground gap has
    alpha in (0, inf) and its point b = alpha - kappa.  Below alpha = 1
    (target below F there: 1/G(1+k), resp. Euler's gamma) the recurrence
    G(z+1) = z G(z) writes F as 1 - k/alpha, resp. -1/alpha, times a
    slowly varying factor, so b = k q/(1 - q) with q the target over that
    factor (three lgamma steps start it), resp. alpha = 1/(psi(1 + alpha) -
    c - target); above it the e -> -inf asymptotics G(b+k)/G(b) ~ b^k,
    resp. psi(b) ~ ln b, are inverted on b.  Each form rearranges
    F = target exactly, so its fixed point, which `_fixed_point` converges,
    is the root up to rounding.  shift is the search's `_gamma_shift`.
    """
    k = rp.kappa
    if n > 0:
        sin_k, cos_k = sinpi(k), math.cos(math.pi * k)

        def step(t: float, exact: bool = True) -> float:
            # ln G(x+k) - ln G(x), resp. psi(x), or their cheap stand-ins
            x = 1.0 + n - t
            if exact:
                s = shift(k, x)
            elif k > 0.0:
                s = math.lgamma(x + k) - math.lgamma(x)
            else:
                z = x - 0.5
                s = math.log(z) + 1.0 / (24.0 * z * z)
            if k > 0.0:
                return math.atan2(sin_k, cos_k - target * math.exp(-c - s)) / math.pi
            return math.atan2(math.pi, s - c - target) / math.pi

        t = 0.5
        for _ in range(3):
            t = step(t, False)
        return _fixed_point(step, t, 0.0, 1.0, _pole(rp, n))
    if k > 0.0:
        # F(alpha = 1) = 1/G(1+k); math.lgamma is `gammaln_signed`'s value
        # without the checks that 1 + k in (1, 2) never trips
        deep = target > 0.0 and math.log(target) >= -math.lgamma(1.0 + k)
    else:
        deep = target >= -0.5 * c  # F(alpha = 1) = psi(1) - 2 psi(1)
    if deep:
        # the log of the target's G(b+k)/G(b), resp. its psi
        lt = math.log(target) - c if k > 0.0 else target + c
        ln_b = lt / k if k > 0.0 else lt
        if ln_b > _LN_DEEPEST:
            raise ConvergenceError(
                "ground state deeper than float64 range for this extension "
                f"(ln|E| ~ {ln_b + math.log(4.0):.0f})"
            )

        def step(b: float) -> float:
            # capped, so that a secant far below the root cannot overflow
            x = (lt - shift(k, b)) / (k if k > 0.0 else 1.0)
            return b * math.exp(x if x < 709.0 else 709.0)

        return _fixed_point(step, math.exp(ln_b), 1.0 - k, math.exp(_LN_DEEPEST), 2.0 * (1.0 - k))

    def step(b: float, exact: bool = True) -> float:
        if k > 0.0:
            s = shift(k, 1.0 + b) if exact else math.lgamma(1.0 + b + k) - math.lgamma(1.0 + b)
            q = target * math.exp(-c - s)
            return k * q / (1.0 - q) if 1.0 - q > k else 1.0 - k
        return 1.0 / max(1.0, shift(k, 1.0 + b) - c - target)

    b = 0.5 - k
    for _ in range(3 if k > 0.0 else 0):
        b = step(b, False)
    return _fixed_point(step, b, -k, 1.0 - k, 2.0 * (1.0 - k))


def _fixed_point(step, v: float, lo: float, hi: float, e0: float) -> tuple[float, float]:
    """(v, h) at the fixed point v = step(v), h a bound on its error: two
    plain steps, then secants on r(v) = step(v) - v through its last two
    values, each clamped to the step's range [lo, hi].  h is the last
    correction times its ratio to the one before, which overstates the
    error once the secants converge faster than linearly.  Stops once h
    is within one float of v, counted no finer than a quarter ulp of its
    energy e0 - 4v (`_float_width`): the search's first probe and a quarter
    of its stopping width.  Stops too when the corrections stall in
    rounding, or after eight secants.  Each step is one gammaln_shift or
    digamma call.
    """
    v0, r0 = v, step(v) - v
    v = v0 + r0
    d, r = r0, step(v) - v
    for _ in range(8):
        s = (r - r0) / (v - v0) if v != v0 else 0.0
        v0, r0, d0 = v, r, d
        v = v - r / s if s != 0.0 else v + r
        v = lo if v < lo else (hi if v > hi else v)
        d = v - v0
        if not abs(d) < abs(d0):  # stalled in the step's rounding
            h = abs(d)
            break
        h = abs(d) * abs(d / d0)
        if h <= _float_width(v, e0 - 4.0 * v):
            break
        r = step(v) - v
    return v, h


def _root_in_gap(rp: ReducedParams, target: float, n: int, c: float, skew: float) -> tuple[float, float]:
    """(v, residual): the point v of gap n (see `_boundary_F`) where
    F = target, and |F - target| there; (c, skew) from `_boundary_consts`.
    F rises with v from -inf at the gap's upper end in e to +inf at the
    lower, or past the target at the ground gap's floor.

    F at the level's estimate (`_level_estimate`) and at its neighbour
    v +- h on the root's side, which the first value's sign names, certify
    the root if they change sign: h is the estimate's error bound, but at
    least one float of v counted no finer than a quarter ulp of e
    (`_float_width`), four on the ground gap, whose forms round apart from
    F by a few.  `_brent` stops within four such floats and takes the
    better end with no further evaluation, so a root costs two.  Otherwise
    the bracket widens h 64-fold on the root's side up to the gap's end,
    a pole included, where F is its limit: a root nearer the pole than the
    last float before it brackets with the pole.  The only refusals are a
    fall of F, which would break the one-root-per-gap argument, and a gap
    without a sign change.
    """

    last = [math.nan, 0.0]

    def shift(k: float, x: float) -> float:
        # the search's Gamma shifts share a one-entry cache: F at the
        # estimate takes the fixed point's last shift where x is the same
        if x != last[0]:
            last[:] = x, _gamma_shift(k, x)
        return last[1]

    def g(v: float) -> float:
        return _boundary_F(rp, v, n, c, skew, shift) - target

    lo, hi = (0.0, 1.0) if n else (-rp.kappa, _lowest_gap_floor(rp, target, c))
    est, h = _level_estimate(rp, target, n, c, shift)
    # est clamped to the gap and h raised to one float: max and min written
    # as the comparisons they make
    est = lo if lo > est else (hi if hi < est else est)
    u = _float_width(est, _energy(rp, n, est))
    h0 = u if n else 4.0 * u
    h = h0 if h0 > h else h
    # the estimate, then its neighbour h toward the root
    gx = g(est)
    if gx > 0.0:
        q, gq, p = est, gx, est - h
        p = lo if lo > p else p
        gp = g(p)
    else:
        p, gp, q = est, gx, est + h
        q = hi if hi < q else q
        gq = g(q)
    while not gp <= 0.0 < gq:
        # a genuine fall would break the one-root-per-gap argument; refuse
        # rather than guess (sub-noise wiggles at the root are fine)
        fall = gp > gq + 1e-9 * (1.0 + abs(target))
        h *= 64.0
        if not fall and gp > 0.0 and p > lo:
            q, gq, p = p, gp, max(est - h, lo)
            gp = g(p)
        elif not fall and gq <= 0.0 and q < hi:
            p, gp, q = q, gq, min(est + h, hi)
            gq = g(q)
        elif fall:
            raise ConvergenceError(
                f"spectral scan not decreasing in gap {n} near e={_energy(rp, n, p):.6g}"
            )
        else:
            raise ConvergenceError(f"no eigenvalue bracket inside gap {n} below e={_pole(rp, n):.6g}")
    root, resid = _brent(g, p, gp, q, gq, u)
    return root, abs(resid)


def spectrum(rp: ReducedParams, ext: Extension, n_max: int) -> SpectrumResult:
    """First n_max eigenvalues of the extension, in ascending order."""
    if n_max < 1:
        raise DomainError(f"spectrum: n_max must be >= 1, got {n_max}")
    unit = rp.energy_scale()

    if ext.is_ladder:
        # for kappa >= 1 the Friedrichs extension IS the unique one; the
        # ladder formula covers both labels
        es = tuple(_in_units(_pole(rp, n), unit, n) for n in range(n_max))
        return SpectrumResult(es, (0.0,) * n_max, "pole-enumeration")

    nu = ext.nu
    if nu is None or not (-_HALF_PI < nu < _HALF_PI):
        raise DomainError(f"spectrum: interior nu required, got {nu!r}")
    if rp.kappa >= 1.0:
        raise DomainError("spectrum: nu-labelled extensions exist only for kappa < 1")

    if nu == 0.0 and rp.kappa > 0.0:
        # F = 0 exactly at the denominator poles
        es = tuple(_in_units(2.0 * (2 * n + 1 - rp.kappa), unit, n) for n in range(n_max))
        return SpectrumResult(es, (0.0,) * n_max, "closed-form")

    # boundary condition: F(-e/4) = -tan(nu) for kappa > 0, but +tan(nu)
    # for the digamma form at kappa = 0
    tnu = math.tan(nu)
    target = -tnu if rp.kappa > 0.0 else tnu
    c, skew = _boundary_consts(rp)
    roots = []
    resids = []
    for n in range(n_max):
        v, r = _root_in_gap(rp, target, n, c, skew)
        roots.append(_in_units(_energy(rp, n, v), unit, n))
        resids.append(r)
    return SpectrumResult(tuple(roots), tuple(resids), "bracketed-root")


def _in_units(e: float, unit: float, n: int) -> float:
    """E = e upsilon^2 of level n, refused where it leaves float64."""
    if not math.isfinite(e * unit):
        ln_e = math.log(abs(e)) + math.log(unit)
        raise ConvergenceError(
            f"ground state deeper than float64 range for this extension (ln|E| ~ {ln_e:.0f})"
            if e < 0.0
            else f"level {n} above float64 range for this extension (ln E ~ {ln_e:.0f})"
        )
    return e * unit


def ground_state_energy(rp: ReducedParams, ext: Extension) -> float:
    return spectrum(rp, ext, 1).energies[0]


# ---------------------------------------------------------------------------
# ground-state wavefunctions


@dataclass(frozen=True)
class GroundState:
    """L2-normalized ground state u(x) = c sqrt(upsilon) phi(upsilon x), the one
    conversion of a state from z = upsilon x: c = norm_constant normalizes phi,
    a representation's phi (the floor w0 on ladders, mu = 0 for interior nu)."""

    energy: float
    norm_constant: float
    solution: EvaluableSolution
    upsilon: float

    def __call__(self, x: float) -> float:
        return self.norm_constant * math.sqrt(self.upsilon) * self.solution.value_at(self.upsilon * x)

    def values_on(self, xs) -> list[float]:
        """u at every x of xs, from one sweep of the solution's Psi."""
        c, ups = self.norm_constant * math.sqrt(self.upsilon), self.upsilon
        return [c * v for v in self.solution.values_on([ups * x for x in xs])]

    def derivative(self, x: float) -> float:
        return self.norm_constant * self.upsilon**1.5 * self.solution.derivative_at(self.upsilon * x)


@lru_cache(maxsize=256)
def _nu_state_norm(kappa: float, w: float) -> float:
    """Q0 = integral of phi(mu=0, w)^2 dz over (0, inf) in closed form, for
    the ground state's alpha = (1+k)/2 + w > 0:

        kappa in (0,1):  G(1-k) G(alpha) [psi(alpha) - psi(alpha-k)] / (2 G(k) G(alpha-k))
        kappa = 0:       psi'(alpha) / 2

    phi = scale e^(-rho/2) rho^(1/4+k/2) Psi(alpha, 1+k; rho) with scale =
    G(alpha)/G(kappa) (kappa > 0) or G(alpha) (kappa = 0) decays at
    infinity, so the Lagrange identity int_z^inf phi^2 = (phi d_e phi' -
    phi' d_e phi)(z) gives Q0 from the small-z coefficients of phi and
    their e-derivatives as z -> 0 (Titchmarsh, *Eigenfunction Expansions*
    I, ch. 2; DLMF 13.10).  Above alpha - k = 0 the digamma difference
    and (from 1) the gamma ratio are shifts of alpha - k by k, with nothing
    to cancel however deep the state; at the pole alpha - k = 0 the ratio
    [psi(alpha) - psi(alpha-k)] / G(alpha-k) takes its limit 1.  A ground
    state has alpha - k > -k > -1, so no other pole -m occurs.
    """
    alpha = 0.5 * (1.0 + kappa) + w
    if kappa == 0.0:
        q0 = trigamma(alpha) / 2.0
    else:
        am = alpha - kappa
        if am > 0.0:
            # below 1 the shift's recurrence sums logs ~ ln(1/am) that cancel
            g = math.exp(gammaln_shift(am, kappa)) if am >= 1.0 else gamma(alpha) * rgamma(am)
            r = g * digamma_shift(am, kappa)
        elif am == 0.0:
            r = gamma(alpha)
        else:
            r = gamma(alpha) * rgamma(am) * (digamma(alpha) - digamma(am))
        q0 = r * gamma(1.0 - kappa) / (2.0 * gamma(kappa))  # = pi r / (sin(pi k) G(k)^2)
    # a deep state's Q0 ~ kappa^2 alpha^(kappa-1) sinks toward the subnormals
    if not (math.isfinite(q0) and q0 >= sys.float_info.min):
        raise ConvergenceError(
            f"ground state norm: Q0 = {q0!r} at alpha={alpha}, kappa={kappa} is not a normal float64"
        )
    return q0


def ground_state_wavefunction(rp: ReducedParams, ext: Extension) -> GroundState:
    """Normalized ground state.  On the ladders it is the floor
    representation's phi = e^(-rho/2) rho^(1/4 + kappa/2) with a closed-form
    norm; for interior nu the mu = 0 solution with the closed-form norm of
    `_nu_state_norm`, at any kappa in [0, 1).  It is the g2 = 1 state, its
    level e0 = E0 / upsilon^2 included, dilated by `GroundState`."""
    e0 = ground_state_energy(reduce(rp.g1, 1.0), ext)
    energy = _in_units(e0, rp.energy_scale(), 0)
    if ext.is_ladder:
        # phi^2 integrates to G(1+kappa)/2 against dz; exact constant
        c = math.sqrt(2.0 / gamma(1.0 + rp.kappa))
        return GroundState(energy, c, make_phi(RepresentationParams(0.0, rp.w0, rp)), rp.upsilon)
    w = -e0 / 4.0
    rep = RepresentationParams(mu=0.0, w=w, rp=rp)
    q0 = _nu_state_norm(rp.kappa, w)
    return GroundState(energy, 1.0 / math.sqrt(q0), make_phi(rep), rp.upsilon)
