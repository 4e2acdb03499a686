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

The same F fixes the small-x coefficients (A~, B~) of a representation
solution (see the factorization module), hence its boundary angle
theta(mu, w) and the inverse problem w(mu, nu), used to build the
representation that generates a given extension.  All three go through
`_boundary_F`, whose kappa-only constant and fault skew `_boundary_consts`
builds once per call, and every root is found by the one Brent-Dekker
solver `_brent`, started on a sign change whose two values are known.

A spectrum finds that sign change next to each level.  On gap n the
reflection formula G(z) G(1-z) = pi / sin(pi z) (DLMF 5.5.3) writes F as a
slowly varying factor times cos(pi k) - sin(pi k) cot(pi t), with
alpha = t - n, or psi(1 + n - t) - pi cot(pi t) at kappa = 0; freezing the
factor inverts it for t in closed form, and a few such steps give an
estimate of the level (`_level_estimate`).  Two evaluations around the
estimate usually bracket the root; when they do not, the bracket widens
toward the gap's ends, halving its way toward an end it would pass, so a
root next to its pole costs a few more evaluations, not a walk across the
gap.  `solve_w` is the same search on the ground gap, with the target
shifted by tan mu.
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
from .params import Extension, ExtensionLabel, ReducedParams
from .specfun import (
    digamma,
    exp_halfline_quad,
    gamma,
    gammaln_shift,
    gammaln_signed,
    sinpi,
    tricomi_psi,
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
_FRIEDRICHS_SNAP = 1e-6
# ln|e/4| of the deepest ground floor: -4 e^700 leaves the bracket's
# midpoints inside float64, and a ground state estimated below it is refused
_LN_DEEPEST = 700.0
# F reads e through alpha = (1+k)/2 - e/4, which near e = 0 moves in steps
# of ~4e-16 in e: below |e| = _E_FINE a root search counts its ulps (its
# first step and its stopping width) at _E_FINE, still 1e6 times finer
_E_FINE = 2.0**-20


def extension_for(rp: ReducedParams, nu: float | None = None, friedrichs: bool = False) -> Extension:
    """Normalize user extension input against the coupling region.

    kappa >= 1 always yields the unique extension; a nu given there is
    ignored with a warning.  |nu| within 1e-6 of pi/2 snaps to Friedrichs
    (the two signs are the same extension).
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
        raise DomainError("extension_for: kappa < 1 needs nu, or friedrichs=True")
    if not math.isfinite(nu) or abs(nu) > _HALF_PI + 1e-12:
        raise DomainError(f"extension_for: nu={nu!r} outside [-pi/2, pi/2]")
    if abs(abs(nu) - _HALF_PI) < _FRIEDRICHS_SNAP:
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
    """
    k = rp.kappa
    if k > 0.0:
        c = gammaln_signed(1.0 - k)[0] - gammaln_signed(1.0 + k)[0]
    else:
        c = 2.0 * digamma(1.0)
    return c, gamma_skew.get()


def _boundary_F(rp: ReducedParams, w: float, c: float, skew: float) -> float:
    """The boundary function of the shift w, increasing in w:

        kappa > 0:  G(1-k) G(alpha) / [G(1+k) G(alpha-k)],  alpha = (1+k)/2 + w
        kappa = 0:  psi(1/2 + w) - 2 psi(1)

    with (c, skew) from `_boundary_consts`.  theta_of, solve_w and the
    spectrum (at w = -e/4) all go through it, and skew perturbs it here.
    """
    value = _gamma_ratio(rp, w, c) if rp.kappa > 0.0 else digamma(0.5 + w) - c
    if skew != 0.0 and math.isfinite(value):
        return value + skew * (1.0 + abs(value))
    return value


def _gamma_ratio(rp: ReducedParams, w: float, c: float) -> float:
    """G(1-k)/G(1+k) * G(alpha)/G(alpha-k) with alpha = (1+k)/2 + w and
    c = ln G(1-k) - ln G(1+k), in log space; 0.0 on the exact poles of
    G(alpha-k), +-inf on overflow.  Below alpha = 0 both gammas are
    reflected, leaving one log-gamma shift and two sines."""
    k = rp.kappa
    a = rp.alpha_of(w)
    am = a - k
    if am <= 0.0 and am == math.floor(am):
        return 0.0
    if a <= 0.0 and a == math.floor(a):  # pole of the numerator
        return math.inf
    if a > 0.0 and am > 0.0:
        # deep roots push alpha past 1e16, where alpha - k is not even a
        # distinct float; hand the shift -k over exactly and never subtract
        # two lgamma values of size alpha*ln(alpha)
        ln_r = c - gammaln_shift(a, -k)
        return math.exp(ln_r) if ln_r <= 709.0 else math.inf
    if a < 0.0:
        # reflect both: G(a)/G(a-k) = [sin pi(a-k) / sin pi a] G(1-a+k)/G(1-a)
        ratio = sinpi(am) / sinpi(a)
        ln_r = c + gammaln_shift(1.0 - a, k)
        return ratio * math.exp(ln_r) if ln_r <= 709.0 else math.copysign(math.inf, ratio)
    lg3, s3 = gammaln_signed(a)
    lg4, s4 = gammaln_signed(am)
    ln_r = c + lg3 - lg4
    if ln_r > 709.0:
        return math.inf * s3 * s4
    return s3 * s4 * math.exp(ln_r)


def _brent(f, a: float, fa: float, b: float, fb: float) -> tuple[float, float]:
    """Brent-Dekker zeroin on a bracket whose values are already known:
    fa and fb of opposite signs, a zero counting with the negatives.

    Inverse quadratic or secant steps while they stay inside the bracket
    and shrink fast enough, bisection otherwise (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4).  Stops on an exact
    zero or once the bracket spans at most four ulps of max(|b|, _E_FINE),
    and returns the end with the smaller |f| with its value (root, f(root)).
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
        tol = 2.0 * math.ulp(max(abs(b), _E_FINE))
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
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
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
    if w <= rp.w0:
        raise DomainError(f"theta_of: w={w} at or below the floor w0={rp.w0}")
    if abs(mu - _HALF_PI) < 1e-12:
        raise DomainError("theta_of: mu = pi/2 solution has a one-sided asymptotic")
    f = _boundary_F(rp, w, *_boundary_consts(rp))
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
    unit upsilon^2 is exactly 1.  The residual |F - target| = |tan theta -
    tan nu| of that search is checked against 1e-10 * (1 + |tan nu|) before
    returning; it is taken in the tangent directly, not through theta_of,
    whose atan/tan round trip loses ulp(pi/2) / (pi/2 - |nu|) relative next
    to nu = +-pi/2 and would refuse roots that spectrum accepts.
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
    c, skew = _boundary_consts(rp)
    e, resid = _root_in_gap(rp, target, 0, _lowest_gap_floor(rp, target, c), _pole(rp, 0), c, skew)
    if resid > 1e-10 * (1.0 + abs(tnu)):
        raise ConvergenceError(f"solve_w: residual {resid:.2e} too large at mu={mu}, nu={nu}")
    return -0.25 * e


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


def _lowest_gap_floor(rp: ReducedParams, target: float, c: float) -> float:
    # scaled e with F(-e/4) > target, i.e. strictly below the ground root:
    # the lower end of the ground gap, to which its bracket may widen.
    # F's first zero z0 splits the gap: a root with target <= 0 lies in
    # [z0, first pole), so a fixed offset below z0 suffices; target > 0
    # pushes the root toward -inf and the e -> -inf asymptotics of F are
    # inverted in logs (exponentially deep in target when kappa = 0), with
    # c from `_boundary_consts`.  That bound lies ln(1 + 1/target)/kappa
    # e-folds below the root, so it is clipped at _LN_DEEPEST rather than
    # refused; `_level_estimate` refuses a root past the clipped floor
    k = rp.kappa
    if target <= 0.0:
        z0 = 2.0 * (1.0 - k) if k > 0.0 else -0.9
        return z0 - 2.0
    if k > 0.0:
        ln_r = (math.log(target + 1.0) - c) / k
    else:
        ln_r = target + abs(c)
    return -4.0 * math.exp(min(ln_r, _LN_DEEPEST)) - 8.0


def _level_estimate(rp: ReducedParams, target: float, n: int, c: float) -> tuple[float, float]:
    """(e, h): a start for the root of F(-e/4) = target in gap n, and the
    size of its last correction; c from `_boundary_consts`.

    In gap n >= 1 write alpha = t - n with t in (0, 1) and x = 1 + n - t.
    The reflection formula G(z) G(1-z) = pi / sin(pi z) makes F a slowly
    varying factor times cot(pi t):

        kappa > 0:  F = S(x) (cos pi k - sin pi k cot pi t),  S = e^(c + ln G(x+k) - ln G(x))
        kappa = 0:  F = psi(x) - pi cot pi t - c,

    so with S (resp. psi(x)) frozen, t = 1/2 - atan(y)/pi solves for t in
    closed form.  The ground gap has alpha in (0, inf).  Below alpha = 1
    (target below F there: 1/G(1+k), resp. Euler's gamma) the recurrence
    G(z+1) = z G(z) leaves 1 - k/alpha, resp. -1/alpha, times a slowly
    varying factor; above it the e -> -inf asymptotics G(b+k)/G(b) ~ w^k
    with b = alpha - k = w + (1-k)/2, resp. psi(w + 1/2) ~ ln w, are
    inverted as a fixed point on w = -e/4.  Each form takes three
    fixed-point steps, then Aitken's extrapolation.
    """
    k = rp.kappa
    if n > 0:
        cos_k, sin_k = math.cos(math.pi * k), math.sin(math.pi * k)

        def step(t: float) -> float:
            x = 1.0 + n - t
            if k > 0.0:
                y = (cos_k - target * math.exp(-c - gammaln_shift(x, k))) / sin_k
            else:
                y = (digamma(x) - c - target) / math.pi
            return 0.5 - math.atan(y) / math.pi

        t, dt = _fixed_point(step, 0.5)
        return 2.0 * (1.0 + k) + 4.0 * (n - t), 4.0 * dt
    if k > 0.0:
        # F(alpha = 1) = e^c / G(1-k) = 1/G(1+k)
        deep = target > 0.0 and math.log(target) - c >= gammaln_shift(1.0 - k, k)
    else:
        deep = target >= -0.5 * c  # F(alpha = 1) = psi(1) - 2 psi(1)
    if deep:
        # the log of the target's G(b+k)/G(b), resp. its psi
        lt = math.log(target) - c if k > 0.0 else target + c
        ln_w = lt / k if k > 0.0 else lt
        if ln_w > _LN_DEEPEST:
            raise ConvergenceError(
                "ground state deeper than float64 range for this extension "
                f"(ln|E| ~ {ln_w + math.log(4.0):.0f})"
            )

        def step(w: float) -> float:
            if k > 0.0:
                return w * math.exp((lt - gammaln_shift(w + 0.5 * (1.0 - k), k)) / k)
            return w * math.exp(lt - digamma(w + 0.5))

        w, dw = _fixed_point(step, math.exp(ln_w))
        return -4.0 * w, 4.0 * dw

    def step(a: float) -> float:
        if k > 0.0:
            den = 1.0 - target * math.exp(-c - gammaln_shift(1.0 + a - k, k))
            return k / den if den > k else 1.0
        return 1.0 / max(1.0, digamma(1.0 + a) - c - target)

    a, da = _fixed_point(step, 0.5)
    return 2.0 * (1.0 + k) - 4.0 * a, 4.0 * da


def _fixed_point(step, v: float) -> tuple[float, float]:
    """Three steps of v <- step(v), then Aitken's delta-squared
    extrapolation when the steps shrink; (v, size of the last correction)."""
    d_prev = d = 0.0
    for _ in range(3):
        d_prev, d = d, step(v) - v
        v += d
    if abs(d) < abs(d_prev):
        d = d * d / (d_prev - d)
        v += d
    return v, abs(d)


def _root_in_gap(
    rp: ReducedParams, target: float, n: int, lo: float, hi: float, c: float, skew: float
) -> tuple[float, float]:
    """The root of F(-e/4) = target in e in gap n, (lo, hi), where F(-e/4)
    decreases from +inf to -inf; (c, skew) from `_boundary_consts`.

    The search starts at the level's own estimate (`_level_estimate`) and
    evaluates e +- h, h its last correction but at least four ulps of
    max(|e|, _E_FINE); while both values have one
    sign it widens h 64-fold on the root's side, keeping the nearer point
    as the other end, then `_brent` starts from the two values of the sign
    change.  A probe that would reach an end of the gap (a pole, or the
    ground floor) goes halfway from the last point on that side to the end
    instead: a root next to its pole costs a few halvings, and no end is
    ever evaluated.  Every pair of points evaluated must confirm the
    decreasing sweep.  Returns (root, residual).

    Within a few ulps of kappa = 1 the pole at lo and the zero of F above
    it round to one float, which is then the root; any other gap without a
    sign change is refused.
    """

    def g(e: float) -> float:
        return _boundary_F(rp, -0.25 * e, c, skew) - target

    def inward(x: float, end: float, d: float) -> float:
        # est + d, or halfway from x to the end once est + d would reach it;
        # x itself when no float lies between x and the end
        y = est + d
        if not (y < end if d > 0.0 else y > end):
            y = 0.5 * (x + end)
        return y if (x < y < end or end < y < x) else x

    noise = 1e-9 * (1.0 + abs(target))
    est, h = _level_estimate(rp, target, n, c)
    est = min(max(est, math.nextafter(lo, hi)), math.nextafter(hi, lo))
    h = max(h, 4.0 * math.ulp(max(abs(est), _E_FINE)))
    p, q = inward(est, lo, -h), inward(est, hi, h)
    gp, gq = g(p), g(q)
    while not gp > 0.0 >= gq:
        # a genuine rise would break the one-root-per-gap argument; refuse
        # rather than guess (sub-noise wiggles at the root are fine)
        rise = gq > gp + noise
        h *= 64.0
        if not rise and gq > 0.0 and (up := inward(q, hi, h)) != q:
            p, gp, q = q, gq, up
            gq = g(q)
        elif not rise and gp <= 0.0 and (down := inward(p, lo, -h)) != p:
            q, gq, p = p, gp, down
            gp = g(p)
        elif n >= 1 and abs(2.0 * (2 * n + 1 - rp.kappa) - lo) <= 8.0 * math.ulp(lo):
            # the zero of F above the pole at lo rounds onto it: that float
            # is the root, its residual the smaller |g| of the one-ulp bracket
            return lo, min(abs(g(lo)), abs(gp))
        elif rise:
            raise ConvergenceError(
                f"spectral scan not decreasing on ({lo:.6g}, {hi:.6g}) near e={p:.6g}"
            )
        else:
            raise ConvergenceError(f"no eigenvalue bracket inside gap ({lo:.6g}, {hi:.6g})")
    root, resid = _brent(g, p, gp, q, gq)
    return root, abs(resid)


def spectrum(rp: ReducedParams, ext: Extension, n_max: int) -> SpectrumResult:
    """First n_max eigenvalues of the extension, in ascending order."""
    if n_max < 1:
        raise DomainError(f"spectrum: n_max must be >= 1, got {n_max}")
    unit = rp.energy_scale()

    if ext.is_ladder:
        # for kappa >= 1 the Friedrichs extension IS the unique one; the
        # ladder formula covers both labels
        es = tuple(_pole(rp, n) * unit for n in range(n_max))
        return SpectrumResult(es, (0.0,) * n_max, "pole-enumeration")

    nu = ext.nu
    if nu is None or not (-_HALF_PI < nu < _HALF_PI):
        raise DomainError(f"spectrum: interior nu required, got {nu!r}")
    if rp.kappa >= 1.0:
        raise DomainError("spectrum: nu-labelled extensions exist only for kappa < 1")

    if nu == 0.0 and rp.kappa > 0.0:
        # F = 0 exactly at the denominator poles
        es = tuple(2.0 * (2 * n + 1 - rp.kappa) * unit for n in range(n_max))
        return SpectrumResult(es, (0.0,) * n_max, "closed-form")

    # boundary condition: F(-e/4) = -tan(nu) for kappa > 0, but +tan(nu)
    # for the digamma form at kappa = 0
    tnu = math.tan(nu)
    target = -tnu if rp.kappa > 0.0 else tnu
    c, skew = _boundary_consts(rp)
    roots = []
    resids = []
    lo = _lowest_gap_floor(rp, target, c)
    for n in range(n_max):
        hi = _pole(rp, n)
        e, r = _root_in_gap(rp, target, n, lo, hi, c, skew)
        roots.append(e * unit)
        resids.append(r)
        lo = hi
    return SpectrumResult(tuple(roots), tuple(resids), "bracketed-root")


def ground_state_energy(rp: ReducedParams, ext: Extension) -> float:
    return spectrum(rp, ext, 1).energies[0]


# ---------------------------------------------------------------------------
# ground-state wavefunctions


@dataclass(frozen=True)
class GroundState:
    """L2-normalized ground state u = norm_constant * solution of one
    extension; solution is a representation's phi (the floor w0 on the
    ladders, mu = 0 at the ground level's w for interior nu)."""

    energy: float
    norm_constant: float
    solution: EvaluableSolution

    def __call__(self, x: float) -> float:
        return self.norm_constant * self.solution.value_at(x)

    def values_on(self, xs) -> list[float]:
        """u at every x of xs, from one sweep of the solution's Psi
        (`EvaluableSolution.values_on`)."""
        return [self.norm_constant * v for v in self.solution.values_on(xs)]

    def derivative(self, x: float) -> float:
        return self.norm_constant * self.solution.derivative_at(x)


@lru_cache(maxsize=256)
def _nu_state_norm(kappa: float, upsilon: float, w: float) -> float:
    """Q0 = integral of phi(mu=0, w)^2 over (0, inf), via the rho-space form

        (1/2 ups) * scale^2 * int_0^inf rho^(-k) [rho^k Psi(alpha,beta;rho)]^2
                              e^(-rho) d rho

    where scale = G(alpha)/G(kappa) (kappa > 0) or G(alpha) (kappa = 0);
    rho^k Psi is bounded at the origin, so the engine's power parameter
    carries the whole singularity.
    """
    beta = 1.0 + kappa
    alpha = 0.5 * beta + w
    scale = gamma(alpha) / gamma(kappa) if kappa > 0.0 else gamma(alpha)

    def g(t: float) -> float:
        return (t**kappa * tricomi_psi(alpha, beta, t)) ** 2

    integral = exp_halfline_quad(g, -kappa)
    q0 = scale * scale * integral / (2.0 * upsilon)
    # the integral of Psi^2 sinks into the subnormals, and keeps too few
    # digits, from alpha ~ 98.5; Gamma(alpha)^2 overflows from alpha ~ 100
    if not (math.isfinite(q0) and q0 > 0.0 and integral >= sys.float_info.min):
        raise ConvergenceError(
            f"ground state norm: Q0 = {scale}^2 * {integral} at alpha={alpha}, kappa={kappa} "
            "is not a normal float64 product"
        )
    return q0


def ground_state_wavefunction(rp: ReducedParams, ext: Extension) -> GroundState:
    """Normalized ground state.  On the ladders it is the floor
    representation's phi = e^(-rho/2) rho^(1/4 + kappa/2) with a closed-form
    norm; for interior nu the mu = 0 solution with a cached numeric norm."""
    e0 = ground_state_energy(rp, ext)
    if ext.is_ladder:
        # phi^2 integrates to G(1+kappa)/(2 ups) against dx; exact constant
        c = math.sqrt(2.0 * rp.upsilon / gamma(1.0 + rp.kappa))
        return GroundState(e0, c, make_phi(RepresentationParams(0.0, rp.w0, rp)))
    w = -e0 / (4.0 * rp.energy_scale())
    if rp.kappa > 0.94:
        raise DomainError(
            "ground_state_wavefunction: normalization quadrature needs kappa <= 0.94 "
            "(the half-line engine wants its singular power above -0.95); "
            "ladder states are exact at any kappa"
        )
    rep = RepresentationParams(mu=0.0, w=w, rp=rp)
    q0 = _nu_state_norm(rp.kappa, rp.upsilon, w)
    return GroundState(e0, 1.0 / math.sqrt(q0), make_phi(rep))
