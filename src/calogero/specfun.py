"""Special functions for the half-line oscillator machinery.

Everything downstream reduces to three ingredients:

* the Euler gamma function (`math.gamma`, `math.lgamma`) and its log
  derivatives (digamma, trigamma), with ln G(b+d) - ln G(b) and psi(b+d) -
  psi(b) formed without cancellation (`gammaln_shift`, `digamma_shift`),
* the Kummer series  Phi(a, b; rho) = sum_k (a)_k / (b)_k * rho^k / k!,
* the Tricomi function Psi(a, b; rho), the solution of the confluent
  hypergeometric equation that decays like rho^(-a) at infinity.

Psi is evaluated by two independent routes and that redundancy is load
bearing: the two-series combination

    Psi = G(1-b)/G(a-b+1) Phi(a,b;rho)
        + G(b-1)/G(a) rho^(1-b) Phi(a-b+1, 2-b; rho)

degenerates (0/0) at integer b, while the Laplace integral

    Psi = 1/G(a) int_0^inf t^(a-1) (1+t)^(b-a-1) e^(-rho t) dt

holds for every b >= 1.  The public router takes the combination first
where it applies, at rho <= 8 and more than 1e-8 from an integer b; the
integral where the combination refuses or does not apply; and below
rho = 8 the inward sweep for a value both refuse (the order is given in
full below).  Against mpmath.hyperu the router holds 1e-8; where the series
answers, the routes agree to 1e-11 on the tests' overlap grid and to 1e-12
on `verify`'s row 7-psi-dual-route, whose threshold is 1e-10.

The two-series combination cancels catastrophically once rho is a few
units large (the two Phi terms grow like e^rho while Psi decays like
rho^(-a)).  Measured in float64 the worst case on the overlap test grid
is ~2e-7, which busts the router's 1e-8, so the combination counts the
digits it lost and refuses a value that lost more than 5.  The router
`tricomi_psi` owns the whole fallback order: the series, then the Laplace
integral (float64-exact wherever it converges; alone at integer b and past
rho = 8), then, below rho = 8, the inward sweep of "Psi along a grid",
seeded past rho = 8.  Where all of them refuse, the refusal stands.

Quadrature notes.  The integral route has an integrable t^(a-1) endpoint
singularity whenever a < 1, which ordinary interval-halving quadrature
cannot chase to 1e-10.  After rescaling t -> t/rho it is evaluated with a
double-exponential map t = exp(u - exp(-u)), trapezoid in u, which eats
both the algebraic endpoint and the e^(-t) tail.  The nodes t and the
weights t^p e^(-t) dt/du depend only on the power p and the level, never
on the integrand, so each level's are built once and held in a table of
16 (p, level) entries as two float arrays; a call on a power in the table
costs one g(t) and one product per node.  Psi at one (alpha, beta) over
many rho reuses them.

Psi along a grid.  `tricomi_psi_on` gives Psi at many rho from two router
calls: Psi and Psi' = -alpha Psi(alpha+1, beta+1; rho) at the largest rho
(at least just past 8, where both take the float64-exact integral), then
Taylor steps of Kummer's equation rho S'' + (beta - rho) S' - alpha S = 0
(DLMF 13.2.1) inward through the sorted rho (the Taylor method of Gil,
Segura & Temme, *Numerical Methods for Special Functions*, SIAM 2007).
Inward is the stable direction: Psi / Phi grows toward the origin (their
Wronskian has one sign), so whatever a step puts along Kummer's Phi decays
relative to Psi.  Psi is completely monotone, so every Taylor term of an
inward step is positive and nothing cancels in the sum.  A step reaches at
most rho/2 (half the distance to the singular point) and at most
rho / sqrt((rho - beta)^2 + 4 alpha rho), the inverse gap between the local
exponents of the two solutions, so a rounding error grows at most e-fold
along Phi within one step.  A step ends on the farthest point within that
reach and gives every point it passes its Taylor polynomial by Horner
(dense output), so an 801-point grid takes 80 to 400 steps, not 801.
Kummer's equation is linear: where the seed Psi(alpha, beta; rho) is no
normal float (from alpha ~ 139 at rho = 64, alpha ~ 158 at rho = 8), the
sweep starts from the Laplace integral's log form, Psi and Psi' over an
exact power of two (DLMF 13.4.4), and hands each value back with ldexp.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import lru_cache

from .errors import ConvergenceError, DomainError

__all__ = [
    "gamma",
    "gammaln_signed",
    "gammaln_shift",
    "rgamma",
    "digamma",
    "digamma_shift",
    "trigamma",
    "sinpi",
    "kummer_phi",
    "tricomi_psi",
    "tricomi_psi_series",
    "tricomi_psi_integral",
    "tricomi_psi_on",
    "exp_halfline_quad",
]

def _is_nonpositive_int(z: float) -> bool:
    return z <= 0.0 and z == math.floor(z)


def sinpi(z: float) -> float:
    """sin(pi z) to a few ulps relative on both sides of every integer.

    z minus its nearest integer m is exact, so pi (z - m) keeps every
    digit however close z is to m or however large |z| is.  The one sine
    of pi z in the package's values: `trigamma`'s reflection and the
    boundary function's gamma ratio take it.  Only
    `spectral._level_estimate` takes a raw sin(pi kappa): it steers a root
    search's start, which the search corrects to its tolerance.
    """
    m = round(z)
    s = math.sin(math.pi * (z - m))
    return -s if m & 1 else s


def gamma(z: float) -> float:
    """Euler gamma for real z off the poles {0, -1, -2, ...}: `math.gamma`,
    good to a few ulps on both sides of every pole.  A value past float64
    (z > 171.62, or |z| < 5.6e-309) is a ConvergenceError; between the poles
    below z ~ -178 it underflows to a signed zero."""
    if not math.isfinite(z):
        raise DomainError(f"gamma: non-finite argument {z!r}")
    if _is_nonpositive_int(z):
        raise DomainError(f"gamma: pole at z = {z}")
    try:
        return math.gamma(z)
    except OverflowError:
        raise ConvergenceError(f"gamma: Gamma({z}) overflows float64") from None


def gammaln_signed(z: float) -> tuple[float, float]:
    """(log |Gamma(z)|, sign) for real z off the poles: `math.lgamma`, and
    -1.0 where floor(z) is negative and odd.  The log form never overflows
    on ratio work, which the spectral equations need when both gamma
    arguments sit near poles; past z ~ 2.5e305 it is a ConvergenceError.
    """
    if not math.isfinite(z):
        raise DomainError(f"gammaln_signed: non-finite argument {z!r}")
    if _is_nonpositive_int(z):
        raise DomainError(f"gammaln_signed: pole at z = {z}")
    try:
        lg = math.lgamma(z)
    except OverflowError:
        raise ConvergenceError(f"gammaln_signed: ln Gamma({z}) overflows float64") from None
    return lg, -1.0 if z < 0.0 and math.floor(z) & 1 else 1.0


def rgamma(z: float) -> float:
    """1 / Gamma(z), entire (0.0 at Gamma's poles): 1 / `math.gamma`, and
    sign * exp(-ln |Gamma|), a subnormal or zero, where Gamma overflows.
    Past float64 (between the poles below z ~ -171) a ConvergenceError."""
    if not math.isfinite(z):
        raise DomainError(f"rgamma: non-finite argument {z!r}")
    if _is_nonpositive_int(z):
        return 0.0
    try:
        g = math.gamma(z)
    except OverflowError:
        lg, sg = gammaln_signed(z)
        return sg * math.exp(-lg)
    if abs(g) * sys.float_info.max < 1.0:  # Gamma's underflow to zero included
        raise ConvergenceError(f"rgamma: 1/Gamma({z}) overflows float64")
    return 1.0 / g


# digamma asymptotic series coefficients: -B_{2n}/(2n) for the expansion
# psi(z) ~ ln z - 1/(2z) - sum B_{2n} / (2n z^{2n})
_DIGAMMA_TAIL = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)


def digamma(z: float) -> float:
    """psi(z) = Gamma'(z)/Gamma(z) for real z off the poles.

    Recurrence psi(z) = psi(z+1) - 1/z lifts the argument to >= 10 where
    the Bernoulli asymptotic series is good to ~1e-16.  Negative z is
    reflected first, psi(z) = psi(1-z) - pi cot(pi z) (DLMF 5.5.4), with
    the cotangent taken of z minus its nearest integer: that difference
    is exact, so the pole term keeps every digit next to each pole.
    """
    if not math.isfinite(z):
        raise DomainError(f"digamma: non-finite argument {z!r}")
    if z <= 0.0:
        if z == math.floor(z):
            raise DomainError(f"digamma: pole at z = {z}")
        return digamma(1.0 - z) - math.pi / math.tan(math.pi * (z - round(z)))
    acc = 0.0
    while z < 10.0:
        acc -= 1.0 / z
        z += 1.0
    inv = 1.0 / z
    inv2 = inv * inv
    # the _DIGAMMA_TAIL series in 1/z^2 by Horner, highest order first
    tail = ((((((-1.0 / 12.0 * inv2 + 691.0 / 32760.0) * inv2 - 1.0 / 132.0) * inv2 + 1.0 / 240.0) * inv2
              - 1.0 / 252.0) * inv2 + 1.0 / 120.0) * inv2 - 1.0 / 12.0) * inv2
    return acc + math.log(z) - 0.5 * inv + tail


def digamma_shift(b: float, d: float) -> float:
    """psi(b + d) - psi(b) for b > 0, b + d > 0, no cancellation.

    The digamma counterpart of `gammaln_shift`: past b ~ 1/eps the two
    digammas agree in every digit while their difference is ~ d/b, so the
    asymptotic series are differenced analytically,

        ln(b+d) - ln b - 1/(2(b+d)) + 1/(2b) = la - expm1(-la)/(2b),

    with la = log1p(d/b), and each tail term pairs up via expm1; b + d is
    never formed there.  Arguments below 15 are lifted by the recurrence
    psi(z+1) = psi(z) + 1/z, whose terms d/(b(b+d)) all carry the sign of
    d, as does the rest: nothing cancels.
    """
    if math.isnan(b) or math.isnan(d) or math.isinf(b) or math.isinf(d):
        raise DomainError(f"digamma_shift: non-finite arguments ({b!r}, {d!r})")
    if b <= 0.0 or b + d <= 0.0:
        raise DomainError(f"digamma_shift: needs b > 0 and b + d > 0, got ({b}, {d})")
    if d == 0.0:
        return 0.0
    corr = 0.0
    while b < 15.0 or b + d < 15.0:
        # psi(b+d) - psi(b) = [psi(b+d+1) - psi(b+1)] + 1/b - 1/(b+d)
        corr += d / b / (b + d)
        b += 1.0
    la = math.log1p(d / b)
    tail = 0.0
    for n, c in enumerate(_DIGAMMA_TAIL, start=1):
        tail += c * b ** (-2 * n) * math.expm1(-2 * n * la)
    return la - 0.5 * math.expm1(-la) / b + tail + corr


# trigamma asymptotic series coefficients: B_{2n} for the expansion
# psi'(z) ~ 1/z + 1/(2z^2) + sum B_{2n} / z^{2n+1}
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)


def trigamma(z: float) -> float:
    """psi'(z), the derivative of digamma, for real z off the poles.

    Recurrence psi'(z) = psi'(z+1) + 1/z^2 lifts the argument to >= 10
    where the Bernoulli asymptotic series is good to ~1e-16.  Negative z
    is reflected first, psi'(z) = pi^2 / sin^2(pi z) - psi'(1-z) (DLMF
    5.15.6), with the sine from `sinpi`; psi'(1-z) <= pi^2/6 < pi^2, so
    the reflection loses at most a digit.
    """
    if math.isnan(z) or math.isinf(z):
        raise DomainError(f"trigamma: non-finite argument {z!r}")
    if _is_nonpositive_int(z):
        raise DomainError(f"trigamma: pole at z = {z}")
    if z < 0.0:
        return (math.pi / sinpi(z)) ** 2 - trigamma(1.0 - z)
    acc = 0.0
    while z < 10.0:
        inv = 1.0 / z
        acc += inv * inv
        z += 1.0
    inv = 1.0 / z
    inv2 = inv * inv
    tail = 0.0
    for c in reversed(_TRIGAMMA_TAIL):
        tail = (tail + c) * inv2
    return acc + inv + 0.5 * inv2 + tail * inv


def gammaln_shift(b: float, d: float) -> float:
    """ln Gamma(b + d) - ln Gamma(b) for b > 0, b + d > 0, no cancellation.

    Subtracting two lgamma values loses |ln Gamma| / |difference| digits;
    at b ~ 1e12 with d < 1 that is all of them, and the spectral equations
    live exactly there once an eigenvalue is deep.  Worse, past b ~ 1e16
    the sum b + d is not even representable, so the shift d is taken as an
    argument and b + d is never formed: the Stirling expansions are
    differenced analytically,

        (b+d-1/2) ln(b+d) - (b-1/2) ln b - d
            = (b-1/2) log1p(d/b) + d (ln b + log1p(d/b) - 1),

    and the tail terms pair up via expm1, so every float operation acts on
    a quantity of the size of the answer.  Arguments below 15 are lifted
    by the recurrence first.
    """
    if not (math.isfinite(b) and math.isfinite(d)):
        raise DomainError(f"gammaln_shift: non-finite arguments ({b!r}, {d!r})")
    if b <= 0.0 or b + d <= 0.0:
        raise DomainError(f"gammaln_shift: needs b > 0 and b + d > 0, got ({b}, {d})")
    if d == 0.0:
        return 0.0
    corr = 0.0
    while b < 15.0 or b + d < 15.0:
        # ln G(b+d) - ln G(b) = [ln G(b+d+1) - ln G(b+1)] - ln((b+d)/b)
        corr -= math.log1p(d / b)
        b += 1.0
    la = math.log1p(d / b)  # ln((b+d)/b)
    main = (b - 0.5) * la + d * (math.log(b) + la - 1.0)
    # the Stirling tail, B_{2n} / (2n (2n-1)) * b^m * expm1(m la) with
    # m = 1 - 2n, lowest order first
    tail = (1.0 / 12.0 * b ** -1 * math.expm1(-la)
            - 1.0 / 360.0 * b ** -3 * math.expm1(-3 * la)
            + 1.0 / 1260.0 * b ** -5 * math.expm1(-5 * la)
            - 1.0 / 1680.0 * b ** -7 * math.expm1(-7 * la)
            + 1.0 / 1188.0 * b ** -9 * math.expm1(-9 * la)
            - 691.0 / 360360.0 * b ** -11 * math.expm1(-11 * la)
            + 1.0 / 156.0 * b ** -13 * math.expm1(-13 * la))
    return main + tail + corr


# Kummer series truncation: relative term size at which the sum has
# stagnated, and the term budget before giving up
_SERIES_REL_TOL = 1e-15
_SERIES_MAX_TERMS = 800


def _phi_series(a: float, b: float, rho: float) -> float:
    """Raw Kummer series with the stagnation stop.

    Termination: |term| <= _SERIES_REL_TOL * |sum| for three consecutive
    terms (the series may alternate transiently when a < 0, a single small
    term proves nothing there); past _SERIES_MAX_TERMS terms it refuses.
    """
    term = 1.0
    total = 1.0
    small = 0
    tol = _SERIES_REL_TOL
    for k in range(_SERIES_MAX_TERMS):
        term = term * (a + k) / ((b + k) * (k + 1)) * rho
        total += term
        # |term| <= tol |total|, as abs() decides it for NaN and -0.0 too
        if (term if term >= 0.0 else -term) <= tol * (total if total >= 0.0 else -total):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"kummer series: no convergence in {_SERIES_MAX_TERMS} terms (a={a}, b={b}, rho={rho})"
    )


def kummer_phi(alpha: float, beta: float, rho: float) -> float:
    """Kummer's confluent hypergeometric Phi(alpha, beta; rho).

    Parameters
    ----------
    alpha : float, >= 0
    beta : float, >= 1
    rho : float, >= 0

    All series terms are nonnegative in this parameter range, so the
    running sum is monotone and the stagnation stop is safe.  Phi(0, b;
    rho) = 1 exactly.  A sum past float64 (Phi grows like e^rho, so from
    rho ~ 700) raises ConvergenceError rather than returning inf.
    """
    if not (alpha >= 0.0):
        raise DomainError(f"kummer_phi: alpha must be >= 0, got {alpha}")
    if not (beta >= 1.0):
        raise DomainError(f"kummer_phi: beta must be >= 1, got {beta}")
    if not (rho >= 0.0):
        raise DomainError(f"kummer_phi: rho must be >= 0, got {rho}")
    if alpha == 0.0 or rho == 0.0:
        return 1.0
    value = _phi_series(alpha, beta, rho)
    if not math.isfinite(value):
        raise ConvergenceError(f"kummer_phi: Phi({alpha!r}, {beta!r}; {rho!r}) overflows float64")
    return value


# ---------------------------------------------------------------------------
# quadrature


# double-exponential trapezoid: convergence target between successive
# levels, and the number of halvings of the step before giving up
_QUAD_REL_TOL = 1e-12
_QUAD_MAX_LEVEL = 8
# the u window and the level-0 step; the window is 28 level-0 steps wide
_QUAD_U_LO, _QUAD_U_HI = -6.56, 7.4
_QUAD_H0 = 0.5


@lru_cache(maxsize=_QUAD_MAX_LEVEL + 1)
def _de_nodes(level: int) -> tuple[array, array, array]:
    """ln t, t and 1 + e^(-u) of the nodes that `level` adds to the
    trapezoid in u: all of them at level 0, the odd multiples of the halved
    step after.  Nodes with t < 1e-305 are left out."""
    h = math.ldexp(_QUAD_H0, -level)
    n = int(math.ceil((_QUAD_U_HI - _QUAD_U_LO) / _QUAD_H0)) << level
    lts, ts, opms = array("d"), array("d"), array("d")
    for i in range(n + 1) if level == 0 else range(1, n, 2):
        u = _QUAD_U_LO + i * h
        emu = math.exp(-u)
        lt = u - emu
        if lt < -702.0:  # t below 1e-305
            continue
        lts.append(lt)
        ts.append(math.exp(lt))
        opms.append(1.0 + emu)
    return lts, ts, opms


@lru_cache(maxsize=16)
def _de_level(p1: float, level: int) -> tuple[array, array]:
    """Abscissae t and weights t^p1 e^(-t) (1 + e^(-u)) of the nodes of
    `_de_nodes(level)`.

    Nodes with a weight below e^-745 are left out; they added an exact 0.0
    to the sum.  The weight is exp(ln_w) * (1 + e^-u), the left part of the
    product exp(ln_w) * (1 + e^-u) * g(t), so w * g(t) is that product's
    float.  Raises OverflowError where the weight peaks past e^709 (p ~ 171
    and up).
    """
    ts, ws = array("d"), array("d")
    exp = math.exp
    for lt, t, opm in zip(*_de_nodes(level)):
        ln_w = p1 * lt - t
        if ln_w < -745.0:
            continue
        ts.append(t)
        ws.append(exp(ln_w) * opm)
    return ts, ws


def exp_halfline_quad(g, p: float) -> float:
    """integral_0^inf t^p g(t) e^(-t) dt for p > -0.95, g algebraic.

    Double-exponential substitution t = exp(u - exp(-u)); the trapezoid
    sum in u converges geometrically in the level number.  Node weights
    are assembled in log space so the algebraic endpoint cannot overflow;
    nodes with t < 1e-305 are dropped, which for p > -0.95 discards a
    relative mass below ~1e-14 (hence the p floor).  g is called once per
    kept node.
    """
    if not (-0.95 < p < math.inf):
        raise DomainError(f"exp_halfline_quad: p must be finite and exceed -0.95, got {p}")
    p1 = p + 1.0

    def level_sum(level: int) -> float:
        try:
            ts, ws = _de_level(p1, level)
            return math.fsum(w * g(t) for t, w in zip(ts, ws))
        except OverflowError:  # a weight t^(p+1) e^(-t), or their sum, passes float64 from p ~ 170
            raise ConvergenceError(
                f"exp_halfline_quad: integrand overflows float64 (p={p})"
            ) from None

    h = _QUAD_H0
    total = level_sum(0) * h
    for level in range(1, _QUAD_MAX_LEVEL + 1):
        h *= 0.5
        new = 0.5 * total + level_sum(level) * h
        if abs(new - total) <= _QUAD_REL_TOL * max(abs(new), 1e-300):
            return new
        total = new
    raise ConvergenceError(f"exp_halfline_quad: no convergence at level {_QUAD_MAX_LEVEL} (p={p})")


# ---------------------------------------------------------------------------
# Tricomi function


def _psi_laplace(alpha: float, beta: float, rho: float) -> tuple[float, float]:
    """(integral, ln_scale) with Psi(alpha, beta; rho) = e^ln_scale * integral,
    the Laplace integral rescaled to a unit-decay weight:

        integral  = int_0^inf t^(alpha-1) (1 + t/rho)^(beta-alpha-1) e^(-t) dt,
        ln_scale  = -alpha ln rho - ln Gamma(alpha).

    For alpha < 0.5 one integration by parts removes the t^(alpha-1)
    endpoint weight first (the double-exponential map wants the singular
    power above -0.95 with slack, and tiny alpha turns up whenever w sits
    just above its floor).  Raises ConvergenceError where the quadrature
    does (its weight overflows from alpha ~ 171).
    """
    c = beta - alpha - 1.0

    if alpha >= 0.5:
        def g(t: float) -> float:
            return math.exp(c * math.log1p(t / rho)) if t > 0.0 else 1.0

        integral = exp_halfline_quad(g, alpha - 1.0)
    else:
        # parts: with G(t) = g(t) e^(-t), int t^(a-1) G dt = -(1/a) int t^a G' dt
        # (boundary terms vanish), and G' = (g' - g) e^(-t), so the singular
        # power rises from a-1 to a.
        c_rho, cm1 = c / rho, c - 1.0

        def g_minus_gprime(t: float) -> float:
            if t > 0.0:
                lg1 = math.log1p(t / rho)
                return math.exp(c * lg1) - c_rho * math.exp(cm1 * lg1)
            return 1.0 - c_rho

        integral = exp_halfline_quad(g_minus_gprime, alpha) / alpha

    lg, _ = gammaln_signed(alpha)
    return integral, -alpha * math.log(rho) - lg


def tricomi_psi_integral(alpha: float, beta: float, rho: float) -> float:
    """Psi via the Laplace integral, rescaled to a unit-decay weight:

        Psi = rho^(-alpha)/Gamma(alpha) *
              int_0^inf t^(alpha-1) (1 + t/rho)^(beta-alpha-1) e^(-t) dt

    Valid for every beta >= 1 including integers (see `_psi_laplace`).
    """
    if not (alpha > 0.0):
        raise DomainError(f"tricomi_psi_integral: alpha must be > 0, got {alpha}")
    if not (1.0 <= beta < math.inf):
        raise DomainError(f"tricomi_psi_integral: beta must be finite and >= 1, got {beta}")
    if not (rho > 0.0):
        raise DomainError(f"tricomi_psi_integral: rho must be > 0, got {rho}")
    integral, ln_scale = _psi_laplace(alpha, beta, rho)
    try:
        scale = math.exp(ln_scale)
    except OverflowError:
        raise ConvergenceError(
            f"tricomi_psi_integral: rho^(-alpha)/Gamma(alpha) overflows at "
            f"alpha={alpha}, rho={rho}"
        ) from None
    if not integral >= sys.float_info.min / sys.float_info.epsilon:
        # (1 + t/rho)^(beta-alpha-1) underflowed where the weight sits (large
        # alpha, small rho): below 2^52 normal floats the sum's subnormal and
        # flushed terms can carry more than its last digit (0.2 % of
        # Psi(39.6, 1; 1.7e-8) at a sum of 5.4e-308), though Psi did not
        raise ConvergenceError(
            f"tricomi_psi_integral: integrand underflows float64 at alpha={alpha}, rho={rho}"
        )
    if scale < sys.float_info.min and integral > 0.0:
        # a subnormal scale drops digits (all of Psi(95, b; 80)) that the product keeps
        return math.exp(ln_scale + math.log(integral))
    return scale * integral


def _series_prefactor(g: float, z: float, pw: float) -> float:
    """g / Gamma(z) * pw, or 0.0 (refused as a hidden term) where 1/Gamma or
    pw is subnormal, its digits shed.  Past z = 171, 1/Gamma(z) is taken as
    1/Gamma(z - m) / (z - m)_m with z - m <= 171 (exact).  A subnormal
    g = Gamma(1 - beta) is kept: its term is below 1e-2 of the other."""
    m = min(16, math.ceil(z - 171.0)) if z > 171.0 else 0
    r = rgamma(z - m)
    if abs(r) < sys.float_info.min or pw < sys.float_info.min:
        return 0.0
    return g * r * pw / math.prod([z - m + j for j in range(m)])


def tricomi_psi_series(alpha: float, beta: float, rho: float) -> float:
    """Psi via the two-series combination (non-integer beta only, rho <= 300:
    the router sends only rho <= 8 here, and a larger rho is refused).

    Returns the float64 value when at most 5 digits cancel, and otherwise
    raises ConvergenceError naming the digits lost.  A prefactor that
    underflowed or lost digits (not an exact pole of 1/Gamma, where its
    term truly vanishes) hides its term, which is refused too.
    """
    if not (alpha > 0.0):
        raise DomainError(f"tricomi_psi_series: alpha must be > 0, got {alpha}")
    if not (1.0 <= beta < math.inf):
        raise DomainError(f"tricomi_psi_series: beta must be finite and >= 1, got {beta}")
    if not (rho > 0.0):
        raise DomainError(f"tricomi_psi_series: rho must be > 0, got {rho}")
    d = abs(beta - round(beta))
    if d < 1e-12:
        raise DomainError(f"tricomi_psi_series: beta {beta} is (numerically) integer, series form degenerates")
    if rho > 300.0:
        raise ConvergenceError(
            f"tricomi_psi_series: rho={rho} exceeds the series-form budget (use the integral form)"
        )
    p1 = _series_prefactor(gamma(1.0 - beta), alpha - beta + 1.0, 1.0)
    t1 = p1 * _phi_series(alpha, beta, rho)
    try:
        pw = rho ** (1.0 - beta)
    except OverflowError:
        raise ConvergenceError(f"tricomi_psi_series: rho^(1-beta) overflows at rho={rho}") from None
    p2 = _series_prefactor(gamma(beta - 1.0), alpha, pw)
    t2 = p2 * _phi_series(alpha - beta + 1.0, 2.0 - beta, rho)
    val = t1 + t2
    num = abs(t1) + abs(t2)
    if abs(p2) < sys.float_info.min or (
        abs(p1) < sys.float_info.min and not _is_nonpositive_int(alpha - beta + 1.0)
    ):
        raise ConvergenceError(
            f"tricomi_psi_series: a prefactor underflows and hides its term at "
            f"alpha={alpha}, beta={beta}, rho={rho}"
        )
    if num == 0.0:
        return val  # one term vanished on an exact pole, no cancellation
    log_num = math.log10(num)
    if not math.isfinite(log_num):
        raise ConvergenceError(f"tricomi_psi_series: Phi overflow at alpha={alpha}, rho={rho}")
    log_val = math.log10(abs(val)) if val != 0.0 else -400.0
    # digits lost: those that cancel, plus those Gamma(1 - beta) lacks within
    # 0.1 of an integer beta (its sin(pi (1 - beta)) is good to ~eps/d)
    lost = log_num - log_val + max(0.0, math.log10(0.1 / d))
    if lost > 5.0:
        raise ConvergenceError(
            f"tricomi_psi_series: {lost:.1f} digits cancel, more than 5, at "
            f"alpha={alpha}, beta={beta}, rho={rho}"
        )
    return val


def tricomi_psi(alpha: float, beta: float, rho: float) -> float:
    """Tricomi's confluent hypergeometric Psi(alpha, beta; rho).

    The one place that orders Psi's routes.  The two-series form comes
    first where it applies: off an integer beta (within 1e-8 it has lost,
    or is about to lose, all significance to the Gamma(1-beta) /
    Gamma(beta-1) blowup) and at rho <= 8 (past it the series must rebuild
    the cancelled digits at ~40x the cost).  Where it refuses, or does not
    apply, the Laplace integral follows.  Below the sweep's seed at
    rho = 8+, a value both refuse (large alpha at small rho, where the
    integral's scale rho^(-alpha)/Gamma(alpha) or its integrand leaves
    float64) comes from the inward sweep `tricomi_psi_on`, which starts
    from a binary-scaled seed where Psi(alpha, beta; 8+) is no normal
    float; where no route holds the value (the integral's weight passes
    float64 from alpha ~ 171), a ConvergenceError.  Strictly positive, strictly
    decreasing in rho, ~ rho^(-alpha) at infinity.

    alpha = 0 is excluded by contract: Psi(0, b; rho) = 1 identically.
    """
    if not (alpha > 0.0):
        raise DomainError(f"tricomi_psi: alpha must be > 0, got {alpha}")
    if not (1.0 <= beta < math.inf):
        raise DomainError(f"tricomi_psi: beta must be finite and >= 1, got {beta}")
    if not (rho > 0.0):
        raise DomainError(f"tricomi_psi: rho must be > 0, got {rho}")
    if abs(beta - round(beta)) <= 1e-8 or rho > 8.0:
        routes = (tricomi_psi_integral,)
    else:
        routes = (tricomi_psi_series, tricomi_psi_integral)
    for route in routes:
        try:
            return route(alpha, beta, rho)
        except ConvergenceError as exc:
            refusal = exc
    if rho >= _SWEEP_SEED:  # the sweep seeds from this router there
        raise refusal
    return tricomi_psi_on(alpha, beta, (rho,))[0]


# ---------------------------------------------------------------------------
# Psi along a grid


# the sweep's seed lies at least just past rho = 8, where the router takes
# the Laplace integral for Psi and Psi'; two Taylor terms running below
# _SWEEP_REL_TOL of their sums end a step; past _SWEEP_MAX_TERMS terms in a
# step, or past _SWEEP_MAX_STEPS steps plus 16 per point, the sweep refuses
_SWEEP_SEED = math.nextafter(8.0, math.inf)
_SWEEP_REL_TOL = 1e-17
_SWEEP_MAX_TERMS = 400
_SWEEP_MAX_STEPS = 1000
_LN2 = math.log(2.0)
# (k, k + 1, k + 2) as floats for the Taylor terms k of one sweep step
_SWEEP_KS = tuple((float(k), k + 1.0, k + 2.0) for k in range(_SWEEP_MAX_TERMS))


def _scaled_seed(alpha: float, beta: float, r: float) -> tuple[float, float, int]:
    """(Psi 2^-e, Psi' 2^-e, e) at r >= 8, for a seed whose Psi or Psi' is
    not a normal float: ln Psi(alpha, beta; r) and ln Psi(alpha+1, beta+1; r)
    from the Laplace integral in log form, and e the power of two nearest
    Psi.  Refuses where the integral does.  At r >= 8 the integral itself
    stays near or above 1 (its scale carries the underflow), so its log holds
    every digit."""
    i0, ln0 = _psi_laplace(alpha, beta, r)
    i1, ln1 = _psi_laplace(alpha + 1.0, beta + 1.0, r)
    ln_psi = ln0 + math.log(i0)
    e = round(ln_psi / _LN2)
    shift = e * _LN2
    return math.exp(ln_psi - shift), -alpha * math.exp(ln1 + math.log(i1) - shift), e


def tricomi_psi_on(alpha: float, beta: float, rhos) -> list[float]:
    """Psi(alpha, beta; rho) at every rho of rhos, in their order (any
    order, repeats allowed), by one inward Taylor sweep of Kummer's
    equation seeded by two `tricomi_psi` calls (see "Psi along a grid"
    above).  alpha > 0, beta >= 1 and every rho > 0, as for `tricomi_psi`.

    A step ends on the farthest point within its reach, or at its reach
    when no point lies inside it; the points it passes take its Taylor
    polynomial (dense output).  A step never reaches past half its own
    rho, so every point minus the step's start is an exact float.  A seed
    whose Psi or Psi' is not a normal float is replaced by the mantissas
    of the Laplace integral's log form, scaled by an exact power of two
    that the output takes back.  Raises ConvergenceError where that log
    form refuses too (its integrand overflows from alpha ~ 171), where the
    sweep would take more than _SWEEP_MAX_STEPS + 16 steps per point, or
    where a value leaves float64.  Both refusals can fall where every
    `tricomi_psi` value exists: a wide grid runs out of steps (Psi(0.5, 1;
    rho) on [0.01, 2000], whose steps are about one unit long near 2000),
    and Psi' can leave float64 while Psi does not (Psi(2.5, 1.75; 1e-200) ~
    9.2e149, with Psi' ~ rho^-1.75).  A caller that needs those values
    takes them from `tricomi_psi`, as `values_on` does.
    """
    if not (alpha > 0.0):
        raise DomainError(f"tricomi_psi_on: alpha must be > 0, got {alpha}")
    if not (1.0 <= beta < math.inf):
        raise DomainError(f"tricomi_psi_on: beta must be finite and >= 1, got {beta}")
    rs = [float(r) for r in rhos]
    if not all(0.0 < r < math.inf for r in rs):
        raise DomainError("tricomi_psi_on: every rho must be finite and > 0")
    n = len(rs)
    out = [0.0] * n
    if not rs:
        return out
    order = sorted(range(n), key=rs.__getitem__, reverse=True)
    desc = [rs[i] for i in order]
    r = max(desc[0], _SWEEP_SEED)
    s = tricomi_psi(alpha, beta, r)
    sp = -alpha * tricomi_psi(alpha + 1.0, beta + 1.0, r)
    e = 0
    if not (s >= sys.float_info.min and -sp >= sys.float_info.min):
        s, sp, e = _scaled_seed(alpha, beta, r)
    budget, steps, j = _SWEEP_MAX_STEPS + 16 * n, 0, 0
    tol = _SWEEP_REL_TOL
    while True:
        while j < n and desc[j] == r:
            out[order[j]] = s
            j += 1
        if j == n:
            break
        steps += 1
        if steps > budget:
            raise ConvergenceError(
                f"tricomi_psi_on: more than {budget} steps from rho={r} to {desc[-1]}"
            )
        # the step ends on the farthest point within its reach, or at its reach
        end = lo = r - r / max(2.0, math.hypot(r - beta, 2.0 * math.sqrt(alpha * r)))
        i = j
        while i < n and desc[i] >= lo:
            end = desc[i]
            i += 1
        # the Taylor terms d_k = c_k h^k of S about r; the equation gives
        #   d_{k+2} = [(k + alpha) h d_k / (k + 1) - (k + beta - r) d_{k+1}] (h / r) / (k + 2),
        # S(r + h) = sum d_k and h S'(r + h) = sum k d_k.  For Psi and h < 0
        # every term and both sums are positive.
        h = end - r
        hr, ah, br = h / r, alpha * h, beta - r
        d0, d1 = s, sp * h
        ds = [d0, d1]
        push = ds.append
        total, dtotal = d0 + d1, d1
        small = False
        for k, k1, k2 in _SWEEP_KS:
            d2 = ((k * h + ah) * d0 / k1 - (k + br) * d1) * hr / k2
            push(d2)
            total += d2
            kd = k2 * d2
            dtotal += kd
            # |kd| and |d2| as abs() compares them, NaN and -0.0 included
            if (kd if kd >= 0.0 else -kd) <= tol * dtotal and (d2 if d2 >= 0.0 else -d2) <= tol * total:
                if small:
                    break
                small = True
            else:
                small = False
            d0, d1 = d1, d2
        else:
            raise ConvergenceError(
                f"tricomi_psi_on: Taylor step {h:.4g} at rho={r:.4g} needs more than "
                f"{_SWEEP_MAX_TERMS} terms (alpha={alpha}, beta={beta})"
            )
        # dense output: a point the step passes takes sum d_k t^k, t = (rho - r) / h
        ds.reverse()
        while desc[j] > end:
            t = (desc[j] - r) / h
            v = 0.0
            for d in ds:
                v = v * t + d
            out[order[j]] = v
            j += 1
        r, s, sp = end, total, dtotal / h
    if not (math.isfinite(s) and math.isfinite(sp)):
        raise ConvergenceError(f"tricomi_psi_on: Psi leaves float64 by rho={r}")
    return [math.ldexp(v, e) for v in out] if e else out
