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

degenerates (0/0) at integer b, while Psi's three-term recurrence in a
(DLMF 13.3.7), of which Psi is the minimal solution, holds for every
b >= 1.  The public router takes the combination first where it applies,
at rho <= 8 and more than 1e-8 from an integer b; the recurrence where the
combination refuses or does not apply, from rho = 1; and below rho = 1
the inward sweep of "Psi along a grid", seeded there.  Against
mpmath.hyperu the router holds 1e-8; where the series answers, the routes
agree to 1e-11 on the tests' overlap grid and to 1e-12 on `verify`'s row
7-psi-dual-route, whose threshold is 1e-10.

The two-series combination cancels catastrophically once rho is a few
units large (the two Phi terms grow like e^rho while Psi decays like
rho^(-a)).  Measured in float64 the worst case on the overlap test grid
is ~2e-7, which busts the router's 1e-8, so the combination counts the
digits it lost, its prefactors' own error among them, and refuses a value
that lost more than 5.

The recurrence (`_psi_log`) gives ln Psi and Psi'/Psi.  Below rho = 1
its continued fraction needs ~85/rho terms and -rho Psi'/Psi cancels.

Psi along a grid.  `tricomi_psi_on` gives Psi at many rho from one call
of the recurrence for Psi and Psi' = -alpha Psi(alpha+1, beta+1; rho) at
the largest rho (at least rho = 1, and beta - 2 alpha), then Taylor steps
of Kummer's equation rho S'' + (beta - rho) S' - alpha S = 0 (DLMF 13.2.1)
inward through the sorted rho (the Taylor method of Gil, Segura & Temme,
*Numerical Methods for Special Functions*, SIAM 2007).  Inward is the
stable direction: Psi / Phi grows toward the origin (their Wronskian has
one sign), so whatever a step puts along Kummer's Phi decays relative to
Psi.  Psi is completely monotone, so every Taylor term of an inward step
is positive and nothing cancels in the sum.  A step reaches at most rho/2
(half the distance to the singular point) and at most
rho / sqrt((rho - beta)^2 + 4 alpha rho), the inverse gap between the local
exponents of the two solutions, so a rounding error grows at most e-fold
along Phi within one step.  A step ends on the farthest point within that
reach and gives every point it passes its Taylor polynomial by Horner
(dense output), so an 801-point grid takes 80 to 400 steps, not 801.
Kummer's equation is linear: the sweep carries Psi and rho Psi' as
mantissas over an exact power of two, at first the one nearest the seed's
Psi (a seed past float64 still starts it: Psi(alpha, beta; 64) leaves the
normal floats from alpha ~ 139), which takes the mantissa's exponent where
that leaves 2^+-600; each value goes back with ldexp.  A gap of more than
256 reaches above the recurrence's floor is seeded again at its far end.
"""

from __future__ import annotations

import math
import sys

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
    "tricomi_psi_on",
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
# Tricomi function


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

    Returns the float64 value when at most 5 digits are lost (those that
    cancel, and the prefactors' own error, ~alpha ln alpha ulps), and
    otherwise raises ConvergenceError naming the digits lost.  A prefactor that
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
            f"tricomi_psi_series: rho={rho} exceeds the series-form budget"
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
    # 0.1 of an integer beta (its sin(pi (1 - beta)) is good to ~eps/d), plus
    # the prefactors' own error in ulps, ~alpha ln alpha from the rounding of
    # alpha - beta + 1 that Gamma amplifies by psi(alpha) ~ ln alpha
    lost = (log_num - log_val + max(0.0, math.log10(0.1 / d))
            + math.log10(max(1.0, alpha * math.log(alpha))))
    if lost > 5.0:
        raise ConvergenceError(
            f"tricomi_psi_series: {lost:.1f} digits cancel, more than 5, at "
            f"alpha={alpha}, beta={beta}, rho={rho}"
        )
    return val


# Psi's recurrence in alpha: a Lentz step that moves the continued fraction
# by at most _CF_REL_TOL ends it, and a term below _CF_REL_TOL of its sum
# ends Temme's sum and Phi's; past _CF_MAX_TERMS terms in any of them,
# `_psi_log` refuses
_CF_REL_TOL = sys.float_info.epsilon
_CF_MAX_TERMS = 5000
_CF_TINY = 1e-300
_LN2 = math.log(2.0)


def _psi_cf_floor(alpha: float, beta: float) -> float:
    """The smallest rho the router and the sweep's seed hand to `_psi_log`:
    1, and past beta - 2 alpha, where b_0 >= 2 (below it the fraction's
    leading denominators cancel, from beta ~ 20 up to every digit)."""
    return max(1.0, beta - 2.0 * alpha)


def _psi_log(alpha: float, beta: float, rho: float) -> tuple[float, float]:
    """(ln Psi(alpha, beta; rho), Psi'/Psi) from Psi's three-term recurrence
    in alpha (DLMF 13.3.7), of which Psi is the minimal solution (Temme,
    Numer. Math. 41 (1983) 63-82), for alpha > 0, beta >= 1 and finite rho
    with b_0 > 0 (below); the router and the sweep call it from `_psi_cf_floor`.

    h = Psi(alpha + 1, beta; rho) / Psi(alpha, beta; rho) is the continued
    fraction 1 / (b_0 - a_1 / (b_1 - a_2 / (b_2 - ...))) with
    b_k = rho + 2 (alpha + k + 1) - beta and a_k = (alpha + k)(alpha + k + 1 - beta),
    taken as 1/g by modified Lentz, and y = -rho Psi'/Psi = alpha [1 -
    (alpha - beta + 1) h] (the Laplace integral integrated by parts).  Psi
    itself comes from one of two normalisations:

    * Temme's sum  sum_n (alpha)_n (alpha - beta + 1)_n / n! Psi(alpha + n) = rho^-alpha,
      where rho exceeds 16 + alpha + 2 beta + alpha (beta - alpha - 1):
      it has few terms there and none that cancel.  Its terms are Steed's
      increments of h times the partial sums of the same recurrence's
      second solution, taken in the same loop;
    * elsewhere the Wronskian Phi Psi' - Phi' Psi = -Gamma(beta) rho^-beta
      e^rho / Gamma(alpha) (DLMF 13.2.34), whose two terms are positive:
      rho (Phi y / rho + Phi') = sum_k t_k (y + k) over Phi's terms t_k,
      one positive-term sum of about rho terms.

    Raises ConvergenceError past _CF_MAX_TERMS terms or where ln Psi leaves
    float64.
    """
    tol, tiny = _CF_REL_TOL, _CF_TINY
    temme = rho > 16.0 + alpha + 2.0 * beta + alpha * max(0.0, beta - alpha - 1.0)
    b = rho + 2.0 * alpha + 2.0 - beta  # b_0 >= 2
    f = c = b  # Lentz on g = 1/h: f its value, c and d its two ratios
    d = 0.0
    a = alpha * (alpha + 1.0 - beta)  # a_0
    # Temme's sum S = rho^-alpha / Psi = 1 + sum_k dh_k q_k, with Steed's
    # increments dh_{k+1} = a_k dh_k / (c_{k-1} c_k) of h, dh_1 = 1/b_0, and
    # q_k = sum_{n <= k} w_n, w_{n+1} = (b_{n-1} w_n - a_{n-1} w_{n-1} / n) / (n + 1)
    dh = 1.0 / b
    w0 = 0.0
    w1 = q = a
    s = 1.0 + dh * q if temme else 1.0
    ds = 0.0
    for k in range(1, _CF_MAX_TERMS):
        ak = (alpha + k) * (alpha + k + 1.0 - beta)
        b += 2.0
        d = b - ak * d
        d = 1.0 / (d if d != 0.0 else tiny)
        cn = b - ak / c
        if cn == 0.0:
            cn = tiny
        delta = cn * d
        f *= delta
        if temme:
            dh *= ak / (c * cn)
            w0, w1 = w1, ((b - 2.0) * w1 - a * w0 / k) / (k + 1.0)
            q += w1
            ds = dh * q
            s += ds
        a, c = ak, cn
        if abs(delta - 1.0) <= tol and abs(ds) <= tol * s:
            break
    else:
        raise ConvergenceError(
            f"tricomi_psi: Psi's continued fraction needs more than {_CF_MAX_TERMS} terms "
            f"(alpha={alpha}, beta={beta}, rho={rho})"
        )
    v = 1.0 - (alpha - beta + 1.0) / f  # y / alpha
    y = alpha * v
    if temme:
        ln_psi = -alpha * math.log(rho) - math.log(s)
    else:
        # the sum over alpha, so that a subnormal alpha keeps its digits: t is
        # t_k / alpha, t_1 / alpha = rho / beta and t_{k+1} = t_k r_k; r_k falls
        # for k >= beta, so once it is below 1/2 the tail is below 3 dt.  The
        # sum is scaled by 2^-900 (counted in e) before it leaves float64
        t, total, e = rho / beta, v, 0
        for k in range(1, _CF_MAX_TERMS):
            dt = t * (y + k)
            total += dt
            r = (alpha + k) * rho / ((beta + k) * (k + 1.0))
            if dt <= tol * total and r <= 0.5 and k >= beta:
                break
            t *= r
            if total > 1e280:
                t, total, e = math.ldexp(t, -900), math.ldexp(total, -900), e + 900
        else:
            raise ConvergenceError(
                f"tricomi_psi: Phi's sum needs more than {_CF_MAX_TERMS} terms "
                f"(alpha={alpha}, beta={beta}, rho={rho})"
            )
        # ln Gamma(alpha + 1); below alpha = 1 the rounding of alpha + 1 costs nothing
        lg1 = math.lgamma(alpha + 1.0) if alpha < 1.0 else math.lgamma(alpha) + math.log(alpha)
        ln_psi = (math.lgamma(beta) - lg1 + (1.0 - beta) * math.log(rho)
                  + rho - math.log(total) - e * _LN2)
    if not math.isfinite(ln_psi):
        raise ConvergenceError(f"tricomi_psi: ln Psi leaves float64 at alpha={alpha}, beta={beta}, rho={rho}")
    return ln_psi, -y / rho


def tricomi_psi(alpha: float, beta: float, rho: float) -> float:
    """Tricomi's confluent hypergeometric Psi(alpha, beta; rho).

    The one place that orders Psi's routes.  The two-series form comes
    first where it applies: off an integer beta (within 1e-8 it has lost,
    or is about to lose, all significance to the Gamma(1-beta) /
    Gamma(beta-1) blowup) and at rho <= 8 (past it the series must rebuild
    the cancelled digits at ~40x the cost).  Where it refuses, or does not
    apply, the recurrence in alpha (`_psi_log`) answers from rho = 1 (and
    past beta - 2 alpha), and the inward sweep `tricomi_psi_on`, seeded
    there, below it.  A value past float64, or past the recurrence's term
    budget, is a ConvergenceError.  Strictly positive, strictly decreasing
    in rho, ~ rho^(-alpha) at infinity.

    alpha = 0 is excluded by contract: Psi(0, b; rho) = 1 identically.
    """
    if not (alpha > 0.0):
        raise DomainError(f"tricomi_psi: alpha must be > 0, got {alpha}")
    if not (1.0 <= beta < math.inf):
        raise DomainError(f"tricomi_psi: beta must be finite and >= 1, got {beta}")
    if not (rho > 0.0):
        raise DomainError(f"tricomi_psi: rho must be > 0, got {rho}")
    # the series first: sending these through the recurrence and the sweep
    # cut `states` goodput 5.3 % (10 alternating pairs, 2-core VM)
    if abs(beta - round(beta)) > 1e-8 and rho <= 8.0:
        try:
            return tricomi_psi_series(alpha, beta, rho)
        except ConvergenceError:
            pass
    if rho < _psi_cf_floor(alpha, beta):
        return tricomi_psi_on(alpha, beta, (rho,))[0]
    if rho == math.inf:
        return 0.0
    # the recurrence itself: routing these through a one-point
    # `tricomi_psi_on` cost 15 % per call (40 interleaved pairs, 2-core VM)
    try:
        return math.exp(_psi_log(alpha, beta, rho)[0])
    except OverflowError:
        raise ConvergenceError(f"tricomi_psi: Psi({alpha!r}, {beta!r}; {rho!r}) overflows float64") from None


# ---------------------------------------------------------------------------
# Psi along a grid


# two Taylor terms running below _SWEEP_REL_TOL of their sums end a step;
# past _SWEEP_MAX_TERMS terms in a step, or past _SWEEP_MAX_STEPS steps plus
# 16 per point, the sweep refuses
_SWEEP_REL_TOL = 1e-17
_SWEEP_MAX_TERMS = 400
_SWEEP_MAX_STEPS = 1000
# a gap of more than _SWEEP_GAP reaches above `_psi_cf_floor` is seeded
# again at its far end; a mantissa past _SWEEP_LOW.._SWEEP_HIGH gives its
# exponent to the power of two
_SWEEP_GAP = 256.0
_SWEEP_LOW, _SWEEP_HIGH = 2.0**-600, 2.0**600
# (k, k + 1, k + 2) as floats for the Taylor terms k of one sweep step
_SWEEP_KS = tuple((float(k), k + 1.0, k + 2.0) for k in range(_SWEEP_MAX_TERMS))


def _sweep_seed(alpha: float, beta: float, rho: float) -> tuple[float, float, int]:
    """(Psi, rho Psi', e) at rho from `_psi_log`, the first two over the
    exact power of two 2^e nearest Psi."""
    ln_psi, dlog = _psi_log(alpha, beta, rho)
    e = round(ln_psi / _LN2)
    s = math.exp(ln_psi - e * _LN2)
    return s, s * dlog * rho, e


def tricomi_psi_on(alpha: float, beta: float, rhos) -> list[float]:
    """Psi(alpha, beta; rho) at every rho of rhos, in their order (any
    order, repeats allowed), by an inward Taylor sweep of Kummer's
    equation seeded by `_psi_log` (see "Psi along a grid" above).
    alpha > 0, beta >= 1 and every rho finite and > 0.

    A step ends on the farthest point within its reach, or at its reach
    when no point lies inside it; the points it passes take its Taylor
    polynomial (dense output).  A step never reaches past half its own
    rho, so every point minus the step's start is an exact float.  The
    seed, at the largest rho or at `_psi_cf_floor` if that lies above it,
    is Psi and rho Psi' as mantissas over the exact power of two 2^e
    nearest Psi; rho Psi' stays a float down to rho ~ 1e-300, where Psi'
    ~ Psi / rho does not.  Where the mantissa leaves 2^+-600, e takes its
    exponent; each value goes back with ldexp at its step's e.  Where the
    next point (or the floor above it) is more than _SWEEP_GAP reaches
    below, the sweep seeds again there.  Raises ConvergenceError where a
    seed refuses, where the walk below the floor would take more than
    _SWEEP_MAX_STEPS + 16 steps per point, or where a value leaves
    float64; a caller that needs the other values then takes them from
    `tricomi_psi`, as `values_on` does.
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
    floor = _psi_cf_floor(alpha, beta)
    r = max(desc[0], floor)
    s, rsp, e = _sweep_seed(alpha, beta, r)
    budget, steps, j = _SWEEP_MAX_STEPS + 16 * n, 0, 0
    tol, ldexp = _SWEEP_REL_TOL, math.ldexp
    try:
        while True:
            while j < n and desc[j] == r:
                out[order[j]] = ldexp(s, e)
                j += 1
            if j == n:
                break
            reach = r / max(2.0, math.hypot(r - beta, 2.0 * math.sqrt(alpha * r)))
            far = max(desc[j], floor)
            if r - far > _SWEEP_GAP * reach:
                r = far
                s, rsp, e = _sweep_seed(alpha, beta, r)
                continue
            steps += 1
            if steps > budget:
                raise ConvergenceError(
                    f"tricomi_psi_on: more than {budget} steps from rho={r} to {desc[-1]}"
                )
            # the step ends on the farthest point within its reach, or at its reach
            end = lo = r - reach
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
            d0, d1 = s, rsp * hr
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
                out[order[j]] = ldexp(v, e)
                j += 1
            r, s, rsp = end, total, dtotal / (h / end)
            if not _SWEEP_LOW <= s <= _SWEEP_HIGH:
                k = math.frexp(s)[1]
                s, rsp, e = ldexp(s, -k), ldexp(rsp, -k), e + k
    except OverflowError:
        raise ConvergenceError(f"tricomi_psi_on: Psi leaves float64 by rho={r}") from None
    if not (math.isfinite(s) and math.isfinite(rsp)):
        raise ConvergenceError(f"tricomi_psi_on: Psi leaves float64 by rho={r}")
    return out
