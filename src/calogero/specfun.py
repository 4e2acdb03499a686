"""Special functions for the half-line oscillator machinery.

Everything downstream reduces to three ingredients:

* the Euler gamma function and its logarithmic derivative (digamma),
* the Kummer series  Phi(a, b; rho) = sum_k (a)_k / (b)_k * rho^k / k!,
* the Tricomi function Psi(a, b; rho), the solution of the confluent
  hypergeometric equation that decays like rho^(-a) at infinity.

Psi is evaluated by two independent routes and that redundancy is load
bearing: the two-series combination

    Psi = G(1-b)/G(a-b+1) Phi(a,b;rho)
        + G(b-1)/G(a) rho^(1-b) Phi(a-b+1, 2-b; rho)

degenerates (0/0) at integer b, while the Laplace integral

    Psi = 1/G(a) int_0^inf t^(a-1) (1+t)^(b-a-1) e^(-rho t) dt

holds for every b >= 1.  The public router uses the integral within 1e-8
of an integer b and the combination elsewhere; tests drive both branches
on overlapping arguments and demand 1e-8 agreement.

The two-series combination cancels catastrophically once rho is a few
units large (the two Phi terms grow like e^rho while Psi decays like
rho^(-a)).  Measured in float64 the worst case on the overlap test grid
is ~2e-7, which busts the 1e-8 contract, so the combination counts the
digits it lost: up to 5 it keeps its float64 value, up to 13 it re-runs
itself in fixed elevated precision (mpmath), and past that, where its
value is rounding noise, it hands over to the Laplace integral.

Quadrature notes.  The integral route has an integrable t^(a-1) endpoint
singularity whenever a < 1, which ordinary interval-halving quadrature
cannot chase to 1e-10.  After rescaling t -> t/rho it is evaluated with a
double-exponential map t = exp(u - exp(-u)), trapezoid in u, which eats
both the algebraic endpoint and the e^(-t) tail.
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
    "sinpi",
    "kummer_phi",
    "tricomi_psi",
    "tricomi_psi_series",
    "tricomi_psi_integral",
    "exp_halfline_quad",
]

_LN_SQRT_2PI = 0.9189385332046727417803297364056
_LN_PI = 1.1447298858494001741434273513531

# Lanczos approximation, g = 7, 9 coefficients.  Relative error of the
# rational part is a few 1e-15 over Re z >= 0.5.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_nonpositive_int(z: float) -> bool:
    return z <= 0.0 and z == math.floor(z)


def sinpi(z: float) -> float:
    """sin(pi z) to a few ulps relative on both sides of every integer.

    z minus its nearest integer m is exact, so pi (z - m) keeps every
    digit however close z is to m or however large |z| is.  The one sine
    of pi z in the package: the reflections of `gamma` and
    `gammaln_signed` and the boundary function's gamma ratio take it.
    """
    m = round(z)
    s = math.sin(math.pi * (z - m))
    return -s if m & 1 else s


def _lanczos_sum(zm1: float) -> float:
    # rational part A_g(z) with z = zm1 + 1
    acc = _LANCZOS_C[0]
    for k in range(1, 9):
        acc += _LANCZOS_C[k] / (zm1 + k)
    return acc


def gamma(z: float) -> float:
    """Euler gamma for real z off the poles {0, -1, -2, ...}.

    Lanczos approximation for z >= 0.5, reflection through `sinpi` below,
    which keeps its digits next to every pole.  Relative error is a few
    1e-15, comfortably below 1e-12 for |z| <= 50.
    """
    if math.isnan(z) or math.isinf(z):
        raise DomainError(f"gamma: non-finite argument {z!r}")
    if _is_nonpositive_int(z):
        raise DomainError(f"gamma: pole at z = {z}")
    if z < 0.5:
        return math.pi / (sinpi(z) * gamma(1.0 - z))
    zm1 = z - 1.0
    t = zm1 + _LANCZOS_G + 0.5
    try:
        return math.sqrt(2.0 * math.pi) * t ** (zm1 + 0.5) * math.exp(-t) * _lanczos_sum(zm1)
    except OverflowError:  # t ** (z - 1/2) leaves float64 from z ~ 143
        raise ConvergenceError(f"gamma: Gamma({z}) overflows the float64 Lanczos form") from None


def gammaln_signed(z: float) -> tuple[float, float]:
    """(log |Gamma(z)|, sign) for real z off the poles.

    The log form never overflows on ratio work, which is what the
    spectral equations need when both gamma arguments sit near poles.
    """
    if math.isnan(z) or math.isinf(z):
        raise DomainError(f"gammaln_signed: non-finite argument {z!r}")
    if _is_nonpositive_int(z):
        raise DomainError(f"gammaln_signed: pole at z = {z}")
    if z >= 0.5:
        zm1 = z - 1.0
        t = zm1 + _LANCZOS_G + 0.5
        return (_LN_SQRT_2PI + (zm1 + 0.5) * math.log(t) - t + math.log(_lanczos_sum(zm1)), 1.0)
    # reflection: Gamma(z) = pi / (sin(pi z) Gamma(1-z)); 1-z >= 0.5 here
    ln1z, _ = gammaln_signed(1.0 - z)
    sp = sinpi(z)
    return (_LN_PI - math.log(abs(sp)) - ln1z, 1.0 if sp > 0.0 else -1.0)


def rgamma(z: float) -> float:
    """1 / Gamma(z), entire: returns 0.0 at the poles of Gamma."""
    if _is_nonpositive_int(z):
        return 0.0
    lg, sg = gammaln_signed(z)
    if lg > 709.0:  # 1/Gamma underflows; sign times true zero
        return 0.0 * sg
    return sg * math.exp(-lg)


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
    if math.isnan(z) or math.isinf(z):
        raise DomainError(f"digamma: non-finite argument {z!r}")
    if _is_nonpositive_int(z):
        raise DomainError(f"digamma: pole at z = {z}")
    if z < 0.0:
        return digamma(1.0 - z) - math.pi / math.tan(math.pi * (z - round(z)))
    acc = 0.0
    while z < 10.0:
        acc -= 1.0 / z
        z += 1.0
    inv = 1.0 / z
    inv2 = inv * inv
    tail = 0.0
    for c in reversed(_DIGAMMA_TAIL):
        tail = (tail + c) * inv2
    return acc + math.log(z) - 0.5 * inv + tail


# ln Gamma Stirling tail coefficients B_{2n} / (2n (2n-1))
_STIRLING_TAIL = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)


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
    if math.isnan(b) or math.isnan(d) or math.isinf(b) or math.isinf(d):
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
    tail = 0.0
    for n, c in enumerate(_STIRLING_TAIL, start=1):
        m = 2 * n - 1
        tail += c * b ** (-m) * math.expm1(-m * la)
    return main + tail + corr


# Kummer series truncation: relative term size at which the sum has
# stagnated, and the term budget before giving up
_SERIES_REL_TOL = 1e-15
_SERIES_MAX_TERMS = 800


def _phi_series(a, b, rho, rel_tol, max_terms, one=1.0):
    """Raw Kummer series with the stagnation stop.

    Generic over the scalar type: pass one=mpf(1) to run the same loop in
    mpmath arithmetic.  Termination: |term| <= rel_tol * |sum| for three
    consecutive terms (the series may alternate transiently when a < 0,
    a single small term proves nothing there).
    """
    term = one
    total = one
    small = 0
    for k in range(max_terms):
        term = term * (a + k) / ((b + k) * (k + 1)) * rho
        total = total + term
        if abs(term) <= rel_tol * abs(total):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"kummer series: no convergence in {max_terms} terms (a={a}, b={b}, rho={rho})"
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
    rho) = 1 exactly.
    """
    if alpha < 0.0:
        raise DomainError(f"kummer_phi: alpha must be >= 0, got {alpha}")
    if beta < 1.0:
        raise DomainError(f"kummer_phi: beta must be >= 1, got {beta}")
    if rho < 0.0:
        raise DomainError(f"kummer_phi: rho must be >= 0, got {rho}")
    if alpha == 0.0 or rho == 0.0:
        return 1.0
    return _phi_series(alpha, beta, rho, _SERIES_REL_TOL, _SERIES_MAX_TERMS)


# ---------------------------------------------------------------------------
# quadrature


# double-exponential trapezoid: convergence target between successive
# levels, and the number of halvings of the step before giving up
_QUAD_REL_TOL = 1e-12
_QUAD_MAX_LEVEL = 8


def exp_halfline_quad(g, p: float) -> float:
    """integral_0^inf t^p g(t) e^(-t) dt for p > -0.95, g algebraic.

    Double-exponential substitution t = exp(u - exp(-u)); the trapezoid
    sum in u converges geometrically in the level number.  Node weights
    are assembled in log space so the algebraic endpoint cannot overflow;
    nodes with t < 1e-305 are dropped, which for p > -0.95 discards a
    relative mass below ~1e-14 (hence the p floor).
    """
    if p <= -0.95:
        raise DomainError(f"exp_halfline_quad: p must exceed -0.95, got {p}")
    u_lo, u_hi = -6.56, 7.4
    p1 = p + 1.0

    def node(u: float) -> float:
        emu = math.exp(-u)
        lt = u - emu
        if lt < -702.0:  # t below 1e-305
            return 0.0
        t = math.exp(lt)
        ln_w = p1 * lt - t
        if ln_w < -745.0:
            return 0.0
        try:
            return math.exp(ln_w) * (1.0 + emu) * g(t)
        except OverflowError:  # the weight t^(p+1) e^(-t) peaks past e^709 from p ~ 171
            raise ConvergenceError(
                f"exp_halfline_quad: integrand overflows float64 (p={p})"
            ) from None

    h = 0.5
    n = int(math.ceil((u_hi - u_lo) / h))
    total = math.fsum(node(u_lo + i * h) for i in range(n + 1)) * h
    for _ in range(_QUAD_MAX_LEVEL):
        h *= 0.5
        n *= 2
        odd = math.fsum(node(u_lo + i * h) for i in range(1, n, 2)) * h
        new = 0.5 * total + odd
        if abs(new - total) <= _QUAD_REL_TOL * max(abs(new), 1e-300):
            return new
        total = new
    raise ConvergenceError(f"exp_halfline_quad: no convergence at level {_QUAD_MAX_LEVEL} (p={p})")


# ---------------------------------------------------------------------------
# Tricomi function


def tricomi_psi_integral(alpha: float, beta: float, rho: float) -> float:
    """Psi via the Laplace integral, rescaled to a unit-decay weight:

        Psi = rho^(-alpha)/Gamma(alpha) *
              int_0^inf t^(alpha-1) (1 + t/rho)^(beta-alpha-1) e^(-t) dt

    Valid for every beta >= 1 including integers.  For alpha < 0.5 one
    integration by parts removes the t^(alpha-1) endpoint weight first
    (the double-exponential map wants the singular power above -0.95 with
    slack, and tiny alpha turns up whenever w sits just above its floor).
    """
    if alpha <= 0.0:
        raise DomainError(f"tricomi_psi_integral: alpha must be > 0, got {alpha}")
    if beta < 1.0:
        raise DomainError(f"tricomi_psi_integral: beta must be >= 1, got {beta}")
    if rho <= 0.0:
        raise DomainError(f"tricomi_psi_integral: rho must be > 0, got {rho}")
    c = beta - alpha - 1.0

    if alpha >= 0.5:
        def g(t: float) -> float:
            return math.exp(c * math.log1p(t / rho)) if t > 0.0 else 1.0

        integral = exp_halfline_quad(g, alpha - 1.0)
    else:
        # parts: with G(t) = g(t) e^(-t), int t^(a-1) G dt = -(1/a) int t^a G' dt
        # (boundary terms vanish), and G' = (g' - g) e^(-t), so the singular
        # power rises from a-1 to a.
        def g_minus_gprime(t: float) -> float:
            base = math.exp(c * math.log1p(t / rho)) if t > 0.0 else 1.0
            gp = c / rho * math.exp((c - 1.0) * math.log1p(t / rho)) if t > 0.0 else c / rho
            return base - gp

        integral = exp_halfline_quad(g_minus_gprime, alpha) / alpha

    lg, _ = gammaln_signed(alpha)
    ln_scale = -alpha * math.log(rho) - lg
    try:
        scale = math.exp(ln_scale)
    except OverflowError:
        raise ConvergenceError(
            f"tricomi_psi_integral: rho^(-alpha)/Gamma(alpha) overflows at "
            f"alpha={alpha}, rho={rho}"
        ) from None
    if scale < sys.float_info.min and integral > 0.0:
        # a subnormal scale drops digits (all of Psi(95, b; 80)) that the product keeps
        return math.exp(ln_scale + math.log(integral))
    return scale * integral


def _psi_two_series_mp(alpha: float, beta: float, rho: float, lost: float) -> float:
    # Re-run the identical combination in elevated fixed precision.  The
    # cancellation between the two Phi terms eats `lost` (< 13) decimal
    # digits, so budget those plus a sound margin.  The term budget scales
    # with rho (the Kummer tail needs ~rho + sqrt(rho * digits) terms).
    import mpmath as mp

    dps = 26 + int(lost)
    max_terms = max(_SERIES_MAX_TERMS, int(3.0 * rho) + 200)
    with mp.workdps(dps):
        a, b, r = mp.mpf(alpha), mp.mpf(beta), mp.mpf(rho)
        one = mp.mpf(1)
        tol = mp.mpf(10) ** (-(dps - 6))
        s1 = _phi_series(a, b, r, tol, max_terms, one)
        s2 = _phi_series(a - b + 1, 2 - b, r, tol, max_terms, one)
        t1 = mp.gamma(1 - b) * mp.rgamma(a - b + 1) * s1
        t2 = mp.gamma(b - 1) * mp.rgamma(a) * r ** (1 - b) * s2
        return float(t1 + t2)


def tricomi_psi_series(alpha: float, beta: float, rho: float) -> float:
    """Psi via the two-series combination (non-integer beta only, rho <= 300:
    the router sends only rho <= 8 here, and a larger rho is refused), or
    via `tricomi_psi_integral` when 13 or more of its digits are lost."""
    if alpha <= 0.0:
        raise DomainError(f"tricomi_psi_series: alpha must be > 0, got {alpha}")
    if beta < 1.0:
        raise DomainError(f"tricomi_psi_series: beta must be >= 1, got {beta}")
    if rho <= 0.0:
        raise DomainError(f"tricomi_psi_series: rho must be > 0, got {rho}")
    d = abs(beta - round(beta))
    if d < 1e-12:
        raise DomainError(f"tricomi_psi_series: beta {beta} is (numerically) integer, series form degenerates")
    if rho > 300.0:
        raise ConvergenceError(
            f"tricomi_psi_series: rho={rho} exceeds the series-form budget (use the integral form)"
        )
    # float64 first; it is exact enough whenever little cancels.
    t1 = gamma(1.0 - beta) * rgamma(alpha - beta + 1.0) * _phi_series(
        alpha, beta, rho, _SERIES_REL_TOL, _SERIES_MAX_TERMS
    )
    try:
        pw = rho ** (1.0 - beta)
    except OverflowError:
        raise ConvergenceError(f"tricomi_psi_series: rho^(1-beta) overflows at rho={rho}") from None
    t2 = gamma(beta - 1.0) * rgamma(alpha) * pw * _phi_series(
        alpha - beta + 1.0, 2.0 - beta, rho, _SERIES_REL_TOL, _SERIES_MAX_TERMS
    )
    val = t1 + t2
    num = abs(t1) + abs(t2)
    if num == 0.0:
        return val  # one term vanished on an exact pole, no cancellation
    log_num = math.log10(num)
    if not math.isfinite(log_num):
        raise ConvergenceError(
            f"tricomi_psi_series: Phi overflow at alpha={alpha}, rho={rho}"
        )
    log_val = math.log10(abs(val)) if val != 0.0 else -400.0
    # digits lost: those that cancel, plus those Gamma(1 - beta) lacks within
    # 0.1 of an integer beta (its sin(pi (1 - beta)) is good to ~eps/d)
    lost = log_num - log_val + max(0.0, math.log10(0.1 / d))
    if lost >= 13.0:
        # val is rounding noise (num * 2^-53 scale) or exactly zero; the
        # Laplace integral is float64-exact here
        return tricomi_psi_integral(alpha, beta, rho)
    if lost <= 5.0:
        return val
    return _psi_two_series_mp(alpha, beta, rho, lost)


def tricomi_psi(alpha: float, beta: float, rho: float) -> float:
    """Tricomi's confluent hypergeometric Psi(alpha, beta; rho).

    Routing: within 1e-8 of an integer beta the two-series form has lost
    (or is about to lose) all significance to the Gamma(1-beta) /
    Gamma(beta-1) blowup, and the Laplace integral takes over; elsewhere
    the series combination is used.  Strictly positive, strictly
    decreasing in rho, ~ rho^(-alpha) at infinity.

    alpha = 0 is excluded by contract: Psi(0, b; rho) = 1 identically.
    """
    if alpha <= 0.0:
        raise DomainError(f"tricomi_psi: alpha must be > 0, got {alpha}")
    if beta < 1.0:
        raise DomainError(f"tricomi_psi: beta must be >= 1, got {beta}")
    if rho <= 0.0:
        raise DomainError(f"tricomi_psi: rho must be > 0, got {rho}")
    if abs(beta - round(beta)) <= 1e-8 or rho > 8.0:
        # integer-ish beta degenerates the series form.  Large rho is routed
        # to the integral too: past rho ~ 8 the series must rebuild the
        # cancelled digits in software arithmetic at ~40x the cost, while
        # the integral stays float64-exact at any rho.  Both branches remain
        # publicly callable for cross-validation on the overlap region.
        return tricomi_psi_integral(alpha, beta, rho)
    return tricomi_psi_series(alpha, beta, rho)
