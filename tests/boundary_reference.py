"""The boundary function as it was written before its evaluation was made
flat: the tests' reference for `spectral._boundary_F`, kept verbatim but
for alpha - kappa, which both form from the exact 1 - kappa and shift by
kappa (`gammaln_shift(alpha - kappa, kappa)`).

`_boundary_F` dispatches to `_gamma_ratio`, which takes alpha from
`ReducedParams.alpha_of` and calls `gammaln_shift`, `gammaln_signed`,
`sinpi` and `digamma`.  `gammaln_shift` and `digamma` are the verbatim
versions of that time too (their tails looped over the coefficient tables
as written, reversing the digamma one on every call), so the whole
evaluation here is the old arithmetic; `gammaln_signed` and `sinpi` are
the package's own.  The package's flat `_boundary_F` must return the same
float for every argument, and raise where this one raises.

`test_boundary_reference.py` compares the two.
"""

import math

from calogero.errors import DomainError
from calogero.specfun import gammaln_signed, sinpi

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


def _is_nonpositive_int(z: float) -> bool:
    return z <= 0.0 and z == math.floor(z)


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


def _boundary_F(rp, w: float, c: float, skew: float) -> float:
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


def _gamma_ratio(rp, w: float, c: float) -> float:
    """G(1-k)/G(1+k) * G(alpha)/G(alpha-k) with alpha = (1+k)/2 + w and
    c = ln G(1-k) - ln G(1+k), in log space; 0.0 on the exact poles of
    G(alpha-k), +-inf on overflow.  Below alpha = 0 both gammas are
    reflected, leaving one log-gamma shift and two sines."""
    k = rp.kappa
    a = rp.alpha_of(w)
    am = 0.5 * (1.0 - k) + w
    if am <= 0.0 and am == math.floor(am):
        return 0.0
    if a <= 0.0 and a == math.floor(a):  # pole of the numerator
        return math.inf
    if a > 0.0 and am > 0.0:
        # alpha - k formed from the exact 1 - k, and the shift k handed
        # over exactly: deep roots push alpha past 1e16, where alpha - k
        # is not even a distinct float, and next to kappa = 1 it is a
        # small difference; never subtract two lgamma values
        ln_r = c + gammaln_shift(am, k)
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
