"""Factorized (oscillator) representations on the half-line.

For each admissible shift u = 4 upsilon^2 w (w >= w0) and mixing angle
mu, the potential V = g1/x^2 + g2 x^2 admits a strictly positive solution
of  -phi'' + V phi = -4 upsilon^2 w phi  of the form

    phi(x) = e^(-rho/2) rho^q S(rho),     rho = (upsilon x)^2, q = 1/4 + kappa/2,

with S a two-dimensional mixture of confluent hypergeometric solutions:

    kappa > 0:  S = sin(mu) Phi(alpha, beta; rho)
                  + cos(mu) [Gamma(alpha)/Gamma(kappa)] Psi(alpha, beta; rho)
    kappa = 0:  S = sin(mu) Phi(alpha, 1; rho)
                  + cos(mu) Gamma(alpha) Psi(alpha, 1; rho)
    w = w0:     S = 1 identically (alpha = 0, both lines degenerate)

where alpha = (1+kappa)/2 + w and beta = 1 + kappa.  Positivity holds
because Phi and Psi are positive here and the mixture coefficients are
nonnegative (mu in [0, pi/2]).  The Psi scalings are chosen so that as
rho -> 0

    kappa in (0,1):  S -> A~ + B~ rho^(-kappa),
        A~ = sin(mu) - cos(mu) G(1-k)G(alpha) / [G(1+k)G(alpha-k)],
        B~ = cos(mu),
    kappa = 0:       S -> A~ + B~ ln(upsilon x),
        A~ = sin(mu) + cos(mu) (2 psi(1) - psi(alpha)),
        B~ = -2 cos(mu),

which is the boundary data that picks a self-adjoint extension later.
`spectral.theta_of` computes its angle, theta = atan2(A~, B~) for kappa
in (0,1) and atan(2 A~/B~) for kappa = 0, from the gamma ratio (resp.
psi(alpha) - 2 psi(1)) that spectral's boundary function evaluates.

From phi the superpotential h = phi'/phi defines the first-order pair

    (a f)(x) = f'(x) - h(x) f(x),      (b f)(x) = -f'(x) - h(x) f(x),

and the second-order identity  b a f = -f'' + (h' + h^2) f  must equal
-f'' + V f + 4 upsilon^2 w f  for every smooth f, since h' + h^2 =
phi''/phi = V + 4 upsilon^2 w.  `factorization_residual` measures exactly
that defect, with h' computed honestly from the series second derivative
(phi''/phi - h^2), never by assuming the identity it is checking.

`apply_a`, `apply_b` and `factorization_residual` take phi, built once per
representation by `make_phi`.  Each value at x reads one evaluation of S;
the residual's, of order 2, gives phi, h and h' together.  `residual_sweep`
and `kernel_sweep` are the checks `factorize-check` and `verify` row 6
report: the worst residual over three test functions at four points, and
the worst |a phi|, zero at the floor w0.

Derivatives of S use the contiguous relations
    Phi' = (alpha/beta) Phi(alpha+1, beta+1),   Psi' = -alpha Psi(alpha+1, beta+1),
applied twice for S''.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .params import ReducedParams
from .specfun import gamma, kummer_phi, rgamma, tricomi_psi, tricomi_psi_on

__all__ = [
    "RepresentationParams",
    "EvaluableSolution",
    "make_phi",
    "apply_a",
    "apply_b",
    "factorization_residual",
    "residual_sweep",
    "kernel_sweep",
]

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class RepresentationParams:
    """One point of the representation family: mixing angle and shift.

    mu in [0, pi/2]; w >= w0.  At w = w0 the solution space collapses to
    the single power-exponential solution and mu is ignored.
    """

    mu: float
    w: float
    rp: ReducedParams

    def __post_init__(self) -> None:
        if not (0.0 <= self.mu <= _HALF_PI + 1e-15):
            raise DomainError(f"RepresentationParams: mu={self.mu} outside [0, pi/2]")
        if not math.isfinite(self.w):
            raise DomainError(f"RepresentationParams: w={self.w!r} must be finite")
        if self.w < self.rp.w0 - 1e-14:
            raise DomainError(f"RepresentationParams: w={self.w} below the floor w0={self.rp.w0}")

    @property
    def u(self) -> float:
        return 4.0 * self.rp.upsilon**2 * self.w

    @property
    def at_floor(self) -> bool:
        return abs(self.w - self.rp.w0) < 1e-14


class EvaluableSolution:
    """Positive solution phi with analytic first and second derivatives."""

    def __init__(self, rep: RepresentationParams):
        self.rep = rep
        rp = rep.rp
        self._kappa = rp.kappa
        self._ups2 = rp.upsilon**2
        self._q = 0.25 + 0.5 * rp.kappa
        self._alpha = rp.alpha_of(rep.w)
        self._beta = rp.beta
        self._sin = math.sin(rep.mu)
        self._cos = math.cos(rep.mu)
        if self._cos < 1e-15:  # mu = pi/2 up to rounding: pure-Phi mixture
            self._sin, self._cos = 1.0, 0.0
        if self._sin < 1e-15:
            self._sin, self._cos = 0.0, 1.0
        self._at_floor = rep.at_floor
        if self._at_floor:
            self._psi_scale = 0.0
        elif self._kappa > 0.0:
            self._psi_scale = gamma(self._alpha) * rgamma(self._kappa)
        else:
            self._psi_scale = gamma(self._alpha)

    # -- S and its rho-derivatives ------------------------------------

    def _S(self, rho: float, order: int) -> tuple[float, float, float]:
        if self._at_floor:
            return 1.0, 0.0, 0.0
        a, b, sc = self._alpha, self._beta, self._psi_scale
        s = sp = spp = 0.0
        if self._sin != 0.0:
            s += self._sin * kummer_phi(a, b, rho)
            if order >= 1:
                sp += self._sin * (a / b) * kummer_phi(a + 1.0, b + 1.0, rho)
            if order >= 2:
                spp += self._sin * (a * (a + 1.0) / (b * (b + 1.0))) * kummer_phi(a + 2.0, b + 2.0, rho)
        if self._cos != 0.0:
            c = self._cos * sc
            s += c * tricomi_psi(a, b, rho)
            if order >= 1:
                sp += c * (-a) * tricomi_psi(a + 1.0, b + 1.0, rho)
            if order >= 2:
                spp += c * (a * (a + 1.0)) * tricomi_psi(a + 2.0, b + 2.0, rho)
        return s, sp, spp

    # -- x-space evaluations --------------------------------------------

    def _jet(self, x: float, order: int) -> tuple[float, float, float, float, float]:
        # (rho, e^(-rho/2) rho^q, S, S', S'') at x from one `_S` call of `order`
        rho = self._rho(x)
        s, sp, spp = self._S(rho, order)
        return rho, self._envelope(rho), s, sp, spp

    def _rho(self, x: float) -> float:
        if not (x > 0.0 and math.isfinite(x)):
            raise DomainError(f"solution evaluation needs x > 0, got {x!r}")
        return self._ups2 * x * x

    def _envelope(self, rho: float) -> float:
        try:
            return math.exp(-0.5 * rho) * rho**self._q
        except OverflowError:  # rho^q past float64: kappa ~ 10 at g2 ~ 1e300
            raise ConvergenceError(f"phi: rho^q = {rho:.4g}^{self._q:.4g} overflows") from None

    def _h(self, x: float, s: float, sp: float) -> float:
        # h = (1/2 + kappa)/x - upsilon^2 x + 2 upsilon^2 x S'/S
        return (0.5 + self._kappa) / x - self._ups2 * x + 2.0 * self._ups2 * x * sp / s

    def _phi_pp(self, x: float, rho: float, env: float, s: float, sp: float, spp: float) -> float:
        if rho * rho == 0.0:  # rho below ~1.6e-162
            raise ConvergenceError(f"phi'': rho^2 = {rho:.4g}^2 underflows float64 at x = {x:.4g}")
        g = self._q / rho - 0.5
        dphi = env * (g * s + sp)
        d2phi = env * ((g * g - self._q / (rho * rho)) * s + 2.0 * g * sp + spp)
        c = 2.0 * self._ups2 * x
        return 2.0 * self._ups2 * dphi + c * c * d2phi

    def value_at(self, x: float) -> float:
        _, env, s, _, _ = self._jet(x, 0)
        return env * s

    def values_on(self, xs) -> list[float]:
        """phi at every x of xs, in their order (any order, repeats
        allowed): env * (sin mu Phi + cos mu scale Psi) with Phi pointwise
        and Psi from one inward sweep (`tricomi_psi_on`), two Psi calls for
        the whole grid; S = 1 at the floor.  x <= 0 and rho^q past float64
        raise what `value_at` raises.  Where the sweep refuses (a seed past
        float64, say), each value is `value_at`'s, or its refusal."""
        xs = [float(x) for x in xs]
        rhos = [self._rho(x) for x in xs]
        if self._at_floor:
            ss = [1.0] * len(rhos)
        else:
            a, b = self._alpha, self._beta
            ss = [0.0] * len(rhos)
            if self._sin != 0.0:
                ss = [s + self._sin * kummer_phi(a, b, rho) for s, rho in zip(ss, rhos)]
            if self._cos != 0.0:
                try:
                    psi = tricomi_psi_on(a, b, rhos)
                except (ConvergenceError, DomainError):
                    return [self.value_at(x) for x in xs]
                c = self._cos * self._psi_scale
                ss = [s + c * p for s, p in zip(ss, psi)]
        return [self._envelope(rho) * s for rho, s in zip(rhos, ss)]

    def derivative_at(self, x: float) -> float:
        rho, env, s, sp, _ = self._jet(x, 1)
        # d phi/d rho, then chain through rho = (upsilon x)^2
        dphi_drho = env * ((self._q / rho - 0.5) * s + sp)
        return 2.0 * self._ups2 * x * dphi_drho

    def second_derivative_at(self, x: float) -> float:
        return self._phi_pp(x, *self._jet(x, 2))

    def superpotential_at(self, x: float) -> float:
        _, _, s, sp, _ = self._jet(x, 1)
        return self._h(x, s, sp)


def make_phi(rep: RepresentationParams) -> EvaluableSolution:
    """Construct the positive solution for one representation point."""
    return EvaluableSolution(rep)


def _value_and_derivative(f, x: float) -> tuple[float, float]:
    if hasattr(f, "value_at"):
        return f.value_at(x), f.derivative_at(x)
    if isinstance(f, tuple) and len(f) >= 2:
        return f[0](x), f[1](x)
    raise DomainError("apply_a/apply_b need an EvaluableSolution or a (f, f') tuple of callables")


def apply_a(phi: EvaluableSolution, f, x: float) -> float:
    """(a f)(x) = f' - h f with h = phi'/phi.  Annihilates phi itself."""
    v, d = _value_and_derivative(f, x)
    return d - phi.superpotential_at(x) * v


def apply_b(phi: EvaluableSolution, f, x: float) -> float:
    """(b f)(x) = -f' - h f with h = phi'/phi.  Annihilates 1/phi."""
    v, d = _value_and_derivative(f, x)
    return -d - phi.superpotential_at(x) * v


def factorization_residual(phi: EvaluableSolution, f_triple, x: float, h_shift: float = 0.0) -> float:
    """(b a f)(x) - [-f'' + V f + 4 upsilon^2 w f](x); zero up to rounding.

    f_triple is (f, f', f'') as callables.  phi, h and h' come from one
    order-2 evaluation of phi at x.  h_shift displaces the superpotential
    by a constant, which must break the identity; it exists so integrity
    checks can prove this test can fail.
    """
    rho, env, s, sp, spp = phi._jet(x, 2)
    if env * s == 0.0:  # phi underflows far out, e^(-rho/2) from rho ~ 1490
        raise ConvergenceError(f"factorization_residual: phi underflows to 0 at x = {x:.4g}")
    h = phi._h(x, s, sp)
    # h' = phi''/phi - h^2, not V + u - h^2: the check is not circular
    hp = phi._phi_pp(x, rho, env, s, sp, spp) / (env * s) - h * h
    h += h_shift
    fx, fppx = f_triple[0](x), f_triple[2](x)
    lhs = -fppx + (hp + h * h) * fx
    rp = phi.rep.rp
    v = rp.g1 / (x * x) + rp.g2 * x * x
    rhs = -fppx + (v + 4.0 * rp.upsilon**2 * phi.rep.w) * fx
    return lhs - rhs


# test functions (f, f', f'') with hand derivatives; smooth, decaying, and
# one rational
_PROBES = (
    (
        lambda x: x * x * math.exp(-0.5 * x * x),
        lambda x: (2.0 * x - x**3) * math.exp(-0.5 * x * x),
        lambda x: (2.0 - 5.0 * x * x + x**4) * math.exp(-0.5 * x * x),
    ),
    (
        lambda x: x**3 / (1.0 + x * x),
        lambda x: (3.0 * x * x + x**4) / (1.0 + x * x) ** 2,
        lambda x: (6.0 * x - 2.0 * x**3) / (1.0 + x * x) ** 3,
    ),
    (
        lambda x: math.sin(x) * math.exp(-x),
        lambda x: (math.cos(x) - math.sin(x)) * math.exp(-x),
        lambda x: -2.0 * math.cos(x) * math.exp(-x),
    ),
)
_RESIDUAL_XS = (0.3, 0.7, 1.3, 2.1)
_KERNEL_XS = (0.4, 1.0, 1.7)


def residual_sweep(phi: EvaluableSolution, residual, h_shift: float = 0.0) -> tuple[float, float]:
    """(worst relative residual, x) of b a f = (H - u) f over the test
    functions at four points, each residual over max(1, |(H - u) f|).  The
    first x of the worst value is kept; a NaN residual is the worst.

    residual is `factorization_residual` as the caller looks it up, so a
    wrapper installed on the caller's name (the benchmark's tracing) sees
    every point."""
    rp, u = phi.rep.rp, phi.rep.u
    worst = (0.0, 0.0)
    for f, fp, fpp in _PROBES:
        for x in _RESIDUAL_XS:
            resid = residual(phi, (f, fp, fpp), x, h_shift=h_shift)
            rhs = -fpp(x) + (rp.g1 / (x * x) + rp.g2 * x * x + u) * f(x)
            rel = abs(resid) / max(1.0, abs(rhs))
            if rel > worst[0] or math.isnan(rel):
                worst = (rel, x)
    return worst


def kernel_sweep(phi: EvaluableSolution) -> float:
    """The worst |a phi| over three points, NaN if any is NaN; zero up to
    rounding at the floor w0, where a annihilates phi."""
    worst = 0.0
    for x in _KERNEL_XS:
        v = abs(apply_a(phi, phi, x))
        if v > worst or math.isnan(v):
            worst = v
    return worst
