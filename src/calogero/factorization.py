"""Factorized (oscillator) representations on the half-line.

Units.  z = upsilon x (upsilon = g2^(1/4)) maps H = -d^2/dx^2 + g1/x^2 +
g2 x^2 onto upsilon^2 H1, H1 = -d^2/dz^2 + g1/z^2 + z^2, so everything here
works in z and depends on kappa, mu and w alone; upsilon enters only the
shift u = 4 upsilon^2 w and `spectral.GroundState`, which converts a state.

For each shift w >= w0 and mixing angle mu, V = g1/z^2 + z^2 admits a
strictly positive solution of  -phi'' + V phi = -4 w phi  of the form

    phi(z) = e^(-rho/2) rho^q S(rho),     rho = z^2, q = 1/4 + kappa/2,

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
    kappa = 0:       S -> A~ + B~ ln z,
        A~ = sin(mu) + cos(mu) (2 psi(1) - psi(alpha)),
        B~ = -2 cos(mu),

which is the boundary data that picks a self-adjoint extension later.
`spectral.theta_of` computes its angle, theta = atan2(A~, B~) for kappa
in (0,1) and atan(2 A~/B~) for kappa = 0, from the gamma ratio (resp.
psi(alpha) - 2 psi(1)) that spectral's boundary function evaluates.

From phi the superpotential h = phi'/phi defines the first-order pair

    (a f)(z) = f'(z) - h(z) f(z),      (b f)(z) = -f'(z) - h(z) f(z),

and the second-order identity  b a f = -f'' + (h' + h^2) f  must equal
(H1 + 4w) f = -f'' + V f + 4 w f  for every smooth f, since h' + h^2 =
phi''/phi = V + 4 w.  `factorization_residual` measures exactly that
defect, with h' computed honestly from the series second derivative
(phi''/phi - h^2), never by assuming the identity it is checking.

`apply_a` and `factorization_residual` take phi, built once per
representation by `make_phi`.  Each value at z reads one evaluation of S,
and phi keeps the last point's at the highest order asked there: the
residual's, of order 2, gives phi, h and h' to every test function at z,
and `apply_a` reads one of order 1 per function.  `residual_sweep` and
`kernel_sweep`, the checks of `factorize-check` and `verify` row 6, take
the worst residual over three test functions at four points and the
worst |a phi|, zero at w0.

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
    """Positive solution phi(z) with analytic first and second derivatives."""

    def __init__(self, rep: RepresentationParams):
        self.rep = rep
        rp = rep.rp
        self._kappa = rp.kappa
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
        self._kept: tuple = (None, -1, None)  # (z, order, jet) of the last point
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

    # -- z-space evaluations --------------------------------------------

    def _jet(self, z: float, order: int) -> tuple[float, float, float, float, float]:
        # (rho, e^(-rho/2) rho^q, S, S', S'') at z from one `_S` call of `order`; the
        # last is kept for a later call at z up to its order (S, S' do not depend on it)
        kept_z, kept_order, jet = self._kept
        if z == kept_z and order <= kept_order:
            return jet
        rho = self._rho(z)
        s, sp, spp = self._S(rho, order)
        jet = rho, self._envelope(rho), s, sp, spp
        self._kept = z, order, jet
        return jet

    def _rho(self, z: float) -> float:
        if not (z > 0.0 and math.isfinite(z)):
            raise DomainError(f"solution evaluation needs z > 0, got {z!r}")
        return z * z

    def _envelope(self, rho: float) -> float:
        try:
            return math.exp(-0.5 * rho) * rho**self._q
        except OverflowError:  # rho^q past float64: kappa ~ 10 at z ~ 1e30
            raise ConvergenceError(f"phi: rho^q = {rho:.4g}^{self._q:.4g} overflows") from None

    def _h(self, z: float, s: float, sp: float) -> float:
        # h = (1/2 + kappa)/z - z + 2 z S'/S
        return (0.5 + self._kappa) / z - z + 2.0 * z * sp / s

    def _phi_pp(self, z: float, rho: float, env: float, s: float, sp: float, spp: float) -> float:
        if rho * rho == 0.0:  # rho below ~1.6e-162
            raise ConvergenceError(f"phi'': rho^2 = {rho:.4g}^2 underflows float64 at z = {z:.4g}")
        g = self._q / rho - 0.5
        dphi = env * (g * s + sp)
        d2phi = env * ((g * g - self._q / (rho * rho)) * s + 2.0 * g * sp + spp)
        c = 2.0 * z
        return 2.0 * dphi + c * c * d2phi

    def value_at(self, z: float) -> float:
        _, env, s, _, _ = self._jet(z, 0)
        return env * s

    def values_on(self, zs) -> list[float]:
        """phi at every z of zs, in their order (any order, repeats
        allowed): env * (sin mu Phi + cos mu scale Psi) with Phi pointwise
        and Psi from one inward sweep (`tricomi_psi_on`), one seed for the
        whole grid; S = 1 at the floor.  z <= 0 and rho^q past float64
        raise what `value_at` raises, and so does Phi ~ e^rho where the
        envelope e^(-rho/2) rho^q is 0.0 (from rho ~ 1490); with Psi alone
        such a point is +0.0 (S > 0) and stays out of the sweep, whose steps
        then end elsewhere, so the other values may move in their last bits.
        Where the sweep refuses (a seed, more steps than its budget below the
        recurrence's floor, or a value past float64), each other value is
        `value_at`'s, or its refusal."""
        zs = [float(z) for z in zs]
        # `_rho` and `_envelope` inline; a point they refuse goes through them
        rhos = [z * z if 0.0 < z < math.inf else self._rho(z) for z in zs]
        exp, q = math.exp, self._q
        try:
            envs = [exp(-0.5 * rho) * rho**q for rho in rhos]
        except OverflowError:
            envs = [self._envelope(rho) for rho in rhos]
        if self._at_floor:
            return envs  # env * 1.0
        a, b = self._alpha, self._beta
        ss = [self._sin * kummer_phi(a, b, rho) for rho in rhos] if self._sin != 0.0 else [0.0] * len(zs)
        if self._cos != 0.0:
            live = [i for i, env in enumerate(envs) if env != 0.0]
            try:
                psi = tricomi_psi_on(a, b, [rhos[i] for i in live])
            except (ConvergenceError, DomainError):
                return [self.value_at(z) if env else 0.0 for z, env in zip(zs, envs)]
            c = self._cos * self._psi_scale
            for i, p in zip(live, psi):
                ss[i] += c * p
        return [env * s for env, s in zip(envs, ss)]

    def derivative_at(self, z: float) -> float:
        rho, env, s, sp, _ = self._jet(z, 1)
        # d phi/d rho, then chain through rho = z^2
        dphi_drho = env * ((self._q / rho - 0.5) * s + sp)
        return 2.0 * z * dphi_drho

    def superpotential_at(self, z: float) -> float:
        _, _, s, sp, _ = self._jet(z, 1)
        return self._h(z, s, sp)


def make_phi(rep: RepresentationParams) -> EvaluableSolution:
    """Construct the positive solution for one representation point."""
    return EvaluableSolution(rep)


def apply_a(phi: EvaluableSolution, f: EvaluableSolution, z: float) -> float:
    """(a f)(z) = f' - h f with h = phi'/phi.  Annihilates phi itself."""
    if not isinstance(f, EvaluableSolution):
        raise DomainError(f"apply_a needs an EvaluableSolution, got {type(f).__name__}")
    d, v = f.derivative_at(z), f.value_at(z)  # f' first: its jet answers f, and h if phi is f
    return d - phi.superpotential_at(z) * v


def factorization_residual(phi: EvaluableSolution, f_triple, z: float, h_shift: float = 0.0) -> float:
    """(b a f)(z) - [-f'' + V f + 4 w f](z), V = g1/z^2 + z^2; zero up to rounding.

    f_triple is (f, f', f'') as callables.  phi, h and h' come from one
    order-2 evaluation of phi at z.  h_shift displaces the superpotential
    by a constant, which must break the identity; it exists so integrity
    checks can prove this test can fail.
    """
    rho, env, s, sp, spp = phi._jet(z, 2)
    if env * s == 0.0:  # phi underflows far out, e^(-rho/2) from rho ~ 1490
        raise ConvergenceError(f"factorization_residual: phi underflows to 0 at z = {z:.4g}")
    h = phi._h(z, s, sp)
    # h' = phi''/phi - h^2, not V + 4w - h^2: the check is not circular
    hp = phi._phi_pp(z, rho, env, s, sp, spp) / (env * s) - h * h
    h += h_shift
    fz, fppz = f_triple[0](z), f_triple[2](z)
    lhs = -fppz + (hp + h * h) * fz
    rhs = -fppz + (phi.rep.rp.g1 / (z * z) + z * z + 4.0 * phi.rep.w) * fz
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
_RESIDUAL_ZS = (0.3, 0.7, 1.3, 2.1)
_KERNEL_ZS = (0.4, 1.0, 1.7)
# the pass thresholds of the two sweeps, for `factorize-check` and verify row 6
RESIDUAL_THRESHOLD = 1e-6
KERNEL_THRESHOLD = 1e-10


def residual_sweep(phi: EvaluableSolution, residual, h_shift: float = 0.0) -> tuple[float, float]:
    """(worst relative residual, z) of b a f = (H1 + 4w) f over the test
    functions at four points, each residual over max(1, |(H1 + 4w) f|).
    The points are walked outermost, so phi's kept jet serves the three
    test functions at each; the worst is then read test function by test
    function, and of equal worst values (NaN the worst) the first is kept.

    residual is `factorization_residual` as the caller looks it up, so a
    wrapper installed on the caller's name (the benchmark's tracing) sees
    every point."""
    g1, w = phi.rep.rp.g1, phi.rep.w
    rels: list[list[tuple[float, float]]] = [[] for _ in _PROBES]  # (rel, z) by test function
    for z in _RESIDUAL_ZS:
        for (f, fp, fpp), row in zip(_PROBES, rels):
            resid = residual(phi, (f, fp, fpp), z, h_shift=h_shift)
            rhs = -fpp(z) + (g1 / (z * z) + z * z + 4.0 * w) * f(z)
            row.append((abs(resid) / max(1.0, abs(rhs)), z))
    worst = (0.0, 0.0)
    for row in rels:
        for rel, z in row:
            if rel > worst[0] or (math.isnan(rel) and not math.isnan(worst[0])):
                worst = (rel, z)
    return worst


def kernel_sweep(phi: EvaluableSolution) -> float:
    """The worst |a phi| over three points, NaN if any is NaN; zero up to
    rounding at the floor w0, where a annihilates phi."""
    worst = 0.0
    for z in _KERNEL_ZS:
        v = abs(apply_a(phi, phi, z))
        if v > worst or math.isnan(v):
            worst = v
    return worst
