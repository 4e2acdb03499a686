"""Bit-identity guard for the tabled double-exponential quadrature.

`exp_halfline_quad` takes each level's nodes and weights from a table
built once per power; it must still return the float that the per-node
loop it replaced returned.  `_textbook_quad` is that loop, kept here as
the reference for randomized integrands, and the pinned Laplace-integral
values below are exact (`float.hex`) results of the per-node loop.  The
ground-state norm is pinned here too: once this quadrature over Psi^2, it
is now the closed form of `_nu_state_norm`, with the bits of
`gammaln_shift`, `digamma_shift` and `trigamma`.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calogero import specfun
from calogero.errors import ConvergenceError, DomainError
from calogero.oracle import sample_on_grid
from calogero.params import reduce
from calogero.specfun import (
    exp_halfline_quad,
    kummer_phi,
    tricomi_psi,
    tricomi_psi_integral,
    tricomi_psi_series,
)
from calogero.spectral import _nu_state_norm, extension_for, ground_state_wavefunction


def _textbook_quad(g, p):
    """The per-node loop: every node forms its own t and weight."""
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
    for _ in range(specfun._QUAD_MAX_LEVEL):
        h *= 0.5
        n *= 2
        odd = math.fsum(node(u_lo + i * h) for i in range(1, n, 2)) * h
        new = 0.5 * total + odd
        if abs(new - total) <= specfun._QUAD_REL_TOL * max(abs(new), 1e-300):
            return new
        total = new
    raise ConvergenceError(f"exp_halfline_quad: no convergence at level {specfun._QUAD_MAX_LEVEL} (p={p})")


def _outcome(quad, g, p):
    try:
        return quad(g, p).hex()
    except (ConvergenceError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def _overflow_past(t0):
    def g(t: float) -> float:
        if t > t0:
            raise OverflowError("math range error")
        return 1.0

    return g


integrands = st.one_of(
    st.just(lambda t: 1.0),
    st.just(lambda t: 1.0 / (1.0 + t)),
    st.builds(
        lambda c, rho: lambda t: math.exp(c * math.log1p(t / rho)),
        st.floats(-60.0, 5.0),
        st.floats(1e-3, 1e3),
    ),
    st.builds(_overflow_past, st.floats(1e-3, 2e3)),
)


@settings(max_examples=300, deadline=None)
@given(p=st.floats(-0.95, 200.0, exclude_min=True), g=integrands)
def test_quad_matches_textbook_loop(p, g):
    want = _outcome(_textbook_quad, g, p)
    if want == ("OverflowError", "intermediate overflow in fsum"):
        # the one intended difference: where the weights stay finite but
        # their sum leaves float64 (p ~ 170 to 171), the loop let fsum's
        # OverflowError escape; the table reports it as the weight overflow
        want = ("ConvergenceError", f"exp_halfline_quad: integrand overflows float64 (p={p})")
    assert _outcome(exp_halfline_quad, g, p) == want
    assert _outcome(exp_halfline_quad, g, p) == want  # second call reads the table


def test_sum_overflow_is_a_convergence_error():
    # Psi(a, a + 1; rho) integrates t^(a-1) e^(-t) alone; at a = 171.2 the
    # weights are finite and their sum is not
    with pytest.raises(ConvergenceError, match="integrand overflows float64"):
        tricomi_psi(171.2, 172.2, 10.0)


def test_node_table_is_bounded():
    assert specfun._de_level.cache_info().maxsize == 16


@pytest.mark.parametrize(
    "args, pinned",
    [
        ((1.3, 2.0, 0.7), "0x1.38d5e8f316141p+0"),
        ((0.2, 1.0, 3.5), "0x1.8aa4c98d4d1b4p-1"),  # alpha < 0.5: integrated by parts
        ((60.25, 1.5, 40.0), "0x1.912ca731af15ap-386"),
    ],
)
def test_psi_integral_pinned(args, pinned):
    assert tricomi_psi_integral(*args).hex() == pinned


@pytest.mark.parametrize(
    "args, pinned",
    [
        ((0.3, 0.1), "0x1.3d7fcf1f1ff65p-3"),
        ((0.1, 0.4), "0x1.48be10aa7a229p-7"),
        # alpha - kappa = 2^-53, next to the pole; Q0 in z, twice the Q0 in
        # x at ups = 2 this pin held before, exactly
        ((0.6, -0.2), "0x1.1beca6e4dff13p+0"),
        ((0.5, -0.25), "0x1.c5bf891b4ef6ap-1"),  # on the pole: pi / (2 G(1/2)) = sqrt(pi) / 2
        ((0.0, 0.4), "0x1.ec2b942b352f8p-1"),  # kappa = 0: psi'(0.9) / 2
    ],
)
def test_state_norm_pinned(args, pinned):
    assert _nu_state_norm.__wrapped__(*args).hex() == pinned


@pytest.mark.parametrize(
    "kappa, nu, g2, pinned",
    [
        # E0 one ulp below its value before the certified root search, where
        # it lay one ulp above the 40-digit root; one ulp below that root
        # since the search runs in alpha - kappa.  Both moved by up to 7.8e-15
        # relative when phi came to be evaluated at z = ups x, where
        # rho = z^2 rounds unlike ups^2 x^2, with c sqrt(ups) as its scale
        (0.3, 0.4, 2.0, "41bf9e04964799a207961d405dddb42071e0427aa6f91b1eb6e4814ac3f91db9"),
        (0.7, -1.0, 0.5, "d6c31d5f8cd1e91c738331c109905b462e72dadad610260eaf754121c4c0fc58"),
    ],
)
def test_sampled_ground_state_pinned(kappa, nu, g2, pinned):
    # the oracle's default window (0.02, 8) / upsilon at its 801 points, Psi
    # from one inward sweep seeded at rho = 64
    rp = reduce(kappa**2 - 0.25, g2)
    ups = g2**0.25
    x_min, x_max = 0.02 / ups, 8.0 / ups
    grid = [x_min + (x_max - x_min) * i / 800 for i in range(801)]
    vals = sample_on_grid(ground_state_wavefunction(rp, extension_for(rp, nu)), grid).values
    digest = hashlib.sha256(",".join(float(v).hex() for v in vals).encode()).hexdigest()
    assert digest == pinned


NAN = float("nan")


@pytest.mark.parametrize("fn", [tricomi_psi, tricomi_psi_series, tricomi_psi_integral, kummer_phi])
@pytest.mark.parametrize("args", [(NAN, 1.5, 2.0), (0.7, NAN, 2.0), (0.7, 1.5, NAN)])
def test_nan_argument_is_a_domain_error(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


@pytest.mark.parametrize("fn", [tricomi_psi, tricomi_psi_series, tricomi_psi_integral])
def test_infinite_beta_is_a_domain_error(fn):
    with pytest.raises(DomainError, match="finite"):
        fn(0.7, math.inf, 2.0)


@pytest.mark.parametrize("p", [NAN, math.inf])
def test_quad_non_finite_power_is_a_domain_error(p):
    calls = []
    with pytest.raises(DomainError):
        exp_halfline_quad(calls.append, p)
    assert calls == []
