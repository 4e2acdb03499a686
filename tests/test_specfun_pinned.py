"""Bit pins for Psi and the states built on it.

The pinned Psi values below are exact (`float.hex`) results of the router,
one from the inward sweep below rho = 1 and two from the recurrence in
alpha; the sampled ground states pin the sweep along a whole grid.  The
ground-state norm is pinned here too: once a quadrature over Psi^2, it is
now the closed form of `_nu_state_norm`, with the bits of `gammaln_shift`,
`digamma_shift` and `trigamma`.
"""

import hashlib
import math

import pytest

from calogero.errors import DomainError
from calogero.oracle import sample_on_grid
from calogero.params import reduce
from calogero.specfun import kummer_phi, tricomi_psi, tricomi_psi_series
from calogero.spectral import _nu_state_norm, extension_for, ground_state_wavefunction


def test_psi_of_alpha_past_171_is_exact_law():
    # Psi(a, a + 1; rho) = rho^-a; at a = 171.2 the Laplace integral's
    # weights were finite and their sum was not
    assert tricomi_psi(171.2, 172.2, 10.0) == pytest.approx(10.0**-171.2, rel=1e-12, abs=0.0)


# the recurrence's ln Psi moved each value from the Laplace integral's
# (0x1.38d5e8f316141p+0, 0x1.8aa4c98d4d1b4p-1, 0x1.912ca731af15ap-386):
# by 3 ulps to 6.7e-16 from hyperu, by 3 ulps to 6.7e-16 (from 2.2e-16), and
# to 3.0e-14 (from 2.0e-14), the rounding of ln Psi ~ -267
@pytest.mark.parametrize(
    "args, pinned",
    [
        ((1.3, 2.0, 0.7), "0x1.38d5e8f31613ep+0"),  # the sweep from rho = 1
        ((0.2, 1.0, 3.5), "0x1.8aa4c98d4d1b7p-1"),
        ((60.25, 1.5, 40.0), "0x1.912ca731af1a0p-386"),
    ],
)
def test_psi_pinned(args, pinned):
    assert tricomi_psi(*args).hex() == pinned


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
        # both moved with the sweep, which now starts from ln Psi of the
        # recurrence at rho = 64 as a mantissa over 2^e (it took two Laplace
        # integrals) and carries rho Psi' (it carried Psi'), and again when
        # the sampler stopped re-normalising them on the grid
        (0.3, 0.4, 2.0, "0f494ff928f9026d9b40a79f33d2874d957e39e90ee8bed646450d1a902e3a88"),
        (0.7, -1.0, 0.5, "eea63ad6a29415cfb7a15152946ea10fb66394bfe3f4c073cf1d11e724e06d9e"),
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


@pytest.mark.parametrize("fn", [tricomi_psi, tricomi_psi_series, kummer_phi])
@pytest.mark.parametrize("args", [(NAN, 1.5, 2.0), (0.7, NAN, 2.0), (0.7, 1.5, NAN)])
def test_nan_argument_is_a_domain_error(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


@pytest.mark.parametrize("fn", [tricomi_psi, tricomi_psi_series])
def test_infinite_beta_is_a_domain_error(fn):
    with pytest.raises(DomainError, match="finite"):
        fn(0.7, math.inf, 2.0)
