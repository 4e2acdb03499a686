"""Bit-identity guard for the boundary equation and its root finding.

`spectrum`, `solve_w` and `theta_of` evaluate one boundary function of the
shift w and find its roots by one bisection; a rearrangement of either may
not move a single bit.  The values below are exact (`float.hex`) results
recorded before the boundary function and the bisection were merged.  A
spectrum pins its ground and 50th level and a digest of the `float.hex`
strings of all 50 energies followed by all 50 residuals.
"""

import contextvars
import hashlib

import pytest

from calogero.params import reduce
from calogero.spectral import extension_for, gamma_skew, solve_w, spectrum, theta_of


def rp_kappa(kappa):
    return reduce(kappa * kappa - 0.25, 1.0)


def _digest(values):
    return hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()[:32]


def _pinned_spectrum(kappa, nu, skew=0.0):
    def run():
        gamma_skew.set(skew)
        rp = rp_kappa(kappa)
        return spectrum(rp, extension_for(rp, nu=nu), 50)

    r = contextvars.copy_context().run(run)
    return r.energies[0].hex(), r.energies[-1].hex(), _digest(r.energies + r.residuals)


# (kappa, nu): (E0, E49, digest), n = 50, upsilon = 1
SPECTRA = {
    (0.0, -1.55): ('0x1.eaf7f2d317232p+0', '0x1.8bd9804ac870cp+7', '28da8837e56960cbd8a14530e2973da5'),
    (0.0, -0.7): ('0x1.b406ab5f49f20p-6', '0x1.8ac0d48ec28cap+7', '7fb8f4f9ac276713130433c098caa0c6'),
    (0.0, 0.3): ('-0x1.6b64bd93b2acep+0', '0x1.8a82a5c867168p+7', '04acaa4469aee8f1756c9e6f1e5b3543'),
    (0.0, 1.2): ('-0x1.0787e78bc842cp+4', '0x1.89b36ea46c470p+7', '0d139eda3077d3e222331bd9b94e8d08'),
    (0.3, -1.55): ('-0x1.cd56962f85e98p+18', '0x1.856907cbc48e6p+7', 'f65c16ae81ccaa3f8b50c3dcce61c56b'),
    (0.3, -0.7): ('-0x1.7c11ea825eb88p-3', '0x1.8a63024ec4d5ap+7', '5b7d1a3e2f4996536c78a90d5c027cf1'),
    (0.3, 0.3): ('0x1.a2b870aa5b94cp+0', '0x1.8aee787ca9f12p+7', '170271f227007f8cf8a55e68d883434c'),
    (0.3, 1.2): ('0x1.1c8bb06fe79bcp+1', '0x1.8ba0bdb4919a0p+7', '5e9680eb2a2e5f15ea9e8a7ba13984da'),
    (0.5, -1.55): ('-0x1.20f149d1da73cp+11', '0x1.86b86f2756c46p+7', 'aca81621a8d36ff8025ed216ffc61331'),
    (0.5, -0.7): ('-0x1.546a1af35b39cp-2', '0x1.89d8eb3369dd4p+7', 'c9000e42f68def43dc31360879769f7e'),
    (0.5, 0.3): ('0x1.4f5cf97cf7adap+0', '0x1.8a0e5d2b95e24p+7', '039a708ad737ea10178e592855737879'),
    (0.5, 1.2): ('0x1.26918bd416f24p+1', '0x1.8a76161de5af6p+7', '02a8df781d535fd3b969ece8fb753a39'),
    (0.9, -1.55): ('-0x1.72ba47ce0fcf0p+4', '0x1.884c8b303d7b0p+7', '69e23d912643f4992f37da7e9f9a983d'),
    (0.9, -0.7): ('-0x1.f813dacc6a0d0p-4', '0x1.8865e2961ac1cp+7', 'aa2ff9eac41ccc00f10f0d03f3f39100'),
    (0.9, 0.3): ('0x1.44083bb44ea2cp-2', '0x1.886696f87a180p+7', '118d98195df52ac5cba072769b3cd786'),
    (0.9, 1.2): ('0x1.200e71f07f702p+0', '0x1.8867fcecfafaap+7', 'eab97ca2964df4ecf483c14580083279'),
}

# the same under gamma_skew = 0.01
SKEWED = {
    (0.5, 0.3): ('0x1.5258eda6231eap+0', '0x1.8a0efa5239b60p+7', '3d19f0f038bf3e2b30b5c9a463794990'),
    (0.0, -0.7): ('0x1.5204eaed47410p-5', '0x1.8ac1aebdd0b48p+7', 'ee8ba9790b4f5fb044569ac44a9d46b2'),
}

# (kappa, mu, nu): w
SOLVE_W = {
    (0.25, 0.0, 0.0): '-0x1.8000000000000p-2',
    (0.25, 0.3, -0.4): '-0x1.2d94667450a54p-4',
    (0.25, 1.2, 1.3): '-0x1.f7b942d98a2eep-2',
    (0.25, 0.7, -1.5): '0x1.d27aca726e9c6p+13',
    (0.5, 0.0, 0.0): '-0x1.ffffffffffffep-3',
    (0.5, 0.3, -0.4): '0x1.ba031d981c2b0p-6',
    (0.5, 1.2, 1.3): '-0x1.cd149593b4dfep-2',
    (0.5, 0.7, -1.5): '0x1.be9fd60351fc4p+5',
    (0.75, 0.0, 0.0): '-0x1.ffffffffffffcp-4',
    (0.75, 0.3, -0.4): '0x1.363ddabf92a18p-5',
    (0.75, 1.2, 1.3): '-0x1.4220e9e9927bap-2',
    (0.75, 0.7, -1.5): '0x1.79bb4d9bdcfeap+2',
}

# (kappa, mu, w): theta
THETA = {
    (0.0, 0.0, 0.2): '-0x1.0c480caeaa3c4p-4',
    (0.0, 0.3, -0.1): '-0x1.0b1121b7da630p+0',
    (0.0, 1.0, 3.5): '0x1.69a21ba5a24e2p-1',
    (0.0, 0.6, 40.0): '0x1.55b8561da924bp+0',
    (0.5, 0.0, 0.2): '-0x1.9e28a818f5ee6p-1',
    (0.5, 0.3, -0.1): '-0x1.14a91c540787cp-3',
    (0.5, 1.0, 3.5): '-0x1.246bea9359168p+0',
    (0.5, 0.6, 40.0): '-0x1.7cc724c0ba9fep+0',
}


@pytest.mark.parametrize("kappa, nu", sorted(SPECTRA))
def test_spectrum(kappa, nu):
    assert _pinned_spectrum(kappa, nu) == SPECTRA[kappa, nu]


@pytest.mark.parametrize("kappa, nu", sorted(SKEWED))
def test_skewed_spectrum(kappa, nu):
    assert _pinned_spectrum(kappa, nu, skew=0.01) == SKEWED[kappa, nu]


@pytest.mark.parametrize("kappa, mu, nu", sorted(SOLVE_W))
def test_solve_w(kappa, mu, nu):
    assert solve_w(mu, nu, rp_kappa(kappa)).hex() == SOLVE_W[kappa, mu, nu]


@pytest.mark.parametrize("kappa, mu, w", sorted(THETA))
def test_theta_of(kappa, mu, w):
    assert theta_of(mu, w, rp_kappa(kappa)).hex() == THETA[kappa, mu, w]
