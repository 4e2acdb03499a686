"""Bit pins for the boundary equation and its root finding.

`spectrum`, `solve_w` and `theta_of` evaluate one boundary function of the
shift w, with its kappa-only constant and fault skew built once per call,
and find every root with one Brent-Dekker solver.  The values below are
exact (`float.hex`) results of that solver; a rearrangement of the
boundary function or of the solver that keeps its arithmetic may not move
a single bit, and one that does must say so.  `theta_of` makes no root
search, so its pins guard the boundary function's arithmetic alone.  A
spectrum pins its ground and 50th level and a digest of the `float.hex`
strings of all 50 energies followed by all 50 residuals.  The solver's
cost on these cells is bounded too, as a mean number of boundary-function
evaluations per root.
"""

import contextvars
import hashlib

import pytest

from calogero import spectral
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
    (0.0, -1.55): ('0x1.eaf7f2d317232p+0', '0x1.8bd9804ac870bp+7', '0676be8f15301a870e2425b90888bf55'),
    (0.0, -0.7): ('0x1.b406ab5f49f1fp-6', '0x1.8ac0d48ec28cap+7', '883b1f2dbd2e3b0762c6cb2c9ffcaba7'),
    (0.0, 0.3): ('-0x1.6b64bd93b2acfp+0', '0x1.8a82a5c867168p+7', 'e1a248809de50a91c717f3ea45d128e8'),
    (0.0, 1.2): ('-0x1.0787e78bc842cp+4', '0x1.89b36ea46c470p+7', 'de2d2cbdbd0424d4fdb14d28558402ad'),
    (0.3, -1.55): ('-0x1.cd56962f85e99p+18', '0x1.856907cbc48e7p+7', '18b6075effc14e84202cb948a4b69c65'),
    (0.3, -0.7): ('-0x1.7c11ea825eb89p-3', '0x1.8a63024ec4d59p+7', '1481e5fc712b280f166486bd3c217618'),
    (0.3, 0.3): ('0x1.a2b870aa5b94cp+0', '0x1.8aee787ca9f13p+7', 'acf909bf173e670e2169f5103654580d'),
    (0.3, 1.2): ('0x1.1c8bb06fe79bcp+1', '0x1.8ba0bdb4919a1p+7', '081bbe661998916b171f9b0eda831de7'),
    (0.5, -1.55): ('-0x1.20f149d1da73fp+11', '0x1.86b86f2756c46p+7', 'eb6696ca87516e57141b8a9f53aa66ed'),
    (0.5, -0.7): ('-0x1.546a1af35b39ap-2', '0x1.89d8eb3369dd5p+7', 'd531fde040f991994d701fcf0abcf58f'),
    (0.5, 0.3): ('0x1.4f5cf97cf7ad9p+0', '0x1.8a0e5d2b95e24p+7', '9f0723e7421b067f627a828ca764c271'),
    (0.5, 1.2): ('0x1.26918bd416f25p+1', '0x1.8a76161de5af5p+7', '8754e7f6685d24558c0f774011ce9955'),
    (0.9, -1.55): ('-0x1.72ba47ce0fcf1p+4', '0x1.884c8b303d7b0p+7', 'eea307c9e4a5956fadaa1944b2bdb235'),
    (0.9, -0.7): ('-0x1.f813dacc6a0d0p-4', '0x1.8865e2961ac1bp+7', '939747b61a4223068bc04588213669b2'),
    (0.9, 0.3): ('0x1.44083bb44ea2dp-2', '0x1.886696f87a181p+7', 'aaabaf367ea37f0232ea78ee9d7b9313'),
    (0.9, 1.2): ('0x1.200e71f07f703p+0', '0x1.8867fcecfafabp+7', '17bc539ee5a7752e37d1cf29091adcbd'),
}

# the same under gamma_skew = 0.01
SKEWED = {
    (0.5, 0.3): ('0x1.5258eda6231e9p+0', '0x1.8a0efa5239b61p+7', 'd61a362b2dd30ce19e0255cb764f84f7'),
    (0.0, -0.7): ('0x1.5204eaed4740ep-5', '0x1.8ac1aebdd0b47p+7', 'a05381ee7c373e242f7390393b644399'),
}

# (kappa, mu, nu): w
SOLVE_W = {
    (0.25, 0.0, 0.0): '-0x1.8000000000001p-2',
    (0.25, 0.3, -0.4): '-0x1.2d94667450a5bp-4',
    (0.25, 1.2, 1.3): '-0x1.f7b942d98a2efp-2',
    (0.25, 0.7, -1.5): '0x1.d27aca726e9c2p+13',
    (0.5, 0.0, 0.0): '-0x1.ffffffffffffep-3',
    (0.5, 0.3, -0.4): '0x1.ba031d981c25bp-6',
    (0.5, 1.2, 1.3): '-0x1.cd149593b4dfep-2',
    (0.5, 0.7, -1.5): '0x1.be9fd60351fc2p+5',
    (0.75, 0.0, 0.0): '-0x1.fffffffffffffp-4',
    (0.75, 0.3, -0.4): '0x1.363ddabf92a0cp-5',
    (0.75, 1.2, 1.3): '-0x1.4220e9e9927bdp-2',
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


def test_evaluations_per_root(monkeypatch):
    # 8 scan points plus the Brent-Dekker iterations
    calls = 0
    boundary_F = spectral._boundary_F

    def counted(*args):
        nonlocal calls
        calls += 1
        return boundary_F(*args)

    monkeypatch.setattr(spectral, "_boundary_F", counted)
    for kappa, nu in SPECTRA:
        rp = rp_kappa(kappa)
        spectrum(rp, extension_for(rp, nu=nu), 50)
    assert calls / (50 * len(SPECTRA)) <= 18.0
