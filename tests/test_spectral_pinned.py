"""Bit pins for the boundary equation and its root finding.

`spectrum`, `solve_w` and `theta_of` evaluate one boundary function of the
shift w, with its kappa-only constant and fault skew built once per call,
and find every root with one Brent-Dekker solver, started on a bracket
around each level's own estimate; `solve_w` is the ground level's search.
The values below are exact (`float.hex`) results of that solver; a
rearrangement of the boundary function, of the estimate or of the solver
that keeps its arithmetic may not move a single bit, and one that does
must say so.  `theta_of` makes no root
search, so its pins guard the boundary function's arithmetic alone.  A
spectrum pins its ground and 50th level and a digest of the `float.hex`
strings of all 50 energies followed by all 50 residuals.  The solver's
cost on these cells is bounded too, as a mean number of boundary-function
evaluations per root, and so is the cost of small-kappa ground states, of
roots next to their poles and of `solve_w`.
"""

import contextvars
import hashlib
import math

import pytest

from calogero import spectral
from calogero.errors import ConvergenceError
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
    (0.0, -1.55): ('0x1.eaf7f2d317232p+0', '0x1.8bd9804ac870cp+7', '733be240741cbfade14aab8aa86326af'),
    (0.0, -0.7): ('0x1.b406ab5f49f20p-6', '0x1.8ac0d48ec28cap+7', '7968ac2b7a46a2d02d5875d9ea58595b'),
    (0.0, 0.3): ('-0x1.6b64bd93b2accp+0', '0x1.8a82a5c867168p+7', '1384d526e805d74e56d1e66f3b0c2ded'),
    (0.0, 1.2): ('-0x1.0787e78bc842ap+4', '0x1.89b36ea46c470p+7', '70ddc58b714ed45753455d8a0d1a5bfb'),
    (0.3, -1.55): ('-0x1.cd56962f85e98p+18', '0x1.856907cbc48e7p+7', '40e40827231bd03d8147f328b2306395'),
    (0.3, -0.7): ('-0x1.7c11ea825eb8bp-3', '0x1.8a63024ec4d5ap+7', '92cef9ddb271b7fe3751c0b770aeecce'),
    (0.3, 0.3): ('0x1.a2b870aa5b94dp+0', '0x1.8aee787ca9f13p+7', '5cfd756db286b9d32dde5e788647faaa'),
    (0.3, 1.2): ('0x1.1c8bb06fe79bdp+1', '0x1.8ba0bdb4919a0p+7', 'fe044e4b2e4022a87a60992acfac5db8'),
    (0.5, -1.55): ('-0x1.20f149d1da73dp+11', '0x1.86b86f2756c46p+7', '4bbcbd187cd0d3a676de9b98c9e88db2'),
    (0.5, -0.7): ('-0x1.546a1af35b399p-2', '0x1.89d8eb3369dd5p+7', '6864870b5605a81647089aff4a4e6db8'),
    (0.5, 0.3): ('0x1.4f5cf97cf7adbp+0', '0x1.8a0e5d2b95e24p+7', '1e21b9f2cc4dd6b3af2ee358735c03ad'),
    (0.5, 1.2): ('0x1.26918bd416f25p+1', '0x1.8a76161de5af5p+7', '44f727b21e4c18afaaba52cd3a0fa7d9'),
    (0.9, -1.55): ('-0x1.72ba47ce0fcf1p+4', '0x1.884c8b303d7b0p+7', '1f92aacd71c237c484dc32fe5c10e5de'),
    (0.9, -0.7): ('-0x1.f813dacc6a0cep-4', '0x1.8865e2961ac1bp+7', 'ee01419f4230d0faf53b8fe39170f6da'),
    (0.9, 0.3): ('0x1.44083bb44ea33p-2', '0x1.886696f87a181p+7', '4f5161fcda72d4bf7fe571e1b65237be'),
    (0.9, 1.2): ('0x1.200e71f07f705p+0', '0x1.8867fcecfafabp+7', '78143935b358c136c2c125f5275fbb6c'),
}

# the same under gamma_skew = 0.01
SKEWED = {
    (0.5, 0.3): ('0x1.5258eda6231e9p+0', '0x1.8a0efa5239b61p+7', '6af849e677b8a06a735415f9ff981e7d'),
    (0.0, -0.7): ('0x1.5204eaed47410p-5', '0x1.8ac1aebdd0b47p+7', 'cc790077b35250d06d48c061c9eb3c6a'),
}

# (kappa, mu, nu): w
SOLVE_W = {
    (0.25, 0.0, 0.0): '-0x1.8000000000000p-2',
    (0.25, 0.3, -0.4): '-0x1.2d94667450a58p-4',
    (0.25, 1.2, 1.3): '-0x1.f7b942d98a2efp-2',
    (0.25, 0.7, -1.5): '0x1.d27aca726e9c2p+13',
    (0.5, 0.0, 0.0): '-0x1.0000000000000p-2',
    (0.5, 0.3, -0.4): '0x1.ba031d981c287p-6',
    (0.5, 1.2, 1.3): '-0x1.cd149593b4dfdp-2',
    (0.5, 0.7, -1.5): '0x1.be9fd60351fc3p+5',
    (0.75, 0.0, 0.0): '-0x1.fffffffffffffp-4',
    (0.75, 0.3, -0.4): '0x1.363ddabf92a11p-5',
    (0.75, 1.2, 1.3): '-0x1.4220e9e9927bbp-2',
    (0.75, 0.7, -1.5): '0x1.79bb4d9bdcfe9p+2',
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


def _counting_boundary_F(monkeypatch):
    calls = [0]
    boundary_F = spectral._boundary_F

    def counted(*args):
        calls[0] += 1
        return boundary_F(*args)

    monkeypatch.setattr(spectral, "_boundary_F", counted)
    return calls


def test_evaluations_per_root(monkeypatch):
    # the two points around each level's estimate plus the Brent-Dekker
    # iterations (4.0 per root when pinned)
    calls = _counting_boundary_F(monkeypatch)
    for kappa, nu in SPECTRA:
        rp = rp_kappa(kappa)
        spectrum(rp, extension_for(rp, nu=nu), 50)
    assert calls[0] / (50 * len(SPECTRA)) <= 6.0


# (g1, nu, levels): roots within ~1e-6 of their poles, at kappa = 1 - 6e-15,
# at nu 1e-5 from the kappa > 0 dive, and at kappa ~ 1.7e-4 next to the
# Friedrichs end
POLE_HUGGING = [
    (0.749999999999988, 0.7376, 20),
    (0.022**2 - 0.25, -0.5 * math.pi + 1e-5, 20),
    (-0.24999997, 1.5693, 21),
]


@pytest.mark.parametrize("g1, nu, levels", POLE_HUGGING)
def test_pole_hugging_evaluations_per_root(monkeypatch, g1, nu, levels):
    # a root next to its pole is reached by halving toward the pole from
    # its estimate (53.3, 16.4 and 15.2 per level when the search walked
    # in from a nudged end instead)
    calls = _counting_boundary_F(monkeypatch)
    rp = reduce(g1, 1.0)
    spectrum(rp, extension_for(rp, nu=nu), levels)
    assert calls[0] / levels <= 8.0


@pytest.mark.parametrize("kappa, mu, nu", sorted(SOLVE_W))
def test_solve_w_evaluations(monkeypatch, kappa, mu, nu):
    # the ground gap's search from its estimate; the residual check reuses
    # the search's last value (up to 24 with a doubling bracket from the floor)
    calls = _counting_boundary_F(monkeypatch)
    solve_w(mu, nu, rp_kappa(kappa))
    assert calls[0] <= 10


@pytest.mark.parametrize("kappa", [0.001, 0.0033, 0.01, 0.02])
@pytest.mark.parametrize("nu", [-1.5, -1.2, -0.898, -0.7, -0.5, -0.3, -0.1, 0.1, 0.5, 1.0, 1.5])
def test_small_kappa_ground_state_evaluations(monkeypatch, kappa, nu):
    # at small kappa with nu < 0 the ground state sits far above the floor
    # of its gap (up to 900 evaluations when the search started there); the
    # deepest of these leave the float64 range and are refused up front
    calls = _counting_boundary_F(monkeypatch)
    rp = rp_kappa(kappa)
    try:
        spectrum(rp, extension_for(rp, nu=nu), 1)
    except ConvergenceError as exc:
        assert "float64" in str(exc) and calls[0] == 0
        return
    assert calls[0] <= 20


def test_too_deep_solve_w_is_refused_before_any_evaluation(monkeypatch):
    # tan mu - tan nu ~ 5.9 at kappa = 0.0025 puts the root past e ~ -1e300
    calls = _counting_boundary_F(monkeypatch)
    with pytest.raises(ConvergenceError, match="float64"):
        solve_w(1.38, -0.63, rp_kappa(0.0025))
    assert calls[0] == 0
