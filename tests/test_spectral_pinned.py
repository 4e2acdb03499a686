"""Bit pins for the boundary equation and its root finding.

`spectrum`, `solve_w` and `theta_of` evaluate one boundary function at a
point of each gap measured from a pole (t = alpha + n, or alpha - kappa
on the ground gap), with its kappa-only constant and fault skew built
once per call.  Every root comes from the level's own estimate, a fixed
point of F's reflected (or, on the ground gap, recurrence or asymptotic)
form converged by secants to within a float; F at the estimate and at its
neighbour one float toward the root change sign, and that sign change,
handed to the one Brent-Dekker solver as a bracket inside its stopping
width of four floats, certifies the root.  A root that the certificate
misses widens its bracket from the estimate and finishes in the solver.
`solve_w` is the ground level's search.  The
values below are exact (`float.hex`) results of that search; a
rearrangement of the boundary function, of the estimate or of the solver
that keeps its arithmetic may not move a single bit, and one that does
must say so.  `theta_of` makes no root search, so its pins guard the
boundary function's arithmetic alone.  A spectrum pins its ground and 50th
level and a digest of the `float.hex` strings of all 50 energies followed
by all 50 residuals.  The cost of a root is bounded too: the mean number of
boundary-function evaluations per root on these cells (two when certified),
the mean number of special-function calls per root, the estimate's
included (its fixed-point steps plus the evaluations, the first of which
takes the estimate's last Gamma shift where it converged on a float), and
the cost of small-kappa ground states, of roots next to their poles and of
`solve_w`.
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
    (0.0, -1.55): ('0x1.eaf7f2d317232p+0', '0x1.8bd9804ac870cp+7', '4e3d9b7f72e5a1845cf3277f7a770165'),
    (0.0, -0.7): ('0x1.b406ab5f49ec0p-6', '0x1.8ac0d48ec28cap+7', '1d89caa33eb05c3c397e1b98bb6e10c8'),
    (0.0, 0.3): ('-0x1.6b64bd93b2acep+0', '0x1.8a82a5c867168p+7', '34809c370a0478f283255fe2586bf1a6'),
    (0.0, 1.2): ('-0x1.0787e78bc842ep+4', '0x1.89b36ea46c470p+7', 'c2e96019b29d168d39f19579f66e4691'),
    (0.3, -1.55): ('-0x1.cd56962f85e76p+18', '0x1.856907cbc48e7p+7', '864c3900a2c24caf1784f1c9366991ef'),
    (0.3, -0.7): ('-0x1.7c11ea825eb68p-3', '0x1.8a63024ec4d59p+7', '36844837f8a2b4708f3d73ca5c8edc4d'),
    (0.3, 0.3): ('0x1.a2b870aa5b94cp+0', '0x1.8aee787ca9f12p+7', '438a02cabe7bc3c7f7dc5b1208651017'),
    (0.3, 1.2): ('0x1.1c8bb06fe79bap+1', '0x1.8ba0bdb4919a0p+7', '1200e237fec5ce7ca96e93d5e4c6053c'),
    (0.5, -1.55): ('-0x1.20f149d1da73dp+11', '0x1.86b86f2756c46p+7', '59bc249e6a3b998a135f53cc80d711c8'),
    (0.5, -0.7): ('-0x1.546a1af35b3b8p-2', '0x1.89d8eb3369dd5p+7', 'e7828fd8f951214386f7a370e63d9368'),
    (0.5, 0.3): ('0x1.4f5cf97cf7adbp+0', '0x1.8a0e5d2b95e24p+7', '591437825c86ddec3ea9200e261ceecc'),
    (0.5, 1.2): ('0x1.26918bd416f25p+1', '0x1.8a76161de5af5p+7', '35eb75986a376d62e4eaf3bf0dadec3c'),
    (0.9, -1.55): ('-0x1.72ba47ce0fcefp+4', '0x1.884c8b303d7b0p+7', '2631cedeeb2b7b14eaaaf61e7665d02b'),
    (0.9, -0.7): ('-0x1.f813dacc6a08cp-4', '0x1.8865e2961ac1bp+7', '786e2d59a8414f313f1ce861b063ec40'),
    (0.9, 0.3): ('0x1.44083bb44ea38p-2', '0x1.886696f87a181p+7', 'c7bdc3ced03db9282b6a439bc4c743e5'),
    (0.9, 1.2): ('0x1.200e71f07f702p+0', '0x1.8867fcecfafaap+7', 'ad59ae4e1ac2d499df6adac9b21c948d'),
}

# the same under gamma_skew = 0.01
SKEWED = {
    (0.5, 0.3): ('0x1.5258eda6231e9p+0', '0x1.8a0efa5239b61p+7', '9ad368388ed82a5afe929cd9d73ddfad'),
    (0.0, -0.7): ('0x1.5204eaed47400p-5', '0x1.8ac1aebdd0b47p+7', '7231be0332c71360066685c7df8108cd'),
}

# (kappa, mu, nu): w
SOLVE_W = {
    (0.25, 0.0, 0.0): '-0x1.8000000000000p-2',
    (0.25, 0.3, -0.4): '-0x1.2d94667450a58p-4',
    (0.25, 1.2, 1.3): '-0x1.f7b942d98a2f0p-2',
    (0.25, 0.7, -1.5): '0x1.d27aca726e9c7p+13',
    (0.5, 0.0, 0.0): '-0x1.0000000000000p-2',
    (0.5, 0.3, -0.4): '0x1.ba031d981c290p-6',
    (0.5, 1.2, 1.3): '-0x1.cd149593b4e00p-2',
    (0.5, 0.7, -1.5): '0x1.be9fd60351fccp+5',
    (0.75, 0.0, 0.0): '-0x1.0000000000000p-3',
    (0.75, 0.3, -0.4): '0x1.363ddabf92a00p-5',
    (0.75, 1.2, 1.3): '-0x1.4220e9e9927c0p-2',
    (0.75, 0.7, -1.5): '0x1.79bb4d9bdcfe8p+2',
}

# (kappa, mu, w): theta
THETA = {
    (0.0, 0.0, 0.2): '-0x1.0c480caeaa3c4p-4',
    (0.0, 0.3, -0.1): '-0x1.0b1121b7da630p+0',
    (0.0, 1.0, 3.5): '0x1.69a21ba5a24e2p-1',
    (0.0, 0.6, 40.0): '0x1.55b8561da924bp+0',
    (0.5, 0.0, 0.2): '-0x1.9e28a818f5ee4p-1',
    (0.5, 0.3, -0.1): '-0x1.14a91c5407874p-3',
    (0.5, 1.0, 3.5): '-0x1.246bea9359167p+0',
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


def _counting_specfun(monkeypatch):
    # every special function as `spectral` looks it up: the estimate's
    # fixed-point steps as well as the boundary-function evaluations
    calls = [0]
    for name in ("gammaln_shift", "gammaln_signed", "digamma", "digamma_shift", "trigamma"):
        def counted(*args, fn=getattr(spectral, name)):
            calls[0] += 1
            return fn(*args)

        monkeypatch.setattr(spectral, name, counted)
    return calls


def _spectra_cells():
    for kappa, nu in SPECTRA:
        rp = rp_kappa(kappa)
        spectrum(rp, extension_for(rp, nu=nu), 50)


def test_evaluations_per_root(monkeypatch):
    # the estimate and its neighbour, and Brent-Dekker iterations where
    # the certificate misses (2.02 per root when pinned; 2.13 when the
    # search ran in e; 4.0 with the unconverged estimate and a bracket of
    # its last correction)
    calls = _counting_boundary_F(monkeypatch)
    _spectra_cells()
    assert calls[0] / (50 * len(SPECTRA)) <= 2.5


def test_special_function_calls_per_root(monkeypatch):
    # fixed-point steps plus evaluations: 3.64 per root when pinned, with
    # lgamma stand-ins for the estimate's first steps and the first
    # evaluation taking its last shift; 4.50 before, and 7.09 with three
    # steps and Aitken's extrapolation per estimate
    calls = _counting_specfun(monkeypatch)
    _spectra_cells()
    assert calls[0] / (50 * len(SPECTRA)) <= 4.0


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
    # F takes t itself, so a root next to its pole is certified as any
    # other (2.25, 2.4 and 2.0 per level; 3.4, 2.7 and 2.0 when the search
    # ran in e and halved toward the pole, 53.3, 16.4 and 15.2 when it
    # walked in from a nudged end)
    calls = _counting_boundary_F(monkeypatch)
    rp = reduce(g1, 1.0)
    spectrum(rp, extension_for(rp, nu=nu), levels)
    assert calls[0] / levels <= 3.0


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
