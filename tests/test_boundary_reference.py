"""The boundary function and its special functions against their
verbatim reference.

`spectral._boundary_F` takes the point v of gap n (t = alpha + n on gap
n >= 1, alpha - kappa on the ground gap) and runs the gamma ratio in its
own body; `specfun.gammaln_shift` and `specfun.digamma` write their tails
out term by term.  The reference in `boundary_reference.py` is a function
of the shift w, alpha = (1+k)/2 + w.  Wherever the map from (n, v) to w,
and the reference's own alpha and alpha - kappa, are exact, the two take
the same operations on the same floats, so they must give the same float
(`float.hex`) or the same exception: kappa, t and alpha - kappa are drawn
on dyadic grids that make them exact.  Each branch of the ratio has an
explicit example: the reflection on gap n >= 1, the shift, the exact pole
of G(alpha - k) (0.0), the `gammaln_signed` band 0 < alpha <= k,
kappa = 0 on both sides of its reflection, the pole of G(alpha) at the
lower end of a gap (inf, as in the reference), and a nonzero skew on each
kind of value.  At the ends of each gap F is its limit from inside: -inf
at the upper end (t = 0, alpha = 0), which the reference, a function of
alpha alone, does not take, and +inf at the lower (t = 1), where the
reference's digamma refuses its pole; a test of its own checks both.
"""

import math
import random

import boundary_reference as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calogero import specfun, spectral
from calogero.params import reduce


def _outcome(fn, *args):
    """("value", float.hex) of a return, ("raise", type, message) of a raise."""
    try:
        return "value", fn(*args).hex()
    except Exception as exc:  # the reference decides which exceptions are right
        return "raise", type(exc), str(exc)


def _rp(kappa):
    return reduce(kappa * kappa - 0.25, 1.0)


def _same(kappa, n, v, w, skew):
    rp = _rp(kappa)
    c = spectral._boundary_consts(rp)[0]
    assert _outcome(spectral._boundary_F, rp, v, n, c, skew) == _outcome(ref._boundary_F, rp, w, c, skew)


# kappa on a 2^-10 grid and t with its 2^-11 bit set: t - n, t - kappa,
# t - n - kappa and 1 + n - t are exact, and none is a half-integer, where
# the reference's nearest integer to alpha rounds half to even
_KAPPAS = st.one_of(st.just(0.0), st.integers(1, 2**10 - 1).map(lambda i: i / 2**10))
_TS = st.integers(0, 2**10 - 1).map(lambda j: (2 * j + 1) / 2**11)
_SKEWS = st.one_of(st.just(0.0), st.sampled_from([0.01, -0.01]), st.floats(-1.0, 1.0))


@given(kappa=_KAPPAS, n=st.integers(1, 60), t=_TS, skew=_SKEWS)
@settings(max_examples=800, deadline=None)
@example(kappa=0.3125, n=5, t=0.6875, skew=0.0)  # reflection of both gammas below alpha = 0
@example(kappa=0.0, n=4, t=0.1875, skew=0.0)  # digamma form, reflected
@example(kappa=0.5, n=2, t=0.5, skew=0.0)  # alpha - k = -2: pole of G(alpha - k), 0.0
@example(kappa=0.5, n=3, t=1.0, skew=0.0)  # alpha = -2: pole of G(alpha), inf
@example(kappa=0.5, n=1, t=1.0, skew=0.0)  # alpha = 0: pole of G(alpha) at its edge
@example(kappa=0.3125, n=5, t=0.6875, skew=0.01)  # skew on a finite value
@example(kappa=0.5, n=2, t=0.5, skew=0.01)  # skew on the 0.0 of a pole
@example(kappa=0.5, n=3, t=1.0, skew=0.01)  # skew leaves inf alone
def test_boundary_F_matches_reference(kappa, n, t, skew):
    # gap n >= 1: alpha = t - n, and w = alpha - (1 + kappa)/2
    _same(kappa, n, t, t - n - 0.5 * (1.0 + kappa), skew)


@given(
    kappa=_KAPPAS,
    # alpha - kappa on a 2^-11 grid up to 60, or an integer past 2^53, where
    # the reference's (1 - kappa)/2 + w rounds back onto it
    b=st.one_of(st.integers(-2**11 + 1, 60 * 2**11).map(lambda j: j / 2**11),
                st.integers(2**53, 2**80).map(float)),
    skew=_SKEWS,
)
@settings(max_examples=800, deadline=None)
@example(kappa=0.3125, b=2.0, skew=0.0)  # shift: alpha > 0, alpha - k > 0
@example(kappa=0.3125, b=1e20, skew=0.0)  # shift past alpha = 1e16
@example(kappa=0.5, b=0.0, skew=0.0)  # alpha - k = 0: pole of G(alpha - k), 0.0
@example(kappa=0.5, b=-0.25, skew=0.0)  # alpha = 1/4 in (0, k]: gammaln_signed band
@example(kappa=0.0, b=1.3125, skew=0.0)  # digamma form
@example(kappa=0.3125, b=2.0, skew=0.01)  # skew on a finite value
@example(kappa=0.5, b=0.0, skew=0.01)  # skew on the 0.0 of a pole
@example(kappa=0.0, b=1.3125, skew=-0.01)  # skew at kappa = 0
def test_ground_gap_matches_reference(kappa, b, skew):
    # the ground gap: v = alpha - kappa = b, the reference's (1 - kappa)/2 + w
    if b <= -kappa:
        b = kappa + 2**-11  # inside the gap
    _same(kappa, 0, b, b - 0.5 * (1.0 - kappa), skew)


@given(kappa=_KAPPAS, n=st.integers(0, 60), skew=_SKEWS)
@settings(max_examples=100, deadline=None)
def test_gap_ends_are_the_limits_from_inside(kappa, n, skew):
    # t = 0 on gap n >= 1 and alpha = 0 on the ground gap: F falls to -inf
    # toward the pole at the gap's upper end in e; at t = 1 it rises to
    # +inf toward the lower one, skewed or not
    rp = _rp(kappa)
    c = spectral._boundary_consts(rp)[0]
    assert spectral._boundary_F(rp, 0.0 if n else -rp.kappa, n, c, skew) == -math.inf
    if n:
        assert spectral._boundary_F(rp, 1.0, n, c, skew) == math.inf


@given(
    b=st.one_of(st.floats(0.0, 40.0), st.floats(allow_nan=True, allow_infinity=True)),
    d=st.one_of(st.floats(-1.0, 1.0), st.floats(allow_nan=True, allow_infinity=True)),
)
@settings(max_examples=1000, deadline=None)
@example(b=0.25, d=-0.5)  # b + d <= 0: refused
@example(b=1e300, d=-0.3)  # b + d not a distinct float
@example(b=3.0, d=0.0)
@example(b=math.nan, d=0.5)
@example(b=2.0, d=math.inf)
def test_gammaln_shift_matches_reference(b, d):
    assert _outcome(specfun.gammaln_shift, b, d) == _outcome(ref.gammaln_shift, b, d)


@given(z=st.one_of(st.floats(-60.0, 60.0), st.floats(allow_nan=True, allow_infinity=True)))
@settings(max_examples=1000, deadline=None)
@example(z=1.0)
@example(z=-3.0)  # pole
@example(z=-2.5)  # reflected
@example(z=1e300)
@example(z=math.nan)
@example(z=-math.inf)
def test_digamma_matches_reference(z):
    assert _outcome(specfun.digamma, z) == _outcome(ref.digamma, z)


def test_tails_match_reference_on_seeded_draws():
    # 10^5 seeded points of each over the ranges the spectra requests
    # reach, where the draws above take only a few hundred: z in (-60, 60),
    # and b in (1e-8, 200), log-uniform or uniform, with d in (0, 1)
    rng = random.Random(44)
    log_lo, log_hi = math.log(1e-8), math.log(200.0)
    mismatches = []
    for i in range(100_000):
        z = rng.uniform(-60.0, 60.0)
        b = math.exp(rng.uniform(log_lo, log_hi)) if i % 2 else rng.uniform(1e-8, 200.0)
        d = rng.uniform(0.0, 1.0)
        if _outcome(specfun.digamma, z) != _outcome(ref.digamma, z):
            mismatches.append(("digamma", z))
        if _outcome(specfun.gammaln_shift, b, d) != _outcome(ref.gammaln_shift, b, d):
            mismatches.append(("gammaln_shift", b, d))
    assert mismatches == []
