"""The flat boundary function against its verbatim reference.

`spectral._boundary_F` computes alpha inline and runs the gamma ratio in
its own body; `specfun.gammaln_shift` and `specfun.digamma` write their
tails out term by term.  None of that may move a bit: every argument
must give the float (`float.hex`) or the exception that the reference in
`boundary_reference.py` gives.  Each branch of the ratio has an explicit
example: the shift, the reflection below alpha = 0, the exact poles of
G(alpha - k) (0.0) and of G(alpha) (inf), the `gammaln_signed` band
0 < alpha <= k, kappa = 0 on both sides of its reflection, and a nonzero
skew on each kind of value.
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


_KAPPAS = st.one_of(
    st.sampled_from([0.0, 0.5, 2.0**-30, 1.0 - 2.0**-52]),
    st.floats(0.0, 1.0, exclude_max=True),
)
_SHIFTS = st.one_of(
    st.floats(-60.0, 60.0),
    # alpha on the quarter grid: the exact poles of both gammas at kappa = 1/2
    st.integers(-400, 400).map(lambda i: i / 4.0 - 0.75),
    st.floats(allow_nan=True, allow_infinity=True),
)
_SKEWS = st.one_of(st.just(0.0), st.sampled_from([0.01, -0.01]), st.floats(-1.0, 1.0))


@given(kappa=_KAPPAS, w=_SHIFTS, skew=_SKEWS)
@settings(max_examples=1500, deadline=None)
@example(kappa=0.3, w=2.0, skew=0.0)  # shift: alpha > 0, alpha - k > 0
@example(kappa=0.3, w=1e20, skew=0.0)  # shift past alpha = 1e16
@example(kappa=0.3, w=-5.3, skew=0.0)  # reflection of both gammas below alpha = 0
@example(kappa=0.5, w=-2.25, skew=0.0)  # alpha - k = -2: pole of G(alpha - k), 0.0
@example(kappa=0.5, w=-2.75, skew=0.0)  # alpha = -2: pole of G(alpha), inf
@example(kappa=0.5, w=-0.5, skew=0.0)  # alpha = 1/4 in (0, k]: gammaln_signed band
@example(kappa=0.5, w=-0.75, skew=0.0)  # alpha = 0: pole of G(alpha) at its edge
@example(kappa=0.0, w=1.3, skew=0.0)  # digamma form
@example(kappa=0.0, w=-3.7, skew=0.0)  # digamma form, reflected
@example(kappa=0.0, w=-3.5, skew=0.0)  # digamma pole
@example(kappa=0.3, w=2.0, skew=0.01)  # skew on a finite value
@example(kappa=0.5, w=-2.25, skew=0.01)  # skew on the 0.0 of a pole
@example(kappa=0.5, w=-2.75, skew=0.01)  # skew leaves inf alone
@example(kappa=0.0, w=1.3, skew=-0.01)  # skew at kappa = 0
def test_boundary_F_matches_reference(kappa, w, skew):
    rp = _rp(kappa)
    c = spectral._boundary_consts(rp)[0]
    assert _outcome(spectral._boundary_F, rp, w, c, skew) == _outcome(ref._boundary_F, rp, w, c, skew)


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
