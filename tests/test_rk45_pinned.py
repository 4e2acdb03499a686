"""Bit-identity guard for the fused Cash-Karp kernel.

`integrate` unrolls the tableau into scalar locals for speed; it must
still do the textbook loop's float operations in the textbook order.  The
pinned values below are exact (`float.hex`) results of the list-based
loop over stages and components that the kernel replaced, and
`_textbook_integrate` is that loop, kept here as the reference for
randomized problems.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calogero import oracle, rk45
from calogero.errors import ConvergenceError, DomainError
from calogero.params import reduce
from calogero.rk45 import IntegrationResult, integrate
from calogero.spectral import extension_for


def _textbook_integrate(f, x0, y0, x1, rel_tol=1e-10):
    """The list-based loop over stages and components; same guards, same
    step control, any number of components."""
    if math.isnan(x0) or math.isnan(x1):
        raise DomainError("integrate: NaN endpoint")
    if x1 == x0:
        return IntegrationResult(x0, tuple(float(v) for v in y0), 0.0, 0, 0, 0, 0.0)
    if rel_tol < 1e-14 or rel_tol > 1e-2:
        raise DomainError(f"integrate: rel_tol {rel_tol} outside [1e-14, 1e-2]")

    direction = 1.0 if x1 > x0 else -1.0
    span = abs(x1 - x0)
    h = span / 128.0

    x = float(x0)
    y = [float(v) for v in y0]
    n = len(y)
    log_scale = 0.0
    n_steps = 0
    n_rejected = 0
    sign_changes = 0
    last = y[0]
    u2 = 0.0
    k = [[0.0] * n for _ in range(6)]

    while (x1 - x) * direction > 0.0:
        if n_steps + n_rejected >= rk45._MAX_STEPS:
            raise ConvergenceError("integrate: steps exhausted")
        h = min(h, abs(x1 - x))
        hs = h * direction

        k[0] = list(f(x, y))
        for i in range(1, 6):
            yi = y[:]
            for j, a in enumerate(rk45._A[i]):
                if a != 0.0:
                    ah = a * hs
                    kj = k[j]
                    for m in range(n):
                        yi[m] += ah * kj[m]
            k[i] = list(f(x + rk45._C[i] * hs, yi))

        y_new = y[:]
        err = [0.0] * n
        for i in range(6):
            b, e, ki = rk45._B5[i], rk45._E[i], k[i]
            for m in range(n):
                if b != 0.0:
                    y_new[m] += hs * b * ki[m]
                err[m] += hs * e * ki[m]

        norm = 0.0
        for m in range(n):
            sc = rel_tol * max(abs(y[m]), abs(y_new[m]), 1e-290)
            norm = max(norm, abs(err[m]) / sc)

        if norm <= 1.0 or h <= 1e-13 * span:
            x = x1 if abs(x1 - (x + hs)) < 1e-14 * span else x + hs
            um = 0.5 * (y[0] + y_new[0]) + 0.125 * hs * (y[1] - y_new[1])
            u2 += h * (y[0] * y[0] + 4.0 * um * um + y_new[0] * y_new[0]) / 6.0
            y = y_new
            n_steps += 1
            if y[0] < 0.0 < last or last < 0.0 < y[0]:
                sign_changes += 1
            if y[0] != 0.0:
                last = y[0]
            big = max(abs(v) for v in y)
            if big > rk45._RENORM_THRESHOLD:
                log_scale += math.log(big)
                y = [v / big for v in y]
                u2 = u2 / big / big
        else:
            n_rejected += 1

        grow = 0.9 * norm ** -0.2 if norm > 0.0 else 5.0
        h *= min(5.0, max(0.2, grow))

    return IntegrationResult(x, tuple(y), log_scale, n_steps, n_rejected, sign_changes, u2)


def _radial(g1, g2, E):
    # the oracle's right-hand side for -u'' + (g1/x^2 + g2 x^2) u = E u
    return lambda x, y: (y[1], (g1 / (x * x) + g2 * x * x - E) * y[0])


def _s_form(g1, g2, u):
    # count_zeros' inward form in s = ln x
    def f(s, y):
        x2 = math.exp(2.0 * s)
        return (y[1], y[1] + (g1 + g2 * x2 * x2 + u * x2) * y[0])

    return f


# oracle-shaped problems in both directions at both oracle tolerances, two
# of them renormalizing, and one of count_zeros' s-form;
# name: (f, x0, y0, x1, rel_tol, pinned (x, y, log_scale) hex, n_steps, n_rejected)
PINNED = {
    "outward-scan": (
        _radial(0.0, 1.0, 5.0), 0.02, (0.02, 1.0), 1.0, 1e-7,
        ("0x1.0000000000000p+0", ("0x1.865376010b8a0p-2", "-0x1.037ffebf70f95p-1"), "0x0.0p+0"),
        16, 2,
    ),
    "inward-refine": (
        _radial(0.0, 1.0, 5.0), 8.0, (math.exp(-32.0), -8.0 * math.exp(-32.0)), 1.0, 1e-10,
        ("0x1.0000000000000p+0", ("0x1.3e1f84fd774b6p-8", "0x1.dd2f477c842bdp-7"), "0x0.0p+0"),
        608, 5,
    ),
    "outward-refine-attractive": (
        _radial(-0.2, 1.0, -3.2), 0.02, (0.02 ** 0.7236, 0.7236 * 0.02 ** -0.2764), 1.0, 1e-10,
        ("0x1.0000000000000p+0", ("0x1.dc7ca6a361606p+0", "0x1.c935b301abcc6p+1"), "0x0.0p+0"),
        95, 2,
    ),
    "outward-renormalizes": (
        _radial(0.75, 1.0, 1.0), 0.05, (0.05 ** 1.5, 1.5 * 0.05 ** 0.5), 30.0, 1e-10,
        ("0x1.e000000000000p+4", ("0x1.c3ccae75e7f94p+311", "0x1.a717533ae19cap+316"),
         "0x1.cc84f22cb84c0p+7"),
        9154, 3,
    ),
    "inward-renormalizes": (
        _radial(0.0, 1.0, 3.0), 25.0, (1.0, -25.0), 1.0, 1e-7,
        ("0x1.0000000000000p+0", ("0x1.169bfd09f6229p+113", "0x1.030886dc00000p+85"),
         "0x1.ccbe4842136b5p+7"),
        1504, 6,
    ),
    "count-zeros-s-form": (
        _s_form(-2.0, 1.0, 0.5), 0.0, (1.0, 0.0), math.log(1e-3), 1e-9,
        ("-0x1.ba18a998fffa0p+2", ("-0x1.40c5d89a68aa0p-6", "0x1.da44d9fe43bf2p-6"), "0x0.0p+0"),
        142, 8,
    ),
}


def _bits(res):
    return (res.x.hex(), tuple(v.hex() for v in res.y), res.log_scale.hex())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_results(name):
    f, x0, y0, x1, tol, bits, n_steps, n_rejected = PINNED[name]
    res = integrate(f, x0, y0, x1, rel_tol=tol)
    assert _bits(res) == bits
    assert (res.n_steps, res.n_rejected) == (n_steps, n_rejected)


def test_pinned_shooting_spectrum(monkeypatch):
    """kappa = 1/2, nu = 1, five levels: the energies, the residuals and the
    oracle's RK45 work ([integrations, steps, rejected], counted through its
    `integrate`) of the count-bracketed Newton root hunt."""
    tally = [0, 0, 0]

    def counting(*args, **kwargs):
        res = integrate(*args, **kwargs)
        tally[0] += 1
        tally[1] += res.n_steps
        tally[2] += res.n_rejected
        return res

    monkeypatch.setattr(oracle, "integrate", counting)
    rp = reduce(0.0, 1.0)
    spec = oracle.shoot_spectrum(rp, extension_for(rp, nu=1.0), 5)
    assert [e.hex() for e in spec.energies] == [
        "0x1.03b03babc0683p+1",
        "0x1.6ebc838c467fbp+2",
        "0x1.32f0ce2c9e6c9p+3",
        "0x1.b04f4b46d8928p+3",
        "0x1.17438504c8ec0p+4",
    ]
    assert [r.hex() for r in spec.mismatch_residuals] == [
        "0x1.0000000000000p-50",
        "0x1.0000000000000p-51",
        "0x1.0000000000000p-50",
        "0x1.6000000000000p-45",
        "0x1.0000000000000p-48",
    ]
    assert tally == [64, 10601, 413]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_reference_loop_reproduces_the_pins(name):
    f, x0, y0, x1, tol, bits, n_steps, n_rejected = PINNED[name]
    res = _textbook_integrate(f, x0, y0, x1, rel_tol=tol)
    assert _bits(res) == bits
    assert (res.n_steps, res.n_rejected) == (n_steps, n_rejected)


_coef = st.floats(-4.0, 4.0)


@given(
    m=st.tuples(_coef, _coef, _coef, _coef),
    y0=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    x0=st.floats(-3.0, 3.0),
    span=st.floats(-6.0, 6.0).filter(lambda s: abs(s) > 1e-3),
    tol=st.sampled_from([1e-4, 1e-7, 1e-9, 1e-10, 1e-12]),
    threshold=st.sampled_from([1e100, 1e3]),
)
@settings(max_examples=60, deadline=None)
def test_matches_the_textbook_loop_bit_for_bit(m, y0, x0, span, tol, threshold):
    # a non-autonomous linear pair, renormalizing often at the low threshold
    a, b, c, d = m
    f = lambda x, y: (a * y[0] + b * math.sin(x) * y[1], c * x * y[0] + d * y[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rk45, "_RENORM_THRESHOLD", threshold)
        want = _textbook_integrate(f, x0, y0, x0 + span, rel_tol=tol)
        got = integrate(f, x0, y0, x0 + span, rel_tol=tol)
    assert _bits(got) == _bits(want)
    assert (got.n_steps, got.n_rejected) == (want.n_steps, want.n_rejected)


@given(
    omega=st.floats(0.3, 12.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    span=st.floats(-9.0, 9.0).filter(lambda s: abs(s) > 1e-3),
    tol=st.sampled_from([1e-7, 1e-10]),
    threshold=st.sampled_from([1e100, 1e-1]),
)
@settings(max_examples=40, deadline=None)
def test_sign_changes_match_the_textbook_loop(omega, phase, span, tol, threshold):
    f = lambda x, y: (y[1], -omega * omega * y[0])
    y0 = (math.sin(phase), omega * math.cos(phase))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rk45, "_RENORM_THRESHOLD", threshold)
        want = _textbook_integrate(f, 0.0, y0, span, rel_tol=tol)
        got = integrate(f, 0.0, y0, span, rel_tol=tol)
    assert got.sign_changes == want.sign_changes
