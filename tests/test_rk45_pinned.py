"""Bit-identity guard for the fused Cash-Karp kernel, and pinned runs
of the shooting oracle.

`integrate` unrolls the tableau into scalar locals and forms the radial
coefficient inline for speed; it must still do the textbook loop's float
operations in the textbook order.  The pinned values below are exact
(`float.hex`) results of the list-based loop over stages and components
that the kernel replaced, run on the radial right-hand side, and
`_textbook_integrate` is that loop, kept here as the reference for
randomized problems.  `count_zeros` is the kernel's caller, and its
counts are checked against that loop below.

The oracle's shooting runs are pinned here too, with the work its Taylor
propagator does, for the left and right starts it has had.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from calogero import oracle, rk45
from calogero.errors import ConvergenceError, DomainError
from calogero.nonexistence import count_zeros
from calogero.params import Couplings, reduce
from calogero.rk45 import IntegrationResult, integrate
from calogero.spectral import extension_for, spectrum


def _textbook_integrate(f, x0, y0, x1, rel_tol=1e-10):
    """The list-based loop over stages and components; same guards, same
    step control, any number of components."""
    if math.isnan(x0) or math.isnan(x1):
        raise DomainError("integrate: NaN endpoint")
    if x1 == x0:
        return IntegrationResult(x0, tuple(float(v) for v in y0), 0.0, 0, 0, 0)
    if not 1e-14 <= rel_tol <= 1e-2:
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
        else:
            n_rejected += 1

        grow = 0.9 * norm ** -0.2 if norm > 0.0 else 5.0
        h *= min(5.0, max(0.2, grow))

    return IntegrationResult(x, tuple(y), log_scale, n_steps, n_rejected, sign_changes)


def _radial(g1, g2, E):
    # the right-hand side of -u'' + (g1/x^2 + g2 x^2) u = E u
    return lambda x, y: (y[1], (g1 / (x * x) + g2 * x * x - E) * y[0])


def _s_form(g1, g2, u):
    # the zero counter's equation in s = ln x, phi(s) = phi(e^s): the
    # reference its rescaled radial segments are checked against
    def f(s, y):
        x2 = math.exp(2.0 * s)
        return (y[1], y[1] + (g1 + g2 * x2 * x2 + u * x2) * y[0])

    return f


# oracle-shaped problems in both directions at both oracle tolerances, two
# of them renormalizing, and one of count_zeros' rescaled segments
# (x_a = 1e-2 at g1 = -2, g2 = 1, u = 0.5, down one decade in xi = x/x_a);
# name: ((g1, g2, E), x0, y0, x1, rel_tol, pinned (x, y, log_scale) hex,
#        n_steps, n_rejected)
PINNED = {
    "outward-scan": (
        (0.0, 1.0, 5.0), 0.02, (0.02, 1.0), 1.0, 1e-7,
        ("0x1.0000000000000p+0", ("0x1.865376010b8a0p-2", "-0x1.037ffebf70f95p-1"), "0x0.0p+0"),
        16, 2,
    ),
    "inward-refine": (
        (0.0, 1.0, 5.0), 8.0, (math.exp(-32.0), -8.0 * math.exp(-32.0)), 1.0, 1e-10,
        ("0x1.0000000000000p+0", ("0x1.3e1f84fd774b6p-8", "0x1.dd2f477c842bdp-7"), "0x0.0p+0"),
        608, 5,
    ),
    "outward-refine-attractive": (
        (-0.2, 1.0, -3.2), 0.02, (0.02 ** 0.7236, 0.7236 * 0.02 ** -0.2764), 1.0, 1e-10,
        ("0x1.0000000000000p+0", ("0x1.dc7ca6a361606p+0", "0x1.c935b301abcc6p+1"), "0x0.0p+0"),
        95, 2,
    ),
    "outward-renormalizes": (
        (0.75, 1.0, 1.0), 0.05, (0.05 ** 1.5, 1.5 * 0.05 ** 0.5), 30.0, 1e-10,
        ("0x1.e000000000000p+4", ("0x1.c3ccae75e7f94p+311", "0x1.a717533ae19cap+316"),
         "0x1.cc84f22cb84c0p+7"),
        9154, 3,
    ),
    "inward-renormalizes": (
        (0.0, 1.0, 3.0), 25.0, (1.0, -25.0), 1.0, 1e-7,
        ("0x1.0000000000000p+0", ("0x1.169bfd09f6229p+113", "0x1.030886dc00000p+85"),
         "0x1.ccbe4842136b5p+7"),
        1504, 6,
    ),
    "count-zeros-rescaled-segment": (
        (-2.0, 1e-8, -5e-5), 1.0, (1.0, 0.0), 0.1, 1e-9,
        ("0x1.999999999999ap-4", ("-0x1.36a8d2d6efb33p-2", "0x1.d32f0f42f6189p-2"), "0x0.0p+0"),
        71, 5,
    ),
}


def _bits(res):
    return (res.x.hex(), tuple(v.hex() for v in res.y), res.log_scale.hex())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_results(name):
    coef, x0, y0, x1, tol, bits, n_steps, n_rejected = PINNED[name]
    res = integrate(*coef, x0, y0, x1, rel_tol=tol)
    assert _bits(res) == bits
    assert (res.n_steps, res.n_rejected) == (n_steps, n_rejected)


def _counting_integrate(tally):
    """oracle.integrate, the Taylor propagator, adding [integrations,
    steps, rejected] to tally."""
    real = oracle.integrate

    def counting(*args, **kwargs):
        res = real(*args, **kwargs)
        tally[0] += 1
        tally[1] += res.n_steps
        tally[2] += res.n_rejected
        return res

    return counting


def _gaps_to_spectrum(spec, rp, ext):
    want = spectrum(rp, ext, len(spec.energies)).energies
    return [abs(g - w) / w for g, w in zip(spec.energies, want)]


def test_pinned_shooting_spectrum(monkeypatch):
    """kappa = 1/2, nu = 1, five levels: the energies, the residuals and the
    oracle's propagator work ([integrations, steps, rejected], counted
    through its `integrate`) of the count-bracketed Newton root hunt."""
    tally = [0, 0, 0]
    monkeypatch.setattr(oracle, "integrate", _counting_integrate(tally))
    rp = reduce(0.0, 1.0)
    ext = extension_for(rp, nu=1.0)
    spec = oracle.shoot_spectrum(rp, ext, 5)
    # 1.1e-15, 3.1e-16, 1.9e-16, 1.3e-16 and 2.0e-16 from `spectrum`
    # (relative); RK45 at 4e-11 put them up to 5.2e-12 off
    assert [e.hex() for e in spec.energies] == [
        "0x1.03b03babc6148p+1",
        "0x1.6ebc838c4dec9p+2",
        "0x1.32f0ce2c9f834p+3",
        "0x1.b04f4b46d8e16p+3",
        "0x1.17438504c902ep+4",
    ]
    assert [r.hex() for r in spec.mismatch_residuals] == [
        "0x1.0000000000000p-51",
        "0x1.0000000000000p-51",
        "0x1.0000000000000p-50",
        "0x1.0000000000000p-49",
        "0x1.0000000000000p-48",
    ]
    assert max(_gaps_to_spectrum(spec, rp, ext)) <= 1e-14
    # Taylor steps; the same hunt took [52, 4582, 239] RK45 steps
    assert tally == [52, 215, 0]


def _series_at(s, g2, E, ups, x):
    """(F_s, F_s') at x from the series summed to 1e-18 of their sum."""
    a_km1, a_km2, P, dP, xk = 1.0, 0.0, 1.0, 0.0, 1.0
    for k in range(1, 61):
        a_k = (-E * a_km1 + g2 * a_km2) / (2.0 * k * (2.0 * s + 2.0 * k - 1.0))
        xk *= x * x
        P += a_k * xk
        dP += 2.0 * k * a_k * xk / x
        a_km2, a_km1 = a_km1, a_k
        if abs(a_k * xk) <= 1e-18 * abs(P) and k >= 3:
            break
    pw = (ups * x) ** s
    return pw * P, pw * (s * P / x + dP)


def _log_series_at(g2, E, ups, x):
    """kappa = 0: (F, F', L, L') at x from the series summed to 1e-18."""
    a_km1, a_km2, b_km1, b_km2 = 1.0, 0.0, 0.0, 0.0
    P, dP, B, dB, xk = 1.0, 0.0, 0.0, 0.0, 1.0
    for k in range(1, 61):
        a_k = (-E * a_km1 + g2 * a_km2) / (4.0 * k * k)
        b_k = (-4.0 * k * a_k - E * b_km1 + g2 * b_km2) / (4.0 * k * k)
        xk *= x * x
        P += a_k * xk
        dP += 2.0 * k * a_k * xk / x
        B += b_k * xk
        dB += 2.0 * k * b_k * xk / x
        a_km2, a_km1, b_km2, b_km1 = a_km1, a_k, b_km1, b_k
        if abs(a_k * xk) <= 1e-18 * abs(P) and abs(b_k * xk) <= 1e-18 * (abs(B) + 1e-30) and k >= 3:
            break
    pw = (ups * x) ** 0.5
    F, dF, ell = pw * P, pw * (0.5 * P / x + dP), math.log(ups * x)
    return F, dF, F * ell + pw * B, dF * ell + F / x + pw * (0.5 * B / x + dB)


def _boundary_state(rp, ext, E, x):
    k, ups, g2 = rp.kappa, rp.upsilon, rp.g2
    if ext.is_ladder:
        return _series_at(0.5 + k, g2, E, ups, x)
    sn, cn = math.sin(ext.nu), math.cos(ext.nu)
    if k > 0.0:
        (fp, dfp), (fm, dfm) = (_series_at(s, g2, E, ups, x) for s in (0.5 + k, 0.5 - k))
        return sn * fp + cn * fm, sn * dfp + cn * dfm
    f, df, L, dL = _log_series_at(g2, E, ups, x)
    return sn * f + 2.0 * cn * L, sn * df + 2.0 * cn * dL


def _x_min_start(rp, ext, E, x_min, x_match):
    """The left branch's start before it followed its series: x_min itself,
    and head = u' u_E - u u'_E from a central difference of the data in E
    (step ups^2)."""
    h = rp.energy_scale()
    u0, v0 = _boundary_state(rp, ext, E, x_min)
    up, vp = _boundary_state(rp, ext, E + h, x_min)
    um, vm = _boundary_state(rp, ext, E - h, x_min)
    return x_min, (u0, v0), (v0 * (up - um) - u0 * (vp - vm)) / (2.0 * h)


def test_pinned_shooting_spectrum_from_x_min(monkeypatch):
    """The same run with the left branch started at x_min: level 0 lies
    6.1e-15 from `spectrum` (relative), the others within 3.1e-16, and the
    start where the series hold saves half of the steps."""
    tally = [0, 0, 0]
    monkeypatch.setattr(oracle, "integrate", _counting_integrate(tally))
    monkeypatch.setattr(oracle, "_left_start", _x_min_start)
    rp = reduce(0.0, 1.0)
    ext = extension_for(rp, nu=1.0)
    spec = oracle.shoot_spectrum(rp, ext, 5)
    assert [e.hex() for e in spec.energies] == [
        "0x1.03b03babc615fp+1",
        "0x1.6ebc838c4dec9p+2",
        "0x1.32f0ce2c9f833p+3",
        "0x1.b04f4b46d8e16p+3",
        "0x1.17438504c902dp+4",
    ]
    assert [r.hex() for r in spec.mismatch_residuals] == [
        "0x1.0000000000000p-46",
        "0x1.0000000000000p-51",
        "0x1.0000000000000p-49",
        "0x0.0p+0",
        "0x0.0p+0",
    ]
    assert max(_gaps_to_spectrum(spec, rp, ext)) <= 1e-14
    assert tally == [50, 415, 0]


def _leading_order_start(rp, E, x_match):
    """The right branch's start before it followed the level: x_max = 8/ups,
    the leading-order data chi = z^(-1/2 - 2w) e^(-z^2/2) clamped at
    1e-300, and no [x_max, inf) part in the slope."""
    ups = rp.upsilon
    x_max = 8.0 / ups
    w = -E / (4.0 * ups * ups)
    z = ups * x_max
    ln_chi = (-0.5 - 2.0 * w) * math.log(z) - 0.5 * z * z
    chi = math.exp(ln_chi) if ln_chi > -700.0 else 1e-300
    return x_max, (chi, (-ups * ups * x_max - (0.5 + 2.0 * w) / x_max) * chi), 0.0


def test_pinned_shooting_spectrum_from_x_max(monkeypatch):
    """The same run with the right branch also started at x_max from
    leading-order data: every level lies within 2.0e-15 of `spectrum`
    (relative), and the starts where the data hold save two thirds of the
    steps."""
    tally = [0, 0, 0]
    monkeypatch.setattr(oracle, "integrate", _counting_integrate(tally))
    monkeypatch.setattr(oracle, "_right_start", _leading_order_start)
    monkeypatch.setattr(oracle, "_left_start", _x_min_start)
    rp = reduce(0.0, 1.0)
    ext = extension_for(rp, nu=1.0)
    spec = oracle.shoot_spectrum(rp, ext, 5)
    assert [e.hex() for e in spec.energies] == [
        "0x1.03b03babc6144p+1",
        "0x1.6ebc838c4dec8p+2",
        "0x1.32f0ce2c9f832p+3",
        "0x1.b04f4b46d8e24p+3",
        "0x1.17438504c902dp+4",
    ]
    assert [r.hex() for r in spec.mismatch_residuals] == [
        "0x1.0000000000000p-50",
        "0x0.0p+0",
        "0x1.8000000000000p-49",
        "0x1.2000000000000p-44",
        "0x0.0p+0",
    ]
    assert max(_gaps_to_spectrum(spec, rp, ext)) <= 1e-14
    assert tally == [50, 603, 0]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_reference_loop_reproduces_the_pins(name):
    coef, x0, y0, x1, tol, bits, n_steps, n_rejected = PINNED[name]
    res = _textbook_integrate(_radial(*coef), x0, y0, x1, rel_tol=tol)
    assert _bits(res) == bits
    assert (res.n_steps, res.n_rejected) == (n_steps, n_rejected)


def _outcome(run):
    """The bits and the work of a run, or the type of what it raised."""
    try:
        res = run()
    except (ConvergenceError, ZeroDivisionError, OverflowError) as e:
        return type(e)
    return _bits(res), res.n_steps, res.n_rejected, res.sign_changes


@given(
    coef=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(-20.0, 20.0)),
    y0=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    x0=st.floats(0.05, 4.0),
    span=st.floats(-6.0, 6.0).filter(lambda s: abs(s) > 1e-3),
    tol=st.sampled_from([1e-4, 1e-7, 1e-9, 1e-10, 1e-12]),
    threshold=st.sampled_from([1e100, 1e3]),
)
@settings(max_examples=60, deadline=None)
def test_matches_the_textbook_loop_bit_for_bit(coef, y0, x0, span, tol, threshold):
    # the radial equation on both sides of its barrier and well, renormalizing
    # often at the low threshold
    assume(x0 + span > 0.02)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rk45, "_RENORM_THRESHOLD", threshold)
        want = _outcome(lambda: _textbook_integrate(_radial(*coef), x0, y0, x0 + span, tol))
        got = _outcome(lambda: integrate(*coef, x0, y0, x0 + span, rel_tol=tol))
    assert got == want


@given(
    omega=st.floats(0.3, 12.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    span=st.floats(-0.99, 9.0).filter(lambda s: abs(s) > 1e-3),
    tol=st.sampled_from([1e-7, 1e-10]),
    threshold=st.sampled_from([1e100, 1e-1]),
)
@settings(max_examples=40, deadline=None)
def test_sign_changes_match_the_textbook_loop(omega, phase, span, tol, threshold):
    # E = omega^2 from x = 1
    y0 = (math.sin(phase), omega * math.cos(phase))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rk45, "_RENORM_THRESHOLD", threshold)
        want = _textbook_integrate(_radial(0.0, 0.0, omega * omega), 1.0, y0, 1.0 + span, tol)
        got = integrate(0.0, 0.0, omega * omega, 1.0, y0, 1.0 + span, rel_tol=tol)
    assert got.sign_changes == want.sign_changes


def _reference_zeros(g1, g2, u, x_lo, x_hi, init):
    """Zero count by count_zeros' phase-sized knots (no width cap), with
    phi'' = (g1/x^2 + g2 x^2 + u) phi outward and the s = ln x form inward,
    through the textbook loop."""
    if g1 < -0.25:
        phase = math.sqrt(-g1 - 0.25) * math.log(x_hi / x_lo)
    elif g2 < 0.0:
        phase = 0.5 * math.sqrt(-g2) * (x_hi * x_hi - x_lo * x_lo)
    else:
        phase = 0.0
    n_seg = max(16, math.ceil(phase / (math.pi / 8.0)))
    if g1 >= -0.25 and g2 < 0.0:
        t_lo, t_hi = x_lo * x_lo, x_hi * x_hi
        knots = [math.sqrt(t_lo + (t_hi - t_lo) * i / n_seg) for i in range(n_seg + 1)]
        f = lambda x, y: (y[1], (g1 / (x * x) + g2 * x * x + u) * y[0])
        y = init
    else:
        s_lo, s_hi = math.log(x_lo), math.log(x_hi)
        knots = [s_hi + (s_lo - s_hi) * i / n_seg for i in range(n_seg + 1)]
        f = _s_form(g1, g2, u)
        y = (init[0], init[1] * x_hi)
    zeros = 0
    for a, b in zip(knots, knots[1:]):
        res = _textbook_integrate(f, a, y, b, rel_tol=1e-9)
        zeros += res.sign_changes
        y = res.y
    return zeros


@st.composite
def _zero_count_cases(draw):
    mode = draw(st.sampled_from(["origin", "infinity", "existence"]))
    u = draw(st.floats(-30.0, 30.0))
    if mode == "infinity":
        g1, g2 = draw(st.floats(-0.25, 4.0)), draw(st.floats(-4.0, -0.01))
        x_lo = draw(st.floats(0.01, 4.0))
        x_hi = x_lo + draw(st.floats(0.1, 4.0))
    else:
        if mode == "origin":
            g1, g2 = draw(st.floats(-4.0, -0.26)), draw(st.floats(-4.0, 4.0))
            decades = draw(st.floats(0.5, 20.0))
        else:
            g1, g2 = draw(st.floats(-0.25, 4.0)), draw(st.floats(0.0, 4.0))
            decades = draw(st.floats(0.5, 300.0))
        # x_hi near 1, where u x^2 counts, or deep toward the origin
        x_hi = 10.0 ** draw(st.one_of(st.floats(-1.0, 0.5), st.floats(-280.0, -1.0)))
        x_lo = max(x_hi * 10.0 ** -decades, 1e-300)
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    init = (math.cos(angle), scale * math.sin(angle))
    return g1, g2, u, (x_lo, x_hi), init


@given(case=_zero_count_cases())
@settings(max_examples=40, deadline=None)
def test_count_zeros_matches_the_s_form_reference(case):
    g1, g2, u, interval, init = case
    assume(interval[0] < interval[1] and init != (0.0, 0.0))
    got = count_zeros(Couplings(g1, g2), u, interval, init).observed_zeros
    assert got == _reference_zeros(g1, g2, u, *interval, init)
