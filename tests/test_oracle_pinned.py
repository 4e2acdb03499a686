"""Pinned runs of the shooting oracle: the energies, residuals and
propagator work of its five-level hunt at kappa = 1/2, nu = 1, for the
left and right starts it has had.
"""

import math

from calogero import oracle
from calogero.params import reduce
from calogero.spectral import extension_for, spectrum


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
    # 0, 0, 1.9e-16, 0 and 2.0e-16 from `spectrum` (relative); levels 0
    # and 1 moved by 3 ulps and 1 ulp onto it (from 1.1e-15 and 3.1e-16)
    # when the left series came to stop on two small terms in a row
    assert [e.hex() for e in spec.energies] == [
        "0x1.03b03babc6145p+1",
        "0x1.6ebc838c4dec8p+2",
        "0x1.32f0ce2c9f834p+3",
        "0x1.b04f4b46d8e16p+3",
        "0x1.17438504c902ep+4",
    ]
    assert [r.hex() for r in spec.mismatch_residuals] == [
        "0x1.0000000000000p-51",
        "0x0.0p+0",
        "0x0.0p+0",
        "0x0.0p+0",
        "0x1.0000000000000p-48",
    ]
    assert max(_gaps_to_spectrum(spec, rp, ext)) <= 1e-14
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
