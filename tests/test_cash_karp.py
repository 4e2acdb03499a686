"""Exact results of the textbook Cash-Karp loop in `cash_karp.py`.

The loop is the reference the oracle and zero-count tests compare with,
so its results are pinned bit for bit (`float.hex`), with the work it
does: a change to the loop that moves any reference value fails here.
Solutions in closed form check that the pinned loop is also right.
"""

import math

import pytest

from cash_karp import integrate

# oracle-shaped problems in both directions at both oracle tolerances, two
# of them renormalizing, and one of the zero counter's rescaled segments
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
def test_reference_loop_reproduces_the_pins(name):
    coef, x0, y0, x1, tol, bits, n_steps, n_rejected = PINNED[name]
    res = integrate(*coef, x0, y0, x1, rel_tol=tol)
    assert _bits(res) == bits
    assert (res.n_steps, res.n_rejected) == (n_steps, n_rejected)


E2 = math.exp(2.0)


# name: ((g1, g2, E), x0, y0, x1, log of the solution's u at x1)
CLOSED_FORMS = {
    # E = -1: u = u' = e^(x - 1), forward, backward and through the ledger
    "exponential": ((0.0, 0.0, -1.0), 1.0, (1.0, 1.0), 3.0, 2.0),
    "backward": ((0.0, 0.0, -1.0), 3.0, (E2, E2), 1.0, 0.0),
    "blowup-ledger": ((0.0, 0.0, -1.0), 1.0, (1.0, 1.0), 601.0, 600.0),
    # E = 1: u = cos(x - 1), one full period
    "harmonic-loop": ((0.0, 0.0, 1.0), 1.0, (1.0, 0.0), 1.0 + 2.0 * math.pi, 0.0),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_reference_loop_follows_closed_forms(name):
    coef, x0, y0, x1, log_u = CLOSED_FORMS[name]
    res = integrate(*coef, x0, y0, x1, rel_tol=1e-11)
    assert res.x == x1
    assert max(abs(v) for v in res.y) <= 1e100
    assert math.log(res.y[0]) + res.log_scale == pytest.approx(log_u, abs=1e-9 * (1.0 + log_u))


@pytest.mark.parametrize("omega", [0.7, 3.0, 11.0])
def test_reference_loop_counts_the_zeros_of_a_sine(omega):
    # E = omega^2: u = sin(omega x) on [0.1, 9.9]
    y0 = (math.sin(0.1 * omega), omega * math.cos(0.1 * omega))
    res = integrate(0.0, 0.0, omega * omega, 0.1, y0, 9.9, rel_tol=1e-9)
    assert res.sign_changes == sum(1 for k in range(1, 100) if 0.1 < k * math.pi / omega < 9.9)
