"""A textbook Cash-Karp Runge-Kutta 4(5) loop: the tests' independent
reference for the radial equation u'' = (g1/x^2 + g2 x^2 - E) u.

It is the list-based loop over stages and components calling the
right-hand side, with a purely relative error weighed against the larger
of the old and new magnitudes, proportional step control, a first step of
1/128 of the span and a step floor of 1e-13 of it.  The state is
renormalized to unit scale whenever its magnitude passes 1e100, and the
logs of the factors are summed in `log_scale`: the true solution is
y * exp(log_scale).  `sign_changes` counts the strict sign changes of y[0]
between accepted steps (a step landing exactly on 0 is bridged to the next
non-zero value).  It shares no code with the package.

`test_cash_karp.py` pins its results with `float.hex`.
"""

import math
from dataclasses import dataclass

from calogero.errors import ConvergenceError, DomainError

# Cash & Karp, ACM TOMS 16 (1990): nodes, stage weights, 5th-order weights,
# and the 5th-minus-4th-order weights of the error estimate
C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 3.0 / 5.0, 1.0, 7.0 / 8.0)
A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0),
    (-11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0),
    (1631.0 / 55296.0, 175.0 / 512.0, 575.0 / 13824.0, 44275.0 / 110592.0, 253.0 / 4096.0),
)
B5 = (37.0 / 378.0, 0.0, 250.0 / 621.0, 125.0 / 594.0, 0.0, 512.0 / 1771.0)
B4 = (2825.0 / 27648.0, 0.0, 18575.0 / 48384.0, 13525.0 / 55296.0, 277.0 / 14336.0, 1.0 / 4.0)
ERR = tuple(b5 - b4 for b5, b4 in zip(B5, B4))

RENORM_THRESHOLD = 1e100
MAX_STEPS = 200_000  # accepted plus rejected steps before a call gives up


@dataclass(frozen=True)
class Result:
    x: float
    y: tuple[float, ...]
    log_scale: float
    n_steps: int
    n_rejected: int
    sign_changes: int


def textbook_integrate(f, x0, y0, x1, rel_tol=1e-10):
    """Carry y0 from x0 to x1 (either direction) under y' = f(x, y), for
    any number of components."""
    if math.isnan(x0) or math.isnan(x1):
        raise DomainError("integrate: NaN endpoint")
    if x1 == x0:
        return Result(x0, tuple(float(v) for v in y0), 0.0, 0, 0, 0)
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
        if n_steps + n_rejected >= MAX_STEPS:
            raise ConvergenceError("integrate: steps exhausted")
        h = min(h, abs(x1 - x))
        hs = h * direction

        k[0] = list(f(x, y))
        for i in range(1, 6):
            yi = y[:]
            for j, a in enumerate(A[i]):
                if a != 0.0:
                    ah = a * hs
                    kj = k[j]
                    for m in range(n):
                        yi[m] += ah * kj[m]
            k[i] = list(f(x + C[i] * hs, yi))

        y_new = y[:]
        err = [0.0] * n
        for i in range(6):
            b, e, ki = B5[i], ERR[i], k[i]
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
            if big > RENORM_THRESHOLD:
                log_scale += math.log(big)
                y = [v / big for v in y]
        else:
            n_rejected += 1

        grow = 0.9 * norm ** -0.2 if norm > 0.0 else 5.0
        h *= min(5.0, max(0.2, grow))

    return Result(x, tuple(y), log_scale, n_steps, n_rejected, sign_changes)


def radial(g1, g2, E):
    """The right-hand side of -u'' + (g1/x^2 + g2 x^2) u = E u for (u, u')."""
    return lambda x, y: (y[1], (g1 / (x * x) + g2 * x * x - E) * y[0])


def integrate(g1, g2, E, x0, y0, x1, rel_tol=1e-10):
    """The radial equation's state (u, u') carried from x0 to x1."""
    return textbook_integrate(radial(g1, g2, E), x0, y0, x1, rel_tol)
