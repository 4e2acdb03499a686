"""Seeded request generators for the four benchmark workloads.

Every workload is a list of rounds.  A round is a fixed list of cells (strata
of the input space) in a fixed composition; the seed picks the point inside
each cell and the order of the ops inside the round.  The timed loop runs
whole rounds only, so every run measures the same mix whatever the seed, and
the seed moves the inputs without moving the cost of a round much.

Requests are plain argv tuples for the CLI (`calogero.cli.main`) or argument
tuples for the wave-function library calls; nothing else reaches the program.
Each op carries a `meta` dict that the correctness gate and the input-share
report read; the program never sees it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from decimal import Decimal

HALF_PI = 0.5 * math.pi
EULER_GAMMA = 0.5772156649015329
# the shooting oracle refuses ground states estimated below -4 e^{ln 100}
# (scaled); deep cross-check draws stay just inside that documented window
ORACLE_WINDOW_LN = 0.98 * math.log(100.0)
# at kappa = 0 the ground state is E0 ~ -4 ups^2 exp(tan nu + 2 gamma); past
# pi/2 - 2e-3 it leaves the float64 range, where the program refuses by design
KAPPA0_MIN_DIVE = 2e-3
# grid of the sampled ground states: the oracle's default window and size
GRID_POINTS = 801


@dataclass
class Op:
    kind: str  # "cli" or "wave"
    args: tuple  # argv for "cli"; (g1, g2, nu) for "wave"
    meta: dict = field(default_factory=dict)


class Draws:
    """The random draws of one round.  The i-th uniform draw of round r falls
    in sub-interval (r + offset_i) mod STRATA of its range, with offset_i
    fixed per stream, so any STRATA consecutive rounds cover every range
    evenly whatever the seed; the point inside the sub-interval and the order
    of ops come from the seeded stream."""

    STRATA = 4

    def __init__(self, rng: random.Random, offsets: list[int], round_index: int) -> None:
        self.rng, self.offsets, self.round_index, self.count = rng, offsets, round_index, 0

    def random(self) -> float:
        if self.count == len(self.offsets):
            self.offsets.append(self.rng.randrange(self.STRATA))
        stratum = (self.round_index + self.offsets[self.count]) % self.STRATA
        self.count += 1
        return (stratum + self.rng.random()) / self.STRATA

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, lo: int, hi: int) -> int:
        return min(hi, lo + int((hi - lo + 1) * self.random()))

    def shuffle(self, items: list) -> None:
        self.rng.shuffle(items)


def _f(x: float) -> str:
    """The float's shortest round-trip digits in positional notation, as a
    user types a number.  argparse takes a negative number in exponent
    notation (-1.2e-06) for an option and exits 2, so repr() would turn a
    rare tiny negative nu into a usage error."""
    return format(Decimal(repr(float(x))), "f")


def _loguniform(rng: Draws, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _levels(rng: Draws, lo: int, hi: int) -> int:
    return min(hi, max(lo, int(round(_loguniform(rng, lo, hi + 0.499)))))


def _g2(rng: Draws) -> float:
    # upsilon log-spread over one decade
    return _loguniform(rng, 0.5, 5.0) ** 4


def _g1(kappa: float) -> float:
    return -0.25 if kappa == 0.0 else kappa * kappa - 0.25


def _nu_for_depth(kappa: float, ln_r: float) -> float:
    """Extension angle whose ground state sits near -4 e^{ln_r} (scaled),
    from the e -> -inf asymptotics of the boundary equation."""
    if kappa == 0.0:
        return math.atan(ln_r - 2.0 * EULER_GAMMA)
    c = math.lgamma(1.0 + kappa) - math.lgamma(1.0 - kappa)
    return math.atan(1.0 - math.exp(kappa * ln_r - c))


def _spectrum_op(rng, kappa, ext, n, fmt="json"):
    """ext is "unique", "friedrichs" or a float nu."""
    g1, g2 = _g1(kappa), _g2(rng)
    argv = ["spectrum", "--g1", _f(g1), "--g2", _f(g2)]
    if ext == "unique":
        argv.append("--unique")
    elif ext == "friedrichs":
        argv.append("--friedrichs")
    else:
        argv += ["--nu", _f(ext)]
    argv += ["--n", str(n)]
    if fmt == "csv":
        argv += ["--format", "csv"]
    meta = {"cmd": "spectrum", "g1": g1, "g2": g2, "kappa": kappa, "n": n, "fmt": fmt,
            "ext": ext if isinstance(ext, str) else "nu", "nu": None if isinstance(ext, str) else ext}
    return Op("cli", tuple(argv), meta)


def _kappa_family(rng):
    return rng.uniform(0.02, 0.98)


def _nu_uniform(rng, kappa, quarter):
    """nu uniform in one quarter of the open interval, kept 1e-4 from the
    diving endpoint (kappa > 0) or inside the float64 range (kappa = 0)."""
    lo = -HALF_PI + (0.0 if kappa == 0.0 else 1e-4) + quarter * HALF_PI * 0.5
    hi = -HALF_PI + (quarter + 1) * HALF_PI * 0.5
    if kappa == 0.0:
        hi = min(hi, HALF_PI - KAPPA0_MIN_DIVE)
    return rng.uniform(max(lo, -HALF_PI + 1e-6), hi)


def _near_dive(rng, kappa, d_lo, d_hi):
    """nu at a log-uniform distance in [d_lo, d_hi] from the diving endpoint."""
    d = _loguniform(rng, d_lo, d_hi)
    return HALF_PI - d if kappa == 0.0 else -HALF_PI + d


def _sweep_op(rng, kappa):
    g1, g2 = _g1(kappa), _g2(rng)
    lo_lim = -HALF_PI + 1e-4
    hi_lim = HALF_PI - (KAPPA0_MIN_DIVE if kappa == 0.0 else 1e-4)
    lo, hi = sorted(rng.uniform(lo_lim, hi_lim) for _ in range(2))
    count = rng.randint(2, 16)
    n = rng.randint(1, 4)
    argv = ("sweep", "--g1", _f(g1), "--g2", _f(g2), "--sweep", _f(lo), _f(hi), str(count), "--n", str(n))
    meta = {"cmd": "sweep", "g1": g1, "g2": g2, "kappa": kappa, "n": n * count, "levels": n,
            "lo": lo, "hi": hi, "count": count, "fmt": "json", "ext": "nu", "nu": None}
    return Op("cli", argv, meta)


def spectra_round(rng: Draws) -> list[Op]:
    """Root-finding requests over the whole admissible plane, oracle off."""
    ops = []
    n_cells = ((1, 1), (2, 4), (5, 12), (13, 50))
    cell = 0
    for kappa_of in (lambda r: 0.0, _kappa_family):
        for quarter in range(4):
            for lo, hi in n_cells:
                kappa = kappa_of(rng)
                fmt = "csv" if cell % 5 == 4 else "json"
                ops.append(_spectrum_op(rng, kappa, _nu_uniform(rng, kappa, quarter), _levels(rng, lo, hi), fmt))
                cell += 1
    for d_lo, d_hi in ((1e-2, 1e-1), (1e-3, 1e-2), (1e-4, 1e-3)):
        for lo, hi in ((1, 4), (5, 50)):
            kappa = _kappa_family(rng)
            ops.append(_spectrum_op(rng, kappa, _near_dive(rng, kappa, d_lo, d_hi), _levels(rng, lo, hi)))
    for d_lo, d_hi in ((1e-2, 1e-1), (KAPPA0_MIN_DIVE, 1e-2)):
        for lo, hi in ((1, 4), (5, 50)):
            ops.append(_spectrum_op(rng, 0.0, _near_dive(rng, 0.0, d_lo, d_hi), _levels(rng, lo, hi)))
    for lo, hi in ((1, 4), (5, 50)):
        ops.append(_spectrum_op(rng, _kappa_family(rng), 0.0, _levels(rng, lo, hi)))
    ops.append(_spectrum_op(rng, _kappa_family(rng), "friedrichs", _levels(rng, 1, 50), "csv"))
    ops.append(_spectrum_op(rng, 0.0, "friedrichs", _levels(rng, 1, 50)))
    for lo, hi in n_cells:
        ops.append(_spectrum_op(rng, rng.uniform(1.01, 3.0), "unique", _levels(rng, lo, hi)))
    for kappa in (0.0, 0.0, _kappa_family(rng), _kappa_family(rng)):
        ops.append(_sweep_op(rng, kappa))
    rng.shuffle(ops)
    return ops


def _oracle_op(rng, kappa, ext, n):
    op = _spectrum_op(rng, kappa, ext, n)
    op.args = op.args + ("--oracle", "on")
    op.meta["cmd"] = "spectrum-oracle"
    return op


def cross_check_round(rng: Draws) -> list[Op]:
    """Oracle cross-checks: ladders (kappa >= 1), interior nu at kappa = 0 and
    0 < kappa < 1, and ground states down to the edge of the oracle's window.
    The oracle's cost moves steeply with kappa, nu and depth, and a run holds
    only one round of 13 requests, so every cell is narrow: the seed moves
    each point a little, moves upsilon over its decade and shuffles the
    order, while the median request and the cost of a round stay put."""
    uni = rng.uniform
    ops = [
        _oracle_op(rng, uni(1.4, 1.6), "unique", 4),
        _oracle_op(rng, uni(2.4, 2.6), "unique", 3),
        _oracle_op(rng, uni(0.28, 0.32), uni(0.55, 0.65), 4),
        _oracle_op(rng, uni(0.68, 0.72), uni(1.05, 1.15), 5),
        _oracle_op(rng, 0.0, uni(-1.05, -0.95), 3),
        _oracle_op(rng, 0.0, uni(-0.45, -0.35), 4),
    ]
    for kappa, lo, hi, n in (
        (uni(0.43, 0.47), 1.4, 1.6, 3),
        (0.0, 1.7, 1.9, 2),
        (0.0, 2.5, 2.7, 1),
        (uni(0.15, 0.2), 2.9, 3.0, 1),
        (uni(0.7, 0.75), 4.45, ORACLE_WINDOW_LN, 1),
        # n = 2 makes the scan climb from the deep ground state to level 1
        (uni(0.6, 0.65), 1.8, 1.9, 2),
        (uni(0.5, 0.55), 2.9, 3.0, 2),
    ):
        ln_r = uni(lo, hi)
        ops.append(_oracle_op(rng, kappa, _nu_for_depth(kappa, ln_r), n))
    rng.shuffle(ops)
    return ops


def _factorize_op(rng, kappa, d_lo, d_hi):
    g1, g2 = _g1(kappa), _g2(rng)
    w0 = -0.5 * (1.0 + kappa)
    w = w0 + _loguniform(rng, d_lo, d_hi)
    mu = rng.uniform(0.0, HALF_PI)
    argv = ("factorize-check", "--g1", _f(g1), "--g2", _f(g2), "--mu", _f(mu), "--w", _f(w))
    return Op("cli", argv, {"cmd": "factorize-check", "g1": g1, "g2": g2, "kappa": kappa,
                            "w": w, "n": 0, "ext": None, "nu": None,
                            "corner": "factorize-check w > 30" if w > 30.0 else None})


# Ground states deeper than nu = -0.8 are where the known Psi failures sit
# and where the cost climbs steeply, up to seconds in a narrow band before the
# overflow edge.  There the scaled problem (kappa, nu) comes from a fixed
# lattice taken in a fixed order and the seed picks only upsilon, so every run
# meets the same deep cases; elsewhere the cost is flat and (kappa, nu) is drawn.
_DEEP_NU = (-1.55, -1.45, -1.35, -1.25, -1.15, -1.05, -0.95, -0.85)
_DEEP_KAPPA = ((0.05, 0.12, 0.19, 0.26), (0.34, 0.42, 0.5, 0.58), (0.64, 0.74, 0.84, 0.93))
_DEEP_LATTICE = []
for _ks in _DEEP_KAPPA:
    _pairs = [(k, nu) for k in _ks for nu in _DEEP_NU]
    random.Random("deep-lattice").shuffle(_pairs)
    _DEEP_LATTICE.append(_pairs)
_SHALLOW_NU = (-0.8, 0.0, 0.5 * HALF_PI, HALF_PI - 1e-4)
_KAPPA0_NU = (-HALF_PI + 1e-4, -1.5, -0.5 * HALF_PI, 0.0, 0.5 * HALF_PI, HALF_PI - 1e-4)


def _wave_op(rng, kappa, nu):
    g1, g2 = _g1(kappa), _g2(rng)
    corner = ("kappa = 0 ground state" if kappa == 0.0
              else "kappa in [0.3, 0.6] ground state at nu <= -1.5" if 0.3 <= kappa <= 0.6 and nu <= -1.5
              else None)
    return Op("wave", (g1, g2, nu), {"cmd": "wavefunction", "g1": g1, "g2": g2, "kappa": kappa,
                                     "nu": nu, "n": 1, "ext": "nu", "corner": corner})


def states_round(rng: Draws) -> list[Op]:
    """factorize-check over w from just above w0 to ~60, and analytic
    ground states sampled on the oracle grid."""
    ops = []
    for kappa_of in (lambda r: 0.0, lambda r: r.uniform(0.02, 0.98), lambda r: r.uniform(1.01, 2.5)):
        for d_lo, d_hi in ((1e-3, 1e-1), (1e-1, 10.0), (10.0, 60.0)):
            ops.append(_factorize_op(rng, kappa_of(rng), d_lo, d_hi))
    for lo, hi in zip(_KAPPA0_NU, _KAPPA0_NU[1:]):
        ops.append(_wave_op(rng, 0.0, rng.uniform(lo, hi)))
    for cls, (k_lo, k_hi) in enumerate(((0.02, 0.3), (0.3, 0.6), (0.6, 0.94))):
        for lo, hi in zip(_SHALLOW_NU, _SHALLOW_NU[1:]):
            ops.append(_wave_op(rng, rng.uniform(k_lo, k_hi), rng.uniform(lo, hi)))
        for j in range(2):
            kappa, nu = _DEEP_LATTICE[cls][(2 * rng.round_index + j) % len(_DEEP_LATTICE[cls])]
            ops.append(_wave_op(rng, kappa, nu))
    rng.shuffle(ops)
    return ops


def verify_round(rng: Draws) -> list[Op]:
    """The full cross-validation table; fixed inputs by design."""
    return [Op("cli", ("verify",), {"cmd": "verify", "n": 0, "ext": None, "nu": None, "kappa": None})]


# Wall time of one round on the reference machine (2-vCPU Xeon, Python 3.11).
# A run of --seconds S does round(S / ROUND_SECONDS) whole rounds, at least
# one: the same requests on every commit and every machine, lasting about S
# seconds at the parent's speed.
ROUND_SECONDS = {"spectra": 0.4, "cross-check": 10.0, "states": 1.8, "verify": 18.0}

WORKLOADS = tuple(ROUND_SECONDS)


def n_rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def make_rounds(workload: str, seed: int, stream: str, rounds_wanted: int) -> list[list[Op]]:
    """All inputs of one stream ("timed" or "warmup"), generated up front."""
    stream_rng = random.Random(f"{workload}:{seed}:{stream}")
    offsets: list[int] = []
    rounds: list[list[Op]] = []
    for r in range(rounds_wanted):
        rng = Draws(stream_rng, offsets, r)
        if workload == "spectra":
            rounds.append(spectra_round(rng))
        elif workload == "cross-check":
            rounds.append(cross_check_round(rng))
        elif workload == "states":
            rounds.append(states_round(rng))
        else:
            rounds.append(verify_round(rng))
    return rounds


def warmup_ops(workload: str, seed: int) -> list[Op]:
    """A short warm-up from its own stream, so no timed input is ever served
    from a cache the warm-up filled."""
    if workload == "verify":
        return [Op("cli", ("verify", "--quick"), {"cmd": "verify"})]
    ops = make_rounds(workload, seed, "warmup", 1)[0]
    if workload == "cross-check":
        return [op for op in ops if op.meta["ext"] == "unique"]
    if workload == "states":
        return ops[:12]
    return ops


def sample_grid(g2: float) -> list[float]:
    ups = g2 ** 0.25
    x_min, x_max = 0.02 / ups, 8.0 / ups
    return [x_min + (x_max - x_min) * i / (GRID_POINTS - 1) for i in range(GRID_POINTS)]
