"""Correctness gate, run after the timed loop on everything it produced.

The checks share no code with the package: boundary equations are evaluated
in mpmath, closed forms are written out here, and ground-state norms come
from this file's own quadrature.  `self_check` feeds the gate answers that
are wrong on purpose and reports whether each one was caught.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math

import mpmath as mp

ROOT_REL = 1e-9  # half-width of the bracket that must hold each root
CLOSED_FORM_REL = 1e-14  # ladder and nu = 0 levels: exact up to rounding
NORM_TOL = 1e-7  # |int u^2 - 1| for an analytic ground state
VERIFY_ROWS = 15


class GateError(Exception):
    """One output failed one check; the message says which."""


def _dps_for(e) -> int:
    # the log-Gamma difference of a huge argument cancels ~log10|e ln e| digits
    mag = float(abs(e))
    return 20 + (int(math.log10(mag * math.log(mag))) if mag > 10.0 else 0)


def _boundary_minus_target(kappa, nu: float):
    """e -> F(e) - target, the boundary equation of extension nu in mpmath;
    build and call it under one working precision."""
    tan_nu = mp.tan(mp.mpf(nu))
    if kappa == 0:
        shift = 2 * mp.digamma(1) + tan_nu
        return lambda e: mp.digamma(mp.mpf(0.5) - e / 4) - shift
    scale = mp.gamma(1 - kappa) / mp.gamma(1 + kappa)

    def f(e):
        a = (1 + kappa) / 2 - e / 4
        am = a - kappa
        if a > 0 and am > 0:
            ratio = mp.exp(mp.loggamma(a) - mp.loggamma(am))
        else:
            ratio = mp.gamma(a) / mp.gamma(am)
        return scale * ratio + tan_nu
    return f


def check_levels(g1: float, g2: float, ext: str, nu, energies) -> None:
    """Every level of one extension: closed form on the ladder and at
    nu = 0, otherwise strictly inside its gap with the root bracketed
    within ROOT_REL by a sign change of the mpmath boundary equation."""
    if not energies:
        raise GateError("no energies")
    kappa = mp.sqrt(mp.mpf(g1) + mp.mpf(0.25))
    ups2 = mp.sqrt(mp.mpf(g2))
    equations = {}  # working precision -> boundary equation built at it
    for n, energy in enumerate(energies):
        if not math.isfinite(energy):
            raise GateError(f"level {n} not finite")
        if ext in ("unique", "friedrichs") or (ext == "nu" and nu == 0.0 and kappa > 0):
            sign = 1 if ext in ("unique", "friedrichs") else -1
            ref = 2 * ups2 * (2 * n + 1 + sign * kappa)
            if abs(energy - ref) > CLOSED_FORM_REL * abs(ref):
                raise GateError(f"level {n}: {energy!r} is not the closed form {float(ref)!r}")
            continue
        e = mp.mpf(energy) / ups2
        hi = 2 * (2 * n + 1 + kappa)
        lo = 2 * (2 * n - 1 + kappa) if n > 0 else None
        if not (e < hi and (lo is None or e > lo)):
            raise GateError(f"level {n}: scaled {float(e):.17g} outside its gap")
        dps = _dps_for(e)
        with mp.workdps(dps):
            if dps not in equations:
                equations[dps] = _boundary_minus_target(mp.sqrt(mp.mpf(g1) + mp.mpf(0.25)), nu)
            f = equations[dps]
            half = ROOT_REL * max(1, abs(e))
            a = max(e - half, (e + lo) / 2) if lo is not None else e - half
            b = min(e + half, (e + hi) / 2)
            if not (f(a) > 0 > f(b)):
                raise GateError(f"level {n}: no root of the boundary equation within {ROOT_REL:g} of {energy!r}")


def _spectrum_energies(meta: dict, stdout: str) -> tuple[list[float], dict | None]:
    if meta["fmt"] == "csv":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        return [float(r["energy"]) for r in rows], None
    doc = json.loads(stdout)
    return doc["results"]["energies"], doc


def check_cli(meta: dict, stdout: str) -> None:
    """Gate for one CLI request that exited 0."""
    cmd = meta["cmd"]
    if cmd in ("spectrum", "spectrum-oracle"):
        energies, doc = _spectrum_energies(meta, stdout)
        if len(energies) != meta["n"]:
            raise GateError(f"{len(energies)} levels for --n {meta['n']}")
        check_levels(meta["g1"], meta["g2"], meta["ext"], meta["nu"], energies)
        if cmd == "spectrum-oracle":
            checks = doc["checks"]
            if [c["name"] for c in checks] != ["oracle-agreement"] or not checks[0]["passed"]:
                raise GateError("oracle-agreement check missing or failed")
            if len(doc["results"]["oracle"]["energies"]) != meta["n"]:
                raise GateError("oracle returned the wrong number of levels")
    elif cmd == "sweep":
        doc = json.loads(stdout)
        rows = doc["results"]["rows"]
        if len(rows) != meta["count"]:
            raise GateError(f"{len(rows)} sweep rows for count {meta['count']}")
        for i, row in enumerate(rows):
            nu = meta["lo"] + (meta["hi"] - meta["lo"]) * i / (meta["count"] - 1)
            if row["nu"] != nu or len(row["energies"]) != meta["levels"]:
                raise GateError(f"sweep row {i} has the wrong nu or level count")
            check_levels(meta["g1"], meta["g2"], "nu", nu, row["energies"])
        if not all(c["passed"] for c in doc["checks"]):
            raise GateError("sweep monotonicity check failed")
    elif cmd == "factorize-check":
        doc = json.loads(stdout)
        if not doc["checks"] or not all(c["passed"] for c in doc["checks"]):
            raise GateError("factorize-check reported a failing check with exit 0")
        u_ref = 4.0 * math.sqrt(meta["g2"]) * meta["w"]
        if abs(doc["results"]["u"] - u_ref) > 1e-12 * max(1.0, abs(u_ref)):
            raise GateError("factorize-check shift u is not 4 ups^2 w")
    elif cmd == "verify":
        doc = json.loads(stdout)
        rows = doc["results"]["rows"]
        failed = [r["name"] for r in rows if not r["passed"]]
        expected = VERIFY_ROWS if "--quick" not in meta.get("argv", ()) else len(rows)
        if failed or len(rows) != expected or not doc["checks"][0]["passed"]:
            raise GateError(f"verify rows failed: {failed or 'row count'}")
    else:
        raise GateError(f"no gate for {cmd}")


def _nodes(values) -> int:
    peak = max(abs(v) for v in values)
    signs = [v > 0.0 for v in values if abs(v) > 1e-9 * peak]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[tuple[float, float], ...]:
    """Nodes and weights on [-1, 1], by Newton iteration on P_n."""
    out = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
            if abs(dx) < 1e-16:
                break
        out.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return tuple(out)


def _gauss(f, a: float, b: float, panels: int, n: int = 16) -> float:
    total = 0.0
    h = (b - a) / panels
    for j in range(panels):
        c, r = a + (j + 0.5) * h, 0.5 * h
        total += r * sum(w * f(c + r * x) for x, w in _gauss_legendre(n))
    return total


def norm_squared(u, ups: float) -> float:
    """int_0^inf u(x)^2 dx for a ground state with at most a power-law
    singularity at the origin and Gaussian decay: power-law head below x0,
    Gauss-Legendre in ln x on [x0, x1] and in x on [x1, x2]."""
    x0, x1, x2 = 1e-9 / ups, 1.0 / ups, 9.0 / ups
    t0 = math.log(x0)
    u0, u1 = u(x0), u(x0 * 1.01)
    p = math.log(abs(u1 / u0)) / math.log(1.01)  # local power u ~ x^p below x0
    head = u0 * u0 * x0 / (2.0 * p + 1.0)
    log_part = _gauss(lambda t: math.exp(t) * u(math.exp(t)) ** 2, t0, math.log(x1), 4)
    body = _gauss(lambda x: u(x) ** 2, x1, x2, 4)
    return head + log_part + body


def check_wave(meta: dict, result) -> None:
    """A sampled analytic ground state: no node on the grid, unit norm."""
    state, values = result
    if _nodes(values) != 0:
        raise GateError("sampled ground state has a node")
    n2 = norm_squared(state, meta["g2"] ** 0.25)
    if not abs(n2 - 1.0) <= NORM_TOL:
        raise GateError(f"ground state norm^2 = {n2!r}, not 1")


def _flagged(fn, *args) -> bool:
    try:
        fn(*args)
    except GateError:
        return True
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError, OverflowError):
        return True
    return False


def self_check(records, run_cli) -> dict:
    """Feed the gate deliberately wrong answers built from verified ones;
    each probe must be flagged.  Returns {probe name: flagged?}."""
    probes: dict[str, bool] = {}
    for rec in records:
        meta = rec.op.meta
        if rec.outcome != "ok":
            continue
        if meta["cmd"] in ("spectrum", "spectrum-oracle") and meta["fmt"] == "json":
            es = json.loads(rec.stdout)["results"]["energies"]
            closed = meta["ext"] != "nu" or (meta["nu"] == 0.0 and meta["kappa"] > 0.0)
            key = "closed-form" if closed else "root"
            if f"{key}-scaled-1e-6" not in probes:
                bad = [e * (1.0 + 1e-6) for e in es]
                probes[f"{key}-scaled-1e-6"] = _flagged(check_levels, meta["g1"], meta["g2"], meta["ext"], meta["nu"], bad)
            if len(es) >= 2 and f"{key}-swapped" not in probes:
                bad = [es[1], es[0]] + es[2:]
                probes[f"{key}-swapped"] = _flagged(check_levels, meta["g1"], meta["g2"], meta["ext"], meta["nu"], bad)
        elif meta["cmd"] == "factorize-check" and "factorize-failed-check" not in probes:
            doc = json.loads(rec.stdout)
            doc["checks"][0]["passed"] = False
            probes["factorize-failed-check"] = _flagged(check_cli, meta, json.dumps(doc))
        elif meta["cmd"] == "wavefunction" and "wave-norm-1e-6" not in probes:
            state, values = rec.result
            probes["wave-norm-1e-6"] = _flagged(check_wave, meta, (lambda x: state(x) * (1.0 + 1e-6), values))
            vals = list(values)
            peak = max(abs(v) for v in vals)
            significant = [i for i, v in enumerate(vals) if abs(v) > 1e-3 * peak]
            cut = significant[len(significant) // 2]
            probes["wave-node"] = _flagged(check_wave, meta, (state, vals[:cut] + [-v for v in vals[cut:]]))
        elif meta["cmd"] == "verify" and "verify-inject-gamma-bug" not in probes:
            argv = ("verify", "--quick", "--inject-gamma-bug")
            code, out = run_cli(argv)
            probes["verify-inject-gamma-bug"] = code != 0 and _flagged(check_cli, dict(meta, argv=argv), out)
    return probes
