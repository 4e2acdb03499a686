"""One workload process: generate the inputs, warm up, run the timed closed
loop (one client, one thread, each request starts when the previous one
returns), then check every output.

    PYTHONPATH=src python3 perfbench/worker.py --workload spectra --seed 1 --seconds 20 --trace 0

Prints one JSON object as its last line; `run.py` starts this process and
turns that object into the benchmark's report.  With --trace 1 it runs the
same rounds twice, untraced and then traced, and reports per-layer figures
and the tracing overhead instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass

import mpmath  # noqa: F401  imported before timing: the gate needs it and the Psi router loads it lazily

import calogero.cli
import calogero.oracle
import calogero.params
import calogero.spectral
from calogero.errors import ConvergenceError, DomainError

import gate
from calibration import Speed
from workloads import WORKLOADS, Op, make_rounds, n_rounds, sample_grid, warmup_ops

TYPED_EXIT = (2, 3, 4)


@dataclass
class Record:
    op: Op
    t_ms: float
    outcome: str  # "pending" until gated, then "ok" or "wrong"; or "refused" / "crash"
    code: int | None = None
    exc: str | None = None
    stdout: str = ""
    result: object = None


def run_cli(argv) -> tuple[object, str, Exception | None]:
    """(exit code, stdout, the exception that escaped main or None)."""
    out = io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = calogero.cli.main(list(argv))
        except SystemExit as e:
            code = 0 if e.code is None else e.code
        except Exception as e:  # everything that escapes main is tallied, never lost
            code, exc = None, e
    return code, out.getvalue(), exc


def run_op(op: Op, tracer, op_id: int, speed: Speed | None = None) -> Record:
    """One request; its time leaves out calibration blocks that ran inside it."""
    grid = sample_grid(op.args[1]) if op.kind == "wave" else None
    if tracer:
        tracer.begin_op(op_id)
    spent0 = speed.spent if speed else 0.0
    t0 = time.perf_counter()
    if op.kind == "cli":
        code, stdout, exc = run_cli(op.args)
        result = None
    else:
        code, stdout, exc, result = None, "", None, None
        try:
            g1, g2, nu = op.args
            rp = calogero.params.reduce(g1, g2)
            ext = calogero.spectral.extension_for(rp, nu=nu)
            state = calogero.spectral.ground_state_wavefunction(rp, ext)
            result = (state, array("d", calogero.oracle.sample_on_grid(state, grid).values))
        except Exception as e:
            exc = e
    t_ms = (time.perf_counter() - t0 - (speed.spent - spent0 if speed else 0.0)) * 1e3
    if tracer:
        tracer.end_op()
    if exc is not None:
        typed = isinstance(exc, (DomainError, ConvergenceError))
        return Record(op, t_ms, "refused" if typed else "crash", None, type(exc).__name__)
    if op.kind == "cli" and code != 0:
        outcome = "refused" if code in TYPED_EXIT else "crash"
        return Record(op, t_ms, outcome, code if isinstance(code, int) else None, None, stdout)
    return Record(op, t_ms, "pending", code, None, stdout, result)


def timed_loop(rounds, tracer=None, give_up_s=math.inf, calibrate=True):
    """Run whole rounds back to back; stop early only past give_up_s.
    With calibrate, sample the machine's speed as they go (calibration.py).
    Returns the records, the wall time outside calibration blocks, the rounds
    done and the Speed (None without calibrate)."""
    records: list[Record] = []
    done = 0
    speed = Speed() if calibrate else None
    with speed or contextlib.nullcontext():
        t0 = time.perf_counter()
        for rnd in rounds:
            if time.perf_counter() - t0 > give_up_s:
                break
            for op in rnd:
                records.append(run_op(op, tracer, len(records), speed))
            done += 1
        wall = time.perf_counter() - t0 - (speed.spent if speed else 0.0)
    return records, wall, done, speed


def clear_norm_cache() -> bool:
    """Each pass starts cold, as a fresh `calogero` process would.  False when
    the package has no such cache (then the norm_cache figures are unmeasured)."""
    cached = getattr(calogero.spectral, "_nu_state_norm", None)
    if not hasattr(cached, "cache_clear"):
        return False
    cached.cache_clear()
    return True


def apply_gate(records) -> list[str]:
    problems = []
    for rec in records:
        if rec.outcome != "pending":
            continue
        try:
            if rec.op.kind == "cli":
                gate.check_cli(rec.op.meta, rec.stdout)
            else:
                gate.check_wave(rec.op.meta, rec.result)
            rec.outcome = "ok"
        except Exception as e:  # a malformed output is a wrong output
            rec.outcome = "wrong"
            problems.append(f"{' '.join(map(str, rec.op.args))}: {type(e).__name__}: {e}")
    return problems


EXPECTED_PROBES = {
    "spectra": ("root-scaled-1e-6", "root-swapped", "closed-form-scaled-1e-6", "closed-form-swapped"),
    "cross-check": ("root-scaled-1e-6", "root-swapped", "closed-form-scaled-1e-6", "closed-form-swapped"),
    "states": ("factorize-failed-check", "wave-norm-1e-6", "wave-node"),
    "verify": ("verify-inject-gamma-bug",),
}


# Workloads whose inputs all lie inside the program's documented window: any
# refusal or crash there is a wrong answer, not a failure share to bound.
EVERY_OP_ANSWERS = ("spectra", "cross-check", "verify")


def output_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.stdout.encode())
        if rec.result is not None:
            h.update(rec.result[1].tobytes())
    return h.hexdigest()


def tail_latency(latencies):
    """(percentile, ms): the highest of p99.9/p99/p95/p90 with at least
    ten samples above it, or None."""
    xs = sorted(latencies)
    for p in (99.9, 99.0, 95.0, 90.0):
        idx = math.ceil(p / 100.0 * len(xs)) - 1
        if idx >= 0 and len(xs) - 1 - idx >= 10:
            return p, xs[idx]
    return None


def input_shares(records) -> dict:
    n = len(records)
    kappa = {"0": 0, "(0,1)": 0, ">=1": 0, "n/a": 0}
    dive = {"ladder": 0, ">1e-1": 0, "1e-2..1e-1": 0, "1e-3..1e-2": 0, "1e-4..1e-3": 0, "n/a": 0}
    levels = []
    seen, dup = set(), 0
    for rec in records:
        m = rec.op.meta
        k = m.get("kappa")
        kappa["n/a" if k is None else "0" if k == 0.0 else "(0,1)" if k < 1.0 else ">=1"] += 1
        if m.get("ext") in ("unique", "friedrichs"):
            dive["ladder"] += 1
        elif m.get("nu") is not None or m.get("cmd") == "sweep":
            nu = m["nu"] if m.get("nu") is not None else m["lo"]
            d = 0.5 * math.pi - abs(nu)
            dive[">1e-1" if d > 0.1 else "1e-2..1e-1" if d > 1e-2 else "1e-3..1e-2" if d > 1e-3 else "1e-4..1e-3"] += 1
        else:
            dive["n/a"] += 1
        if m.get("n"):
            levels.append(m["n"])
        dup += rec.op.args in seen
        seen.add(rec.op.args)
    return {
        "kappa": {k: v / n for k, v in kappa.items()},
        "nu_distance_to_friedrichs": {k: v / n for k, v in dive.items()},
        "levels": {"total": sum(levels), "min": min(levels), "median": statistics.median(levels),
                   "max": max(levels)} if levels else None,
        "duplicate_share": dup / n,
    }


def summarize(records, wall, factor) -> tuple[dict, dict]:
    """(declared end-to-end metrics, report).  Times are divided by the
    machine-speed factor (see calibration.py); the report keeps the wall-clock
    figures too, and the figures that can read 0 or be undefined: error and
    crash rates, and the tail latency, omitted when fewer than ten samples lie
    beyond p90."""
    attempted = len(records)
    passing = [r.t_ms for r in records if r.outcome == "ok"]
    crashed = sum(r.outcome == "crash" for r in records)
    exc, codes, corners = {}, {}, {}
    for r in records:
        if r.exc:
            exc[r.exc] = exc.get(r.exc, 0) + 1
        if r.op.kind == "cli" and r.exc is None:
            codes[str(r.code)] = codes.get(str(r.code), 0) + 1
        corner = r.op.meta.get("corner")
        if corner:
            c = corners.setdefault(corner, {"ops": 0, "failed": 0})
            c["ops"] += 1
            c["failed"] += r.outcome != "ok"
    metrics = {
        "goodput_ops_per_s": (len(passing) / wall * factor, "ops/s"),
        "latency_p50_ms": ((statistics.median(passing) if passing else 0.0) / factor, "ms"),
        "verified_share": (len(passing) / attempted, "fraction"),
        "contract_share": (1.0 - crashed / attempted, "fraction"),
    }
    every = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    tail = tail_latency(passing)
    if tail:
        every["latency_tail_ms"] = {"value": tail[1] / factor, "unit": "ms", "percentile": tail[0],
                                    "wall": tail[1]}
    every["goodput_ops_per_s"]["wall"] = len(passing) / wall
    every["latency_p50_ms"]["wall"] = metrics["latency_p50_ms"][0] * factor
    every["error_rate"] = {"value": 1.0 - len(passing) / attempted, "unit": "fraction"}
    every["crash_rate"] = {"value": crashed / attempted, "unit": "fraction"}
    report = {
        "end_to_end": every,
        "attempted": attempted,
        "verified": len(passing),
        "latency_samples": len(passing),
        "refused": sum(r.outcome == "refused" for r in records),
        "crashed": crashed,
        "wrong": sum(r.outcome == "wrong" for r in records),
        "exceptions": exc,
        "exit_codes": codes,
        "known_failure_corners": {k: {"share_of_ops": v["ops"] / attempted, "failed_share": v["failed"] / v["ops"]}
                                  for k, v in corners.items()},
        "timed_wall_s": wall,
        "speed_factor": factor,
    }
    return metrics, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None, help="write spans and aggregates here")
    args = ap.parse_args(argv)

    # a traced run does the work twice (plain, then traced), so half as much each time
    wanted = n_rounds(args.workload, args.seconds / (2.0 if args.trace else 1.0))
    rounds = make_rounds(args.workload, args.seed, "timed", wanted)
    give_up_s = 4.0 * args.seconds  # keeps a much slower program inside the run's time limit
    for op in warmup_ops(args.workload, args.seed):
        run_op(op, None, -1)
    norm_cache_found = clear_norm_cache()

    problems = []
    if not args.trace:
        records, wall, done, speed = timed_loop(rounds, give_up_s=give_up_s)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems += apply_gate(records)
        metrics, report = summarize(records, wall, speed.factor())
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        report["end_to_end"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    else:
        from tracing import Tracer, layer_metrics, unmeasured

        # neither traced-run pass calibrates: the overhead compares like with like
        plain, wall_plain, done, _ = timed_loop(rounds, give_up_s=give_up_s / 2.0, calibrate=False)
        apply_gate(plain)
        clear_norm_cache()
        tracer = Tracer()
        tracer.install()
        try:
            records, wall, _, _ = timed_loop(rounds[:done], tracer, calibrate=False)
        finally:
            tracer.remove()
        cache = calogero.spectral._nu_state_norm.cache_info() if norm_cache_found else None
        problems += apply_gate(records)
        metrics = layer_metrics(tracer, records, cache)
        metrics["trace.overhead_ratio"] = (wall / wall_plain, "ratio")
        _, report = summarize(records, wall, 1.0)
        report["hooks_missing"] = tracer.missing + ([] if norm_cache_found else ["calogero.spectral._nu_state_norm"])
        report["per_layer_unmeasured"] = unmeasured(tracer) + (
            [] if norm_cache_found else ["spectral.norm_cache.hits", "spectral.norm_cache.misses"])
        if output_digest(records) != output_digest(plain):
            problems.append("traced outputs differ from untraced outputs of the same requests")
        if args.trace_out:
            tracer.write(args.trace_out)

    digest = output_digest(records)
    if args.workload in EVERY_OP_ANSWERS:
        problems += [f"{' '.join(map(str, r.op.args))}: {r.outcome} ({r.exc or r.code})"
                     for r in records if r.outcome in ("refused", "crash")]
    probes = gate.self_check(records, lambda a: run_cli(a)[:2])
    missing = [p for p in EXPECTED_PROBES[args.workload] if not probes.get(p)]
    report.update({
        "rounds": done,
        "rounds_planned": len(rounds),
        "output_sha256": digest,
        "inputs": input_shares(records),
        "gate_problems": problems[:10],
        "self_check": probes,
    })
    correct = not problems and not missing
    if missing:
        report["self_check_not_flagged"] = missing
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["attempted"] - report["verified"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
