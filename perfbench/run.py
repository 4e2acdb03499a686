"""calogero benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  It measures set-up (fresh
interpreters importing `calogero.cli` and building the parser), then starts
one workload process (`worker.py`) with PYTHONPATH=src and without
CALOGERO_THREADS, and prints

* `report {...}`: every figure by name with its unit, the gate verdict, the
  failure tallies, input shares, output digest and the machine;
* as the last line, `{"correct", "attempted", "failed", "metrics"}`: the
  end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

Workloads: spectra, cross-check, states, verify (see workloads.py).  The
loop is closed: one client in one process and thread, each request starting
when the previous one returns.  Declared times are divided by a machine-speed
factor sampled while the requests run (calibration.py); the report also carries
the wall-clock figures.  Exits non-zero, printing no result, when the
checkout has no package source or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from calibration import REFERENCE_BLOCK_S

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SPAWNS = 9
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import calogero.cli\n"
    "calogero.cli.build_parser()\n"
    "t = time.perf_counter() - t0\n"
    f"sys.path.insert(0, {HERE!r})\n"
    "import calibration\n"
    "print(t, calibration.block(), calibration.block(), calibration.block())\n"
)
WORKER_TIMEOUT_S = 170


def workload_env() -> dict:
    env = dict(os.environ)
    env.pop("CALOGERO_THREADS", None)  # verify takes the same sequential path on every commit
    env["PYTHONPATH"] = "src"
    return env


def setup_seconds(env) -> tuple[float, float]:
    """(speed-normalised, wall) median in-process set-up time of SETUP_SPAWNS
    fresh interpreters, after one untimed spawn that leaves the bytecode cache
    written.  Each spawn divides its time by its own machine-speed factor, from
    three calibration blocks run right after (see calibration.py)."""
    normalised, wall = [], []
    for i in range(SETUP_SPAWNS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        t, *blocks = map(float, out.stdout.split())
        if i:
            wall.append(t)
            normalised.append(t * REFERENCE_BLOCK_S / statistics.median(blocks))
    return statistics.median(normalised), statistics.median(wall)


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "calogero", "cli.py")):
        print("no package source at src/calogero: run from the root of a calogero checkout", file=sys.stderr)
        return 2
    env = workload_env()
    try:
        setup_s, setup_wall_s = setup_seconds(env)
    except (subprocess.SubprocessError, ValueError) as exc:
        print(f"set-up probe failed: {exc}", file=sys.stderr)
        return 1

    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(HERE, "_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload process exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"workload process failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    report = dict(result["report"], workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine(), correct=result["correct"])
    if args.trace:
        report["per_layer"] = metrics
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
        report["end_to_end"]["setup_s"] = dict(metrics["setup_s"], spawns=SETUP_SPAWNS, wall=setup_wall_s)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
