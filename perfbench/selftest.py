"""Self-test of the benchmark: a tiny run of every workload, untraced and
traced, from the root of a calogero checkout.

    python3 perfbench/selftest.py

Checks that each run prints the contract line with every metric named in
BENCHMARK.json and its unit, that the gate passes, that counters read
non-zero where the workload is known to reach them, and that the benchmark
refuses to run in a directory that holds no package source.  Every trace
hook must install on this version of the package.  Takes about
three minutes; the verify workload alone runs the full table twice.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (workload, per-layer metric that must read > 0): calls the workload is known to make
KNOWN_NONZERO = {
    "spectra": ("specfun.gammaln_shift.calls", "spectral.spectrum.us_per_level", "cli.self_ms_per_op"),
    "cross-check": ("rk45.steps_per_level", "oracle.shoot_spectrum.ms_per_level"),
    "states": ("specfun.tricomi_psi_series.us", "specfun.tricomi_psi_integral.us",
               "specfun.exp_halfline_quad.nodes_per_call", "spectral.ground_state_wavefunction.ms"),
    "verify": ("nonexistence.count_zeros.ms", "nonexistence.rk45_steps", "acceptance.oracle_share"),
}


def report_of(lines: list[str]) -> dict:
    return json.loads(lines[-2].removeprefix("report ")) if len(lines) > 1 else {}


def run(workload: str, trace: int, cwd: str = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = []
    for wl in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, lines = run(wl, trace)
            if code != 0 or not lines:
                failures.append(f"{wl} trace={trace}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{wl} trace={trace}: keys {sorted(result)}")
            if not result["correct"]:
                failures.append(f"{wl} trace={trace}: gate failed: {lines[-2][:2000]}")
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    failures.append(f"{wl} trace={trace}: metric {m['name']} missing or wrong unit: {got}")
            if trace:
                report = report_of(lines)
                if report.get("hooks_missing") != [] or report.get("per_layer_unmeasured") != []:
                    failures.append(f"{wl}: trace hooks not installed: {report.get('hooks_missing')}")
                for name in KNOWN_NONZERO[wl]:
                    if not result["metrics"].get(name, {}).get("value"):
                        failures.append(f"{wl}: counter {name} reads 0")
                if wl == "states" and not 0.0 < result["metrics"]["specfun.tricomi_psi.integral_share"]["value"] < 1.0:
                    failures.append("states: one of the two Psi routes never ran")
            print(f"{wl} trace={trace}: ok" if not failures else f"{wl} trace={trace}: {len(failures)} failures so far")

    bare = os.path.join(HERE, "_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    code, lines = run("spectra", 0, cwd=bare)
    if code == 0 or any(line.startswith("{") for line in lines):
        failures.append("a directory without package source did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
