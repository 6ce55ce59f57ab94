#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the model libraries and the perfbench
benchmark binary from source into .bench_build/perfbench (CMake, Release),
runs it, and checks that its result line carries exactly the metrics, with
the units, that BENCHMARK.json lists for the mode: end_to_end for
--trace 0, per_layer for --trace 1. Build output and progress go to
stderr; the binary's JSON result is the last line of stdout.

Exit codes: the binary's own (0 every check passed, 1 a check failed,
2 a malformed command line, 3 the run could not be measured), or 1 with
no result line when the build fails or the result does not match
BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# The binary itself stops well inside this; the margin covers a hang.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build the binary; False on any failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def flag(argv, name):
    """The value after `name` in argv, or None."""
    for i, a in enumerate(argv[:-1]):
        if a == name:
            return argv[i + 1]
    return None


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv):
    if not build():
        return 1
    workdir = BUILD / f"work-{os.getpid()}"
    cmd = [str(BUILD / "perfbench"), *argv, "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return proc.returncode or 1

    result = json.loads(lines[-1])
    want = expected_metrics(flag(argv, "--trace") == "1")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log(f"result metrics {sorted(got.items())} do not match "
            f"BENCHMARK.json {sorted(want.items())}")
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
