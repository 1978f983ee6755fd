#!/usr/bin/env python3
"""Self-check of the benchmark: lint, a smoke run of every workload, and
the refusal to run without a source tree.

    python3 perfbench/selfcheck.py

  * pqs_lint's project rules over perfbench/src (clocks from common/timing,
    sockets from net::Socket, randomness from common/random, no OpenMP);
  * every workload runs for one second with --trace 0 and --trace 1, and
    each result line must carry exactly the BENCHMARK.json metrics of its
    mode, each with its unit and a finite value, and report correct outputs;
  * run.py in a directory holding only BENCHMARK.json and perfbench/ must
    exit non-zero without printing a result.
Exits non-zero on the first failure.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "selfcheck"


def fail(message):
    raise SystemExit(f"selfcheck: FAIL: {message}")


def lint():
    sources = sorted(str(p) for p in (HERE / "src").iterdir())
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pqs_lint.py")] + sources,
        capture_output=True, text=True, cwd=ROOT)
    if result.returncode != 0:
        fail("pqs_lint:\n" + result.stdout + result.stderr)
    print("selfcheck: pqs_lint clean over perfbench/src")


def smoke(spec):
    for workload in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [sys.executable, str(HERE / "run.py"),
                    "--workload", workload["name"], "--seed", "1",
                    "--seconds", "1", "--trace", str(trace),
                    "--out", str(SCRATCH / "runs")]
            result = subprocess.run(argv, capture_output=True, text=True,
                                    cwd=ROOT, timeout=600)
            label = f"{workload['name']} --trace {trace}"
            lines = result.stdout.strip().splitlines()
            if result.returncode != 0 or not lines:
                fail(f"{label} exited {result.returncode}:\n{result.stderr}")
            line = json.loads(lines[-1])
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{label}: result keys {sorted(line)}")
            if line["correct"] is not True or line["attempted"] < 1:
                fail(f"{label}: {line}")
            units = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != units:
                fail(f"{label}: metrics/units {got} != {units}")
            for name, metric in line["metrics"].items():
                value = metric["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(
                        value):
                    fail(f"{label}: {name} = {value!r}")
            print(f"selfcheck: {label}: {len(units)} metrics, "
                  f"{line['attempted']} attempted, {line['failed']} failed")


def refuses_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_shots",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180)
    shutil.rmtree(bare)
    if result.returncode == 0 or result.stdout.strip():
        fail("run.py without a source tree must fail without a result")
    print("selfcheck: run.py refuses to run without a source tree")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lint()
    refuses_without_sources()
    smoke(spec)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
