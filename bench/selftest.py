#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of tomosense), about two minutes:

    python3 bench/selftest.py

1. Every workload runs at the smoke size, untraced and traced, prints
   exactly the metrics BENCHMARK.json names, and fails no operation.
2. Two traced runs with the same seed give identical exact counts.
3. A deliberately perturbed reference value is reported as failed
   operations, so every workload's check can fail.
4. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import BENCH_DIR, EXACT_UNITS, ROOT, RUN_DIR, load_json
from workloads import WORKLOADS


def bench(workload: str, seed: int, trace: int, *extra: str, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke",
           *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(workload, seed, trace, *extra) -> dict:
    code, lines, stderr = bench(workload, seed, trace, *extra)
    if code != 0:
        raise AssertionError(f"{workload} exited {code}:\n{stderr}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    return result


def main() -> int:
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
    for name in WORKLOADS:
        plain = result_of(name, 1, 0)
        assert plain["correct"] and plain["failed"] == 0, (name, plain)
        assert list(plain["metrics"]) == end_to_end, (name, list(plain["metrics"]))
        assert all(v["value"] > 0 for v in plain["metrics"].values()), (name, plain)

        first, second = result_of(name, 1, 1), result_of(name, 1, 1)
        for result in (first, second):
            assert result["correct"], (name, result)
            assert list(result["metrics"]) == per_layer, (name, list(result["metrics"]))
        differing = {m: (first["metrics"][m]["value"], second["metrics"][m]["value"])
                     for m in exact
                     if first["metrics"][m]["value"] != second["metrics"][m]["value"]}
        assert not differing, (name, differing)

        perturbed = result_of(name, 1, 0, "--perturb-reference")
        assert not perturbed["correct"] and perturbed["failed"] > 0, (name, perturbed)
        print(f"ok {name}: {plain['attempted']} operations pass, {len(exact)} counts repeat, "
              f"perturbed reference fails {perturbed['failed']} of {perturbed['attempted']}")

    bare = os.path.join(RUN_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = bench("exact_reproduce", 1, 0, cwd=bare)
    shutil.rmtree(bare)
    assert code != 0 and not (lines and lines[-1].startswith("{")), (code, lines)
    print(f"ok bare directory: exit {code}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
