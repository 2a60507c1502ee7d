#!/usr/bin/env python3
"""Benchmark of tomosense, driven only through ``tomosense.cli.run``.

    python3 bench/run.py --workload exact_reproduce --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from any directory; the program is imported from ``src/`` next to this
directory, and outputs go under ``.bench_run/`` there.  One process runs one
workload as a closed loop with a single caller: a pass (the workload's
``cli.run`` calls) starts when the previous pass and its correctness check
have finished, until the passes have taken ``--seconds`` in total.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the median
wall and CPU time of a pass, the median set-up time of fresh processes, and
the process's peak resident memory.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of BENCHMARK.json from the
traced ones (see ``layertrace.py``).  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record, provenance
included, is written to ``.bench_run/results/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")

SETUP_PROBES = 5       # fresh processes timed per run for setup_s
MAX_ELAPSED_S = 140.0  # stop starting passes after this, so a run ends within 180 s
# Units of per-layer metrics that repeat exactly between runs with one seed.
EXACT_UNITS = ("count", "B", "ratio", "fock_index")


def import_program():
    """Import tomosense from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "tomosense", "cli.py")):
        raise SystemExit(f"bench: no tomosense sources under {SRC}")
    sys.path.insert(0, SRC)
    import tomosense.cli

    if not os.path.abspath(tomosense.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported tomosense from {tomosense.__file__}, not {SRC}")
    return tomosense


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def median_quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


# ---------------------------------------------------------------------------
# set-up time, provenance
# ---------------------------------------------------------------------------

def time_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its "ready" line.

    The probe runs this script's own start-up path: import tomosense (and
    with it numpy and scipy) and build the workload's inputs.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise SystemExit(f"bench: set-up probe failed (exit {proc.returncode})")
    return elapsed


def blas_info() -> dict:
    import ctypes

    import numpy

    info = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    threads = {}
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split("/")[-1]})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    info["threads"] = threads
    info["env"] = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS") if k in os.environ}
    return info


def provenance(tomosense) -> dict:
    import numpy
    import scipy

    files = sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))
    digest, lines = hashlib.sha256(), 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tomosense": tomosense.__version__,
        "blas": blas_info(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_pass(tomosense, workload, i):
    """Timed calls of pass ``i``; returns wall, CPU and {output name: error}."""
    calls = workload.calls(i)
    raised = {}
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for subcommand, flags in calls:
        try:
            code = tomosense.cli.run(subcommand, flags)
        except Exception as exc:  # the program's failure is this operation's failure
            code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            raised[os.path.basename(flags.get("out", "*"))] = f"{subcommand} failed: {code}"
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return wall, cpu, raised


def run_workload(args) -> int:
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    tomosense = import_program()
    from layertrace import Tracer
    from workloads import WORKLOADS, perturb

    workload = WORKLOADS[args.workload](args.seed, args.size, RUN_DIR)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    reference = load_json(os.path.join(BENCH_DIR, "reference.json"))[args.size][workload.name]
    if args.perturb_reference:
        reference = perturb(workload.name, reference)

    setup = [time_setup(args) for _ in range(SETUP_PROBES)]

    untraced, traced, layer_runs, failures = [], [], [], []
    attempted = failed = 0
    measured, started, i = 0.0, time.perf_counter(), 0
    while True:
        is_traced = bool(args.trace) and i % 2 == 1
        workload.clear()
        tracer = Tracer() if is_traced else None
        if tracer:
            tracer.install()
        try:
            wall, cpu, raised = run_pass(tomosense, workload, i)
        finally:
            if tracer:
                tracer.uninstall()
        for name, error in workload.check(i, reference):
            error = raised.get(name) or raised.get("*") or error
            attempted += 1
            if error:
                failed += 1
                failures.append(f"pass {i} {name}: {error}")
                print(f"FAILED pass {i} {name}: {error}", file=sys.stderr)
        if tracer:
            traced.append(wall)
            layer_runs.append(tracer)
        else:
            untraced.append((wall, cpu))
        measured += wall
        i += 1
        enough = untraced and (traced or not args.trace)
        if enough and (measured >= args.seconds
                       or time.perf_counter() - started > MAX_ELAPSED_S):
            break

    walls = [w for w, _ in untraced]
    cpus = [c for _, c in untraced]
    summary = {
        "wall_s": median_quartiles(walls),
        "cpu_s": median_quartiles(cpus),
        "setup_s": median_quartiles(setup),
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"workload {workload.name}: seed {args.seed}, size {args.size}, "
          f"{len(untraced)} untraced + {len(traced)} traced passes, closed loop, 1 caller")
    print(f"  inputs {json.dumps(workload.cfg)}")
    print(f"  wall_s       {summary['wall_s'][0]:.6g} s   (median of {len(walls)} passes; "
          f"q1 {summary['wall_s'][1]:.6g}, q3 {summary['wall_s'][2]:.6g}; "
          f"first pass {walls[0]:.6g})")
    print(f"  cpu_s        {summary['cpu_s'][0]:.6g} s   (median of {len(cpus)} passes)")
    print(f"  setup_s      {summary['setup_s'][0]:.6g} s   (median of {len(setup)} fresh "
          f"processes; q1 {summary['setup_s'][1]:.6g}, q3 {summary['setup_s'][2]:.6g})")
    print(f"  peak_rss_mb  {peak_rss_mb:.6g} MB")
    print(f"  failed_frac  {failed / attempted:.6g}   ({failed} of {attempted} operations)")

    if args.trace:
        # Counts come from the first traced pass, whose inputs depend on the seed
        # alone; times are medians over all traced passes.
        per_pass = [t.metrics(w) for t, w in zip(layer_runs, traced)]
        layer = {name: value if units.get(name) in EXACT_UNITS
                 else statistics.median(p[name] for p in per_pass)
                 for name, value in per_pass[0].items()}
        layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(walls) - 1.0
        metrics = {m["name"]: layer[m["name"]] for m in spec["per_layer"]}
        os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
        layer_runs[-1].write_spans(os.path.join(
            RUN_DIR, "results", f"{workload.name}-seed{args.seed}-spans.csv"))
        for name, value in metrics.items():
            print(f"  {name:34s} {value:.6g} {units[name]}")
    else:
        values = {"wall_s": summary["wall_s"][0], "cpu_s": summary["cpu_s"][0],
                  "setup_s": summary["setup_s"][0], "peak_rss_mb": peak_rss_mb}
        metrics = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}

    prov = provenance(tomosense)
    print(f"  provenance {json.dumps(prov, sort_keys=True)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed, size=args.size,
                  trace=args.trace, inputs=workload.cfg, provenance=prov,
                  samples={"wall_s": walls, "cpu_s": cpus, "setup_s": setup,
                           "traced_wall_s": traced},
                  failures=failures)
    os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
    with open(os.path.join(RUN_DIR, "results",
                           f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, then one summary table."""
    from workloads import WORKLOADS

    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        rows.append((name, result))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print("summary")
    for name, result in rows:
        cells = ", ".join(f"{m} {v['value']:.6g} {v['unit']}" for m, v in result["metrics"].items())
        print(f"  {name:18s} {cells}, failed_frac "
              f"{result['failed'] / result['attempted']:.6g} of {result['attempted']}")
    print(json.dumps(total), flush=True)
    return 0


def main(argv=None) -> int:
    from workloads import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="bench",
                        help="input size; 'smoke' is the self-test's minimal size")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="move one reference value (self-test of the checks)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
