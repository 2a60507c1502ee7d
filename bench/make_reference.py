#!/usr/bin/env python3
"""Record ``reference.json``, the values the benchmark's checks compare with.

The references are the program's own outputs at the commit that defined the
benchmark, one set per size in ``workloads.SIZES``.  Rerun only when the
benchmark itself changes, never to make a failing check pass:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

from run import BENCH_DIR, RUN_DIR, import_program
from workloads import SIZES, WORKLOADS


def main() -> int:
    tomosense = import_program()
    reference = {}
    for size in SIZES:
        reference[size] = {}
        for name, cls in WORKLOADS.items():
            workload = cls(1, size, os.path.join(RUN_DIR, "reference", size))
            workload.clear()
            for subcommand, flags in workload.calls(0):
                tomosense.cli.run(subcommand, flags)
            reference[size][name] = workload.reference()
            errors = [(op, err) for op, err in workload.check(0, reference[size][name]) if err]
            if errors:
                raise SystemExit(f"{size} {name}: outputs fail their own reference: {errors}")
            print(f"{size} {name}: {len(workload.check(0, reference[size][name]))} operations")
    with open(os.path.join(BENCH_DIR, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
