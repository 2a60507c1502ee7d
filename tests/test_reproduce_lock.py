"""Behaviour lock: a reduced ``tomosense reproduce`` against committed values.

The run has 3 sweep steps, 16 tomogram angles and a 4,000-shot seeded
empirical stage.  Every CSV and JSON value is parsed and compared with the
reference at relative 1e-12 (values, not text, so a different last printed
digit cannot pass as a change and a reformatting cannot fail), every PGM byte
for byte through its SHA-256, and every ``.meta`` sidecar line for line with
the output directory masked.  Rewrite the reference only when an output is
meant to change:

    PYTHONPATH=src python tests/test_reproduce_lock.py
"""

import hashlib
import json
import math
import os
import sys

from tomosense.cli import main

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                         "reproduce_lock.json")
ARGS = ["--steps", "3", "--theta-count", "16", "--empirical", "1",
        "--shots", "4000", "--seed", "424242"]
REL_TOL = 1e-12


def _read_outputs(outdir) -> dict:
    """Every file of a reproduce run, parsed: CSV/JSON values, PGM digests, meta lines."""
    outdir = str(outdir)
    parsed = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        if name.endswith(".meta"):
            parsed[name] = data.decode().replace(outdir, "<outdir>").splitlines()
        elif name.endswith(".csv"):
            header, *rows = data.decode().splitlines()
            parsed[name] = {"header": header.split(","),
                            "rows": [[float(c) if c else None for c in row.split(",")]
                                     for row in rows]}
        elif name.endswith(".json"):
            parsed[name] = json.loads(data)
        elif name.endswith(".pgm"):
            parsed[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        else:
            raise AssertionError(f"unexpected reproduce output {name}")
    return parsed


def _mismatches(got, want, where=""):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [m for key in want for m in _mismatches(got[key], want[key], f"{where}/{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return [f"{where}: {got!r} != {want!r}"]
        return []
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


def test_reduced_reproduce_matches_locked_values(tmp_path):
    assert main(["reproduce", "--outdir", str(tmp_path), *ARGS]) == 0
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    got = _read_outputs(tmp_path)
    assert sorted(got) == sorted(reference)
    problems = _mismatches(got, reference)
    assert not problems, "\n".join(problems[:20])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as outdir:
        if main(["reproduce", "--outdir", outdir, *ARGS]) != 0:
            sys.exit("reproduce failed")
        os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(_read_outputs(outdir), fh, indent=1)
            fh.write("\n")
    print(f"wrote {REFERENCE}")
