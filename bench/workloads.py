"""The benchmark's workloads: seeded inputs, the ``tomosense.cli.run`` calls of
one pass, and the correctness checks on what a pass wrote.

A workload turns the run seed and a pass index into the flag dicts of its
calls (``calls``).  ``observe`` parses what those calls wrote, and ``check``
compares each output, one operation each, with ``reference.json``, which
``make_reference.py`` records from the program itself.  A check returns an
error message or ``None``; it never raises, so a wrong or missing output is
counted as a failed operation instead of ending the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil

import numpy as np

# Frozen CLI defaults, needed to rebuild the states the CLI builds.
R_DEFAULT = 1.0 / math.sqrt(2.0)
ALPHA_DEFAULT = 1.8
TAIL_TOL = 1e-12

# The nine tomogram states of ``tomosense reproduce``: (label, family, photon delta).
TOMOGRAM_STATES = (
    ("svs", "svs", 0), ("svs_add1", "svs", 1), ("svs_add2", "svs", 2),
    ("svs_add3", "svs", 3), ("svs_sub2", "svs", -2), ("svs_sub3", "svs", -3),
    ("ecs", "cat-even", 0), ("ecs_add1", "cat-even", 1), ("ecs_add2", "cat-even", 2),
)

W1_ABS_TOL = 1e-9          # documented W1 accuracy
VALUE_REL_TOL = 1e-9       # other table columns: mean photon number, variance, alpha, kappa
PARAM_TOL = 1e-4           # find_crossover's default bracket tolerance
PGM_VALUE_TOL = 1e-10      # tomogram rows
# The sampled crossover may land this many times the documented 3/sqrt(shots)
# from the exact one.  That figure is the typical error, not a bound: at the
# seed about one draw in ten lands beyond 1x (largest seen 1.12x), while a
# broken sampler moves the location by far more than 2x.
SAMPLED_WINDOW = 2.0

# Sizes fix the length of one pass.  "bench" is the measured size;
# "smoke" is the minimal size the self-test runs.
SIZES = {
    "bench": {
        "exact_reproduce": {"steps": 3, "theta_count": 32, "grid_points": 2048},
        "sampled_crossover": {"shots": 100_000, "scan_points": 8},
        "tomogram_export": {"pgm_theta_count": 128, "pgm_grid_points": 2048,
                            "csv_theta_count": 32, "csv_grid_points": 512,
                            "record_shots": 100_000},
    },
    "smoke": {
        "exact_reproduce": {"steps": 2, "theta_count": 16, "grid_points": 256},
        "sampled_crossover": {"shots": 20_000, "scan_points": 4},
        "tomogram_export": {"pgm_theta_count": 16, "pgm_grid_points": 256,
                            "csv_theta_count": 16, "csv_grid_points": 128,
                            "record_shots": 2_000},
    },
}


def state_spec(family: str, m: int):
    import tomosense

    if family == "svs":
        params = tomosense.SqueezeParams(R_DEFAULT, 0.0)
    else:
        params = tomosense.CatParams(complex(ALPHA_DEFAULT, 0.0))
    return tomosense.StateSpec(family, params, m, TAIL_TOL)


def in_memory_tomogram(family: str, m: int, theta_count: int, grid_points: int):
    """The tomogram the ``tomogram`` subcommand formats, from the library."""
    import tomosense

    v = tomosense.build_state(state_spec(family, m))
    return tomosense.tomogram(v, theta_count, tomosense.auto_grid(v, n_points=grid_points))


# ---------------------------------------------------------------------------
# output parsing and comparison
# ---------------------------------------------------------------------------

def read_csv(path: str):
    """Header and a 2-D array of a numeric CSV; the parse is exact at 17 digits."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_pgm(path: str):
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, dims, maxval, pixels = blob.split(b"\n", 3)
    width, height = (int(t) for t in dims.split())
    if magic != b"P5" or maxval != b"255" or len(pixels) != width * height:
        raise ValueError(f"malformed PGM {path}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


def pgm_reference(pixels: np.ndarray, values: np.ndarray) -> dict:
    """Reference for a PGM whose pixels quantize ``values``.

    A pixel is rint(w / peak * 255).  A change of at most PGM_VALUE_TOL in
    every w (and so in the peak) moves w / peak * 255 by less than
    ``margin``; only pixels whose scaled value lies within ``margin`` of a
    rounding boundary may then take the neighbouring level.  Those are
    listed; every other pixel must match exactly, which the hash checks.
    """
    peak = float(values.max())
    scaled = values / peak * 255.0
    if not np.array_equal(np.rint(scaled).astype(np.uint8), pixels):
        raise ValueError("PGM does not quantize the in-memory tomogram")
    margin = 255.0 * 3.0 * PGM_VALUE_TOL / peak
    frac = scaled - np.floor(scaled)
    ambiguous = np.nonzero(np.abs(frac - 0.5).ravel() < margin)[0]
    flat = scaled.ravel()
    return {
        "kind": "pgm",
        "shape": list(pixels.shape),
        "sha256": hashlib.sha256(pixels.tobytes()).hexdigest(),
        "ambiguous": [[int(i), int(pixels.ravel()[i]), int(math.floor(flat[i])),
                       int(math.floor(flat[i])) + 1] for i in ambiguous],
    }


def compare_pgm(pixels: np.ndarray, ref: dict) -> str | None:
    if list(pixels.shape) != ref["shape"]:
        return f"PGM shape {list(pixels.shape)} != {ref['shape']}"
    canon = pixels.copy().ravel()
    for index, level, low, high in ref["ambiguous"]:
        if canon[index] in (low, high):
            canon[index] = level
    if hashlib.sha256(canon.tobytes()).hexdigest() != ref["sha256"]:
        return "pixels differ from those of the reference tomogram moved by at most 1e-10"
    return None


def _is_w1_column(label: str) -> bool:
    return label.startswith("w1") or ":" in label


def compare_csv(header, rows, ref) -> str | None:
    if header != ref["header"]:
        return f"header {header} != {ref['header']}"
    expected = np.array(ref["rows"], dtype=float)
    if rows.shape != expected.shape:
        return f"shape {rows.shape} != {expected.shape}"
    for j, label in enumerate(header):
        got, want = rows[:, j], expected[:, j]
        tol = W1_ABS_TOL if _is_w1_column(label) else VALUE_REL_TOL * np.maximum(1.0, np.abs(want))
        bad = np.nonzero(~(np.abs(got - want) <= tol))[0]
        if len(bad):
            i = bad[0]
            return f"column {label} row {i}: {got[i]!r} vs reference {want[i]!r}"
    return None


def compare_json(record: dict, ref: dict) -> str | None:
    if ref["kind"] == "crossover":
        if record["found"] != ref["found"]:
            return f"found={record['found']} vs reference {ref['found']}"
        if ref["found"] and not abs(record["location"] - ref["location"]) <= PARAM_TOL:
            return f"location {record['location']!r} vs reference {ref['location']!r}"
        return None
    if sorted(record) != sorted(ref["values"]):
        return f"keys {sorted(record)} != {sorted(ref['values'])}"
    for key, want in ref["values"].items():
        if not abs(record[key] - want) <= VALUE_REL_TOL * max(1.0, abs(want)):
            return f"{key}: {record[key]!r} vs reference {want!r}"
    return None


def _guard(fn, *args) -> str | None:
    """Run one check; a raised exception is that operation's failure."""
    try:
        return fn(*args)
    except Exception as exc:  # a malformed or missing output fails its operation
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = int(seed)
        self.cfg = SIZES[size][self.name]
        self.outdir = os.path.join(workdir, self.name)

    def pass_rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])

    def clear(self) -> None:
        """Remove the previous pass's outputs so a failed call cannot pass on stale files."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        os.makedirs(self.outdir)

    def path(self, filename: str) -> str:
        return os.path.join(self.outdir, filename)

    def calls(self, i: int) -> list[tuple[str, dict]]:
        raise NotImplementedError

    def check(self, i: int, reference: dict) -> list[tuple[str, str | None]]:
        raise NotImplementedError


class ExactReproduce(Workload):
    name = "exact_reproduce"

    def calls(self, i):
        return [("reproduce", {"outdir": self.outdir, "empirical": 0, "seed": self.seed,
                               "steps": self.cfg["steps"],
                               "theta_count": self.cfg["theta_count"],
                               "grid_points": self.cfg["grid_points"]})]

    def observe(self, filename: str):
        path = self.path(filename)
        if filename.endswith(".csv"):
            return read_csv(path)
        if filename.endswith(".json"):
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        return read_pgm(path)

    def reference(self) -> dict:
        outputs = {}
        for filename in sorted(os.listdir(self.outdir)):
            if filename.endswith(".meta"):
                continue
            observed = self.observe(filename)
            if filename.endswith(".csv"):
                header, rows = observed
                outputs[filename] = {"kind": "csv", "header": header, "rows": rows.tolist()}
            elif filename.endswith(".json") and "found" in observed:
                outputs[filename] = {"kind": "crossover", "found": observed["found"],
                                     "location": observed["location"]}
            elif filename.endswith(".json"):
                outputs[filename] = {"kind": "json", "values": observed}
            else:
                label = filename[len("tomogram_"):-len(".pgm")]
                _, family, m = next(s for s in TOMOGRAM_STATES if s[0] == label)
                tg = in_memory_tomogram(family, m, self.cfg["theta_count"],
                                        self.cfg["grid_points"])
                outputs[filename] = pgm_reference(observed, tg.values)
        return {"outputs": outputs}

    def check(self, i, reference):
        return [(filename, _guard(self._check_one, filename, ref))
                for filename, ref in reference["outputs"].items()]

    def _check_one(self, filename, ref):
        observed = self.observe(filename)
        if ref["kind"] == "csv":
            return compare_csv(*observed, ref)
        if ref["kind"] == "pgm":
            return compare_pgm(observed, ref)
        return compare_json(observed, ref)


class SampledCrossover(Workload):
    name = "sampled_crossover"

    def calls(self, i):
        seed = int(self.pass_rng(i).integers(2**63))
        return [("empirical-crossover", {
            "pair": "add1:add2", "lo": 0.3, "hi": 0.6, "theta": 0.0,
            "shots": self.cfg["shots"], "scan_points": self.cfg["scan_points"],
            "seed": seed, "out": self.path("crossover.json")})]

    def reference(self) -> dict:
        import tomosense.cli

        out = self.path("exact_crossover.json")
        tomosense.cli.run("crossover", {"pair": "add1:add2", "lo": 0.3, "hi": 0.6,
                                        "theta": 0.0, "out": out})
        with open(out, "r", encoding="utf-8") as fh:
            return {"exact_location": json.load(fh)["location"]}

    def check(self, i, reference):
        return [("crossover.json", _guard(self._check_one, reference))]

    def _check_one(self, reference):
        with open(self.path("crossover.json"), "r", encoding="utf-8") as fh:
            record = json.load(fh)
        if record["found"] is not True:
            return "no crossover found"
        window = SAMPLED_WINDOW * 3.0 / math.sqrt(self.cfg["shots"])
        if not abs(record["location"] - reference["exact_location"]) <= window:
            return (f"location {record['location']!r} is more than {window:.4g} "
                    f"from the exact {reference['exact_location']!r}")
        return None


class TomogramExport(Workload):
    name = "tomogram_export"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self._verified = set()   # (file name, sha256) of tomogram CSVs already checked

    def record_request(self, i) -> dict:
        rng = self.pass_rng(i)
        return {"family": "svs", "m": 1, "shots": self.cfg["record_shots"],
                "theta": float(rng.uniform(0.0, math.pi)), "seed": int(rng.integers(2**63))}

    def calls(self, i):
        out = []
        for fmt in ("pgm", "csv"):
            for label, family, m in TOMOGRAM_STATES:
                out.append(("tomogram", {
                    "family": family, "m": m, "format": fmt,
                    "theta_count": self.cfg[f"{fmt}_theta_count"],
                    "grid_points": self.cfg[f"{fmt}_grid_points"],
                    "out": self.path(f"tomogram_{label}.{fmt}")}))
        record = self.record_request(i)
        for fmt in ("csv", "bin"):
            out.append(("sample", dict(record, format=fmt, out=self.path(f"record.{fmt}"))))
        return out

    def reference(self) -> dict:
        outputs = {}
        for label, family, m in TOMOGRAM_STATES:
            tg = in_memory_tomogram(family, m, self.cfg["pgm_theta_count"],
                                    self.cfg["pgm_grid_points"])
            outputs[f"tomogram_{label}.pgm"] = pgm_reference(
                read_pgm(self.path(f"tomogram_{label}.pgm")), tg.values)
        return {"outputs": outputs}

    def check(self, i, reference):
        results = []
        for label, family, m in TOMOGRAM_STATES:
            pgm = f"tomogram_{label}.pgm"
            results.append((pgm, _guard(self._check_pgm, pgm, reference["outputs"][pgm])))
            results.append((f"tomogram_{label}.csv",
                            _guard(self._check_tomogram_csv, label, family, m)))
        request = self.record_request(i)
        regenerated = {}
        results.append(("record.bin", _guard(self._check_record_bin, request, regenerated)))
        results.append(("record.csv", _guard(self._check_record_csv, request, regenerated)))
        return results

    def _check_pgm(self, filename, ref):
        return compare_pgm(read_pgm(self.path(filename)), ref)

    def _check_tomogram_csv(self, label, family, m):
        """The CSV must parse back to the in-memory tomogram exactly.

        The inputs are the same every pass, so bytes identical to a CSV
        already checked need no second parse.
        """
        path = self.path(f"tomogram_{label}.csv")
        with open(path, "rb") as fh:
            key = (label, hashlib.sha256(fh.read()).hexdigest())
        if key in self._verified:
            return None
        tg = in_memory_tomogram(family, m, self.cfg["csv_theta_count"],
                                self.cfg["csv_grid_points"])
        header, rows = read_csv(path)
        n_theta, n_x = tg.values.shape
        if header != ["theta", "x", "w"] or rows.shape != (n_theta * n_x, 3):
            return f"CSV layout {header} {rows.shape} does not match the tomogram"
        if not (np.array_equal(rows[:, 0], np.repeat(tg.theta_grid, n_x))
                and np.array_equal(rows[:, 1], np.tile(tg.x_grid.points(), n_theta))
                and np.array_equal(rows[:, 2], tg.values.ravel())):
            return "CSV does not parse back to the in-memory tomogram"
        self._verified.add(key)
        return None

    def _regenerate(self, request, regenerated):
        import tomosense

        if "record" not in regenerated:
            v = tomosense.build_state(state_spec(request["family"], request["m"]))
            regenerated["record"] = tomosense.sample_quadrature(
                v, request["theta"], request["shots"], request["seed"])
        return regenerated["record"]

    def _check_record_bin(self, request, regenerated):
        """The binary record must regenerate bit-exactly from its own header."""
        import tomosense

        with open(self.path("record.bin"), "rb") as fh:
            blob = fh.read()
        record = tomosense.record_from_bytes(blob)
        header = {"theta": record.theta, "shots": record.shots, "seed": record.seed}
        if header != {k: request[k] for k in header}:
            return f"record header {header} does not match the request"
        if tomosense.record_bytes(self._regenerate(request, regenerated)) != blob:
            return "binary record does not regenerate bit-exactly from its header"
        return None

    def _check_record_csv(self, request, regenerated):
        header, rows = read_csv(self.path("record.csv"))
        regen = self._regenerate(request, regenerated)
        if header != ["theta", "x"] or rows.shape != (regen.shots, 2):
            return f"record CSV layout {header} {rows.shape} does not match the record"
        if not (np.all(rows[:, 0] == request["theta"])
                and np.array_equal(rows[:, 1], regen.samples)):
            return "record CSV does not parse back to the record"
        return None


WORKLOADS = {cls.name: cls for cls in (ExactReproduce, SampledCrossover, TomogramExport)}


def perturb(name: str, reference: dict) -> dict:
    """A copy of one workload's reference with one value moved past its tolerance."""
    ref = json.loads(json.dumps(reference))
    if name == "sampled_crossover":
        ref["exact_location"] += 1.0
        return ref
    outputs = ref["outputs"]
    if name == "exact_reproduce":
        target, column = next((v, j) for v in outputs.values() if v["kind"] == "csv"
                              for j, label in enumerate(v["header"]) if _is_w1_column(label))
        target["rows"][0][column] += 1e-6
        return ref
    target = next(iter(outputs.values()))
    target["sha256"] = hashlib.sha256(b"perturbed").hexdigest()
    return ref
