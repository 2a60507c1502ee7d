"""Command-line front end: reproducible batch runs over the library.

Every run resolves its configuration from flags, an optional flat key=value
config file (flags win), and per-command frozen defaults (r = 1/sqrt(2),
phi = 0, alpha = 1.8).  Outputs are written atomically (temp file + rename)
next to a ``<out>.meta`` sidecar holding the fully resolved configuration;
rerunning a subcommand with ``--config <out>.meta`` regenerates the output
byte for byte.

The CSV, JSON and PGM formats of every result are defined here and nowhere
else, each exporter returning the bytes that are written; the binary
measurement record stays in ``homodyne`` with its parser.

Exit codes: 0 success, 2 validation/usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import replace
from typing import Sequence

import numpy as np

from . import __version__, _workers
from .errors import NumericalError, ValidationError
from .homodyne import (
    MeasurementRecord,
    empirical_crossover,
    record_bytes,
    sample_quadrature,
    state_pair,
)
from .states import (
    CatParams,
    SqueezeParams,
    StateSpec,
    build_state,
    check_angle,
    mean_photon_number,
    quadrature_variance,
)
from .tomography import QuadratureGrid, Tomogram, auto_grid, pdf_slice, tomogram
from .transport import (
    CrossoverResult,
    SweepTable,
    check_parameter_points,
    equal_mean_alpha,
    equal_mean_parameter,
    find_crossover,
    sweep_w1,
    w1_curve,
    w1_states,
)

R_DEFAULT = 1.0 / math.sqrt(2.0)

_PI_FRACTION = re.compile(
    r"^\s*([+-]?)(\d+(?:\.\d*)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d*)?))?\s*$", re.IGNORECASE
)


def parse_theta(text: str) -> float:
    """Angle in radians from a decimal or a pi fraction like ``pi/20`` or ``3pi/4``.

    ``nan``, ``inf``, ``pi/0`` and angles beyond +-2**53 rad (``check_angle``)
    are rejected.
    """
    m = _PI_FRACTION.match(str(text))
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        coef = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        value = sign * coef * math.pi / den if den else math.inf
    else:
        try:
            value = float(text)
        except ValueError:
            raise ValidationError(f"cannot parse angle {text!r}") from None
    check_angle(value)
    return value


_STATE_OPTIONS = [
    ("family", str, "svs"),
    ("r", float, R_DEFAULT),
    ("phi", parse_theta, 0.0),
    ("alpha-re", float, 1.8),
    ("alpha-im", float, 0.0),
    ("m", int, 0),
    ("tail-tol", float, 1e-12),
]
_B_STATE_OPTIONS = [(f"b-{name}", typ, dflt) for name, typ, dflt in _STATE_OPTIONS]
_GRID_OPTIONS = [("grid-halfwidth", float, None), ("grid-points", int, 2048)]

OPTIONS = {
    "state": _STATE_OPTIONS + [("out", str, None)],
    "observables": _STATE_OPTIONS + [("theta", parse_theta, 0.0), ("out", str, None)],
    "slice": _STATE_OPTIONS + _GRID_OPTIONS
    + [("theta", parse_theta, 0.0), ("out", str, None)],
    "tomogram": _STATE_OPTIONS + _GRID_OPTIONS
    + [("theta-count", int, 128), ("format", str, "pgm"), ("out", str, None)],
    "w1": _STATE_OPTIONS + _B_STATE_OPTIONS
    + [("theta", parse_theta, 0.0), ("grid-points", int, 2048), ("out", str, None)],
    "sweep": _STATE_OPTIONS
    + [("compare", str, "1,2,3"), ("lo", float, 0.3), ("hi", float, 0.8),
       ("steps", int, 51), ("theta", parse_theta, 0.0), ("grid-points", int, 2048),
       ("out", str, None)],
    "crossover": _STATE_OPTIONS
    + [("pair", str, "add1:add2"), ("lo", float, 0.3), ("hi", float, 0.6),
       ("theta", parse_theta, 0.0), ("scan-points", int, 64),
       ("grid-points", int, 2048), ("out", str, None)],
    "sample": _STATE_OPTIONS
    + [("theta", parse_theta, 0.0), ("shots", int, 100_000), ("seed", int, 12345),
       ("format", str, "csv"), ("out", str, None)],
    "empirical-crossover": _STATE_OPTIONS
    + [("pair", str, "add1:add2"), ("lo", float, 0.3), ("hi", float, 0.6),
       ("theta", parse_theta, 0.0), ("scan-points", int, 64),
       ("shots", int, 1_000_000), ("seed", int, 12345), ("out", str, None)],
    "reproduce": [("outdir", str, None), ("steps", int, 51), ("theta-count", int, 128),
                  ("grid-points", int, 2048), ("shots", int, 1_000_000),
                  ("seed", int, 20240601), ("empirical", int, 1),
                  ("tail-tol", float, 1e-12)],
}


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def read_config(path: str) -> dict:
    """The key=value pairs of a config file; a file that cannot be read as
    UTF-8 text raises ``ValidationError`` naming it."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValidationError(f"bad config line (expected key=value): {line!r}")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"config file {path} is not UTF-8 text") from None
    return values


def resolve_config(subcommand: str, flags: dict, config_path: str | None) -> dict:
    """Merge flag values over config-file values over defaults.

    Every config-file key must be an option of ``subcommand``; the one other
    key a ``.meta`` holds, ``subcommand``, must name ``subcommand`` itself.
    """
    file_values = read_config(config_path) if config_path else {}
    names = {name for name, _, _ in OPTIONS[subcommand]}
    for key, text in file_values.items():
        if key == "subcommand" and text != subcommand:
            raise ValidationError(f"config file is for {text!r}, not {subcommand!r}")
        if key != "subcommand" and key not in names:
            raise ValidationError(f"unknown config key {key!r} for {subcommand}")
    resolved = {}
    for name, typ, default in OPTIONS[subcommand]:
        dest = name.replace("-", "_")
        value = flags.get(dest)
        if value is None and name in file_values:
            try:
                value = typ(file_values[name])
            except ValueError as exc:
                raise ValidationError(
                    f"bad config value {name}={file_values[name]!r}: {exc}") from None
        if value is None:
            value = default
        resolved[name] = value
    for target in ("out", "outdir"):
        if target in resolved and resolved[target] is None:
            raise ValidationError(f"--{target} is required (flag or config file)")
    return resolved


def _meta_text(subcommand: str, cfg: dict) -> str:
    lines = [
        f"# tomosense {__version__} run metadata",
        f"# rerun: tomosense {subcommand} --config <this file>",
        f"subcommand={subcommand}",
    ]
    lines.extend(f"{k}={_format_value(v)}" for k, v in cfg.items() if v is not None)
    return "\n".join(lines) + "\n"


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file in its directory and a rename;
    a file-system error raises ``ValidationError`` naming ``path``, and the temp
    file is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tomosense-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _state_spec(cfg: dict, prefix: str = "") -> StateSpec:
    family = cfg[f"{prefix}family"]
    if family == "svs":
        params = SqueezeParams(cfg[f"{prefix}r"], cfg[f"{prefix}phi"])
    else:
        params = CatParams(complex(cfg[f"{prefix}alpha-re"], cfg[f"{prefix}alpha-im"]))
    return StateSpec(family, params, cfg[f"{prefix}m"], cfg[f"{prefix}tail-tol"])


def _grid_for(cfg: dict, v) -> QuadratureGrid:
    if cfg["grid-halfwidth"] is not None:
        return QuadratureGrid(cfg["grid-halfwidth"], cfg["grid-points"])
    return auto_grid(v, n_points=cfg["grid-points"])


def _parse_delta(token: str) -> int:
    text = token.strip().lower()
    try:
        if text.startswith("add"):
            return int(text[3:])
        if text.startswith("sub"):
            return -int(text[3:])
        return int(text)
    except ValueError:
        raise ValidationError(f"bad photon delta {token!r}: use addK, subK or an integer") from None


# ---------------------------------------------------------------------------
# exports: the CSV, JSON and PGM form of every result
# ---------------------------------------------------------------------------

def _json(payload: dict) -> bytes:
    """JSON indented by two spaces, with a final newline (ASCII: ``ensure_ascii``)."""
    return (json.dumps(payload, indent=2) + "\n").encode()


def _csv(header: str, columns: Sequence[np.ndarray]) -> bytes:
    """CSV: ``header``, then row i of ``columns`` per line, 17 digits.

    One ``%.17g`` template covers every cell (``b'%.17g' % v`` is the ASCII
    of ``f"{v:.17g}"`` for every double, and for an integer column below
    2**53); a NaN cell is an empty field.
    """
    rows = np.column_stack(columns).tolist()
    template = b"".join(b",".join(b"" if v != v else b"%.17g" for v in row) + b"\n"
                        for row in rows)
    return header.encode() + b"\n" + template % tuple(v for row in rows for v in row if v == v)


def tomogram_csv(tg: Tomogram) -> bytes:
    """CSV with header ``theta,x,w``, row-major theta then x, 17 digits.

    The x column is formatted once into ``b",x,%.17g\\n"`` cells; joined by a
    row's theta text they make that row's template, which ``%`` fills from
    the row (``b'%.17g' % v`` is the ASCII of ``f"{v:.17g}"`` for every
    double).  A row that is its own mirror image bit for bit (any row of a
    state of definite parity) has its non-negative half formatted once and
    that text reused for the negative half; bits, not values, are compared,
    since 0.0 == -0.0 prints two ways.  Each row's text goes straight into
    one buffer, so the whole text exists once, not also as a list of rows.
    """
    xs = tg.x_grid.points().tolist()
    n = len(xs)
    cells = [b""] + [b",%.17g,%%.17g\n" % x for x in xs]
    shared = [b""] + [b",%.17g,%%b\n" % x for x in xs]
    half = b"\n".join([b"%.17g"] * (n - n // 2))
    out = io.BytesIO()
    out.write(b"theta,x,w\n")
    for theta, row in zip(tg.theta_grid.tolist(), tg.values):
        bits = row.view(np.int64)
        if np.array_equal(bits, bits[::-1]):
            words = (half % tuple(row[n // 2:].tolist())).split(b"\n")
            out.write((b"%.17g" % theta).join(shared) % tuple(words[n % 2:][::-1] + words))
        else:
            out.write((b"%.17g" % theta).join(cells) % tuple(row.tolist()))
    return out.getvalue()


def tomogram_pgm(tg: Tomogram) -> bytes:
    """Binary PGM (P5, maxval 255); rows = theta ascending, columns = x ascending.

    Intensity is scaled to the per-tomogram maximum.
    """
    peak = float(tg.values.max())
    scaled = np.zeros_like(tg.values) if peak == 0 else tg.values / peak
    scaled *= 255.0
    pixels = np.rint(scaled, out=scaled).astype(np.uint8)
    header = b"P5\n%d %d\n255\n" % (pixels.shape[1], pixels.shape[0])
    return b"".join((header, pixels))


def sweep_csv(table: SweepTable) -> bytes:
    """CSV: header ``param,<label>,...``; NaN cells become empty fields."""
    header = ",".join(["param"] + [label for label, _ in table.columns])
    return _csv(header, [table.parameter_values] + [col for _, col in table.columns])


def crossover_json(result: CrossoverResult) -> bytes:
    """JSON record {found, location, bracket_lo, bracket_hi, residual, scan_points},
    plus ``low_confidence`` when the search set it."""
    record = {
        "found": result.found,
        "location": result.location,
        "bracket_lo": result.bracket[0],
        "bracket_hi": result.bracket[1],
        "residual": result.residual,
        "scan_points": result.scan_points,
    }
    if result.low_confidence is not None:
        record["low_confidence"] = result.low_confidence
    return _json(record)


# shots per record_csv block: each block's floats, tuple and template (about 0.1 MB)
# are freed before the next; 16,384-shot blocks left a 4 MB higher peak RSS over
# 40 rounds of nine tomograms and a 100,000-shot record
_CSV_BLOCK = 1024


def record_csv(record: MeasurementRecord) -> bytes:
    """CSV with header ``theta,x``, one row per shot, 17 digits.

    Each block of shots fills one ``b"<theta>,%.17g\\n"`` template that goes
    straight into one buffer, so the whole text exists once.
    """
    line = b"%.17g,%%.17g\n" % record.theta
    out = io.BytesIO()
    out.write(b"theta,x\n")
    for lo in range(0, record.shots, _CSV_BLOCK):
        block = record.samples[lo:lo + _CSV_BLOCK].tolist()
        out.write((line * len(block)) % tuple(block))
    return out.getvalue()


# ---------------------------------------------------------------------------
# subcommand handlers: cfg -> bytes payload for cfg["out"]
# ---------------------------------------------------------------------------

def _handle_state(cfg: dict) -> bytes:
    v = build_state(_state_spec(cfg))
    amps = v.amplitudes
    return _csv("n,re,im,prob", [np.arange(len(amps)), amps.real, amps.imag,
                                 v.probabilities])


def _handle_observables(cfg: dict) -> bytes:
    v = build_state(_state_spec(cfg))
    payload = {
        "mean_photon_number": mean_photon_number(v),
        "quadrature_variance": quadrature_variance(v, cfg["theta"]),
        "theta": cfg["theta"],
        "cutoff": v.cutoff,
        "discarded_mass": v.discarded_mass,
    }
    return _json(payload)


def _handle_slice(cfg: dict) -> bytes:
    v = build_state(_state_spec(cfg))
    sl = pdf_slice(v, cfg["theta"], _grid_for(cfg, v))
    return _csv("x,pdf,cdf", [sl.grid.points(), sl.pdf, sl.cdf])


def _handle_tomogram(cfg: dict) -> bytes:
    if cfg["format"] not in ("csv", "pgm"):
        raise ValidationError(f"tomogram format must be csv or pgm, got {cfg['format']!r}")
    v = build_state(_state_spec(cfg))
    tg = tomogram(v, cfg["theta-count"], _grid_for(cfg, v))
    return tomogram_pgm(tg) if cfg["format"] == "pgm" else tomogram_csv(tg)


def _handle_w1(cfg: dict) -> bytes:
    value = w1_states(_state_spec(cfg), _state_spec(cfg, "b-"), cfg["theta"],
                      n_points=cfg["grid-points"])
    return _json({"w1": value, "theta": cfg["theta"]})


def _sweep_tables(cfg: dict, thetas: list[float]) -> list[SweepTable]:
    """The sweep of ``cfg`` at each of ``thetas`` (``cfg["theta"]`` is not read)."""
    reference = _state_spec(cfg)
    deltas = [_parse_delta(tok) for tok in cfg["compare"].split(",") if tok.strip()]
    if not deltas:
        raise ValidationError("--compare needs at least one photon delta")
    comparisons = [replace(reference, photon_delta=d) for d in deltas]
    return sweep_w1(reference, comparisons, (cfg["lo"], cfg["hi"], cfg["steps"]),
                    thetas, n_points=cfg["grid-points"])


def _handle_sweep(cfg: dict) -> bytes:
    return sweep_csv(_sweep_tables(cfg, [cfg["theta"]])[0])


def _crossover_curves(cfg: dict):
    reference = _state_spec(cfg)
    tok_a, _, tok_b = cfg["pair"].partition(":")
    if not tok_b:
        raise ValidationError("--pair must look like add1:add2")
    return reference, [replace(reference, photon_delta=_parse_delta(tok)) for tok in (tok_a, tok_b)]


def _handle_crossover(cfg: dict) -> bytes:
    reference, (spec_a, spec_b) = _crossover_curves(cfg)
    result = find_crossover(
        w1_curve(reference, spec_a, n_points=cfg["grid-points"]),
        w1_curve(reference, spec_b, n_points=cfg["grid-points"]),
        (cfg["lo"], cfg["hi"]), cfg["theta"], scan_points=cfg["scan-points"],
    )
    return crossover_json(result)


def _handle_sample(cfg: dict) -> bytes:
    if cfg["format"] not in ("csv", "bin"):
        raise ValidationError(f"sample format must be csv or bin, got {cfg['format']!r}")
    v = build_state(_state_spec(cfg))
    record = sample_quadrature(v, cfg["theta"], cfg["shots"], cfg["seed"])
    return record_bytes(record) if cfg["format"] == "bin" else record_csv(record)


def _handle_empirical_crossover(cfg: dict) -> bytes:
    reference, (spec_a, spec_b) = _crossover_curves(cfg)
    result = empirical_crossover(
        (state_pair(reference, spec_a), state_pair(reference, spec_b)),
        cfg["theta"], (cfg["lo"], cfg["hi"]), cfg["shots"], cfg["seed"],
        scan_points=cfg["scan-points"],
    )
    return crossover_json(result)


HANDLERS = {
    "state": _handle_state,
    "observables": _handle_observables,
    "slice": _handle_slice,
    "tomogram": _handle_tomogram,
    "w1": _handle_w1,
    "sweep": _handle_sweep,
    "crossover": _handle_crossover,
    "sample": _handle_sample,
    "empirical-crossover": _handle_empirical_crossover,
}


# ---------------------------------------------------------------------------
# reproduce: the full standard sweep set
# ---------------------------------------------------------------------------

# reproduce's subcommand products, one declared table per stage; each row holds
# only what reproduce sets, and everything else is the subcommand's default.
TOMOGRAMS = [("svs", "svs", 0), ("svs_add1", "svs", 1), ("svs_add2", "svs", 2),
             ("svs_add3", "svs", 3), ("svs_sub2", "svs", -2), ("svs_sub3", "svs", -3),
             ("ecs", "cat-even", 0), ("ecs_add1", "cat-even", 1), ("ecs_add2", "cat-even", 2)]
CROSSOVERS = [("crossover_added_1v2.json", "svs", "add1:add2", 0.30, 0.60, "0"),
              ("crossover_added_1v3.json", "svs", "add1:add3", 0.45, 0.75, "0"),
              ("crossover_ecs_1v2.json", "cat-even", "add1:add2", 1.5, 2.5, "pi/2")]
ADDED_THETAS = ["0", "pi/100", "pi/50", "pi/35", "pi/20", "pi/10", "pi/4", "pi/2"]
SUBTRACTED_THETAS = ["0", "pi/100", "pi/75", "pi/50", "pi/35", "pi/20", "pi/4", "pi/2"]
# a panel's file name puts the angle text without "/" in place of {}: pi/100 -> pi100
SWEEP_PANELS = [("w1_added_theta_{}.csv", "svs", "1,2,3", 0.3, 0.8, ADDED_THETAS),
                ("w1_subtracted_theta_{}.csv", "svs", "-1,-2,-3", 0.3, 0.8, SUBTRACTED_THETAS),
                ("w1_ecs_added.csv", "cat-even", "1,2", 1.5, 2.5, ["pi/2"])]


def _reproduce_tables(cfg: dict, added_theta_0: SweepTable) -> list[tuple[str, bytes]]:
    """Summary tables that are not single-subcommand products.

    ``added_theta_0`` is the theta = 0 sweep of svs against svs+1..3 over
    linspace(0.3, 0.8, steps), whose columns are the W1 values of
    ``w1_vs_mean_photon.csv``.
    """
    steps, points, tail = cfg["steps"], cfg["grid-points"], cfg["tail-tol"]
    rs = np.linspace(0.3, 0.8, steps)
    svs = lambda m: StateSpec("svs", SqueezeParams(R_DEFAULT), m, tail)  # noqa: E731
    vecs = {m: [build_state(svs(m).with_parameter(r)) for r in rs] for m in range(4)}

    outputs = []
    nbar = {m: np.array([mean_photon_number(v) for v in vecs[m]]) for m in range(4)}
    outputs.append(("mean_photon_vs_r.csv", sweep_csv(SweepTable(
        rs, [(f"nbar_m{m}", nbar[m]) for m in range(4)]))))

    w1_cols = []
    for m, (_, w1s) in zip((1, 2, 3), added_theta_0.columns):
        w1_cols += [(f"nbar_add{m}", nbar[m]), (f"w1_add{m}", w1s)]
    outputs.append(("w1_vs_mean_photon.csv", sweep_csv(SweepTable(rs, w1_cols))))

    var_cols, kappas = [], {}
    for m in (0, 1, 2):
        var = np.array([quadrature_variance(v, 0.0) for v in vecs[m]])
        var_cols.append((f"var_m{m}", var))
        kappas[f"m{m}"] = float(-np.polyfit(rs, np.log(var), 1)[0])
    outputs.append(("variance_vs_r.csv", sweep_csv(SweepTable(rs, var_cols))))
    outputs.append(("kappa_fits.json", _json(kappas)))

    ecs = StateSpec("cat-even", CatParams(1.0), 0, tail)
    rs_cat = np.linspace(0.1, 0.8, steps)
    alphas = np.array([equal_mean_alpha(r) for r in rs_cat])
    w1_ecs = np.array([
        w1_states(svs(0).with_parameter(r), ecs.with_parameter(a), 0.0, n_points=points)
        for r, a in zip(rs_cat, alphas)
    ])
    outputs.append(("w1_svs_ecs_equal_mean.csv", sweep_csv(SweepTable(
        rs_cat, [("alpha", alphas), ("w1_svs_vs_ecs", w1_ecs)]))))

    ocs = StateSpec("cat-odd", CatParams(1.0), 0, tail)
    ecs1 = StateSpec("cat-even", CatParams(1.0), 1, tail)
    cols = {"w1_add1_vs_ocs": [], "w1_add1_vs_ecs_add1": []}
    for r in rs_cat:
        target = mean_photon_number(build_state(svs(1).with_parameter(r)))
        for label, template in (("w1_add1_vs_ocs", ocs), ("w1_add1_vs_ecs_add1", ecs1)):
            a = equal_mean_parameter(template, target)
            cols[label].append(w1_states(svs(1).with_parameter(r),
                                         template.with_parameter(a), 0.0, n_points=points))
    outputs.append(("w1_add1_vs_cats_equal_mean.csv", sweep_csv(SweepTable(
        rs_cat, [(k, np.array(v)) for k, v in cols.items()]))))
    return outputs


def _product(subcommand: str, cfg: dict) -> list[tuple[str, bytes, str]]:
    """[(output path, payload, ``.meta`` text)] of one resolved subcommand run."""
    return [(cfg["out"], HANDLERS[subcommand](cfg), _meta_text(subcommand, cfg))]


def _sweep_panel(cfgs: list[dict], summary_cfg: dict | None) -> list[tuple[str, bytes, str]]:
    """The (path, payload, ``.meta`` text) triples of one panel's sweeps, one per
    resolved ``sweep`` config in ``cfgs``, computed as one multi-angle sweep.

    With ``summary_cfg`` (reproduce's own config) the summary tables built
    from the panel's first table follow.
    """
    tables = _sweep_tables(cfgs[0], [c["theta"] for c in cfgs])
    outputs = [(c["out"], sweep_csv(table), _meta_text("sweep", c))
               for c, table in zip(cfgs, tables)]
    if summary_cfg is not None:
        meta = _meta_text("reproduce", summary_cfg)
        outputs += [(os.path.join(summary_cfg["outdir"], filename), payload, meta)
                    for filename, payload in _reproduce_tables(summary_cfg, tables[0])]
    return outputs


def _call(job: tuple):
    """Run a reproduce job, ``(function, *args)``."""
    return job[0](*job[1:])


def _handle_reproduce(cfg: dict) -> list[tuple[str, bytes, str]]:
    """Every output of the standard set as (path, payload, ``.meta`` text).

    Each subcommand product is resolved by ``resolve_config`` from the flags
    reproduce sets, exactly as a rerun from its ``.meta`` resolves it; each
    sweep panel is one multi-angle sweep.  The products are independent
    jobs, run on two worker processes (``_workers.Workers``) and collected
    in declared order: the tomograms and the empirical crossover, which
    check user input (tomogram angles, shots, seed), come first, so bad
    input fails before the slow stages finish; an outdir whose nearest
    existing ancestor is not a writable directory fails before any job
    starts.  The first failing job in that order raises its own exception
    here, and the other worker is stopped; a worker that dies (killed, out
    of memory) raises ``NumericalError``, and a worker whose parent dies
    exits within moments.  Each job's warnings, a failing job's too, are
    emitted again here, in the same order, so this process's warning
    filters apply.  The workers are daemonic and may start no process, so
    each crossover search in them evaluates in-process; so do the jobs
    themselves, serially in declared order, where no worker can be forked
    (no ``fork``, or a daemonic process).
    """
    check_parameter_points(cfg["steps"], "sweep steps")
    ancestor = os.path.abspath(cfg["outdir"])
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not (os.path.isdir(ancestor) and os.access(ancestor, os.W_OK | os.X_OK)):
        raise ValidationError(
            f"cannot write {cfg['outdir']}: {ancestor} is not a writable directory")
    shared = {name.replace("-", "_"): cfg[name]
              for name in ("steps", "theta-count", "grid-points", "shots", "seed", "tail-tol")}

    def sub_config(subcommand, filename, **flags):
        path = os.path.join(cfg["outdir"], filename)
        return resolve_config(subcommand, dict(shared, out=path, **flags), None)

    jobs = [(_product, "tomogram", sub_config("tomogram", f"tomogram_{label}.pgm",
                                              family=family, m=m))
            for label, family, m in TOMOGRAMS]
    crossovers = [(filename, dict(family=family, pair=pair, lo=lo, hi=hi, theta=parse_theta(t)))
                  for filename, family, pair, lo, hi, t in CROSSOVERS]
    if cfg["empirical"]:  # the first crossover, from seeded homodyne records
        filename, flags = crossovers[0]
        jobs.append((_product, "empirical-crossover",
                     sub_config("empirical-crossover", f"empirical_{filename}", **flags)))
    summary_source = os.path.join(cfg["outdir"], "w1_added_theta_0.csv")
    for template, family, compare, lo, hi, angles in SWEEP_PANELS:
        cfgs = [sub_config("sweep", template.format(a.replace("/", "")), family=family,
                           compare=compare, lo=lo, hi=hi, theta=parse_theta(a)) for a in angles]
        jobs.append((_sweep_panel, cfgs, cfg if cfgs[0]["out"] == summary_source else None))
    jobs += [(_product, "crossover", sub_config("crossover", filename, **flags))
             for filename, flags in crossovers]

    outputs = []
    with _workers.Workers(_call) as workers:
        for outcome in workers.imap(jobs):
            outputs += _workers.replay(outcome)
    return outputs


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(subcommand: str, flags: dict, config_path: str | None = None) -> int:
    """Resolve configuration, compute every output, then write each with its metadata."""
    cfg = resolve_config(subcommand, flags, config_path)
    if subcommand == "reproduce":
        outputs = _handle_reproduce(cfg)
    else:
        outputs = _product(subcommand, cfg)
    for path, payload, meta in outputs:
        atomic_write(path, payload)
        atomic_write(path + ".meta", meta.encode())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomosense",
        description="Tomogram synthesis and Wasserstein sensing of photon-number changes",
    )
    parser.add_argument("--version", action="version", version=f"tomosense {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, options in OPTIONS.items():
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", default=None, help="flat key=value config file")
        for opt, typ, default in options:
            sub.add_argument(f"--{opt}", type=typ, default=None,
                             help=f"(default {default})" if default is not None else None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    subcommand = args.pop("subcommand")
    config_path = args.pop("config")
    try:
        return run(subcommand, args, config_path)
    except ValidationError as exc:
        print(f"tomosense: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"tomosense: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
