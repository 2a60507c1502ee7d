import filecmp
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from conftest import doubles
from hypothesis import given, settings
from hypothesis import strategies as st

from tomosense import cli, errors, homodyne, tomography, transport
from tomosense.cli import main, parse_theta
from tomosense.errors import MultipleRootsWarning, NumericalError, ValidationError
from tomosense.states import MAX_PHOTON_DELTA, SqueezeParams, normalization_constant


def run_cli(*args):
    return main([str(a) for a in args])


def run_fresh(*args, timeout=60):
    """Run ``python *args`` in a fresh interpreter that imports this checkout's tomosense."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True,
                          text=True, timeout=timeout)


# ---------------------------------------------------------------------------
# theta parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,value", [
    ("0", 0.0),
    ("0.5", 0.5),
    ("pi", math.pi),
    ("pi/20", math.pi / 20),
    ("pi/100", math.pi / 100),
    ("2pi/3", 2 * math.pi / 3),
    ("3pi/4", 3 * math.pi / 4),
    ("-pi/2", -math.pi / 2),
    ("9007199254740992", 2.0**53),
])
def test_parse_theta(text, value):
    assert parse_theta(text) == pytest.approx(value, abs=1e-15)


def test_parse_theta_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_theta("two pies")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "pi/0", "1e309"])
def test_parse_theta_rejects_non_finite(text):
    with pytest.raises(ValidationError):
        parse_theta(text)


@pytest.mark.parametrize("text", ["1e308", "-1e17", "9007199254740994"])
def test_parse_theta_rejects_angles_beyond_2_53(text):
    with pytest.raises(ValidationError):
        parse_theta(text)


def test_non_finite_theta_exits_2(tmp_path):
    out = tmp_path / "w1.json"
    with pytest.raises(SystemExit) as exc:
        run_cli("w1", "--b-m", 1, "--theta", "nan", "--out", out)
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta=inf\n")
    assert run_cli("w1", "--b-m", 1, "--config", cfg, "--out", out) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_state_csv_and_prob_normalization(tmp_path):
    out = tmp_path / "coeffs.csv"
    assert run_cli("state", "--family", "svs", "--r", 0.7071067811865476,
                   "--m", 2, "--out", out) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "n,re,im,prob"
    # first populated series term sits at |2>, with weight 2!/N_2
    n2 = normalization_constant("added", 2, SqueezeParams(0.7071067811865476))
    prob2 = float(rows[3].split(",")[3])
    assert prob2 == pytest.approx(2.0 / n2, abs=1e-10)
    assert float(rows[1].split(",")[3]) == 0.0


def test_observables_json(tmp_path):
    out = tmp_path / "obs.json"
    assert run_cli("observables", "--family", "svs", "--r", 0.5,
                   "--theta", "pi/2", "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["mean_photon_number"] == pytest.approx(math.sinh(0.5) ** 2, abs=1e-9)
    assert payload["quadrature_variance"] == pytest.approx(math.e / 2, abs=1e-9)


def test_slice_csv(tmp_path):
    out = tmp_path / "slice.csv"
    assert run_cli("slice", "--family", "svs", "--r", 0, "--theta", 0.3,
                   "--out", out) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x,pdf,cdf"
    assert len(rows) == 1 + 2048


def test_tomogram_pgm_and_dark_center(tmp_path):
    bright = tmp_path / "svs.pgm"
    dark = tmp_path / "add1.pgm"
    assert run_cli("tomogram", "--family", "svs", "--theta-count", 16,
                   "--format", "pgm", "--out", bright) == 0
    assert run_cli("tomogram", "--family", "svs", "--m", 1, "--theta-count", 16,
                   "--format", "pgm", "--out", dark) == 0
    for path in (bright, dark):
        header = path.read_bytes().split(b"\n", 3)
        assert header[0] == b"P5" and header[2] == b"255"
    width = int(bright.read_bytes().split(b"\n")[1].split()[0])
    row0 = np.frombuffer(bright.read_bytes().split(b"\n", 3)[3], dtype=np.uint8)[:width]
    row0_dark = np.frombuffer(dark.read_bytes().split(b"\n", 3)[3], dtype=np.uint8)[:width]
    mid = width // 2
    assert row0[mid] == 255          # bright central band for the squeezed vacuum
    assert row0_dark[mid] <= 1       # dark central band after one added photon


def test_w1_cli_value(tmp_path):
    out = tmp_path / "w1.json"
    assert run_cli("w1", "--family", "svs", "--r", 0, "--b-family", "svs",
                   "--b-r", 0.5, "--theta", 0, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["w1"] == pytest.approx(0.22199130323553978, abs=1e-6)


def test_crossover_cli_location(tmp_path):
    out = tmp_path / "cross.json"
    assert run_cli("crossover", "--pair", "add1:add2", "--theta", 0,
                   "--lo", 0.3, "--hi", 0.6, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["found"] is True
    assert 0.43 <= payload["location"] <= 0.47
    assert set(payload) == {"found", "location", "bracket_lo", "bracket_hi",
                            "residual", "scan_points"}


def test_sample_binary_and_csv(tmp_path):
    out_bin = tmp_path / "rec.bin"
    assert run_cli("sample", "--family", "svs", "--r", 0.5, "--shots", 500,
                   "--seed", 7, "--format", "bin", "--out", out_bin) == 0
    blob = out_bin.read_bytes()
    assert blob[:8] == b"TOMOSMPL" and len(blob) == 32 + 500 * 8
    out_csv = tmp_path / "rec.csv"
    assert run_cli("sample", "--family", "svs", "--r", 0.5, "--shots", 10,
                   "--seed", 7, "--format", "csv", "--out", out_csv) == 0
    assert out_csv.read_text().splitlines()[0] == "theta,x"


# ---------------------------------------------------------------------------
# config files, metadata, determinism
# ---------------------------------------------------------------------------

def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=svs\nr=0.4\nm=1\nout=unused.csv\n")
    out = tmp_path / "a.csv"
    assert run_cli("state", "--config", cfg, "--r", 0.6, "--out", out) == 0
    meta = (tmp_path / "a.csv.meta").read_text()
    assert "r=0.59999999999999998" in meta  # flag wins over the config value
    assert "m=1" in meta                    # config fills what flags leave unset


def test_unknown_config_keys_exit_2(tmp_path, capsys):
    out = tmp_path / "a.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("famly=cat-odd\nr=0.3\n")
    assert run_cli("state", "--config", cfg, "--out", out) == 2
    assert "famly" in capsys.readouterr().err
    cfg.write_text("subcommand=sweep\nr=0.3\n")
    assert run_cli("state", "--config", cfg, "--out", out) == 2
    assert "sweep" in capsys.readouterr().err
    cfg.write_text("grid-points=2048\n")  # an option of sweep, not of state
    assert run_cli("state", "--config", cfg, "--out", out) == 2
    assert not out.exists()
    cfg.write_text("subcommand=state\nr=0.3\n")
    assert run_cli("state", "--config", cfg, "--out", out) == 0


def test_metadata_rerun_is_byte_identical(tmp_path):
    out1 = tmp_path / "w1.json"
    assert run_cli("w1", "--family", "svs", "--r", 0.37, "--b-family", "svs",
                   "--b-r", 0.37, "--b-m", 2, "--theta", "pi/20", "--out", out1) == 0
    out2 = tmp_path / "again.json"
    assert run_cli("w1", "--config", str(out1) + ".meta", "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_codes(tmp_path, capsys):
    assert run_cli("state", "--family", "svs", "--r", 0, "--m", -1,
                   "--out", tmp_path / "x.csv") == 2
    assert "error" in capsys.readouterr().err
    assert run_cli("slice", "--family", "svs", "--r", 0.9, "--theta", "pi/2",
                   "--grid-halfwidth", 3, "--out", tmp_path / "x.csv") == 3
    assert run_cli("state") == 2  # --out missing
    # a phase that underflows to 0 builds the real-alpha state, not a traceback
    assert run_cli("state", "--family", "cat-even", "--alpha-re", 3, "--alpha-im", 5e-324,
                   "--out", tmp_path / "tiny_phase.csv") == 0
    assert run_cli("state", "--family", "cat-even", "--alpha-re", 3,
                   "--out", tmp_path / "real.csv") == 0
    assert (tmp_path / "tiny_phase.csv").read_bytes() == (tmp_path / "real.csv").read_bytes()
    with pytest.raises(SystemExit) as exc:
        run_cli("state", "--no-such-flag")
    assert exc.value.code == 2


def test_bad_config_values_and_seeds_exit_2(tmp_path, capsys):
    out = tmp_path / "rec.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("shots=1e3\n")
    assert run_cli("sample", "--config", cfg, "--out", out) == 2
    assert "shots" in capsys.readouterr().err
    for seed in (-1, 2**64):
        assert run_cli("sample", "--shots", 10, "--seed", seed, "--out", out) == 2
        assert run_cli("empirical-crossover", "--shots", 10, "--scan-points", 2,
                       "--seed", seed, "--out", out) == 2
    assert not out.exists()
    assert run_cli("sample", "--shots", 10, "--seed", 2**64 - 1, "--format", "bin",
                   "--out", out) == 0


def test_bad_format_exits_2_before_any_computation(tmp_path, monkeypatch, capsys):
    def no_state(*args):
        raise AssertionError("state built for a bad --format")

    monkeypatch.setattr(cli, "build_state", no_state)
    out = tmp_path / "x.out"
    assert run_cli("tomogram", "--format", "xyz", "--out", out) == 2
    assert "format" in capsys.readouterr().err
    assert run_cli("sample", "--format", "pgm", "--out", out) == 2
    assert "format" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--shots", homodyne.MAX_SHOTS + 1, "shots"),
    ("--seed", -1, "seed"),
    ("--theta-count", 8, "theta_count"),
    ("--steps", 40000, "steps"),
    ("--steps", 1, "steps"),
])
def test_reproduce_bad_input_exits_2_before_writing(tmp_path, monkeypatch, capsys,
                                                    flag, value, message):
    if flag == "--steps":  # checked before the first stage, so no tomogram is built
        def no_tomogram(*args):
            raise AssertionError("tomogram built for an invalid step count")

        monkeypatch.setattr(cli, "tomogram", no_tomogram)
    outdir = tmp_path / "run"
    assert run_cli("reproduce", "--outdir", outdir, "--steps", 2, "--grid-points", 256,
                   flag, value) == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists() or not os.listdir(outdir)


@pytest.mark.parametrize("args,message", [
    (["slice", "--grid-points", tomography.MAX_GRID_POINTS + 1], "n_points"),
    (["w1", "--b-m", 1, "--grid-points", tomography.MAX_GRID_POINTS + 1], "n_points"),
    (["tomogram", "--theta-count", tomography.MAX_THETA_COUNT + 1], "theta_count"),
    (["sweep", "--steps", transport.MAX_PARAMETER_POINTS + 1], "steps"),
    (["crossover", "--scan-points", transport.MAX_PARAMETER_POINTS + 1], "scan points"),
    (["empirical-crossover", "--shots", 10, "--scan-points", transport.MAX_PARAMETER_POINTS + 1],
     "scan points"),
    (["reproduce", "--grid-points", tomography.MAX_GRID_POINTS + 1], "n_points"),
    (["reproduce", "--theta-count", tomography.MAX_THETA_COUNT + 1], "theta_count"),
])
def test_sizes_above_bound_exit_2_before_any_table(tmp_path, monkeypatch, capsys, args, message):
    def no_table(*args):
        raise AssertionError("Hermite table built for an invalid size")

    monkeypatch.setattr(tomography, "hermite_function", no_table)
    out = tmp_path / "x.out"
    assert run_cli(*args, "--outdir" if args[0] == "reproduce" else "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_shots_above_bound_exit_2_without_sampling(tmp_path, monkeypatch, capsys):
    def no_uniforms(*args):
        raise AssertionError("uniforms drawn for an invalid shot count")

    monkeypatch.setattr(homodyne, "_uniforms", no_uniforms)
    out = tmp_path / "x.out"
    shots = homodyne.MAX_SHOTS + 1
    assert run_cli("sample", "--shots", shots, "--out", out) == 2
    assert "shots" in capsys.readouterr().err
    assert run_cli("empirical-crossover", "--shots", shots, "--out", out) == 2
    assert "shots" in capsys.readouterr().err
    assert not out.exists()


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


# config-file values of the state options: edge doubles (nan, inf, subnormals)
# and plain ones, photon changes up to 10**30 and small ones
numbers = st.one_of(doubles, st.floats(-2.0, 2.0)).map(repr)
STATE_VALUES = {
    "family": st.sampled_from(["svs", "cat-even", "cat-odd", "coherent", "squeezed"]),
    "r": numbers, "phi": numbers, "alpha-re": numbers, "alpha-im": numbers,
    "m": st.one_of(st.integers(-4, 4), st.integers(-10**30, 10**30)).map(str),
    "tail-tol": numbers,
}


DRAWN_VALUES = dict(STATE_VALUES, **{f"b-{key}": s for key, s in STATE_VALUES.items()},
                    theta=numbers, lo=numbers, hi=numbers)
# sizes that keep every run cheap; each subcommand takes the ones it has
CHEAP_SIZES = {"grid-points": "64", "steps": "2", "scan-points": "2", "theta-count": "16",
               "shots": "1000"}
JSON_OUTPUTS = ("observables", "w1", "crossover", "empirical-crossover")


@given(subcommand=st.sampled_from(sorted(cli.OPTIONS)), data=st.data())
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.filterwarnings("ignore::tomosense.errors.MultipleRootsWarning")
def test_config_files_exit_0_2_3_with_strict_json(subcommand, data):
    names = {name for name, _, _ in cli.OPTIONS[subcommand]}
    values = data.draw(st.fixed_dictionaries(
        {}, optional={key: s for key, s in DRAWN_VALUES.items() if key in names}))
    values.update((key, text) for key, text in CHEAP_SIZES.items() if key in names)
    with tempfile.TemporaryDirectory() as outdir:
        cfg = os.path.join(outdir, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key}={text}\n" for key, text in values.items())
        out = os.path.join(outdir, "out")
        target = "--outdir" if subcommand == "reproduce" else "--out"
        assert main([subcommand, "--config", cfg, target, out]) in (0, 2, 3)
        if not os.path.isfile(out) or subcommand == "tomogram":  # a PGM by default
            return
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        if subcommand in JSON_OUTPUTS:
            strict_json(text)
        else:
            assert "nan" not in text.lower() and "inf" not in text.lower()


# angles reach the CLI only through parse_theta, which argparse turns into a
# usage exit, so those cases come from a config file
@pytest.mark.parametrize("args,config,message", [
    (["state", "--m", 99999999999999999999], "", "photon_delta"),
    (["state", "--m", -(MAX_PHOTON_DELTA + 1)], "", "photon_delta"),
    (["w1", "--b-m", 99999999999999999999], "", "photon_delta"),
    (["sweep", "--compare", 99999999999999999999, "--steps", 3], "", "photon_delta"),
    (["observables"], "theta=1e308\n", "angle"),
    (["sample", "--shots", 10], "theta=1e308\n", "angle"),
    (["state", "--family", "cat-even", "--alpha-re", 1.5e308, "--alpha-im", 1.5e308], "",
     "alpha"),
])
def test_huge_numbers_exit_2(tmp_path, capsys, args, config, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "x.out"
    assert run_cli(*args, "--config", cfg, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_large_subtraction_and_vacuum_addition_limits(tmp_path):
    out = tmp_path / "coeffs.csv"
    with pytest.warns(UserWarning, match="validated range"):
        assert run_cli("state", "--m", -2000, "--r", 0.0001, "--out", out) == 0
    # |m> from the vacuum stops at the cutoff cap, as the series for r > 0 does
    with pytest.warns(UserWarning, match="validated range"):
        assert run_cli("state", "--m", 512, "--r", 0, "--out", out) == 0
        assert run_cli("state", "--m", 513, "--r", 0, "--out", out) == 3
        assert run_cli("state", "--m", 513, "--r", 1e-300, "--out", out) == 3


def test_empirical_crossover_narrow_scan_cell_is_strict_json(tmp_path):
    out = tmp_path / "cross.json"
    assert run_cli("empirical-crossover", "--shots", 1000, "--scan-points", 2,
                   "--lo", 0.44, "--hi", 0.44005, "--seed", 3, "--out", out) == 0
    payload = strict_json(out.read_text())
    assert payload["found"] is True and payload["low_confidence"] is True
    assert payload["location"] == pytest.approx(0.440025, abs=1e-12)
    assert math.isfinite(payload["residual"])


@pytest.mark.parametrize("args,message", [(("--lo", -1, "--hi", 0.5), "squeezing magnitude"),
                                          (("--hi", "inf"), "sweep range")])
def test_sweep_outside_the_parameter_domain_exits_2(tmp_path, capsys, args, message):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", *args, "--steps", 3, "--grid-points", 256, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("halfwidth,code", [("inf", 2), ("1e308", 2), (60, 2), (50, 0)])
def test_slice_grid_halfwidth_stays_in_the_hermite_domain(tmp_path, capsys, halfwidth, code):
    out = tmp_path / "slice.csv"
    assert run_cli("slice", "--grid-halfwidth", halfwidth, "--grid-points", 64,
                   "--out", out) == code
    assert out.exists() == (code == 0)
    if code == 2:
        assert "grid half-width" in capsys.readouterr().err


@pytest.mark.parametrize("args", [("crossover",), ("empirical-crossover", "--shots", 10)])
def test_infinite_bracket_exits_2_naming_the_bracket(tmp_path, args):
    out = tmp_path / "cross.json"
    proc = run_fresh("-m", "tomosense.cli", *args, "--hi", "inf", "--out", out)
    assert proc.returncode == 2
    assert "bracket needs finite lo < hi" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not out.exists()


def test_empirical_crossover_needs_two_scan_points(tmp_path, capsys):
    out = tmp_path / "cross.json"
    assert run_cli("empirical-crossover", "--scan-points", 0, "--out", out) == 2
    assert "scan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ("--r", 1e-300, "--m", -2),
    ("--family", "cat-odd", "--alpha-re", 1e-200),
])
def test_underflowed_closed_form_norm_exits_2(tmp_path, capsys, args):
    out = tmp_path / "coeffs.csv"
    assert run_cli("state", *args, "--out", out) == 2
    assert "norm underflows" in capsys.readouterr().err
    assert not out.exists()


def test_csv_numbers_roundtrip_doubles(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--family", "svs", "--compare", "1", "--lo", 0.3,
                   "--hi", 0.5, "--steps", 3, "--theta", 0, "--out", out) == 0
    from tomosense.transport import sweep_w1
    from conftest import svs_spec

    table = sweep_w1(svs_spec(), [svs_spec(m=1)], (0.3, 0.5, 3), 0.0)
    rows = out.read_text().strip().splitlines()[1:]
    for row, expected in zip(rows, table.columns[0][1]):
        assert float(row.split(",")[1]) == expected


# ---------------------------------------------------------------------------
# cold start
# ---------------------------------------------------------------------------

# run in a fresh interpreter: prints, as JSON, which scipy modules are loaded
# after the import, after the exact subcommands, after one sample and after one
# small empirical crossover, and the SHA-256 of the sample CSV and crossover JSON
COLD_START_SCRIPT = """
import hashlib, json, os, sys
from tomosense import cli

outdir = sys.argv[1]
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sha256 = lambda path: hashlib.sha256(open(path, "rb").read()).hexdigest()
report = {"import": loaded()}
for argv in (["w1", "--b-m", "1", "--out", os.path.join(outdir, "w1.json")],
             ["tomogram", "--theta-count", "16", "--out", os.path.join(outdir, "t.pgm")],
             ["reproduce", "--outdir", os.path.join(outdir, "run"), "--steps", "3",
              "--theta-count", "16", "--empirical", "0"]):
    assert cli.main(argv) == 0, argv
report["exact"] = loaded()
sample = os.path.join(outdir, "sample.csv")
assert cli.main(["sample", "--m", "1", "--shots", "1000", "--seed", "7", "--theta", "pi/4",
                 "--out", sample]) == 0
report["sample"] = loaded()
report["sample_sha256"] = sha256(sample)
crossing = os.path.join(outdir, "empirical.json")
assert cli.main(["empirical-crossover", "--shots", "20000", "--scan-points", "8",
                 "--out", crossing]) == 0
report["empirical"] = loaded()
report["empirical_sha256"] = sha256(crossing)
print(json.dumps(report))
"""
SAMPLE_CSV_SHA256 = "6d19ab6992713684653cfde13de88f29f4f39f98549da8b18a9c15f9ce04cf65"
# empirical-crossover --shots 20000 --scan-points 8 as written when sampling used
# scipy's PchipInterpolator
EMPIRICAL_JSON_SHA256 = "c8a687667c1aa03683187bd6781d096bc090005dc8d2adbf5b06f685e8e14663"


def test_cold_start_loads_no_scipy(tmp_path):
    proc = run_fresh("-c", COLD_START_SCRIPT, tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    for stage in ("import", "exact", "sample", "empirical"):
        assert report[stage] == [], stage
    assert report["sample_sha256"] == SAMPLE_CSV_SHA256
    assert report["empirical_sha256"] == EMPIRICAL_JSON_SHA256


def test_import_loads_no_multiprocessing():
    # only reproduce starts worker processes, and imports multiprocessing to do so
    proc = run_fresh("-c", "import sys, tomosense.cli; "
                           "print(sorted(m for m in sys.modules if 'multiprocessing' in m))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point_runs_warning_free():
    # runpy warns when the package has already imported tomosense.cli
    proc = run_fresh("-W", "error", "-m", "tomosense.cli", "--version")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("tomosense ")


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

REPRODUCE_ARGS = ["--steps", 5, "--theta-count", 16, "--grid-points", 2048,
                  "--empirical", 1, "--shots", 2000, "--seed", 90210]


def test_reproduce_and_full_rerun_byte_identical(tmp_path):
    dir1, dir2 = tmp_path / "run1", tmp_path / "run2"
    assert run_cli("reproduce", "--outdir", dir1, *REPRODUCE_ARGS) == 0
    expected = {
        "w1_added_theta_0.csv", "w1_added_theta_pi100.csv", "w1_added_theta_pi4.csv",
        "w1_subtracted_theta_0.csv", "w1_ecs_added.csv",
        "crossover_added_1v2.json", "crossover_added_1v3.json", "crossover_ecs_1v2.json",
        "tomogram_svs.pgm", "tomogram_svs_add1.pgm", "tomogram_ecs.pgm",
        "mean_photon_vs_r.csv", "w1_vs_mean_photon.csv", "variance_vs_r.csv",
        "kappa_fits.json", "w1_svs_ecs_equal_mean.csv", "w1_add1_vs_cats_equal_mean.csv",
        "empirical_crossover_added_1v2.json",
    }
    produced = {p for p in os.listdir(dir1) if not p.endswith(".meta")}
    assert expected <= produced
    assert all(os.path.exists(os.path.join(dir1, p + ".meta")) for p in produced)

    assert run_cli("reproduce", "--outdir", dir2, *REPRODUCE_ARGS) == 0
    for name in sorted(produced):
        assert filecmp.cmp(dir1 / name, dir2 / name, shallow=False), name


def test_reproduce_empirical_meta_reruns_byte_identical(tmp_path):
    outdir = tmp_path / "run"
    assert run_cli("reproduce", "--outdir", outdir, "--steps", 2, "--theta-count", 16,
                   "--grid-points", 256, "--shots", 2000, "--seed", 5) == 0
    name = "empirical_crossover_added_1v2.json"
    meta = (outdir / f"{name}.meta").read_text()
    assert "grid-points" not in meta
    again = tmp_path / name
    assert run_cli("empirical-crossover", "--config", outdir / f"{name}.meta",
                   "--out", again) == 0
    assert again.read_bytes() == (outdir / name).read_bytes()
    rerun_meta = (tmp_path / f"{name}.meta").read_text()
    assert rerun_meta == meta.replace(str(outdir), str(tmp_path))


def test_reproduce_artifact_rerun_from_meta(tmp_path):
    outdir = tmp_path / "run"
    assert run_cli("reproduce", "--outdir", outdir, "--steps", 3, "--theta-count", 16,
                   "--empirical", 0) == 0
    # rerunning an emitted output of each kind from its metadata reproduces it
    # and its metadata byte for byte: one sweep per panel, every crossover,
    # one tomogram
    rerun_dir = tmp_path / "again"
    for subcommand, name in [("sweep", "w1_added_theta_pi2.csv"),
                             ("sweep", "w1_subtracted_theta_pi75.csv"),
                             ("sweep", "w1_ecs_added.csv"),
                             ("crossover", "crossover_added_1v2.json"),
                             ("crossover", "crossover_added_1v3.json"),
                             ("crossover", "crossover_ecs_1v2.json"),
                             ("tomogram", "tomogram_svs_sub2.pgm")]:
        again = rerun_dir / name
        assert run_cli(subcommand, "--config", outdir / f"{name}.meta", "--out", again) == 0
        assert again.read_bytes() == (outdir / name).read_bytes(), name
        meta = (outdir / f"{name}.meta").read_text()
        assert (rerun_dir / f"{name}.meta").read_text() == meta.replace(
            str(outdir), str(rerun_dir)), name
    payload = json.loads((outdir / "kappa_fits.json").read_text())
    assert payload["m0"] == pytest.approx(2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# reproduce's worker processes
# ---------------------------------------------------------------------------

SMALL_REPRODUCE_ARGS = ["--steps", 2, "--theta-count", 16, "--grid-points", 256]


@pytest.mark.parametrize("cls", sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, (errors.TomosenseError, MultipleRootsWarning))),
    key=lambda c: c.__name__))
def test_errors_and_warnings_survive_a_pickle_round_trip(cls):
    # a worker's exception or warning reaches reproduce's process pickled
    again = pickle.loads(pickle.dumps(cls("message of a worker")))
    assert type(again) is cls
    assert str(again) == "message of a worker"


def test_reproduce_relays_worker_warnings(tmp_path):
    # the low-shot empirical crossover sees several sign changes in a worker;
    # the warning reaches this process's filters
    with pytest.warns(MultipleRootsWarning, match="sign changes"):
        assert run_cli("reproduce", "--outdir", tmp_path / "run", *SMALL_REPRODUCE_ARGS,
                       "--shots", 1000, "--seed", 1) == 0
    assert multiprocessing.active_children() == []


# the failure tests patch this process before reproduce starts its workers,
# which only forked workers inherit
needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="workers inherit a patch only when forked")


@needs_fork
@pytest.mark.parametrize("error,code", [(NumericalError, 3), (ValidationError, 2)])
def test_reproduce_worker_failure_exits_with_its_code_and_writes_nothing(
        tmp_path, monkeypatch, capsys, error, code):
    def failing_crossover(*args, **kwargs):
        raise error(f"crossover failed in process {os.getpid()}")

    monkeypatch.setattr(cli, "find_crossover", failing_crossover)  # inherited by the workers
    outdir = tmp_path / "run"
    assert run_cli("reproduce", "--outdir", outdir, *SMALL_REPRODUCE_ARGS,
                   "--empirical", 0) == code
    err = capsys.readouterr().err
    assert "crossover failed in process" in err
    assert f"process {os.getpid()}\n" not in err  # raised in a worker, not here
    assert not outdir.exists() or not os.listdir(outdir)
    assert multiprocessing.active_children() == []


@needs_fork
def test_reproduce_worker_that_dies_exits_3_instead_of_waiting(tmp_path, monkeypatch, capsys):
    def dying_crossover(*args, **kwargs):
        os._exit(70)

    monkeypatch.setattr(cli, "find_crossover", dying_crossover)
    outdir = tmp_path / "run"
    assert run_cli("reproduce", "--outdir", outdir, *SMALL_REPRODUCE_ARGS,
                   "--empirical", 0) == 3
    assert "exit code 70" in capsys.readouterr().err
    assert not outdir.exists() or not os.listdir(outdir)
    assert multiprocessing.active_children() == []
