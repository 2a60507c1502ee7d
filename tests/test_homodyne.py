import math
import os
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.stats import chi2_contingency

from tomosense.cli import record_csv
from tomosense.errors import MultipleRootsWarning, NumericalError, TomosenseError, ValidationError
from tomosense import homodyne
from tomosense.homodyne import (
    SAMPLING_GRID_POINTS,
    MeasurementRecord,
    MAX_SHOTS,
    _child_seed,
    empirical_crossover,
    histogram_tomogram,
    record_bytes,
    record_from_bytes,
    sample_quadrature,
    state_pair,
)
from tomosense.states import SqueezeParams, build_state, build_svs_family, quadrature_variance
from tomosense.transport import CrossoverResult
from tomosense.tomography import MAX_GRID_POINTS, MAX_THETA_COUNT, auto_grid, pdf_slice
from tomosense.transport import w1_cdf, w1_empirical, w1_states

from conftest import (EDGE_DOUBLES, doubles, ecs_spec, needs_fork, ocs_spec, run_in_daemon,
                      svs_spec, traced_peak)

VAC_SVS_05 = 0.22199130323553978


def vacuum():
    return build_svs_family(SqueezeParams(0.0), 0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_reproducible_bit_exact():
    v = build_svs_family(SqueezeParams(0.5), 0)
    a = sample_quadrature(v, 0.7, 4096, 99)
    b = sample_quadrature(v, 0.7, 4096, 99)
    assert np.array_equal(a.samples, b.samples)
    assert a.shots == 4096 and a.seed == 99 and a.theta == 0.7
    c = sample_quadrature(v, 0.7, 4096, 100)
    assert not np.array_equal(a.samples, c.samples)


def test_vacuum_sample_moments():
    rec = sample_quadrature(vacuum(), 0.0, 10**6, 777)
    assert abs(np.mean(rec.samples)) < 3.0 * (1 / math.sqrt(2)) / 1e3
    assert np.var(rec.samples) == pytest.approx(0.5, rel=0.01)


def test_odd_state_avoids_origin(default_r):
    v = build_svs_family(SqueezeParams(default_r), 1)
    rec = sample_quadrature(v, 0.0, 10**5, 5)
    window = np.abs(rec.samples) < 0.005
    # the pdf vanishes at x = 0, so a width-0.01 window is essentially empty
    assert np.count_nonzero(window) <= 3


def test_antisqueezed_sample_variance():
    v = build_svs_family(SqueezeParams(0.5), 0)
    rec = sample_quadrature(v, math.pi / 2, 10**6, 31337)
    assert np.var(rec.samples) == pytest.approx(math.e / 2, rel=0.01)


@pytest.mark.parametrize("spec", [ecs_spec(tail_tol=5e-324), ocs_spec(3.0, tail_tol=1e-300)])
@pytest.mark.filterwarnings("error")
def test_sampling_drops_cdf_steps_too_small_for_pchip(spec):
    # the wide grid of a tiny tail tolerance has CDF steps near 1e-250, which
    # overflowed PCHIP's slopes into a ValueError
    rec = sample_quadrature(build_state(spec), 0.0, 1000, 1)
    assert np.all(np.isfinite(rec.samples))


def test_inverse_cdf_holds_one_hermite_table_at_a_time():
    # a HermiteTables holder would build the grid's four tables at once
    v = build_state(svs_spec(r=0.6, m=2))
    _, peak = traced_peak(homodyne._inverse_cdf, v, 0.0)
    assert peak < 2 * (v.cutoff + 1) * (SAMPLING_GRID_POINTS - 1) * 8


# ---------------------------------------------------------------------------
# the NumPy PCHIP port against scipy's PchipInterpolator
# ---------------------------------------------------------------------------

def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def assert_pchip_matches_scipy(x, y, u):
    """Coefficients equal with ``==`` and values at the ascending ``u`` equal bit for bit."""
    port, ref = homodyne._Pchip(x, y), PchipInterpolator(x, y)
    assert np.array_equal(port.c, ref.c)
    assert np.array_equal(bits(port(u)), bits(ref(u)))


@pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2])
@pytest.mark.parametrize("spec", [svs_spec(m=m) for m in (-2, 0, 1, 2, 3)]
                         + [ecs_spec(m=m) for m in (0, 1, 2)])
def test_pchip_port_is_scipy_bit_for_bit_on_sampling_inverses(spec, theta):
    v = build_state(spec)
    grid = auto_grid(v, n_points=SAMPLING_GRID_POINTS)
    sl = pdf_slice(v, theta, grid)
    keep = np.concatenate([[True], np.diff(sl.cdf) > 1e-100])
    cdf = sl.cdf[keep]
    inverse, lo, hi = homodyne._inverse_cdf(v, theta)
    assert np.array_equal(inverse.x, cdf) and (lo, hi) == (cdf[0], cdf[-1])
    uniforms = np.random.default_rng(2718).random(10**5) * (hi - lo) + lo
    beyond = [np.nextafter(cdf[0], -np.inf), np.nextafter(cdf[-1], np.inf)]
    u = np.sort(np.concatenate([cdf, beyond, uniforms]))
    assert_pchip_matches_scipy(cdf, grid.points()[keep], u)


@pytest.mark.parametrize("x,y", [
    ([0.0, 1.0], [2.0, -3.0]),            # two nodes: linear
    ([0.0, 1.0, 2.0], [0.0, 1.0, 6.0]),   # end slope of the wrong sign: zeroed
    ([0.0, 1.0, 2.0], [0.0, 1.0, -4.0]),  # end slope over 3*m0 at a turn: capped
    ([0.0, 1.0, 3.0, 3.5], [-1.0, -1.0, 2.0, 2.0]),  # flat runs
    # y = -0.0 at x = 1 with c0, c1, c2 < 0: only scipy's 0.0 + c3 makes the value +0.0
    ([0.0, 1.0, 2.0, 3.0], [1 / 3, -0.0, -1.0, -8.0]),
])
def test_pchip_port_end_cases_match_scipy(x, y):
    x = np.array(x)
    u = np.concatenate([[x[0] - 1.0], np.linspace(x[0], x[-1], 41), x, [x[-1] + 1.0]])
    assert_pchip_matches_scipy(x, np.array(y), np.sort(u))


@given(st.lists(st.tuples(st.floats(1e-6, 10.0), st.floats(0.0, 10.0)), min_size=1, max_size=40),
       st.floats(-5.0, 5.0), st.lists(st.floats(-1.0, 2.0), max_size=60))
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # tiny slopes, both sides
def test_pchip_port_matches_scipy_on_monotone_data(steps, x0, fractions):
    dx, dy = np.array([(0.0, 0.0)] + steps).T
    x, y = x0 + np.cumsum(dx), np.cumsum(dy)
    if np.any(np.diff(x) <= 0):  # a step lost to rounding
        return
    u = x[0] + np.array(fractions) * (x[-1] - x[0])  # nodes, inside and beyond both ends
    assert_pchip_matches_scipy(x, y, np.sort(np.concatenate([u, x])))


@pytest.mark.parametrize("x,y", [([0.5], [1.0]), ([0.0, np.nan, 1.0], [0.0, 1.0, 2.0]),
                                 ([0.0, 1.0], [0.0, np.inf]), ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0]),
                                 ([1.0, 0.0], [0.0, 1.0]),
                                 ([0.0, 5e-324, 1.0], [0.0, 1.0, 2.0])])  # slopes overflow
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_pchip_port_rejects_bad_nodes_with_numerical_error(x, y):
    with pytest.raises(NumericalError):
        homodyne._Pchip(np.array(x), np.array(y))


def unsorted_samples(v, theta, shots, seed):
    """Reference copy of inverse-CDF sampling that evaluates the uniforms in shot order."""
    grid = auto_grid(v, n_points=SAMPLING_GRID_POINTS)
    sl = pdf_slice(v, theta, grid)
    keep = np.concatenate([[True], np.diff(sl.cdf) > 0])
    inverse = PchipInterpolator(sl.cdf[keep], grid.points()[keep])
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed,))))
    lo, hi = sl.cdf[keep][0], sl.cdf[keep][-1]
    return inverse(rng.random(shots) * (hi - lo) + lo)


@pytest.mark.parametrize("shots", [1000, 100_000])
@pytest.mark.parametrize("spec,theta", [(svs_spec(m=1), math.pi / 7),
                                        (svs_spec(m=-2, phi=1.1), 0.3)])
def test_sorted_evaluation_keeps_record_bytes(spec, theta, shots):
    v = build_state(spec)
    rec = sample_quadrature(v, theta, shots, 8128)
    assert np.array_equal(rec.samples, unsorted_samples(v, theta, shots, 8128))


def shot_order_crossover(pairs, theta, bracket, shots, seed, scan_points, param_tol=1e-4):
    """Reference copy of the crossover search that samples every record in shot order."""
    counter = 0

    def h(p):
        nonlocal counter
        values = []
        for i, pair in enumerate(pairs):
            rec = [unsorted_samples(build_state(spec), theta, shots,
                                    _child_seed(seed, counter, i, j))
                   for j, spec in enumerate(pair(p))]
            values.append(w1_empirical(*rec))
        counter += 1
        return values[0] - values[1]

    ps = np.linspace(*bracket, scan_points)
    hs = np.array([h(p) for p in ps])
    changes = np.nonzero(np.diff(np.sign(hs)) != 0)[0]
    assert len(changes) > 0
    a, b = float(ps[changes[0]]), float(ps[changes[0] + 1])
    ha = float(hs[changes[0]])
    while b - a > param_tol:
        mid = 0.5 * (a + b)
        hmid = h(mid)
        if hmid == 0.0:
            break
        if (hmid > 0) == (ha > 0):
            a, ha = mid, hmid
        else:
            b = mid
    return CrossoverResult(True, mid, bracket, abs(hmid), scan_points, len(changes), False)


def test_empirical_crossover_matches_shot_order_sampling():
    pairs = (state_pair(svs_spec(), svs_spec(m=1)), state_pair(svs_spec(), svs_spec(m=2)))
    new = empirical_crossover(pairs, 0.0, (0.30, 0.60), 10**4, 2024, scan_points=12)
    assert new.found
    assert new == shot_order_crossover(pairs, 0.0, (0.30, 0.60), 10**4, 2024, 12)


@needs_fork
def test_empirical_crossover_in_a_daemonic_process_evaluates_the_serial_points_in_it():
    calls = []

    def recorded(pair):
        def builder(p):
            calls.append((os.getpid(), p))
            return pair(p)

        return builder

    pairs = (recorded(state_pair(svs_spec(), svs_spec(m=1))),
             state_pair(svs_spec(), svs_spec(m=2)))
    reference = shot_order_crossover(pairs, 0.0, (0.30, 0.60), 10**4, 2024, 12)
    visited = [p for _, p in calls]
    calls.clear()

    def search():
        result = empirical_crossover(pairs, 0.0, (0.30, 0.60), 10**4, 2024, scan_points=12)
        return result, calls, os.getpid()

    result, calls_made, pid = run_in_daemon(search)
    assert result == reference
    assert calls_made == [(pid, p) for p in visited]


@needs_fork
def test_forked_empirical_crossover_builds_each_pair_once_per_serial_evaluation(tmp_path):
    log = tmp_path / "built"

    def logged(i, pair):
        def builder(p):
            with open(log, "a", encoding="utf-8") as fh:  # appended from whichever process
                fh.write(f"{i} {float(p)!r}\n")
            return pair(p)

        return builder

    pairs = tuple(logged(i, state_pair(svs_spec(), svs_spec(m=m))) for i, m in enumerate((1, 2)))
    reference = shot_order_crossover(pairs, 0.0, (0.30, 0.60), 10**4, 2024, 12)
    serial = Counter(log.read_text().splitlines())
    log.unlink()
    assert empirical_crossover(pairs, 0.0, (0.30, 0.60), 10**4, 2024, scan_points=12) == reference
    assert Counter(log.read_text().splitlines()) == serial


def test_shots_validation(monkeypatch):
    def no_uniforms(*args):
        raise AssertionError("uniforms drawn for an invalid shot count")

    monkeypatch.setattr(homodyne, "_uniforms", no_uniforms)
    pairs = (state_pair(svs_spec(), svs_spec(m=1)), state_pair(svs_spec(), svs_spec(m=2)))
    for shots in (0, MAX_SHOTS + 1):
        with pytest.raises(ValidationError):
            sample_quadrature(vacuum(), 0.0, shots, 1)
    for shots in (1, MAX_SHOTS + 1):
        with pytest.raises(ValidationError):
            empirical_crossover(pairs, 0.0, (0.30, 0.60), shots, 1)


# ---------------------------------------------------------------------------
# histogram tomograms
# ---------------------------------------------------------------------------

def test_histogram_rows_sum_to_shots_and_vacuum_uniformity():
    ht = histogram_tomogram(vacuum(), 16, 64, 10**5, 99)
    assert ht.counts.shape == (16, 64)
    assert np.all(ht.counts.sum(axis=1) == 10**5)
    # all rows drawn from the same distribution: chi-square must not reject
    occupied = ht.counts[:, ht.counts.sum(axis=0) > 0]
    assert chi2_contingency(occupied).pvalue > 1e-3


def test_histogram_bright_center_for_squeezed(default_r):
    v = build_svs_family(SqueezeParams(default_r), 0)
    ht = histogram_tomogram(v, 8, 64, 10**5, 4)
    center = ht.counts[:, 31] + ht.counts[:, 32]
    # central band is brightest along theta = 0 and pi (statistically equal)
    assert min(center[0], center[4]) > 2 * max(np.delete(center, [0, 4]))


def test_histogram_dark_bands_for_two_added(default_r):
    v = build_svs_family(SqueezeParams(default_r), 2)
    ht = histogram_tomogram(v, 8, 128, 10**5, 11)
    row = ht.counts[0].astype(float)
    centers = 0.5 * (ht.bin_edges[:-1] + ht.bin_edges[1:])
    # exact zero locations of the amplitude at theta=0 flank the bright center
    from tomosense.tomography import quadrature_amplitude

    xs = np.linspace(-3, 3, 2001)
    amp = quadrature_amplitude(v, 0.0, xs).real
    sign_flip_xs = xs[:-1][np.diff(np.sign(amp)) != 0]
    assert len(sign_flip_xs) == 2
    for x0 in sign_flip_xs:
        dark_bin = int(np.argmin(np.abs(centers - x0)))
        neighborhood = row[dark_bin - 4 : dark_bin + 5]
        assert row[dark_bin] < 0.35 * neighborhood.max()
    mid = len(row) // 2
    assert row[mid - 1 : mid + 1].max() > row.max() * 0.5


def test_histogram_bins_validation():
    with pytest.raises(ValidationError):
        histogram_tomogram(vacuum(), 4, 16, 100, 1)


@pytest.mark.parametrize("theta_count,bins", [(10**12, 64), (16, 10**12),
                                              (MAX_THETA_COUNT + 1, 64), (16, MAX_GRID_POINTS + 1)])
def test_histogram_theta_count_and_bins_have_upper_bounds(theta_count, bins):
    with pytest.raises(ValidationError):
        histogram_tomogram(vacuum(), theta_count, bins, 10, 1)


def test_histogram_consistency_with_exact_pdf():
    """Normalized rows converge to the slice PDF on well-populated bins.

    The expected density in a bin is the bin average of the PDF (CDF
    difference over the width), which removes the curvature bias that a
    midpoint comparison would carry at this bin count.
    """
    v = build_svs_family(SqueezeParams(0.5), 0)
    shots = 10**5
    ht = histogram_tomogram(v, 4, 64, shots, 77)
    grid = auto_grid(v)
    sl = pdf_slice(v, 0.0, grid)
    width = ht.bin_edges[1] - ht.bin_edges[0]
    cdf_at_edges = np.interp(ht.bin_edges, grid.points(), sl.cdf)
    expected = np.diff(cdf_at_edges) / width
    density = ht.counts[0] / (shots * width)
    mask = expected > 0.01
    bound = 5.0 / np.sqrt(shots * width * expected[mask])
    assert np.all(np.abs(density[mask] - expected[mask])
                  <= bound * expected[mask] + 1e-12)


# ---------------------------------------------------------------------------
# empirical distance and crossover
# ---------------------------------------------------------------------------

def test_empirical_w1_converges_to_grid_value():
    va, vb = vacuum(), build_svs_family(SqueezeParams(0.5), 0)
    grid = auto_grid(va).union(auto_grid(vb))
    exact = w1_cdf(pdf_slice(va, 0.0, grid), pdf_slice(vb, 0.0, grid))
    assert exact == pytest.approx(VAC_SVS_05, abs=1e-7)
    got = w1_empirical(sample_quadrature(va, 0.0, 10**5, 1).samples,
                       sample_quadrature(vb, 0.0, 10**5, 2).samples)
    assert got == pytest.approx(exact, abs=2e-2)


def test_empirical_crossover_deterministic_and_low_confidence_marker():
    pairs = (state_pair(svs_spec(), svs_spec(m=1)), state_pair(svs_spec(), svs_spec(m=2)))
    res1 = empirical_crossover(pairs, 0.0, (0.30, 0.60), 10**4, 2024, scan_points=12)
    res2 = empirical_crossover(pairs, 0.0, (0.30, 0.60), 10**4, 2024, scan_points=12)
    assert res1 == res2
    assert not res1.low_confidence  # 3/sqrt(1e4) = 0.03 == bracket/10
    with pytest.warns(MultipleRootsWarning):  # 4 sign changes at 100 shots
        low = empirical_crossover(pairs, 0.0, (0.30, 0.60), 100, 7, scan_points=8)
    assert low.low_confidence


def test_empirical_crossover_near_exact_location():
    pairs = (state_pair(svs_spec(), svs_spec(m=1)), state_pair(svs_spec(), svs_spec(m=2)))
    res = empirical_crossover(pairs, 0.0, (0.30, 0.60), 10**4, 31415, scan_points=12)
    assert res.found
    assert res.location == pytest.approx(0.4407, abs=0.1)


# ---------------------------------------------------------------------------
# angle bound at the library boundary
# ---------------------------------------------------------------------------

def _crossover_values(theta, shots):
    pairs = (state_pair(svs_spec(), svs_spec(m=1)), state_pair(svs_spec(), svs_spec(m=2)))
    res = empirical_crossover(pairs, theta, (0.30, 0.60), shots, 1, scan_points=2)
    return [res.residual] + ([res.location] if res.found else [])


# each call returns the floats it computed
ANGLE_CALLS = {
    "quadrature_variance": lambda v, theta, shots: [quadrature_variance(v, theta)],
    "pdf_slice": lambda v, theta, shots: pdf_slice(v, theta, auto_grid(v, n_points=64)).cdf,
    "w1_states": lambda v, theta, shots: [
        w1_states(svs_spec(0.3), svs_spec(0.3, m=1), theta, n_points=64)],
    "sample_quadrature": lambda v, theta, shots: sample_quadrature(v, theta, shots, 1).samples,
    "empirical_crossover": lambda v, theta, shots: _crossover_values(theta, shots),
}


@given(call=st.sampled_from(sorted(ANGLE_CALLS)),
       theta=st.sampled_from(EDGE_DOUBLES + (1e308, -1e308, 2.0**53 + 2, -(2.0**53 + 2))),
       shots=st.integers(2, 1000))
@settings(max_examples=60, deadline=None)
def test_library_angles_end_finite_or_in_a_tomosense_error(call, theta, shots):
    v = build_state(svs_spec(0.3))
    try:
        values = ANGLE_CALLS[call](v, theta, shots)
    except TomosenseError:
        assert not abs(theta) <= 2.0**53
        return
    assert np.all(np.isfinite(values))


# ---------------------------------------------------------------------------
# record exports
# ---------------------------------------------------------------------------

def test_record_csv_format():
    rec = MeasurementRecord(0.5, np.array([1.0, -2.25]), 3)
    assert record_csv(rec) == b"theta,x\n0.5,1\n0.5,-2.25\n"


def per_line_record_csv(record):
    """Reference copy of the one-f-string-per-shot CSV formatter."""
    ts = f"{record.theta:.17g}"
    lines = ["theta,x"]
    lines.extend(f"{ts},{x:.17g}" for x in record.samples)
    return "\n".join(lines) + "\n"


@given(doubles, st.lists(doubles, max_size=200))
@example(0.5, list(EDGE_DOUBLES))
@example(-0.0, [])
@settings(max_examples=100, deadline=None)
def test_record_csv_matches_per_line_formatting(theta, samples):
    rec = MeasurementRecord(theta, np.array(samples, dtype=float), 3)
    assert record_csv(rec) == per_line_record_csv(rec).encode()


@pytest.mark.parametrize("shots", [2048, 2049])  # two whole blocks; two and one shot
def test_record_csv_blocks_match_per_line_formatting(shots):
    rec = sample_quadrature(vacuum(), 0.75, shots, 11)
    assert record_csv(rec) == per_line_record_csv(rec).encode()


def test_record_csv_is_built_once():
    # the text is built a block at a time into one buffer, not held as a
    # template, a tuple of floats, a str and its encoded copy at once
    rec = sample_quadrature(vacuum(), math.pi / 4, 200_000, 5)
    text, peak = traced_peak(record_csv, rec)
    assert type(text) is bytes
    assert text == per_line_record_csv(rec).encode()
    assert peak <= 1.5 * len(text)


def test_record_csv_of_header_only_blob():
    rec = record_from_bytes(record_bytes(MeasurementRecord(0.25, np.empty(0), 7)))
    assert rec.shots == 0
    assert record_csv(rec) == per_line_record_csv(rec).encode() == b"theta,x\n"


def test_record_binary_roundtrip():
    rec = sample_quadrature(vacuum(), 1.25, 1000, 42)
    blob = record_bytes(rec)
    assert len(blob) == 32 + 8 * 1000
    back = record_from_bytes(blob)
    assert back.theta == rec.theta and back.seed == rec.seed and back.shots == rec.shots
    assert np.array_equal(back.samples, rec.samples)


def test_record_from_bytes_rejects_short_and_foreign_blobs():
    blob = record_bytes(sample_quadrature(vacuum(), 0.0, 4, 2**64 - 1))
    assert record_from_bytes(blob).seed == 2**64 - 1
    for bad in (b"", b"abc", blob[:31], b"X" + blob[1:], blob[:-8]):
        with pytest.raises(ValidationError):
            record_from_bytes(bad)


def test_record_from_bytes_rejects_bad_angle_and_non_finite_samples():
    for theta, samples in [(math.nan, [1.0, math.inf]), (math.nan, [1.0, 2.0]),
                           (2.0**53 + 2, [1.0, 2.0]), (0.5, [1.0, math.inf]),
                           (0.5, [math.nan, 0.0]), (0.5, [-math.inf])]:
        blob = struct.pack(f"<8sdQQ{len(samples)}d", b"TOMOSMPL", theta, len(samples), 3,
                           *samples)
        with pytest.raises(ValidationError):
            record_from_bytes(blob)


@given(doubles, st.lists(doubles, max_size=50), st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_record_bytes_round_trip_or_validation_error(theta, samples, seed):
    rec = MeasurementRecord(theta, np.array(samples, dtype=float), seed)
    blob = record_bytes(rec)
    if not (abs(theta) <= 2.0**53 and np.all(np.isfinite(rec.samples))):
        with pytest.raises(ValidationError):
            record_from_bytes(blob)
        return
    back = record_from_bytes(blob)
    assert record_bytes(back) == blob
    assert (back.theta, back.seed, back.shots) == (rec.theta, rec.seed, rec.shots)
    assert np.array_equal(back.samples, rec.samples)


def test_seed_outside_uint64_rejected():
    for seed in (-1, 2**64):
        with pytest.raises(ValidationError):
            sample_quadrature(vacuum(), 0.0, 4, seed)
        with pytest.raises(ValidationError):
            MeasurementRecord(0.0, np.zeros(2), seed)
