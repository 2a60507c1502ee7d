import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.stats import chi2_contingency

from tomosense.errors import MultipleRootsWarning, ValidationError
from tomosense import homodyne
from tomosense.homodyne import (
    SAMPLING_GRID_POINTS,
    MeasurementRecord,
    MAX_SHOTS,
    _child_seed,
    empirical_crossover,
    histogram_tomogram,
    record_bytes,
    record_csv,
    record_from_bytes,
    sample_quadrature,
    state_pair,
)
from tomosense.states import SqueezeParams, build_state, build_svs_family
from tomosense.transport import CrossoverResult
from tomosense.tomography import auto_grid, pdf_slice
from tomosense.transport import w1_cdf, w1_empirical

from conftest import EDGE_DOUBLES, doubles, svs_spec

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


@pytest.mark.parametrize("param_tol", [-1.0, math.nan])
def test_empirical_crossover_rejects_bad_param_tol(param_tol):
    pairs = (state_pair(svs_spec(), svs_spec(m=1)), state_pair(svs_spec(), svs_spec(m=2)))
    with pytest.raises(ValidationError):
        empirical_crossover(pairs, 0.0, (0.30, 0.60), 2000, 1, scan_points=4,
                            param_tol=param_tol)


def test_empirical_crossover_near_exact_location():
    pairs = (state_pair(svs_spec(), svs_spec(m=1)), state_pair(svs_spec(), svs_spec(m=2)))
    res = empirical_crossover(pairs, 0.0, (0.30, 0.60), 10**4, 31415, scan_points=12)
    assert res.found
    assert res.location == pytest.approx(0.4407, abs=0.1)


# ---------------------------------------------------------------------------
# record exports
# ---------------------------------------------------------------------------

def test_record_csv_format():
    rec = MeasurementRecord(0.5, np.array([1.0, -2.25]), 3, 2)
    assert record_csv(rec) == "theta,x\n0.5,1\n0.5,-2.25\n"


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
    rec = MeasurementRecord(theta, np.array(samples, dtype=float), 3, len(samples))
    assert record_csv(rec) == per_line_record_csv(rec)


def test_record_csv_of_header_only_blob():
    rec = record_from_bytes(record_bytes(MeasurementRecord(0.25, np.empty(0), 7, 0)))
    assert rec.shots == 0
    assert record_csv(rec) == per_line_record_csv(rec) == "theta,x\n"


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


def test_seed_outside_uint64_rejected():
    for seed in (-1, 2**64):
        with pytest.raises(ValidationError):
            sample_quadrature(vacuum(), 0.0, 4, seed)
        with pytest.raises(ValidationError):
            MeasurementRecord(0.0, np.zeros(2), seed, 2)
