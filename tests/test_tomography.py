import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_hermite, factorial

from tomosense import cli, tomography
from tomosense.cli import tomogram_csv, tomogram_pgm
from tomosense.errors import GridTooNarrow, ValidationError
from tomosense.states import CatParams, SqueezeParams, build_cat_family, build_svs_family
from tomosense.tomography import (
    HermiteTables,
    Tomogram,
    QuadratureGrid,
    auto_grid,
    count_interior_zeros,
    hermite_function,
    pdf_slice,
    pdf_slices,
    quadrature_amplitude,
    tomogram,
)

from conftest import EDGE_DOUBLES, doubles, traced_peak


def vacuum():
    return build_svs_family(SqueezeParams(0.0), 0)


# ---------------------------------------------------------------------------
# hermite functions
# ---------------------------------------------------------------------------

def test_hermite_values_at_origin():
    buf = hermite_function(4, 0.0)
    assert buf[0] == pytest.approx(math.pi ** -0.25, abs=1e-15)
    assert buf[1] == 0.0
    assert buf[2] == pytest.approx(-0.5311259660135984, abs=1e-12)


def test_hermite_recurrence_vs_direct_polynomial():
    xs = np.linspace(-4, 4, 81)
    psi = hermite_function(10, xs)
    for n in range(11):
        direct = (
            eval_hermite(n, xs) * np.exp(-0.5 * xs * xs)
            / math.sqrt(2.0**n * factorial(n) * math.sqrt(math.pi))
        )
        assert np.max(np.abs(psi[n] - direct)) < 1e-12


def test_hermite_bounded_and_finite_over_full_domain():
    xs = np.linspace(-50.0, 50.0, 501)
    psi = hermite_function(512, xs)
    assert np.all(np.isfinite(psi))
    assert np.max(np.abs(psi)) <= 1.0


@pytest.mark.parametrize("n_max", [-1, tomography.CUTOFF_CAP + 1, 2.0, "3", None])
def test_hermite_n_max_outside_its_domain_raises(n_max):
    with pytest.raises(ValidationError, match="n_max"):
        hermite_function(n_max, 0.0)


@pytest.mark.parametrize("x", [[1e200], [0.0, -50.5], [math.inf], [math.nan], 1e200, -math.inf])
def test_hermite_abscissa_outside_its_domain_raises(x):
    with pytest.raises(ValidationError, match="50"):
        hermite_function(3, x)


def test_hermite_domain_edges_still_evaluate():
    assert hermite_function(0, [-50.0, 50.0]).shape == (1, 2)
    assert hermite_function(tomography.CUTOFF_CAP, np.int64(0)).shape == (513,)
    assert hermite_function(np.int64(3), []).shape == (4, 0)


def test_quadrature_amplitude_at_infinity_raises():
    with pytest.raises(ValidationError):
        quadrature_amplitude(vacuum(), 0.0, [math.inf])


def test_hermite_rows_do_not_depend_on_n_max():
    xs = np.linspace(-9.0, 9.0, 301)
    full = hermite_function(60, xs)
    for k in (0, 1, 2, 17, 59):
        assert np.array_equal(full[:k + 1], hermite_function(k, xs))


# ---------------------------------------------------------------------------
# quadrature amplitudes
# ---------------------------------------------------------------------------

def test_vacuum_amplitude_is_gaussian_ground_state():
    for theta in (0.0, 1.0, 5.5):
        amp = quadrature_amplitude(vacuum(), theta, 0.0)
        assert abs(amp) == pytest.approx(math.pi ** -0.25, abs=1e-15)


def test_odd_state_amplitude_vanishes_at_origin(default_r):
    v1 = build_svs_family(SqueezeParams(default_r), 1)
    assert quadrature_amplitude(v1, 1.3, 0.0) == 0.0


def test_squeezed_amplitude_peak_value(default_r):
    v = build_svs_family(SqueezeParams(default_r), 0, 1e-20)
    got = abs(quadrature_amplitude(v, 0.0, 0.0)) ** 2
    assert got == pytest.approx(math.exp(default_r) / math.sqrt(math.pi), abs=1e-9)


# ---------------------------------------------------------------------------
# grids and slices
# ---------------------------------------------------------------------------

def test_grid_validation_and_mirror_symmetry():
    for x_max in (0.0, -2.0, math.nan, 60.0, math.inf):
        with pytest.raises(ValidationError):
            QuadratureGrid(x_max, 128)
    assert QuadratureGrid(50.0, 128).x_max == 50.0
    with pytest.raises(ValidationError):
        QuadratureGrid(8.0, 32)
    grid = QuadratureGrid(8.0, 256)
    xs = grid.points()
    assert np.array_equal(xs, -xs[::-1])
    assert xs[0] == -8.0 and xs[-1] == 8.0


def test_auto_grid_defaults_and_growth():
    g = auto_grid(vacuum())
    assert g.x_max == 8.0 and g.n_points == 2048
    g_svs = auto_grid(build_svs_family(SqueezeParams(0.8), 0))
    g_add = auto_grid(build_svs_family(SqueezeParams(0.8), 3))
    assert g_svs.x_max > 8.0
    assert g_add.x_max > g_svs.x_max


def test_auto_grid_guarantee_across_state_battery():
    """No slice of any supported state may lose more than ~1e-10 of mass."""
    states = [build_svs_family(SqueezeParams(r), m)
              for r in (0.5, 0.9) for m in (-3, -2, 0, 1, 2, 3)]
    states += [build_cat_family(kind, CatParams(a), m)
               for a in (1.8, 3.0) for kind, m in
               [("even", 0), ("even", 1), ("even", 2), ("odd", 0), ("coherent", 0)]]
    worst = 0.0
    for v in states:
        grid = auto_grid(v)
        for theta in (0.0, math.pi / 4, math.pi / 2):
            sl = pdf_slice(v, theta, grid)
            worst = max(worst, 1.0 - sl.cdf[-1])
    assert worst < 1e-10


def test_slice_invariants_vacuum():
    sl = pdf_slice(vacuum(), 0.3, auto_grid(vacuum()))
    xs = sl.grid.points()
    assert np.trapezoid(sl.pdf, xs) == pytest.approx(1.0, abs=1e-8)
    assert sl.cdf[0] < 1e-8
    assert 1 - 1e-8 <= sl.cdf[-1] <= 1.0
    assert np.all(np.diff(sl.cdf) >= 0)
    # theta-independent Gaussian, pdf(x) = exp(-x^2)/sqrt(pi)
    assert np.max(np.abs(sl.pdf - np.exp(-xs * xs) / math.sqrt(math.pi))) < 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.7, 2.0, math.pi / 2])
def test_squeezed_slice_matches_gaussian_oracle(theta, default_r):
    """Closed-form Gaussian with variance (e^{-2r}cos^2 + e^{2r}sin^2)/2.

    States are built with a tight series tail so the comparison probes the
    Hermite-sum path itself (truncation alone costs ~sqrt(tail_tol) in
    amplitude, which would dominate at the default tolerance).
    """
    v = build_svs_family(SqueezeParams(default_r), 0, 1e-20)
    grid = auto_grid(v)
    xs = grid.points()
    var = (math.exp(-2 * default_r) * math.cos(theta) ** 2
           + math.exp(2 * default_r) * math.sin(theta) ** 2) / 2.0
    oracle = np.exp(-xs * xs / (2 * var)) / math.sqrt(2 * math.pi * var)
    sl = pdf_slice(v, theta, grid)
    assert np.max(np.abs(sl.pdf - oracle)) < 1e-8


def test_parity_of_slices(default_r):
    even = pdf_slice(build_svs_family(SqueezeParams(default_r), 2), 0.4,
                     auto_grid(build_svs_family(SqueezeParams(default_r), 2)))
    assert np.array_equal(even.pdf, even.pdf[::-1])
    odd = build_svs_family(SqueezeParams(default_r), 1)
    assert abs(quadrature_amplitude(odd, 0.4, 0.0)) == 0.0


def _reference_slice(v, theta, grid):
    """pdf_slice written out state by state with the complex matrix product."""
    coeffs = v.amplitudes * np.exp(-1j * theta * np.arange(v.cutoff + 1))
    xs = grid.points()
    pdf = np.abs(coeffs @ hermite_function(v.cutoff, xs)) ** 2
    h = grid.spacing
    mids = 0.5 * (xs[:-1] + xs[1:])
    nodes = (-math.sqrt(0.6), 0.0, math.sqrt(0.6))
    weights = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)
    increments = np.zeros(len(mids))
    for node, weight in zip(nodes, weights):
        increments += weight * np.abs(coeffs @ hermite_function(v.cutoff, mids + 0.5 * h * node)) ** 2
    cdf = np.concatenate([[0.0], np.cumsum(increments * h)])
    return pdf, np.minimum(cdf, 1.0)


SHARED_TABLE_PAIRS = [
    (lambda: build_svs_family(SqueezeParams(0.7), 0),
     lambda: build_svs_family(SqueezeParams(0.7, 1.1), 3)),
    (lambda: build_cat_family("even", CatParams(complex(1.2, 0.7)), 1),
     lambda: build_svs_family(SqueezeParams(0.6, 1.1), -2)),
]


@pytest.mark.parametrize("theta", [0.0, math.pi / 7])
@pytest.mark.parametrize("pair", SHARED_TABLE_PAIRS)
def test_shared_table_slices_equal_single_state_slices(pair, theta):
    va, vb = pair[0](), pair[1]()
    assert va.cutoff != vb.cutoff
    grid = auto_grid(va).union(auto_grid(vb))
    for v, shared in zip((va, vb), pdf_slices([va, vb], [theta], grid)[0]):
        alone = pdf_slice(v, theta, grid)
        assert np.array_equal(shared.pdf, alone.pdf)
        assert np.array_equal(shared.cdf, alone.cdf)
        pdf, cdf = _reference_slice(v, theta, grid)
        np.testing.assert_allclose(shared.pdf, pdf, rtol=1e-13, atol=1e-300)
        np.testing.assert_allclose(shared.cdf, cdf, rtol=1e-13, atol=1e-300)


@pytest.mark.parametrize("pair", SHARED_TABLE_PAIRS)
def test_multi_angle_slices_equal_one_angle_slices(pair):
    va, vb = pair[0](), pair[1]()
    grid = auto_grid(va).union(auto_grid(vb))
    thetas = [0.0, math.pi / 7, math.pi / 2]
    per_theta = pdf_slices([va, vb], thetas, grid)
    assert len(per_theta) == len(thetas)
    for theta, shared in zip(thetas, per_theta):
        for v, sl in zip((va, vb), shared, strict=True):
            alone = pdf_slice(v, theta, grid)
            assert sl.theta == theta
            assert np.array_equal(sl.pdf, alone.pdf)
            assert np.array_equal(sl.cdf, alone.cdf)


def test_held_tables_equal_fresh_tables():
    small = build_svs_family(SqueezeParams(0.5), 0)
    large = build_svs_family(SqueezeParams(0.5, 1.1), 3)
    other = build_cat_family("even", CatParams(complex(1.2, 0.7)), 1)
    grid = auto_grid(large)
    tables = HermiteTables()
    # a new grid, more rows on the same grid, a row prefix, then another grid
    for vectors, g in [([small], grid), ([small, large], grid), ([small], grid),
                       ([other], auto_grid(other))]:
        for theta in (0.0, math.pi / 7):
            held = pdf_slices(vectors, [theta], g, tables)[0]
            for v, sl in zip(vectors, held, strict=True):
                alone = pdf_slice(v, theta, g)
                assert np.array_equal(sl.pdf, alone.pdf)
                assert np.array_equal(sl.cdf, alone.cdf)


def per_set_tables(grid, n_max):
    """Test-side copy of the per-set tables: one recurrence per tabulated set,
    the non-negative grid points, node set 1 and the non-negative midpoints."""
    xs = grid.points()
    mids = 0.5 * (xs[:-1] + xs[1:])
    node_set_1 = mids + 0.5 * grid.spacing * -math.sqrt(3.0 / 5.0)
    return [hermite_function(n_max, x) for x in [xs[xs >= 0], node_set_1, mids[mids >= 0]]]


@pytest.mark.parametrize("n_points", [64, 65, 2048, 2049])
def test_held_four_set_tables_equal_per_set_tables(n_points, monkeypatch):
    calls = []

    def counted(n_max, x):
        calls.append(n_max)
        return hermite_function(n_max, x)

    monkeypatch.setattr(tomography, "hermite_function", counted)
    tables = HermiteTables()
    narrow, wide = QuadratureGrid(8.0, n_points), QuadratureGrid(11.5, n_points)
    # a first grid, a grid change, a row prefix, row increases by many and by one
    for grid, n_max, builds in [(narrow, 5, 1), (wide, 5, 1), (wide, 3, 0), (wide, 40, 1),
                                (wide, 41, 1), (wide, 41, 0)]:
        before = len(calls)
        blocks = tables.get(grid, n_max)
        assert len(calls) - before == builds
        for block, ref in zip(blocks, per_set_tables(grid, n_max), strict=True):
            assert block.shape[1] == ref.shape[1]
            assert np.array_equal(block[:n_max + 1], ref)


@pytest.mark.parametrize("n_points", [64, 65, 2048, 2049])
def test_hermite_parity_is_exact(n_points):
    # psi_n(-x) == (-1)^n psi_n(x) for every row up to the cap, at x = 0 too
    # (odd n_points); where the Gaussian factor underflows to 0 the two may
    # differ in the sign of a zero only
    xs = QuadratureGrid(50.0, n_points).points()
    assert (0.0 in xs) == (n_points % 2 == 1)
    psi = hermite_function(tomography.CUTOFF_CAP, xs)
    want = psi * (-1.0) ** np.arange(tomography.CUTOFF_CAP + 1)[:, None]
    got = hermite_function(tomography.CUTOFF_CAP, -xs)
    assert np.array_equal(got, want)
    nonzero = want != 0.0
    assert np.array_equal(got[nonzero].view(np.int64), want[nonzero].view(np.int64))


def four_table_slice(v, theta, grid):
    """pdf_slice written out with a full Hermite table for each of the four
    abscissa sets, each density from real matrix products as the slices take
    them, and the increments added up set by set."""
    coeffs = v.amplitudes * np.exp(-1j * theta * np.arange(v.cutoff + 1)) if theta else v.amplitudes

    def density(x):
        rows = hermite_function(v.cutoff, x)
        re = coeffs.real @ rows
        if coeffs.imag.any():
            return np.abs(re + 1j * (coeffs.imag @ rows)) ** 2
        return np.abs(re) ** 2

    xs = grid.points()
    h = grid.spacing
    mids = 0.5 * (xs[:-1] + xs[1:])
    nodes = (-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0))
    weights = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)
    increments = np.zeros(len(mids))
    for node, weight in zip(nodes, weights):
        increments += weight * density(mids + 0.5 * h * node)
    cdf = np.concatenate([[0.0], np.cumsum(increments * h)])
    return density(xs), np.minimum(cdf, 1.0)


def assert_equal_but_far_tail(got, want):
    """Bit-equal where ``want`` exceeds 1e-25, within 16 ulp below that."""
    assert got.shape == want.shape and np.all(want >= 0) and np.all(got >= 0)
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))
    assert np.all(ulps[want > 1e-25] == 0)
    assert np.all(ulps <= 16)


@pytest.mark.parametrize("n_points", [2048, 2049])
@pytest.mark.parametrize("theta", [0.0, math.pi / 7, math.pi / 2])
@pytest.mark.parametrize("build", [
    lambda: build_svs_family(SqueezeParams(0.7), -2),
    lambda: build_svs_family(SqueezeParams(0.7, 1.1), 3),
    lambda: build_cat_family("even", CatParams(1.8), 2),
    lambda: build_cat_family("odd", CatParams(complex(1.2, 0.7)), 0),
])
def test_slices_equal_the_four_full_table_route(build, theta, n_points):
    v = build()
    grid = auto_grid(v, n_points=n_points)
    sl = pdf_slice(v, theta, grid)
    pdf, cdf = four_table_slice(v, theta, grid)
    assert_equal_but_far_tail(sl.pdf, pdf)
    assert_equal_but_far_tail(sl.cdf, cdf)
    assert_equal_but_far_tail(tomography._slice_cdf(v, theta, grid), cdf)


def counted_density_products(monkeypatch):
    products = []

    def counted(coeffs, psi):
        products.extend(coeffs)
        return densities(coeffs, psi)

    densities = tomography._densities
    monkeypatch.setattr(tomography, "_densities", counted)
    return products


@pytest.mark.parametrize("theta", [0.0, math.pi / 4])
@pytest.mark.parametrize("build", [
    lambda: build_svs_family(SqueezeParams(0.6), -2),
    lambda: build_svs_family(SqueezeParams(0.7, 1.1), 3),
    lambda: build_cat_family("even", CatParams(1.8), 2),
    lambda: build_cat_family("odd", CatParams(complex(1.2, 0.7))),
])
def test_single_parity_mirrored_density_is_the_direct_one(build, theta, monkeypatch):
    # c_n (-1)^n is +-c up to the sign of zeros, and rounding is sign-symmetric,
    # so the density of the mirrored coefficients is the direct one bit for bit
    v = build()
    grid = auto_grid(v, n_points=2049)
    c = tomography._rotated_coefficients(v, theta)
    mirrored = c * (-1.0) ** np.arange(len(c))
    for psi in tomography.HermiteTables().get(grid, v.cutoff):
        assert np.array_equal(tomography._densities([mirrored], psi)[0],
                              tomography._densities([c], psi)[0])
    # and so a slice computes one density product per tabulated set, not two
    products = counted_density_products(monkeypatch)
    pdf_slice(v, theta, grid)
    assert len(products) == 3
    del products[:]
    tomography._slice_cdf(v, theta, grid)
    assert len(products) == 2


def test_mixed_parity_slices_still_compute_the_mirrored_density(monkeypatch):
    v = build_cat_family("coherent", CatParams(complex(1.2, 0.7)))
    grid = auto_grid(v, n_points=2049)
    products = counted_density_products(monkeypatch)
    pdf_slice(v, 0.3, grid)
    assert len(products) == 6
    del products[:]
    tomography._slice_cdf(v, 0.3, grid)
    assert len(products) == 4


def test_grid_too_narrow():
    v = build_svs_family(SqueezeParams(0.9), 0)
    with pytest.raises(GridTooNarrow):
        pdf_slice(v, math.pi / 2, QuadratureGrid(3.0, 256))


def test_ecs_fringes_at_p_quadrature():
    """Interference fringes of the even cat along theta = pi/2, peak at 0."""
    v = build_cat_family("even", CatParams(1.8))
    grid = auto_grid(v)
    sl = pdf_slice(v, math.pi / 2, grid)
    xs = grid.points()
    mid = len(xs) // 2
    # center is a local maximum (even count of points straddles x=0)
    center = max(sl.pdf[mid - 1], sl.pdf[mid])
    flank = sl.pdf[mid + 30]
    assert center > flank
    assert count_interior_zeros(v, math.pi / 2, grid) >= 4


# ---------------------------------------------------------------------------
# tomograms
# ---------------------------------------------------------------------------

def test_vacuum_tomogram_rotation_invariant():
    tg = tomogram(vacuum(), 16, auto_grid(vacuum()))
    assert np.max(np.abs(tg.values - tg.values[0])) < 1e-12


def test_tomogram_row_checks_and_symmetry(default_r):
    v = build_svs_family(SqueezeParams(default_r), 0)
    grid = auto_grid(v)
    tg = tomogram(v, 32, grid)
    xs = grid.points()
    norms = np.trapezoid(tg.values, xs, axis=1)
    assert np.max(np.abs(norms - 1)) < 1e-8
    half = 16
    assert np.max(np.abs(tg.values[half:] - tg.values[:half, ::-1])) < 1e-10
    # x-quadrature row peaks at the center for the squeezed vacuum
    row0 = tg.values[0]
    assert row0.argmax() in (len(xs) // 2 - 1, len(xs) // 2)


def test_tomogram_checks_hold_no_full_size_temporary():
    # the row norms and the symmetric row pairs are checked one row at a time
    v = build_svs_family(SqueezeParams(0.6), 2)
    tg, peak = traced_peak(tomogram, v, 128, auto_grid(v))
    assert tg.values.shape == (128, 2048)
    assert peak <= 2 * tg.values.nbytes


def test_tomogram_odd_theta_count_probe_path(default_r):
    v = build_svs_family(SqueezeParams(default_r), 1)
    tg = tomogram(v, 17, auto_grid(v))
    assert tg.values.shape == (17, 2048)


def written_out_tomogram_rows(v, thetas, grid):
    """Reference copy of the tomogram rows as one complex product per theta."""
    psi = hermite_function(v.cutoff, grid.points())
    n = np.arange(v.cutoff + 1)
    return np.array([np.abs((v.amplitudes * np.exp(-1j * t * n)) @ psi) ** 2 for t in thetas])


@pytest.mark.parametrize("theta_count", [32, 33])
@pytest.mark.parametrize("build", [
    lambda: build_svs_family(SqueezeParams(1.0 / math.sqrt(2.0)), 3),
    lambda: build_cat_family("even", CatParams(1.8), 2),
])
def test_tomogram_rows_equal_complex_product_rows(build, theta_count):
    v = build()
    tg = tomogram(v, theta_count, auto_grid(v))
    assert np.array_equal(tg.values, written_out_tomogram_rows(v, tg.theta_grid, tg.x_grid))


def test_complex_alpha_tomogram_rows_match_complex_product_rows():
    v = build_cat_family("coherent", CatParams(complex(1.2, 0.7)))
    tg = tomogram(v, 32, auto_grid(v))
    np.testing.assert_allclose(tg.values, written_out_tomogram_rows(v, tg.theta_grid, tg.x_grid),
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("n_points", [2048, 2049, 513])
@pytest.mark.parametrize("build", [
    lambda: build_svs_family(SqueezeParams(0.6), -2),
    lambda: build_cat_family("even", CatParams(1.8), 2),
    lambda: build_cat_family("coherent", CatParams(complex(1.2, 0.7))),
])
def test_tomogram_rows_equal_slice_pdfs(build, n_points):
    # one density route: the exported tomogram and the slice CSV agree bit for bit
    v = build()
    grid = auto_grid(v, n_points=n_points)
    tg = tomogram(v, 33, grid)
    for theta, row in zip(tg.theta_grid, tg.values, strict=True):
        assert np.array_equal(row, pdf_slice(v, theta, grid).pdf)


def test_tomogram_rejects_low_theta_count():
    with pytest.raises(ValidationError):
        tomogram(vacuum(), 8, auto_grid(vacuum()))


def test_added_state_center_dark_band(default_r):
    v1 = build_svs_family(SqueezeParams(default_r), 1)
    grid = auto_grid(v1)
    tg = tomogram(v1, 16, grid)
    mid = grid.n_points // 2
    assert tg.values[0, mid - 1 : mid + 1].max() < 1e-3 * tg.values[0].max()


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_fringe_zero_count_matches_added_photons(m, default_r):
    v = build_svs_family(SqueezeParams(default_r), m)
    assert count_interior_zeros(v, 0.0, auto_grid(v)) == m


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_tomogram_csv_roundtrip():
    tg = tomogram(vacuum(), 16, QuadratureGrid(8.0, 64))
    text = tomogram_csv(tg)
    lines = text.strip().splitlines()
    assert lines[0] == b"theta,x,w"
    assert len(lines) == 1 + 16 * 64
    theta, x, w = lines[1].split(b",")
    assert float(theta) == tg.theta_grid[0]
    assert float(x) == tg.x_grid.points()[0]
    assert float(w) == tg.values[0, 0]  # 17 significant digits round-trip


def per_line_tomogram_csv(tg):
    """Reference copy of the one-f-string-per-cell CSV formatter."""
    xs = tg.x_grid.points()
    lines = ["theta,x,w"]
    for theta, row in zip(tg.theta_grid, tg.values):
        ts = f"{theta:.17g}"
        lines.extend(f"{ts},{x:.17g},{w:.17g}" for x, w in zip(xs, row))
    return "\n".join(lines) + "\n"


@st.composite
def raw_tomograms(draw):
    rows, cols = draw(st.integers(1, 5)), 2 * draw(st.integers(32, 40)) + draw(st.integers(0, 1))
    x_max = draw(st.sampled_from([5e-324, 1e-300, 8.0, 50.0]) | st.floats(1e-3, 50.0))
    thetas = draw(st.lists(doubles, min_size=rows, max_size=rows))
    cells = draw(st.lists(doubles, min_size=rows * cols, max_size=rows * cols))
    cells[:len(EDGE_DOUBLES)] = EDGE_DOUBLES
    values = np.array(cells).reshape(rows, cols)
    # some rows are exact mirror images, as every row of a definite-parity
    # state is; one is a mirror image but for +0.0 at one end and -0.0 at the
    # other, equal in value and not in bits
    mirror = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    signed_zeros = draw(st.integers(0, rows - 1))
    for i in range(rows):
        if mirror[i] or i == signed_zeros:
            values[i, (cols + 1) // 2:] = values[i, :cols // 2][::-1]
    values[signed_zeros, [0, -1]] = 0.0, -0.0
    return Tomogram(np.array(thetas), QuadratureGrid(x_max, cols), values)


@given(raw_tomograms())
@settings(max_examples=50, deadline=None)
def test_tomogram_csv_matches_per_line_formatting(tg):
    assert tomogram_csv(tg) == per_line_tomogram_csv(tg).encode()


def test_tomogram_csv_odd_theta_count_matches_per_line_formatting():
    v = build_cat_family("even", CatParams(1.2 + 0.7j), 1)
    tg = tomogram(v, 33, auto_grid(v, n_points=96))
    assert tomogram_csv(tg) == per_line_tomogram_csv(tg).encode()


def test_tomogram_csv_is_built_once():
    # each row's text goes into one buffer as it is filled; the whole text is
    # never also held as a list of rows, a str and its encoded copy
    v = build_svs_family(SqueezeParams(0.5), 1)
    tg = tomogram(v, 64, auto_grid(v, n_points=4096))
    text, peak = traced_peak(tomogram_csv, tg)
    assert type(text) is bytes
    assert text == per_line_tomogram_csv(tg).encode()
    assert peak <= 1.5 * len(text)


def per_cell_csv(header, columns):
    """Reference copy of the one-f-string-per-cell CSV formatter (NaN -> empty)."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join("" if math.isnan(v) else f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


@given(st.integers(1, 40).flatmap(lambda n: st.lists(
    st.lists(doubles, min_size=n, max_size=n), min_size=1, max_size=4)))
@settings(max_examples=100, deadline=None)
def test_csv_template_matches_per_cell_formatting(columns):
    columns = [np.array(c) for c in columns]
    columns[0][:len(EDGE_DOUBLES)] = EDGE_DOUBLES[:len(columns[0])]
    assert cli._csv("a,b", columns) == per_cell_csv("a,b", columns).encode()
    # an integer index column prints as f"{n}" does, as the state CSV's did
    rows = per_cell_csv("a,b", columns).splitlines()[1:]
    want = "n,a,b\n" + "".join(f"{n},{row}\n" for n, row in enumerate(rows))
    assert cli._csv("n,a,b", [np.arange(len(rows))] + columns) == want.encode()


def test_tomogram_pgm_structure(default_r):
    v = build_svs_family(SqueezeParams(default_r), 0)
    tg = tomogram(v, 16, QuadratureGrid(12.0, 128))
    blob = tomogram_pgm(tg)
    assert blob.startswith(b"P5\n128 16\n255\n")
    pixels = np.frombuffer(blob[len(b"P5\n128 16\n255\n"):], dtype=np.uint8)
    assert pixels.size == 16 * 128
    assert pixels.max() == 255
