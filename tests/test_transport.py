import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm, wasserstein_distance

from tomosense.errors import (
    EmptySamples,
    GridMismatch,
    MultipleRootsWarning,
    TomosenseError,
    ValidationError,
)
from tomosense.states import CatParams, StateSpec, build_state, mean_photon_number
from tomosense.tomography import (
    DEFAULT_GRID_POINTS,
    DistributionSlice,
    QuadratureGrid,
    auto_grid,
    pdf_slice,
    pdf_slices,
)
from tomosense.transport import (
    CrossoverResult,
    _integrate_abs_difference,
    SweepTable,
    crossover_json,
    equal_mean_alpha,
    equal_mean_parameter,
    find_crossover,
    sweep_csv,
    sweep_w1,
    w1_cdf,
    w1_curve,
    w1_empirical,
    w1_states,
)

from conftest import doubles, ecs_spec, ocs_spec, svs_spec

VAC_SVS_05 = 0.22199130323553978  # (1 - e^{-1/2}) / sqrt(pi)


def gaussian_slice(sigma: float, grid: QuadratureGrid) -> DistributionSlice:
    xs = grid.points()
    return DistributionSlice(grid, 0.0, norm.pdf(xs, scale=sigma), norm.cdf(xs, scale=sigma))


# ---------------------------------------------------------------------------
# w1 on slices
# ---------------------------------------------------------------------------

def test_w1_of_identical_slices_is_zero():
    sl = pdf_slice(build_state(svs_spec(0.5)), 0.0, auto_grid(build_state(svs_spec(0.5))))
    assert w1_cdf(sl, sl) == 0.0


def test_w1_grid_mismatch():
    g1, g2 = QuadratureGrid(8, 2048), QuadratureGrid(9, 2048)
    with pytest.raises(GridMismatch):
        w1_cdf(gaussian_slice(1.0, g1), gaussian_slice(1.0, g2))


@pytest.mark.parametrize("sigmas", [(0.7071, 0.4289), (1.0, 0.5), (0.3, 1.7)])
def test_w1_gaussian_scale_identity(sigmas):
    """Analytic oracle: W1 of zero-mean Gaussians is |s1 - s2| sqrt(2/pi)."""
    grid = QuadratureGrid(14.0, 2048)
    got = w1_cdf(gaussian_slice(sigmas[0], grid), gaussian_slice(sigmas[1], grid))
    assert got == pytest.approx(abs(sigmas[0] - sigmas[1]) * math.sqrt(2 / math.pi), abs=1e-6)


def test_w1_vacuum_vs_squeezed_analytic_value():
    got = w1_states(svs_spec(0.0), svs_spec(0.5), 0.0)
    assert got == pytest.approx(VAC_SVS_05, abs=1e-6)


def test_w1_symmetric_and_plus_minus_one_equal():
    a, b = svs_spec(0.5, 1), svs_spec(0.5, 2)
    assert w1_states(a, b, 0.3) == w1_states(b, a, 0.3)
    assert w1_states(svs_spec(0.5), svs_spec(0.5, 1), 0.0) == \
        w1_states(svs_spec(0.5), svs_spec(0.5, -1), 0.0)


def test_w1_grid_doubling_stability():
    base = w1_states(svs_spec(0.6, 1), svs_spec(0.6, 2), 0.3, n_points=2048)
    fine = w1_states(svs_spec(0.6, 1), svs_spec(0.6, 2), 0.3, n_points=4096)
    assert abs(base - fine) < 1e-7


def test_metric_axioms_on_random_state_triples():
    rng = np.random.default_rng(7)
    for _ in range(5):
        specs = []
        for _ in range(3):
            if rng.random() < 0.5:
                specs.append(svs_spec(rng.uniform(0.2, 0.8), int(rng.integers(-3, 4))))
            else:
                specs.append(ecs_spec(rng.uniform(0.5, 2.5), int(rng.integers(0, 3))))
        theta = rng.uniform(0, 2 * math.pi)
        vecs = [build_state(s) for s in specs]
        grid = auto_grid(vecs[0])
        for v in vecs[1:]:
            grid = grid.union(auto_grid(v))
        sl = [pdf_slice(v, theta, grid) for v in vecs]
        d01, d10 = w1_cdf(sl[0], sl[1]), w1_cdf(sl[1], sl[0])
        d12, d02 = w1_cdf(sl[1], sl[2]), w1_cdf(sl[0], sl[2])
        assert d01 == d10
        assert w1_cdf(sl[0], sl[0]) == 0.0
        assert d02 <= d01 + d12 + 1e-9


def test_w1_ordering_at_matched_mean_photon():
    """At equal mean photon number, more added photons give a larger W1."""
    for target in (3.2, 4.0):
        values = []
        for m in (1, 2, 3):
            r_m = equal_mean_parameter(svs_spec(m=m), target)
            values.append(w1_states(svs_spec(r_m), svs_spec(r_m, m), 0.0))
        assert values[0] < values[1] < values[2]


def test_w1_svs_vs_ecs_at_equal_mean_photon_increases():
    values = []
    for r in (0.2, 0.4, 0.6, 0.8):
        alpha = equal_mean_alpha(r)
        values.append(w1_states(svs_spec(r), ecs_spec(alpha), 0.0))
    assert all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_shapes_and_decreasing_added_curves():
    table = sweep_w1(svs_spec(), [svs_spec(m=1), svs_spec(m=2), svs_spec(m=3)],
                     (0.3, 0.8, 11), 0.0)
    assert table.parameter_name == "r"
    assert [label for label, _ in table.columns] == \
        ["svs:svs_add1", "svs:svs_add2", "svs:svs_add3"]
    for _, col in table.columns:
        assert np.all(np.diff(col) < 0)


def test_sweep_missing_cells_and_csv():
    table = sweep_w1(svs_spec(), [svs_spec(m=-2)], (0.0, 0.4, 5), 0.0)
    col = table.columns[0][1]
    assert math.isnan(col[0]) and np.all(np.isfinite(col[1:]))
    lines = sweep_csv(table).strip().splitlines()
    assert lines[0] == "param,svs:svs_sub2"
    assert lines[1].endswith(",")  # r = 0 row has an empty cell
    value = float(lines[2].split(",")[1])
    assert value == col[1]


def test_multi_angle_sweep_equals_one_angle_sweeps():
    comparisons = [svs_spec(m=1), svs_spec(m=-2)]
    thetas = [0.0, math.pi / 50, math.pi / 2]
    tables = sweep_w1(svs_spec(), comparisons, (0.0, 0.4, 5), thetas)
    assert len(tables) == len(thetas)
    for theta, table in zip(thetas, tables):
        alone = sweep_w1(svs_spec(), comparisons, (0.0, 0.4, 5), theta)
        assert np.array_equal(table.parameter_values, alone.parameter_values)
        assert [label for label, _ in table.columns] == [label for label, _ in alone.columns]
        for (_, col), (_, ref) in zip(table.columns, alone.columns, strict=True):
            assert np.array_equal(col, ref, equal_nan=True)
        assert math.isnan(table.columns[1][1][0])  # no subtracted state at r = 0


def per_cell_integral(u, du, h):
    """Test-side copy of the per-cell cubic integral: one ``np.roots`` per split cell."""
    u0, u1, s0, s1 = u[:-1], u[1:], du[:-1], du[1:]
    d, c = u0, s0
    b = -3.0 * u0 - 2.0 * s0 + 3.0 * u1 - s1
    a = 2.0 * u0 + s0 - 2.0 * u1 + s1
    cell = a / 4.0 + b / 3.0 + c / 2.0 + d
    flip = u0 * u1 < 0.0
    total = float(np.sum(np.abs(np.where(flip, 0.0, cell))))
    for i in np.nonzero(flip)[0]:
        ai, bi, ci, di = a[i], b[i], c[i], d[i]
        if u0[i] < u1[i]:
            ai, bi, ci, di = -ai, -bi, -ci, -di
        linear = di / (di - (ai + bi + ci + di))
        roots = (np.roots([ai, bi, ci, di]) if ai != 0.0 or bi != 0.0
                 else np.array([-di / ci]))
        inside = [z.real for z in roots if abs(z.imag) < 1e-9 and 0.0 < z.real < 1.0]
        tau = min(inside, key=lambda t: abs(t - linear)) if inside else linear

        def antideriv(t):
            return ((ai * t / 4.0 + bi / 3.0) * t + ci / 2.0) * t * t + di * t

        left = antideriv(tau)
        total += abs(left) + abs(antideriv(1.0) - left)
    return total * h


def per_set_w1_pair(va, vb, thetas, n_points=DEFAULT_GRID_POINTS):
    """Test-side W1 pair without a holder: per-set tables, per-cell roots."""
    grid = auto_grid(va, n_points=n_points).union(auto_grid(vb, n_points=n_points))
    h = grid.spacing
    return [per_cell_integral(a.cdf - b.cdf, (a.pdf - b.pdf) * h, h)
            for a, b in pdf_slices([va, vb], thetas, grid)]


# (u0, u1, s0, s1) of cells off the stacked eigensolve (a == 0 with b != 0, then
# a == b == 0) and of a cubic cell whose only real root rounds to 1 (no root inside)
QUADRATIC_CELL, LINEAR_CELL = (1.0, -1.0, -3.0, -1.0), (1.0, -1.0, -2.0, -2.0)
EDGE_CELLS = [QUADRATIC_CELL, LINEAR_CELL, (1.0, -1e-18, -0.5, -2.0)]


@pytest.mark.parametrize("seed", range(6))
def test_stacked_eigensolve_equals_per_cell_roots(seed):
    rng = np.random.default_rng(seed)
    n = 400
    u = rng.standard_normal(n) * 10.0 ** rng.integers(-9, 1, n)
    du = rng.standard_normal(n) * 10.0 ** rng.integers(-9, 1, n)
    # splice in degenerate cells, falling and (negated) rising
    for k, (u0, u1, s0, s1) in enumerate(EDGE_CELLS * 2):
        i = 40 * (k + 1) + seed
        sign = -1.0 if k >= len(EDGE_CELLS) else 1.0
        u[i:i + 2], du[i:i + 2] = sign * np.array([u0, u1]), sign * np.array([s0, s1])
    h = 0.01
    assert np.count_nonzero(u[:-1] * u[1:] < 0.0) > 100
    a = 2.0 * u[:-1] + du[:-1] - 2.0 * u[1:] + du[1:]
    assert np.count_nonzero(a == 0.0) == 4
    got = _integrate_abs_difference(u, du, h)
    assert got == per_cell_integral(u, du, h)
    assert _integrate_abs_difference(-u, -du, h) == got


@pytest.mark.parametrize("cell", EDGE_CELLS)
def test_edge_cells_equal_per_cell_roots(cell):
    u0, u1, s0, s1 = cell
    for sign in (1.0, -1.0):
        u, du = sign * np.array([u0, u1]), sign * np.array([s0, s1])
        assert _integrate_abs_difference(u, du, 0.5) == per_cell_integral(u, du, 0.5)


@pytest.mark.parametrize("spec_a,spec_b,theta", [
    (svs_spec(0.6), svs_spec(0.6, 2), math.pi / 20),
    (svs_spec(0.45, 1), svs_spec(0.45, -3), 0.0),
    (StateSpec("cat-even", CatParams(complex(1.2, 0.7)), 1, 1e-12), ocs_spec(1.4), math.pi / 3),
])
def test_w1_states_equals_per_set_per_cell_pair(spec_a, spec_b, theta):
    va, vb = build_state(spec_a), build_state(spec_b)
    for n_points in (DEFAULT_GRID_POINTS, 257):
        assert (w1_states(spec_a, spec_b, theta, n_points=n_points)
                == per_set_w1_pair(va, vb, [theta], n_points)[0])


def test_sweep_w1_holder_equals_per_set_per_cell_pairs():
    comparisons = [svs_spec(m=1), svs_spec(m=-2), svs_spec(m=3)]
    thetas = [0.0, math.pi / 7]
    lo, hi, steps = 0.0, 0.7, 6
    tables = sweep_w1(svs_spec(), comparisons, (lo, hi, steps), thetas)
    for i, p in enumerate(np.linspace(lo, hi, steps)):
        ref = build_state(svs_spec(p))
        for j, spec in enumerate(comparisons):
            want = ([math.nan] * len(thetas) if p == 0.0 and spec.photon_delta < 0
                    else per_set_w1_pair(ref, build_state(spec.with_parameter(p)), thetas))
            got = [table.columns[j][1][i] for table in tables]
            assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("values", [[0.0, math.nan, 1.0], [0.0, math.inf], [0.5, 0.5],
                                    [1.0, 0.0]])
def test_sweep_table_needs_finite_increasing_parameters(values):
    with pytest.raises(ValidationError):
        SweepTable("r", values, [])


def test_sweep_rejects_mixed_parameters():
    with pytest.raises(ValidationError):
        sweep_w1(svs_spec(), [ecs_spec()], (0.3, 0.8, 5), 0.0)


# ---------------------------------------------------------------------------
# crossovers
# ---------------------------------------------------------------------------

def test_crossover_one_vs_two_added():
    res = find_crossover(w1_curve(svs_spec(), svs_spec(m=1)),
                         w1_curve(svs_spec(), svs_spec(m=2)), (0.30, 0.60), 0.0)
    assert res.found
    assert res.location == pytest.approx(0.4407, abs=5e-3)
    assert res.residual < 1e-6
    assert res.bracket[0] <= res.location <= res.bracket[1]


def test_crossover_one_vs_three_added_location():
    # the curves meet near r = 0.549 along the x-quadrature
    res = find_crossover(w1_curve(svs_spec(), svs_spec(m=1)),
                         w1_curve(svs_spec(), svs_spec(m=3)), (0.45, 0.75), 0.0)
    assert res.found and res.residual < 1e-6
    assert res.location == pytest.approx(0.5493, abs=5e-3)


def test_no_crossover_for_subtracted_states():
    res = find_crossover(w1_curve(svs_spec(), svs_spec(m=-1)),
                         w1_curve(svs_spec(), svs_spec(m=-2)), (0.30, 0.80), 0.0)
    assert not res.found and res.location is None


def test_w1_curve_reusing_tables_equals_fresh_pairs():
    curve = w1_curve(svs_spec(), svs_spec(m=3))
    ps = list(np.linspace(0.50, 0.56, 13))
    walk = ps + ps[::-1]
    grids = [auto_grid(build_state(svs_spec(p))).union(auto_grid(build_state(svs_spec(p, 3))))
             for p in walk]
    same = [g == h for g, h in zip(grids, grids[1:])]
    assert any(same) and not all(same)  # reuses tables and crosses cutoff changes
    for i, p in enumerate(walk):
        theta = 0.0 if i % 2 else math.pi / 7
        assert curve(p, theta) == w1_states(svs_spec(p), svs_spec(p, 3), theta)


def written_out_find_crossover(curve_a, curve_b, bracket, theta, scan_points=64,
                               param_tol=1e-4, residual_tol=1e-6, max_iter=200):
    """Reference copy of the exact crossover search as its own scan-and-bisect loop."""
    def h(p):
        return curve_a(p, theta) - curve_b(p, theta)

    ps = np.linspace(*bracket, scan_points)
    hs = np.array([h(p) for p in ps])
    changes = np.nonzero(np.diff(np.sign(hs)) != 0)[0]
    if len(changes) == 0:
        residual = float(min(abs(hs[0]), abs(hs[-1])))
        return CrossoverResult(False, None, bracket, residual, scan_points, 0)
    a, b = float(ps[changes[0]]), float(ps[changes[0] + 1])
    ha = float(hs[changes[0]])
    mid, hmid = 0.5 * (a + b), math.inf
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        hmid = h(mid)
        if b - a < param_tol and abs(hmid) < residual_tol:
            break
        if hmid == 0.0:
            break
        if (hmid > 0) == (ha > 0):
            a, ha = mid, hmid
        else:
            b = mid
    return CrossoverResult(True, mid, bracket, abs(hmid), scan_points, len(changes))


def test_multiple_roots_flagged_not_fatal():
    curve_a = lambda p, theta: 1.0 + 0.5 * math.cos(4 * math.pi * p)  # noqa: E731
    curve_b = lambda p, theta: 1.0  # noqa: E731
    with pytest.warns(MultipleRootsWarning):
        res = find_crossover(curve_a, curve_b, (0.0, 1.0), 0.0)
    assert res.found and res.sign_changes > 1
    assert res.location == pytest.approx(0.125, abs=1e-3)
    assert res == written_out_find_crossover(curve_a, curve_b, (0.0, 1.0), 0.0)


def test_crossover_json_record():
    curve_a = w1_curve(svs_spec(), svs_spec(m=1))
    curve_b = w1_curve(svs_spec(), svs_spec(m=2))
    res = find_crossover(curve_a, curve_b, (0.30, 0.60), 0.0, scan_points=16)
    assert res == written_out_find_crossover(curve_a, curve_b, (0.30, 0.60), 0.0, 16)
    record = json.loads(crossover_json(res))
    assert set(record) == {"found", "location", "bracket_lo", "bracket_hi",
                           "residual", "scan_points"}
    assert record["scan_points"] == 16


# ---------------------------------------------------------------------------
# equal-mean matching
# ---------------------------------------------------------------------------

def test_equal_mean_alpha_values():
    assert equal_mean_alpha(0.0) == 0.0
    assert equal_mean_alpha(0.5) == pytest.approx(0.738840959845342, abs=1e-9)
    for r in (0.2, 0.5, 0.8):
        alpha = equal_mean_alpha(r)
        nbar = mean_photon_number(build_state(ecs_spec(alpha)))
        assert nbar == pytest.approx(math.sinh(r) ** 2, abs=1e-8)


def test_equal_mean_parameter_generic():
    target = 2.3
    alpha = equal_mean_parameter(ocs_spec(), target)
    assert mean_photon_number(build_state(ocs_spec(alpha))) == pytest.approx(target, abs=1e-8)
    with pytest.raises(ValidationError):
        equal_mean_parameter(ocs_spec(), 0.5)  # odd cat mean never drops below 1
    with pytest.raises(ValidationError):
        equal_mean_parameter(ocs_spec(), math.nan)


@pytest.mark.parametrize("r", [math.inf, math.nan, 800.0, 5.0, 4.0, -0.1])
def test_equal_mean_alpha_rejects_unreachable_r(r):
    # 800 overflows sinh; 5.0 and 4.0 need |alpha| ~ 74 and ~ 27, past the
    # cat bound |alpha| <= 12; inf must not loop forever
    with pytest.raises(ValidationError):
        equal_mean_alpha(r)


# ---------------------------------------------------------------------------
# empirical estimator
# ---------------------------------------------------------------------------

def test_w1_empirical_basics():
    a = np.array([0.0, 1.0, 2.0, 5.0])
    assert w1_empirical(a, a) == 0.0
    with pytest.raises(EmptySamples):
        w1_empirical([1.0], [1.0, 2.0])


@pytest.mark.parametrize("a,b", [([0.0, math.nan, 1.0], [0.0, 1.0, 2.0]),
                                 ([0.0, math.inf], [0.0, 1.0]),
                                 ([0.0, 1.0], [-math.inf, 0.0, 1.0])])
def test_w1_empirical_rejects_non_finite_samples(a, b):
    with pytest.raises(ValidationError):
        w1_empirical(a, b)
    with pytest.raises(ValidationError):
        w1_empirical(b, a)


@given(st.lists(st.integers(-1024, 1024), min_size=2, max_size=64),
       st.integers(-64, 64))
@settings(max_examples=50, deadline=None)
def test_w1_empirical_translation_exact(values, shift):
    # dyadic samples keep the addition exact, so the metric is exactly |c|
    a = np.array(values, dtype=float) / 32.0
    c = float(shift)
    assert w1_empirical(a, a + c) == abs(c)


@given(st.lists(doubles, max_size=50), st.lists(doubles, max_size=50))
@settings(max_examples=300, deadline=None)
def test_w1_empirical_ends_finite_or_in_a_tomosense_error(a, b):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = w1_empirical(a, b)
    except TomosenseError:
        return
    assert math.isfinite(value) and value >= 0.0


@pytest.mark.parametrize("a", [1.0, [[0.0, 1.0], [2.0, 3.0]]])
def test_w1_empirical_rejects_non_1d_samples(a):
    with pytest.raises(ValidationError):
        w1_empirical(a, [0.0, 1.0])
    with pytest.raises(ValidationError):
        w1_empirical([0.0, 1.0], a)


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=64),
       st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=64),
       st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_w1_empirical_ignores_input_order(a, b, equal_size, rnd):
    if equal_size:
        b = (b * len(a))[:len(a)]
    a_sorted, b_sorted = np.sort(a), np.sort(b)
    expected = w1_empirical(a_sorted, b_sorted)
    shuffled_a, shuffled_b = list(a), list(b)
    rnd.shuffle(shuffled_a)
    rnd.shuffle(shuffled_b)
    for x, y in [(a_sorted[::-1], b_sorted[::-1]), (a_sorted, b_sorted[::-1]),
                 (np.array(shuffled_a), np.array(shuffled_b))]:
        x_before, y_before = x.copy(), y.copy()
        assert w1_empirical(x, y) == expected
        assert np.array_equal(x, x_before) and np.array_equal(y, y_before)
    assert np.array_equal(a_sorted, np.sort(a)) and np.array_equal(b_sorted, np.sort(b))


BIGGEST = 1.7976931348623157e308


@pytest.mark.parametrize("a,b", [([-BIGGEST, 0.0], [BIGGEST, BIGGEST]),
                                 ([-BIGGEST, 0.0, 1.0], [BIGGEST, BIGGEST]),
                                 ([0.0, 0.0], [BIGGEST, BIGGEST])])
def test_w1_empirical_rejects_samples_whose_w1_overflows(a, b):
    # equal sizes, unequal sizes, and a span that fits but a sum that does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValidationError, match="overflows"):
                w1_empirical(x, y)


def test_w1_empirical_keeps_a_wide_but_finite_step_integral():
    # unequal sizes add each merged step at most once, so a span of the
    # largest double still has a finite W1
    value = w1_empirical([0.0, 0.0, 1.0], [BIGGEST, BIGGEST])
    assert value == pytest.approx(BIGGEST, rel=1e-15)


def test_w1_empirical_unequal_counts_matches_scipy():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=501), rng.normal(loc=0.3, size=307)
    assert w1_empirical(a, b) == pytest.approx(wasserstein_distance(a, b), abs=1e-12)


def test_sweep_table_validation():
    with pytest.raises(ValidationError):
        SweepTable("r", np.array([0.2, 0.1]), [])
    with pytest.raises(ValidationError):
        SweepTable("r", np.array([0.1, 0.2]), [("bad", np.array([1.0, -2.0]))])
