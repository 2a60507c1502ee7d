"""Wasserstein distance between quadrature distributions, parameter sweeps,
and crossover location.

The order-1 distance between two distributions on the same grid is the
integral of the absolute CDF difference.  The integrand has derivative kinks
wherever the CDFs cross, so sampling |F - G| and applying the plain
trapezoid rule carries an O(h^2) error (~1e-5 at 2048 points) that the
acceptance tolerances cannot absorb.  Instead each cell integrates the cubic
Hermite model of ``F - G`` exactly: nodal values come from the CDFs and
nodal slopes from the PDFs (the mathematical derivative of a CDF is its
PDF), and cells with an endpoint sign change are split at the cubic's root.
That keeps the result within ~1e-9 of the exact integral at the default
resolution while still consuming only the per-slice samples.  The roots of
all split cells of one integral come from one stacked eigensolve of the
companion matrices ``np.roots`` would build, so each root is the one
``np.roots`` returns.

The exact and the sampled crossover search share one scan-and-bisect, and
both equal-mean matchings share one bisection over an increasing map.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _workers
from .errors import EmptySamples, GridMismatch, MultipleRootsWarning, ValidationError
from .states import StateSpec, build_state, mean_photon_number
from .tomography import (
    DEFAULT_GRID_POINTS,
    DistributionSlice,
    HermiteTables,
    auto_grid,
    pdf_slices,
)

W1Curve = Callable[[float, float], float]

# Sweep steps and crossover scan points size no table: each value costs one
# W1 evaluation per curve (about 2 ms at the default grid), so 2**15 values
# already take a minute or more.  The bound rejects a mistyped count before
# np.linspace allocates it.
MAX_PARAMETER_POINTS = 2**15

PARAM_TOL = 1e-4
RESIDUAL_TOL = 1e-6
MAX_BISECTIONS = 200


def check_parameter_points(count: int, what: str) -> None:
    """Reject a sweep step or scan point count outside [2, MAX_PARAMETER_POINTS]."""
    if not 2 <= count <= MAX_PARAMETER_POINTS:
        raise ValidationError(f"{what} must be in [2, {MAX_PARAMETER_POINTS}], got {count}")


def _check_range(lo: float, hi: float, what: str) -> None:
    """Reject a sweep range or crossover bracket that is not a finite lo < hi."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValidationError(f"{what} needs finite lo < hi, got [{lo}, {hi}]")


@dataclass(frozen=True)
class SweepTable:
    """W1 values per comparison state over a finite ascending parameter list.

    ``columns`` pairs a label with one value per parameter; cells where the
    comparison state does not exist (for example photon subtraction at
    r = 0) hold NaN and are emitted as empty CSV fields.
    """

    parameter_values: np.ndarray
    columns: list[tuple[str, np.ndarray]]

    def __post_init__(self):
        vals = np.asarray(self.parameter_values, dtype=float)
        if not (np.all(np.isfinite(vals)) and np.all(np.diff(vals) > 0)):
            raise ValidationError("parameter values must be finite and strictly increasing")
        vals.setflags(write=False)
        object.__setattr__(self, "parameter_values", vals)
        cols = []
        for label, col in self.columns:
            arr = np.asarray(col, dtype=float)
            if arr.shape != vals.shape:
                raise ValidationError(f"column {label!r} does not align with parameter values")
            finite = arr[np.isfinite(arr)]
            if np.any(finite < 0):
                raise ValidationError(f"column {label!r} has negative W1 values")
            arr.setflags(write=False)
            cols.append((label, arr))
        object.__setattr__(self, "columns", cols)


@dataclass(frozen=True)
class CrossoverResult:
    """Outcome of locating a parameter value where two W1 curves meet."""

    found: bool
    location: float | None
    bracket: tuple[float, float]
    residual: float
    scan_points: int
    sign_changes: int = 0
    low_confidence: bool | None = None  # None for an exact search


def w1_cdf(a: DistributionSlice, b: DistributionSlice) -> float:
    """W1 distance between two slices sharing one grid (integral of |F - G|)."""
    if a.grid != b.grid:
        raise GridMismatch(f"slices live on different grids: {a.grid} vs {b.grid}")
    h = a.grid.spacing
    return _integrate_abs_difference(a.cdf - b.cdf, (a.pdf - b.pdf) * h, h)


def _integrate_abs_difference(u: np.ndarray, du: np.ndarray, h: float) -> float:
    """Integral of |u| where u is known by nodal values and scaled slopes.

    Each cell uses the cubic Hermite model c(t) on t in [0, 1].  Cells whose
    endpoint values share a sign contribute |integral of c|; a sign change
    splits the cell at the cubic's root.  Swapping the operands negates every
    coefficient exactly, and each step below is odd or even under negation
    (IEEE rounding is sign-symmetric), so it gives bit-identical results.
    """
    u0, u1 = u[:-1], u[1:]
    s0, s1 = du[:-1], du[1:]
    # monomial coefficients of c(t) = a t^3 + b t^2 + c t + d
    d = u0
    c = s0
    b = -3.0 * u0 - 2.0 * s0 + 3.0 * u1 - s1
    a = 2.0 * u0 + s0 - 2.0 * u1 + s1
    cell = a / 4.0 + b / 3.0 + c / 2.0 + d
    flip = u0 * u1 < 0.0
    total = float(np.sum(np.abs(np.where(flip, 0.0, cell))))
    for part in _split_cells(a[flip], b[flip], c[flip], d[flip]):
        total += part
    return total * h


def _split_cells(a, b, c, d) -> np.ndarray:
    """|integral| of each sign-changing cell's cubic, split at its root in (0, 1).

    The root is the real root in (0, 1) nearest the secant root, or the
    secant root if there is none.  Cubic cells (a != 0) are solved together:
    their companion matrices, built as ``np.roots`` builds them, go through
    one stacked ``np.linalg.eigvals``, which runs the same LAPACK routine on
    each.  The few cells with a == 0 keep the per-cell ``np.roots``
    (quadratic) or ``-d/c`` (linear) route.
    """
    linear = d / (d - (a + b + c + d))  # root of the secant, always in (0, 1)
    tau = linear.copy()
    cubic = a != 0.0
    if cubic.any():
        companion = np.zeros((np.count_nonzero(cubic), 3, 3))
        companion[:, 1, 0] = companion[:, 2, 1] = 1.0
        companion[:, 0] = -np.stack([b, c, d], axis=1)[cubic] / a[cubic, None]
        tau[cubic] = _nearest_inside(np.linalg.eigvals(companion), linear[cubic])
    for i in np.nonzero(~cubic)[0]:
        roots = np.roots([a[i], b[i], c[i], d[i]]) if b[i] != 0.0 else np.array([-d[i] / c[i]])
        tau[i] = _nearest_inside(roots[None, :], linear[i:i + 1])[0]

    def antideriv(t):
        return ((a * t / 4.0 + b / 3.0) * t + c / 2.0) * t * t + d * t

    left = antideriv(tau)
    right = antideriv(1.0) - left
    return np.abs(left) + np.abs(right)


def _nearest_inside(roots: np.ndarray, linear: np.ndarray) -> np.ndarray:
    """Per row, the first real root in (0, 1) nearest ``linear``, else ``linear``."""
    re = roots.real
    inside = (np.abs(roots.imag) < 1e-9) & (0.0 < re) & (re < 1.0)
    dist = np.where(inside, np.abs(re - linear[:, None]), np.inf)
    best = re[np.arange(len(re)), np.argmin(dist, axis=1)]
    return np.where(inside.any(axis=1), best, linear)


def w1_states(spec_a: StateSpec, spec_b: StateSpec, theta: float,
              n_points: int = DEFAULT_GRID_POINTS) -> float:
    """W1 between two states' quadrature distributions at one theta.

    Both states are evaluated on the union of their automatic grids, so the
    result is symmetric in its arguments.
    """
    return _w1_pair(build_state(spec_a), build_state(spec_b), [theta], n_points,
                    HermiteTables())[0]


def _w1_pair(va, vb, thetas: Sequence[float], n_points: int,
             tables: HermiteTables) -> list[float]:
    """W1 between two states at each of ``thetas`` on the union of their auto grids.

    The one route from a pair of vectors to W1 values: every angle is sliced
    from the four Hermite tables ``tables`` holds for the grid, built by one
    recurrence when the holder has none for it.
    """
    grid = auto_grid(va, n_points=n_points).union(auto_grid(vb, n_points=n_points))
    return [w1_cdf(*pair) for pair in pdf_slices([va, vb], thetas, grid, tables)]


def w1_curve(reference: StateSpec, comparison: StateSpec,
             n_points: int = DEFAULT_GRID_POINTS) -> W1Curve:
    """Curve p -> W1(reference(p), comparison(p)) for sweeps and crossovers.

    Each value equals ``w1_states`` at p.  The curve keeps the Hermite tables
    of the last grid it sliced, which changes only with the pair's cutoffs,
    so consecutive evaluations on one grid (most of a crossover search) build
    them once.
    """
    tables = HermiteTables()

    def curve(p: float, theta: float) -> float:
        va = build_state(reference.with_parameter(p))
        vb = build_state(comparison.with_parameter(p))
        return _w1_pair(va, vb, [theta], n_points, tables)[0]

    return curve


def sweep_w1(reference: StateSpec, comparisons: Sequence[StateSpec],
             parameter_range: tuple[float, float, int], theta: float | Sequence[float],
             n_points: int = DEFAULT_GRID_POINTS) -> SweepTable | list[SweepTable]:
    """Tabulate W1(reference, comparison) over a swept parameter.

    The swept parameter is the squeezing magnitude for the squeezed family
    and the (real) coherent amplitude for the cat families; all templates
    must agree on which one is being swept.  A state that does not exist at a
    valid parameter (subtraction at r = 0) leaves a NaN cell instead of aborting.
    A sequence of thetas gives one table per theta, each equal to its
    one-theta sweep; every parameter value then builds its states once for
    all angles, and the sweep's one ``HermiteTables`` holder rebuilds its
    tables only when a pair needs a new grid or more rows.
    """
    lo, hi, steps = parameter_range
    _check_range(lo, hi, "sweep range")
    check_parameter_points(steps, "sweep steps")
    if any((spec.family == "svs") != (reference.family == "svs") for spec in comparisons):
        raise ValidationError("all sweep templates must share the swept parameter")
    single = np.ndim(theta) == 0
    thetas = [theta] if single else list(theta)
    values = np.linspace(lo, hi, steps)
    labels = [f"{reference.label()}:{c.label()}" for c in comparisons]
    cells = np.full((len(thetas), len(comparisons), steps), np.nan)
    tables = HermiteTables()
    for i, p in enumerate(values):
        specs = [spec.with_parameter(p) for spec in [reference, *comparisons]]
        try:
            ref_vec = build_state(specs[0])
        except ValidationError:
            continue
        for j, cmp_spec in enumerate(specs[1:]):
            try:
                cmp_vec = build_state(cmp_spec)
            except ValidationError:
                continue
            cells[:, j, i] = _w1_pair(ref_vec, cmp_vec, thetas, n_points, tables)
    sweeps = [SweepTable(values, list(zip(labels, per_theta))) for per_theta in cells]
    return sweeps[0] if single else sweeps


def find_crossover(curve_a: W1Curve, curve_b: W1Curve, bracket: tuple[float, float],
                   theta: float, scan_points: int = 64) -> CrossoverResult:
    """Locate a parameter where two W1 curves against a common reference meet.

    A uniform scan brackets sign changes of h(p) = A(p) - B(p); more than one
    sign change raises MultipleRootsWarning and the first is refined.
    Bisection continues until the bracket is below ``PARAM_TOL`` and the
    residual |h| at the midpoint is below ``RESIDUAL_TOL``, or for at most
    ``MAX_BISECTIONS`` evaluations.
    """
    return _scan_and_bisect(lambda p, counter, ks: [(curve_a, curve_b)[k](p, theta) for k in ks],
                            bracket, scan_points, PARAM_TOL, RESIDUAL_TOL)


def _scan_and_bisect(values: Callable[[float, int, tuple[int, ...]], list[float]],
                     bracket: tuple[float, float], scan_points: int, width_tol: float,
                     residual_tol: float) -> CrossoverResult:
    """Scan h = A - B for sign changes (warning if there are several) and bisect the first.

    ``values(p, counter, curves)`` returns the values at p of the listed
    curves, 0 for A and 1 for B.  It gets the index of its evaluation in the
    serial search: scan point i gets i, and bisection step k gets
    ``scan_points + k``.
    Bisection stops after evaluating a midpoint ``mid`` when h(mid) == 0, or
    when the cell ``mid`` bisects is narrower than ``width_tol`` and
    |h(mid)| < ``residual_tol``, or after ``MAX_BISECTIONS`` evaluations; so
    even a scan cell already below ``width_tol`` reports a finite residual.

    Every evaluation goes through one ``_workers.Workers``, which forks two
    workers where it can.  Each scan point is one job for both curves, and
    the scan points are split between the workers; each bisection round
    sends one job per curve, so A(mid) and B(mid) are evaluated side by
    side.  Outcomes are replayed in serial order, A before B, so the
    result, the warnings and the exceptions are those of the serial
    A(p) - B(p).  Every job is one the serial search makes; without
    workers, they run in this process in that order.
    """
    lo, hi = bracket
    _check_range(lo, hi, "bracket")
    check_parameter_points(scan_points, "scan points")
    ps = np.linspace(lo, hi, scan_points)
    with _workers.Workers(lambda job: values(*job)) as workers:
        scan = [(p, i, (0, 1)) for i, p in enumerate(ps)]
        hs = np.array([va - vb for va, vb in map(_workers.replay, workers.imap(scan))])
        changes = np.nonzero(np.diff(np.sign(hs)) != 0)[0]
        n_changes = int(len(changes))
        if n_changes == 0:
            residual = float(min(abs(hs[0]), abs(hs[-1])))
            return CrossoverResult(False, None, bracket, residual, scan_points, 0)
        if n_changes > 1:
            warnings.warn(
                f"{n_changes} sign changes in [{lo:g}, {hi:g}]; refining the first",
                MultipleRootsWarning,
                stacklevel=3,
            )
        a, b = float(ps[changes[0]]), float(ps[changes[0] + 1])
        ha = float(hs[changes[0]])
        for k in range(MAX_BISECTIONS):
            mid = 0.5 * (a + b)
            jobs = [(mid, scan_points + k, (0,)), (mid, scan_points + k, (1,))]
            (va,), (vb,) = map(_workers.replay, workers.imap(jobs))
            hmid = va - vb
            if hmid == 0.0 or (b - a < width_tol and abs(hmid) < residual_tol):
                break
            if (hmid > 0) == (ha > 0):
                a, ha = mid, hmid
            else:
                b = mid
    return CrossoverResult(True, mid, bracket, abs(hmid), scan_points, n_changes)


def _invert_increasing(f: Callable[[float], float], target: float, lo: float) -> float:
    """x in [lo, 64] with increasing f(x) = target: double hi from 1, then bisect to 1e-10."""
    hi = 1.0
    while f(hi) < target:
        hi *= 2.0
        if hi > 64.0:
            raise ValidationError("target mean photon number out of reach")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def equal_mean_alpha(r: float) -> float:
    """Coherent amplitude giving an even cat the mean photon number sinh^2 r.

    Solves |alpha|^2 tanh|alpha|^2 = sinh^2 r by bisection; the left side is
    strictly increasing, so the root is unique.  ``r`` must lie in
    [0, asinh(12)], where sinh^2 r is what the largest cat amplitude,
    |alpha| = 12, reaches.
    """
    if not (0.0 <= r <= math.asinh(12.0)):
        raise ValidationError(f"r must be in [0, asinh(12)], got {r}")
    if r == 0.0:
        return 0.0
    return _invert_increasing(lambda a: a * a * math.tanh(a * a), math.sinh(r) ** 2, 0.0)


def equal_mean_parameter(template: StateSpec, target_nbar: float) -> float:
    """Swept-parameter value giving ``template`` the mean photon number
    ``target_nbar`` (bisection on the monotone parameter-to-mean map)."""
    if not (target_nbar >= 0):
        raise ValidationError(f"target mean photon number must be >= 0, got {target_nbar}")

    def nbar(p: float) -> float:
        return mean_photon_number(build_state(template.with_parameter(p)))

    lo = 1e-6
    if nbar(lo) > target_nbar:
        raise ValidationError(
            f"{template.label()} cannot reach mean photon number {target_nbar:g}"
        )
    return _invert_increasing(nbar, target_nbar, lo)


def _ascending(a: np.ndarray) -> np.ndarray:
    """``a`` if it is non-decreasing, else a sorted copy (``nan`` sorts last)."""
    return a if np.all(a[1:] >= a[:-1]) else np.sort(a)


def w1_empirical(samples_a, samples_b) -> float:
    """W1 between two empirical sample sets.

    Equal-size inputs use the order-statistics form, the mean absolute
    difference of sorted samples.  Unequal sizes fall back to the exact
    integral of the absolute difference of the two step CDFs.  Samples must
    be 1-D and finite, and close enough that the W1 sum fits in a double.
    An input already in non-decreasing order (a record from
    ``empirical_crossover``) is used as it is; sorting it would return the
    same values.  The inputs are never modified.
    """
    a, b = np.asarray(samples_a, dtype=float), np.asarray(samples_b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ValidationError(f"samples must be 1-D, got {a.ndim}-D and {b.ndim}-D")
    a, b = _ascending(a), _ascending(b)
    if len(a) < 2 or len(b) < 2:
        raise EmptySamples(f"need at least 2 samples per side, got {len(a)} and {len(b)}")
    if not (np.isfinite(a[[0, -1]]).all() and np.isfinite(b[[0, -1]]).all()):
        raise ValidationError("samples must be finite")
    # each |a_i - b_i| and each step between merged samples is at most the
    # span, and the order-statistics sum adds len(a) such terms
    span = max(float(a[-1]), float(b[-1])) - min(float(a[0]), float(b[0]))
    terms = len(a) if len(a) == len(b) else 1
    if math.isinf(span * terms):
        raise ValidationError("samples spread too wide: their W1 sum overflows a double")
    if len(a) == len(b):
        diff = a - b
        return float(np.mean(np.abs(diff, out=diff)))
    merged = np.concatenate([a, b])
    merged.sort(kind="mergesort")
    cdf_a = np.searchsorted(a, merged[:-1], side="right") / len(a)
    cdf_b = np.searchsorted(b, merged[:-1], side="right") / len(b)
    return float(np.sum(np.abs(cdf_a - cdf_b) * np.diff(merged)))
