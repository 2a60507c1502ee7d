"""Synthetic homodyne measurement records and histogram tomograms.

This is the "experimental data" route: quadrature outcomes are drawn from a
state's slice distribution by inverse-CDF sampling (monotone cubic
interpolation of the CDF on an 8192-point slice), binned into histogram
tomograms, and fed to the empirical Wasserstein estimator, so the whole
crossover analysis can be repeated from samples alone.

The interpolant is a NumPy port of scipy's ``PchipInterpolator`` that gives
the same doubles, so sampling loads no scipy module.  It is evaluated at the
uniforms in ascending order, which lets one search of the nodes into the
sorted uniforms find every interval; each value depends only on its uniform,
so a record returned in shot order is the same as one evaluated in shot
order.  A crossover evaluation builds one inverse per distinct state (the
reference is shared by both curves) and hands the sorted outcomes straight to
the empirical W1, which only needs the multiset.

Randomness comes from the counter-based Philox generator keyed by the user
seed, with per-row child streams keyed by (master seed, row index); records
regenerate bit-exactly from (state, theta, seed, shots) regardless of
evaluation order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import NumericalError, ValidationError
from .states import FockVector, StateSpec, build_state, check_angle
from .tomography import MAX_GRID_POINTS, MAX_THETA_COUNT, auto_grid, pdf_slice
from .transport import PARAM_TOL, CrossoverResult, _scan_and_bisect, w1_empirical

SAMPLING_GRID_POINTS = 8192
MAX_SHOTS = 10**8  # 0.8 GB of float64 outcomes per record, before any sort or CSV text

PairBuilder = Callable[[float], tuple[StateSpec, StateSpec]]

RECORD_MAGIC = b"TOMOSMPL"
_RECORD_HEADER = struct.Struct("<8sdQQ")


@dataclass(frozen=True)
class MeasurementRecord:
    """Quadrature outcomes for one local-oscillator phase; ``shots`` counts them."""

    theta: float
    samples: np.ndarray
    seed: int
    shots: int = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "shots", len(arr))
        _check_seed(self.seed)


@dataclass(frozen=True)
class HistogramTomogram:
    """Binned measurement records over a theta grid, sharing one set of edges."""

    theta_grid: np.ndarray
    bin_edges: np.ndarray
    counts: np.ndarray
    shots: int

    def __post_init__(self):
        for name in ("theta_grid", "bin_edges"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        counts = np.asarray(self.counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


def _check_seed(seed: int) -> None:
    """Seeds are unsigned 64-bit, the width the binary record header stores."""
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")


def _seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    _check_seed(seed)
    return np.random.SeedSequence((int(seed),) + key)


def _child_seed(seed: int, *key: int) -> int:
    return int(_seed_sequence(seed, *key).generate_state(1, np.uint64)[0])


class _Pchip:
    """Monotone piecewise-cubic (PCHIP) interpolant of ``y`` over the nodes ``x``.

    A port of scipy 1.17.1's ``PchipInterpolator`` for 1-D data (Fritsch &
    Butland, SIAM J. Sci. Comput. 5, 300 (1984); end slopes by Moler's
    one-sided rule) that gives the same doubles: the node slopes and the
    coefficients ``c`` (shape (4, n-1), highest power first, as scipy's
    ``PPoly.c``) use scipy's operations in scipy's order, and evaluation
    reproduces ``_ppoly.evaluate`` with extrapolation from the end intervals.
    Bad nodes raise ``NumericalError``, where scipy raises ``ValueError``.
    """

    _BLOCK = 16384  # uniforms per evaluation block, so temporaries stay cache-sized

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
            raise NumericalError(f"PCHIP needs at least 2 nodes and one value per node, "
                                 f"got shapes {x.shape} and {y.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise NumericalError("PCHIP nodes and values must be finite")
        hk = np.diff(x)
        if np.any(hk <= 0):
            raise NumericalError("PCHIP nodes must be strictly increasing")
        mk = (y[1:] - y[:-1]) / hk
        if len(x) == 2:
            dk = np.array([mk[0], mk[0]])  # linear interpolation
        else:
            smk = np.sign(mk)
            condition = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
            w1 = 2 * hk[1:] + hk[:-1]
            w2 = hk[1:] + 2 * hk[:-1]
            # divisions by a zero slope are excluded by `condition`
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
            dk = np.zeros_like(y)
            dk[1:-1][~condition] = 1.0 / whmean[~condition]
            dk[0] = self._edge_slope(hk[0], hk[1], mk[0], mk[1])
            dk[-1] = self._edge_slope(hk[-1], hk[-2], mk[-1], mk[-2])
        if not np.all(np.isfinite(dk)):
            raise NumericalError("PCHIP node slopes overflow")
        t = (dk[:-1] + dk[1:] - 2 * mk) / hk
        # scipy's evaluation starts from 0.0 + c3, which turns a -0.0 into +0.0
        self.c = np.stack((t / hk, (mk - dk[:-1]) / hk - t, dk[:-1], y[:-1] + 0.0))
        self.x = x

    @staticmethod
    def _edge_slope(h0, h1, m0, m1):
        """One-sided three-point end slope, zeroed or capped at 3*m0 to keep the shape."""
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """Interpolant at ``u``, which must be in ascending order (no check is made).

        Point ``u`` uses the interval of the largest node ``x[i] <= u``, clipped
        to the first and last intervals, so both ends extrapolate.  One search
        of the interior nodes into the sorted ``u`` finds where every interval
        starts, and each block repeats the coefficients of the intervals it
        covers by their run lengths.  The cubic is evaluated as scipy does:
        ``c3 + c2*s``, then ``+ c1*s**2``, then ``+ c0*s**3``, with ``s = u - x[i]``.
        """
        x, (c0, c1, c2, c3) = self.x, self.c
        starts = np.empty(len(x), dtype=np.intp)
        starts[0] = 0
        starts[1:-1] = np.searchsorted(u, x[1:-1], side="left")
        starts[-1] = len(u)
        out = np.empty(len(u))
        for lo in range(0, len(u), self._BLOCK):
            hi = min(lo + self._BLOCK, len(u))
            first = np.searchsorted(starts, lo, side="right") - 1
            stop = np.searchsorted(starts, hi, side="left")
            runs = np.diff(np.clip(starts[first:stop + 1], lo, hi))
            s = u[lo:hi] - np.repeat(x[first:stop], runs)
            res = out[lo:hi]
            np.multiply(np.repeat(c2[first:stop], runs), s, out=res)
            res += np.repeat(c3[first:stop], runs)
            z = s * s
            term = np.repeat(c1[first:stop], runs)
            term *= z
            res += term
            z *= s
            term = np.repeat(c0[first:stop], runs)
            term *= z
            res += term
        return out


def _inverse_cdf(v: FockVector, theta: float) -> tuple[_Pchip, float, float]:
    """Monotone (PCHIP) inverse of the exact slice CDF and its captured mass [lo, hi].

    The inverse takes ascending uniforms; both callers sort theirs.  CDF steps
    of at most 1e-100 are dropped: flat ones, and ones whose PCHIP slopes overflow.
    """
    grid = auto_grid(v, n_points=SAMPLING_GRID_POINTS)
    sl = pdf_slice(v, theta, grid)
    keep = np.concatenate([[True], np.diff(sl.cdf) > 1e-100])
    cdf = sl.cdf[keep]
    return _Pchip(cdf, grid.points()[keep]), cdf[0], cdf[-1]


def _uniforms(lo: float, hi: float, shots: int, seed: int) -> np.ndarray:
    """``shots`` uniform variates scaled into the captured mass [lo, hi], in place."""
    u = np.random.Generator(np.random.Philox(_seed_sequence(seed))).random(shots)
    u *= hi - lo
    u += lo
    return u


def sample_quadrature(v: FockVector, theta: float, shots: int, seed: int) -> MeasurementRecord:
    """Draw quadrature outcomes by inverse-CDF sampling of the exact slice.

    The CDF on the high-resolution slice is inverted with a monotone cubic
    (PCHIP) interpolant; uniform variates are scaled into the captured mass,
    whose deficit is below 1e-10 by the auto-grid guarantee.  The inverse is
    evaluated in ascending-uniform order and the outcomes are returned in
    shot order.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValidationError(f"shots must be in [1, {MAX_SHOTS}], got {shots}")
    check_angle(theta)
    inverse, lo, hi = _inverse_cdf(v, theta)
    u = _uniforms(lo, hi, shots, seed)
    order = np.argsort(u)
    x = np.empty(shots)
    x[order] = inverse(u[order])
    return MeasurementRecord(theta, x, int(seed))


def histogram_tomogram(v: FockVector, theta_count: int, bins: int,
                       shots: int, seed: int) -> HistogramTomogram:
    """One measurement record per theta, binned on shared edges.

    Row streams are independent children of the master seed keyed by the row
    index, so any evaluation order gives the same counts.
    """
    if not 32 <= bins <= MAX_GRID_POINTS:
        raise ValidationError(f"bins must be in [32, {MAX_GRID_POINTS}], got {bins}")
    if not 1 <= theta_count <= MAX_THETA_COUNT:
        raise ValidationError(
            f"theta_count must be in [1, {MAX_THETA_COUNT}], got {theta_count}")
    grid = auto_grid(v)
    edges = np.linspace(-grid.x_max, grid.x_max, bins + 1)
    thetas = 2.0 * math.pi * np.arange(theta_count) / theta_count
    counts = np.empty((theta_count, bins), dtype=np.int64)
    for i, theta in enumerate(thetas):
        record = sample_quadrature(v, theta, shots, _child_seed(seed, i))
        counts[i], _ = np.histogram(record.samples, edges)
    return HistogramTomogram(thetas, edges, counts, shots)


def empirical_crossover(pairs: tuple[PairBuilder, PairBuilder], theta: float,
                        bracket: tuple[float, float], shots: int, seed: int,
                        scan_points: int = 64) -> CrossoverResult:
    """Crossover search where every W1 comes from sampled records.

    ``pairs`` maps a parameter value to the (reference, comparison) specs of
    each curve; every evaluation draws four records with fresh child seeds
    keyed by an evaluation counter, so the whole search is a pure function
    of (pairs, theta, bracket, shots, seed).  Each evaluation builds one
    inverse CDF per distinct state, so a reference shared by both curves is
    sliced once.  The expected location error scales like 3/sqrt(shots) in
    the parameter; when that exceeds a tenth of the bracket the result is
    flagged low-confidence.

    The search is the exact one's (MultipleRootsWarning on several sign
    changes) with no residual target, stopping once a midpoint bisects a cell
    narrower than ``2 * PARAM_TOL``.  A scan cell exactly
    ``2**k * 2 * PARAM_TOL`` wide gets one more halving than a stop at
    ``half <= PARAM_TOL`` would give.
    """
    if not 2 <= shots <= MAX_SHOTS:
        raise ValidationError(f"shots must be in [2, {MAX_SHOTS}], got {shots}")
    check_angle(theta)
    counter = 0

    def h(p: float) -> float:
        nonlocal counter
        inverses = {}
        values = []
        for i, pair in enumerate(pairs):
            outcomes = []
            for j, spec in enumerate(pair(p)):
                if spec not in inverses:
                    inverses[spec] = _inverse_cdf(build_state(spec), theta)
                inverse, u_lo, u_hi = inverses[spec]
                u = _uniforms(u_lo, u_hi, shots, _child_seed(seed, counter, i, j))
                u.sort()
                outcomes.append(inverse(u))
            values.append(w1_empirical(*outcomes))
        counter += 1
        return values[0] - values[1]

    result = _scan_and_bisect(h, bracket, scan_points, 2.0 * PARAM_TOL, math.inf)
    lo, hi = bracket
    return replace(result, low_confidence=3.0 / math.sqrt(shots) > 0.1 * (hi - lo))


def state_pair(reference: StateSpec, comparison: StateSpec) -> PairBuilder:
    """Pair builder for empirical_crossover: p -> (reference(p), comparison(p))."""

    def pair(p: float) -> tuple[StateSpec, StateSpec]:
        return reference.with_parameter(p), comparison.with_parameter(p)

    return pair


# ---------------------------------------------------------------------------
# binary record format
# ---------------------------------------------------------------------------

def record_bytes(record: MeasurementRecord) -> bytes:
    """Binary form: 32-byte header {magic, theta, shots, seed} then little-endian
    float64 samples."""
    header = _RECORD_HEADER.pack(RECORD_MAGIC, record.theta, record.shots, record.seed)
    return header + record.samples.astype("<f8").tobytes()


def record_from_bytes(blob: bytes) -> MeasurementRecord:
    """Parse ``record_bytes`` output, rejecting a bad angle or a non-finite sample."""
    if len(blob) < _RECORD_HEADER.size:
        raise ValidationError(
            f"measurement record needs a {_RECORD_HEADER.size}-byte header, got {len(blob)} bytes")
    magic, theta, shots, seed = _RECORD_HEADER.unpack_from(blob)
    if magic != RECORD_MAGIC:
        raise ValidationError("not a tomosense measurement record")
    samples = np.frombuffer(blob[_RECORD_HEADER.size:], dtype="<f8")
    if len(samples) != shots:
        raise ValidationError("truncated measurement record")
    check_angle(theta)
    if not np.all(np.isfinite(samples)):
        raise ValidationError("measurement record holds a non-finite sample")
    return MeasurementRecord(theta, samples.copy(), int(seed))
