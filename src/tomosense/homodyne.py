"""Synthetic homodyne measurement records and histogram tomograms.

This is the "experimental data" route: quadrature outcomes are drawn from a
state's slice distribution by inverse-CDF sampling (monotone cubic
interpolation of the CDF on an 8192-point slice), binned into histogram
tomograms, and fed to the empirical Wasserstein estimator, so the whole
crossover analysis can be repeated from samples alone.

The interpolated inverse is evaluated at the uniforms in ascending order,
which lets the interval search reuse its previous hit; each value depends
only on its uniform, so a record returned in shot order is the same as one
evaluated in shot order.  A crossover evaluation builds one inverse per
distinct state (the reference is shared by both curves) and hands the
sorted outcomes straight to the empirical W1, which only needs the multiset.

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

from .errors import ValidationError
from .states import FockVector, StateSpec, build_state, check_angle
from .tomography import auto_grid, pdf_slice
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


def _inverse_cdf(v: FockVector, theta: float) -> tuple[Callable, float, float]:
    """Monotone (PCHIP) inverse of the exact slice CDF and its captured mass [lo, hi].

    CDF steps of at most 1e-100 are dropped: flat ones, and ones whose PCHIP slopes overflow.
    scipy.interpolate is imported here, not at module level, because it is
    most of the start-up time of a process that never samples.
    """
    from scipy.interpolate import PchipInterpolator

    grid = auto_grid(v, n_points=SAMPLING_GRID_POINTS)
    sl = pdf_slice(v, theta, grid)
    keep = np.concatenate([[True], np.diff(sl.cdf) > 1e-100])
    cdf = sl.cdf[keep]
    return PchipInterpolator(cdf, grid.points()[keep]), cdf[0], cdf[-1]


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
    if bins < 32:
        raise ValidationError(f"bins must be >= 32, got {bins}")
    if theta_count < 1:
        raise ValidationError("theta_count must be >= 1")
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
# exports
# ---------------------------------------------------------------------------

def record_csv(record: MeasurementRecord) -> str:
    """CSV text with header ``theta,x``, one row per shot, 17 digits."""
    template = "theta,x\n" + f"{record.theta:.17g},%.17g\n" * record.shots
    return template % tuple(record.samples.tolist())


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
