"""Quadrature wavefunctions, probability slices, and full optical tomograms.

The quadrature convention fixes the vacuum variance at 1/2, so the position
representation of Fock state ``|n>`` is the normalized oscillator
eigenfunction ``psi_n(x) = H_n(x) exp(-x^2/2) / (pi^{1/4} sqrt(2^n n!))``,
evaluated through the stable three-term recurrence

    psi_{n+1}(x) = x sqrt(2/(n+1)) psi_n(x) - sqrt(n/(n+1)) psi_{n-1}(x).

A state with amplitudes ``c_n`` has quadrature wavefunction
``sum_n c_n e^{-i n theta} psi_n(x)`` at local-oscillator phase ``theta``;
its squared magnitude is the tomogram value ``w(x, theta)``.

Cumulative distributions are accumulated per grid cell with a three-point
Gauss-Legendre rule on the exact squared wavefunction rather than with a
cumulative trapezoid: the trapezoid's O(h^2) pointwise bias (~1e-5 at the
default resolution) is visible at the transport module's 1e-6/1e-7
tolerances, while the per-cell rule leaves the CDF exact to ~1e-12.

Slices of several states at several angles on one grid share one Hermite
table per abscissa set (the grid points and the three Gauss-Legendre node
sets), built once at the largest cutoff: row ``n`` of the recurrence does not
depend on how many rows follow it, so each state reads the exact rows
``psi[:cutoff+1]`` it would have computed alone, and the angle enters only
through the coefficients.  A one-off call keeps one table alive at a time; a
``HermiteTables`` holder passed in by the caller builds the four tables of a
grid with one recurrence over the concatenated abscissae (each column depends
only on its own abscissa, so every value is the per-set one) and keeps them
for later calls on that grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GridTooNarrow, NumericalError, ValidationError
from .states import CUTOFF_CAP, FockVector, check_angle, mean_photon_number

MAX_ABSCISSA = 50.0
DEFAULT_GRID_POINTS = 2048
MAX_GRID_POINTS = 2**15  # held table at the capped cutoff: 513 x 4 x 2**15 x 8 B = 0.54 GB
MAX_THETA_COUNT = 4 * CUTOFF_CAP  # a 2048 x 2**15 tomogram is no larger

_ROW_NORM_TOL = 1e-8     # |integral of a tomogram row - 1|
_SYMMETRY_TOL = 1e-10    # |w(x, theta + pi) - w(-x, theta)|
_ZERO_THRESHOLD = 1e-4   # slice amplitudes below this times the peak are not zeros

# 3-point Gauss-Legendre nodes/weights on [-1, 1]
_GL_NODES = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
_GL_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform grid of quadrature values on [-x_max, x_max], 0 < x_max <= MAX_ABSCISSA."""

    x_max: float
    n_points: int

    def __post_init__(self):
        if not 64 <= self.n_points <= MAX_GRID_POINTS:
            raise ValidationError(
                f"n_points must be in [64, {MAX_GRID_POINTS}], got {self.n_points}")
        if not 0 < self.x_max <= MAX_ABSCISSA:
            raise ValidationError(
                f"grid half-width must be in (0, {MAX_ABSCISSA:g}], got {self.x_max}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.x_max / (self.n_points - 1)

    def points(self) -> np.ndarray:
        """Grid points with exact mirror symmetry x[i] == -x[n-1-i]."""
        n = self.n_points
        return self.x_max * (2.0 * np.arange(n) - (n - 1)) / (n - 1)

    def union(self, other: "QuadratureGrid") -> "QuadratureGrid":
        """Smallest symmetric grid covering both operands (order-independent)."""
        return QuadratureGrid(max(self.x_max, other.x_max), max(self.n_points, other.n_points))


@dataclass(frozen=True)
class DistributionSlice:
    """PDF samples and the matching CDF on a grid, for one fixed theta."""

    grid: QuadratureGrid
    theta: float
    pdf: np.ndarray
    cdf: np.ndarray

    def __post_init__(self):
        for name in ("pdf", "cdf"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class Tomogram:
    """Matrix of w(x, theta) values; rows follow theta_grid, columns x."""

    theta_grid: np.ndarray
    x_grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        for name in ("theta_grid", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def hermite_function(n_max: int, x) -> np.ndarray:
    """Oscillator eigenfunctions psi_0(x) .. psi_{n_max}(x).

    Scalar ``x`` gives a buffer of shape (n_max+1,); an array gives
    (n_max+1, len(x)).  The normalized recurrence keeps every value bounded
    by 1 in magnitude, so there is no intermediate overflow on its domain,
    integer ``0 <= n_max <= CUTOFF_CAP`` (512) and finite
    ``|x| <= MAX_ABSCISSA`` (50); anything else raises ``ValidationError``.
    """
    if not (isinstance(n_max, (int, np.integer)) and 0 <= n_max <= CUTOFF_CAP):
        raise ValidationError(f"n_max must be an integer in [0, {CUTOFF_CAP}], got {n_max!r}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.size and not np.abs(xs).max() <= MAX_ABSCISSA:  # also false for a NaN
        raise ValidationError(f"hermite_function needs finite |x| <= {MAX_ABSCISSA:g}")
    out = np.empty((n_max + 1, xs.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * xs * xs)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * xs * out[0]
    # psi_{n+1} = (x a_n) psi_n - b_n psi_{n-1}, written in place into the
    # output row with one scratch row; same operations in the same order.
    scratch = np.empty(xs.size)
    for n in range(1, n_max):
        row = out[n + 1]
        np.multiply(xs, math.sqrt(2.0 / (n + 1)), out=scratch)
        np.multiply(scratch, out[n], out=row)
        np.multiply(out[n - 1], math.sqrt(n / (n + 1.0)), out=scratch)
        np.subtract(row, scratch, out=row)
    if np.isscalar(x) or np.ndim(x) == 0:
        return out[:, 0]
    return out


def quadrature_amplitude(v: FockVector, theta: float, x):
    """Wavefunction value sum_n c_n e^{-i n theta} psi_n(x); |.|^2 is the tomogram."""
    coeffs = _rotated_coefficients(v, theta)
    psi = hermite_function(v.cutoff, x)
    if psi.ndim == 1:
        return complex(coeffs @ psi)
    return coeffs @ psi


def _rotated_coefficients(v: FockVector, theta: float) -> np.ndarray:
    check_angle(theta)
    if theta == 0.0:
        return v.amplitudes
    n = np.arange(v.cutoff + 1)
    return v.amplitudes * np.exp(-1j * theta * n)


def auto_grid(v: FockVector, n_points: int = DEFAULT_GRID_POINTS) -> QuadratureGrid:
    """Symmetric grid wide enough that no slice of ``v`` loses measurable mass.

    Half-width is the largest of the floor 8, the energy scale
    ``4 sqrt(2<n>+1)``, and the top retained Fock state's classical turning
    point plus a five-unit Gaussian decay margin, ``sqrt(2 N + 1) + 5``.  The
    last term is what keeps the dropped mass below 1e-10 for highly
    squeezed or photon-added states; without it the anti-squeezed quadrature
    of r ~ 0.8 states leaks ~1e-7 past the energy-scale width.
    """
    nbar = mean_photon_number(v)
    half = max(8.0,
               4.0 * math.sqrt(2.0 * nbar + 1.0),
               math.sqrt(2.0 * v.cutoff + 1.0) + 5.0)
    half = min(half, MAX_ABSCISSA)
    return QuadratureGrid(half, n_points)


def pdf_slice(v: FockVector, theta: float, grid: QuadratureGrid) -> DistributionSlice:
    """Tomogram slice at fixed theta: PDF on the grid plus its CDF.

    Raises GridTooNarrow when the grid captures less than 1 - 1e-8 of the
    probability.  The CDF is clipped to 1 and is nondecreasing by
    construction (cell increments are integrals of a nonnegative function).
    """
    return pdf_slices([v], [theta], grid)[0][0]


def pdf_slices(vectors: Sequence[FockVector], thetas: Sequence[float],
               grid: QuadratureGrid, tables: HermiteTables | None = None
               ) -> list[list[DistributionSlice]]:
    """Slices of several states at several thetas on one shared grid.

    Each theta gives ``[pdf_slice(v, theta, grid) for v in vectors]``, byte
    for byte.  Each abscissa set gets a single Hermite table at the largest
    cutoff, which every (theta, state) reads by row prefix; the tables come
    from ``tables`` when one is given, else are built one at a time.
    """
    n_max = max(v.cutoff for v in vectors)
    coeffs = [[_rotated_coefficients(v, t) for v in vectors] for t in thetas]
    if tables is None:
        # One table alive at a time: building the four together for the
        # sampler's 8192-point slices raised sampled_crossover peak memory
        # from 93 to 112 MB.
        sets = _abscissae(grid)
        table = lambda key: hermite_function(n_max, sets[key])  # noqa: E731
    else:
        table = tables.get(grid, n_max).__getitem__

    def densities(key):
        psi = table(key)
        return [_densities(c, psi) for c in coeffs]

    pdfs = densities(0)
    h = grid.spacing
    increments = [[np.zeros(grid.n_points - 1) for _ in vectors] for _ in thetas]
    for key, weight in enumerate(_GL_WEIGHTS, start=1):
        for incs, dens in zip(increments, densities(key)):
            for inc, density in zip(incs, dens):
                inc += weight * density

    per_theta = []
    for t, theta_pdfs, theta_incs in zip(thetas, pdfs, increments):
        slices = []
        for pdf, inc in zip(theta_pdfs, theta_incs):
            cdf = np.concatenate([[0.0], np.cumsum(inc * h)])
            deficit = 1.0 - cdf[-1]
            if deficit > 1e-8:
                raise GridTooNarrow(
                    f"grid half-width {grid.x_max:g} drops {deficit:.3e} of the probability "
                    f"at theta={t:g}"
                )
            slices.append(DistributionSlice(grid, t, pdf, np.minimum(cdf, 1.0)))
        per_theta.append(slices)
    return per_theta


def _abscissae(grid: QuadratureGrid) -> list[np.ndarray]:
    """The grid points, then the three Gauss-Legendre node sets of its cells."""
    xs = grid.points()
    h = grid.spacing
    mids = 0.5 * (xs[:-1] + xs[1:])
    return [xs] + [mids + 0.5 * h * node for node in _GL_NODES]


class HermiteTables:
    """Hermite tables of the last grid sliced through this holder, for reuse.

    ``pdf_slices(..., tables=holder)`` takes its table for each abscissa set
    (block 0 for the grid points, 1-3 for the Gauss-Legendre node sets) from
    here.  The four are column blocks of one ``hermite_function`` call over
    the concatenated abscissae; a column depends only on its own abscissa,
    so each block equals the per-set table bit for bit.  A call on another
    grid, or one that needs more rows, drops the held table before building
    the new one; since rows are prefix-stable, reuse changes no value.  The
    table lives as long as the holder.
    """

    def __init__(self):
        self._grid = None
        self._blocks = []

    def get(self, grid: QuadratureGrid, n_max: int) -> list[np.ndarray]:
        if grid != self._grid or len(self._blocks[0]) <= n_max:
            self._grid, self._blocks = None, []  # free the old table first
            sets = _abscissae(grid)
            psi = hermite_function(n_max, np.concatenate(sets))
            bounds = np.cumsum([len(x) for x in sets[:-1]])
            self._grid, self._blocks = grid, np.split(psi, bounds, axis=1)
        return self._blocks


def _densities(coeffs: list[np.ndarray], psi: np.ndarray) -> list[np.ndarray]:
    """|c @ psi[:len(c)]|^2 per coefficient vector, from real products.

    Real and imaginary parts go through real matrix products instead of a
    complex one (which would first cast ``psi`` to complex); the values are
    the same.  ``np.abs`` of the recombined complex value is kept because
    ``hypot(re, im) ** 2`` rounds differently.  A vector with no imaginary
    part (theta = 0 on real amplitudes) skips its product, exactly, since
    |re + 0i| = |re|.
    """
    out = []
    for c in coeffs:
        rows = psi[:len(c)]
        re = c.real @ rows
        if c.imag.any():
            out.append(np.abs(re + 1j * (c.imag @ rows)) ** 2)
        else:
            out.append(np.abs(re) ** 2)
    return out


def tomogram(v: FockVector, theta_count: int, grid: QuadratureGrid) -> Tomogram:
    """Full tomogram on theta uniform over [0, 2*pi).

    Every row must integrate to 1 within 1e-8 and the pattern must satisfy
    w(x, theta+pi) = w(-x, theta) within 1e-10; both are verified before
    returning.
    """
    if not 16 <= theta_count <= MAX_THETA_COUNT:
        raise ValidationError(
            f"theta_count must be in [16, {MAX_THETA_COUNT}], got {theta_count}")
    thetas = 2.0 * math.pi * np.arange(theta_count) / theta_count
    xs = grid.points()
    psi = hermite_function(v.cutoff, xs)
    rows = np.array(_densities([_rotated_coefficients(v, theta) for theta in thetas], psi))

    norms = np.trapezoid(rows, xs, axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    if worst > _ROW_NORM_TOL:
        raise GridTooNarrow(f"tomogram row normalization off by {worst:.3e}")
    _verify_symmetry(v, thetas, rows, psi)
    return Tomogram(thetas, grid, rows)


def _verify_symmetry(v, thetas, rows, psi):
    count = len(thetas)
    if count % 2 == 0:
        half = count // 2
        err = float(np.max(np.abs(rows[half:] - rows[:half, ::-1])))
    else:
        # no theta + pi on the grid; probe a few rows explicitly
        shifted = _densities([_rotated_coefficients(v, t + math.pi) for t in thetas[:3]], psi)
        err = max(float(np.max(np.abs(w - row[::-1]))) for w, row in zip(shifted, rows))
    if err > _SYMMETRY_TOL:
        raise NumericalError(f"tomogram symmetry w(x, theta+pi) = w(-x, theta) off by {err:.3e}")


def count_interior_zeros(v: FockVector, theta: float, grid: QuadratureGrid) -> int:
    """Number of interior zeros of the slice, by amplitude sign changes.

    Only meaningful for states whose rotated amplitudes are real up to a
    global phase (all the squeezed/cat families at phi = 0); the global
    phase is removed before counting.  Values below 1e-4 times the peak are
    ignored: past the classical turning points the truncated
    alternating series oscillates at the sqrt(tail_tol) level, which would
    otherwise register as spurious zeros.
    """
    amp = quadrature_amplitude(v, theta, grid.points())
    lead = amp[np.argmax(np.abs(amp))]
    amp = (amp * np.conj(lead / abs(lead))).real
    amp = amp[np.abs(amp) > _ZERO_THRESHOLD * np.max(np.abs(amp))]
    return int(np.sum(np.diff(np.sign(amp)) != 0))
