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

A slice reads its Hermite tables on one mirror half of its abscissae.  The
grid points, the cell midpoints (the middle Gauss-Legendre node set) and the
pair of outer node sets are each symmetric about 0, and the recurrence gives
``psi_n(-x) = (-1)^n psi_n(x)`` exactly (each step is odd or even under
``x -> -x``, and IEEE rounding is sign-symmetric; only the sign of an
underflowed zero may differ).  So a slice tabulates only the non-negative
grid points, the first outer node set and the non-negative midpoints, half
the columns of the four full tables: the density at ``-x`` is the density at
``x`` of the coefficients ``c_n (-1)^n``, and the last node set is the first
one mirrored.  The values are the full-table ones, except that the matrix
product may round a far-tail cell (density below about 1e-25) a few ulp
apart.  A state of definite photon-number parity, whose odd or whose even
coefficients are all zero, has ``c_n (-1)^n = +-c_n`` (up to the sign of
zeros), and a sign-flipped product rounds to the negated value, so its
mirrored density is its direct one exactly and is not computed again.  A
tomogram row is the PDF of the slice at its angle, read the same way.

Slices of several states at several angles on one grid share one table per
abscissa set, built once at the largest cutoff: row ``n`` of the recurrence
does not depend on how many rows follow it, so each state reads the exact
rows ``psi[:cutoff+1]`` it would have computed alone, and the angle enters
only through the coefficients.  The tables come from a ``HermiteTables``
holder, the caller's or a new one, which builds the three of a grid with one
recurrence over the concatenated abscissae (each column depends only on its
own abscissa, so every value is the per-set one) and keeps them for later
calls on that grid.  The sampler reads only the CDF, so its slices build the
two node tables one at a time and no PDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GridTooNarrow, NumericalError, ValidationError
from .states import CUTOFF_CAP, FockVector, check_angle, mean_photon_number

MAX_ABSCISSA = 50.0
DEFAULT_GRID_POINTS = 2048
MAX_GRID_POINTS = 2**15  # held table at the capped cutoff: 513 x 2 x 2**15 x 8 B = 0.27 GB
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
    from ``tables``, or from a new holder when none is given.
    """
    psi = (tables or HermiteTables()).get(grid, max(v.cutoff for v in vectors))
    angles = [t for t in thetas for _ in vectors]  # one per slice, in (theta, state) order
    coeffs = [_rotated_coefficients(v, t) for t in thetas for v in vectors]
    pdfs = _unfolded_densities(coeffs, psi[0], grid.n_points)
    slices = [DistributionSlice(grid, t, pdf, cdf) for t, pdf, cdf in zip(
        angles, pdfs, _cdfs(coeffs, angles, grid, psi.__getitem__))]
    return [slices[i:i + len(vectors)] for i in range(0, len(slices), len(vectors))]


def _slice_cdf(v: FockVector, theta: float, grid: QuadratureGrid) -> np.ndarray:
    """``pdf_slice(v, theta, grid).cdf`` from its two node tables, built one at a time."""
    sets = _abscissae(grid)
    return _cdfs([_rotated_coefficients(v, theta)], [theta], grid,
                 lambda key: hermite_function(v.cutoff, sets[key]))[0]


def _cdfs(coeffs: list[np.ndarray], thetas: list[float], grid: QuadratureGrid,
          table: Callable[[int], np.ndarray]) -> list[np.ndarray]:
    """CDF per coefficient vector from its Gauss-Legendre cell increments.

    ``table(1)`` gives the Hermite table of node set 1, which also serves
    node set 3, its mirror image; ``table(2)`` gives that of the
    non-negative midpoints (node set 2).  The first is dropped before the
    second is built, and the increments add up sets 1, 2, 3 in that order.
    A CDF that captures less than 1 - 1e-8 of the probability raises
    GridTooNarrow naming its theta.
    """
    outer = table(1)
    first = _densities(coeffs, outer)
    last = [d[::-1] for d in _mirrored_densities(coeffs, outer, first)]
    del outer
    middle = _unfolded_densities(coeffs, table(2), grid.n_points - 1)
    increments = [np.zeros(grid.n_points - 1) for _ in coeffs]
    for weight, densities in zip(_GL_WEIGHTS, (first, middle, last)):
        for inc, density in zip(increments, densities):
            inc += weight * density
    cdfs = []
    for t, inc in zip(thetas, increments):
        cdf = np.concatenate([[0.0], np.cumsum(inc * grid.spacing)])
        deficit = 1.0 - cdf[-1]
        if deficit > 1e-8:
            raise GridTooNarrow(f"grid half-width {grid.x_max:g} drops {deficit:.3e} "
                                f"of the probability at theta={t:g}")
        cdfs.append(np.minimum(cdf, 1.0))
    return cdfs


def _abscissae(grid: QuadratureGrid) -> list[np.ndarray]:
    """The tabulated abscissae of a grid: its non-negative points, the first
    Gauss-Legendre node set of its cells, and the non-negative cell midpoints.

    Each full set is symmetric about 0 (``QuadratureGrid.points`` is exactly
    mirrored, and so are the midpoints), and the third node set is exactly
    the first mirrored, ``mids + d == -(mids - d)[::-1]``.
    """
    xs = grid.points()
    h = grid.spacing
    mids = 0.5 * (xs[:-1] + xs[1:])
    return [xs[len(xs) // 2:], mids + 0.5 * h * _GL_NODES[0], mids[len(mids) // 2:]]


def _mirrored_densities(coeffs: list[np.ndarray], psi: np.ndarray,
                        direct: list[np.ndarray]) -> list[np.ndarray]:
    """Densities on the table ``psi`` of the coefficients ``c_n (-1)^n``, the
    wavefunction mirrored in x, given the ``direct`` densities of ``coeffs``.

    A vector of definite parity (its odd or its even entries all zero) is
    mirrored to ``+-c`` up to the sign of zeros, whose density is the direct
    one bit for bit, so that is reused.
    """
    out = []
    for c, d in zip(coeffs, direct):
        if c[::2].any() and c[1::2].any():
            mirrored = c.copy()
            mirrored[1::2] = -mirrored[1::2]
            d = _densities([mirrored], psi)[0]
        out.append(d)
    return out


def _unfolded_densities(coeffs: list[np.ndarray], half: np.ndarray, n: int) -> list[np.ndarray]:
    """Densities on a symmetric set of ``n`` abscissae from the table ``half``
    of its non-negative ones (the last ``n - n // 2``, 0 included for odd ``n``).

    The negative abscissae are the positive ones mirrored, so their
    densities are those of the mirrored coefficients, in reverse order.
    """
    direct = _densities(coeffs, half)
    return [np.concatenate([m[n % 2:][::-1], d])
            for d, m in zip(direct, _mirrored_densities(coeffs, half, direct))]


class HermiteTables:
    """Hermite tables of the last grid sliced through this holder, for reuse.

    ``pdf_slices(..., tables=holder)`` takes its table for each abscissa set
    from here: block 0 for the non-negative grid points, 1 for the first
    Gauss-Legendre node set and 2 for the non-negative cell midpoints (see
    ``_abscissae``).  The three are column blocks of one ``hermite_function``
    call over the concatenated abscissae; a column depends only on its own
    abscissa, so each block equals the per-set table bit for bit.  A call on
    another grid, or one that needs more rows, drops the held table before
    building the new one; since rows are prefix-stable, reuse changes no
    value.  The table lives as long as the holder.
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

    Row ``i`` is ``pdf_slice(v, theta_i, grid).pdf``, read from one Hermite
    table on the non-negative grid points.  Every row must integrate to 1
    within 1e-8 and the pattern must satisfy w(x, theta+pi) = w(-x, theta)
    within 1e-10; both are verified before returning.
    """
    if not 16 <= theta_count <= MAX_THETA_COUNT:
        raise ValidationError(
            f"theta_count must be in [16, {MAX_THETA_COUNT}], got {theta_count}")
    thetas = 2.0 * math.pi * np.arange(theta_count) / theta_count
    half = hermite_function(v.cutoff, _abscissae(grid)[0])

    def row(theta):
        return _unfolded_densities([_rotated_coefficients(v, theta)], half, grid.n_points)[0]

    rows = np.empty((theta_count, grid.n_points))
    worst = 0.0  # checked row by row, so no check holds a full-size temporary
    for i, theta in enumerate(thetas):
        rows[i] = row(theta)
        worst = max(worst, abs(float(np.trapezoid(rows[i], dx=grid.spacing)) - 1.0))
    if worst > _ROW_NORM_TOL:
        raise GridTooNarrow(f"tomogram row normalization off by {worst:.3e}")
    _verify_symmetry(thetas, rows, row)
    return Tomogram(thetas, grid, rows)


def _verify_symmetry(thetas, rows, row):
    count = len(thetas)
    if count % 2 == 0:
        half = count // 2
        err = max(float(np.max(np.abs(rows[half + i] - rows[i, ::-1]))) for i in range(half))
    else:
        # no theta + pi on the grid; probe a few rows explicitly
        err = max(float(np.max(np.abs(row(t + math.pi) - rows[i, ::-1])))
                  for i, t in enumerate(thetas[:3]))
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
