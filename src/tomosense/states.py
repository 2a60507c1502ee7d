"""Nonclassical single-mode states as truncated Fock-basis amplitude vectors.

All states are pure and are represented by a finite complex amplitude list
``c_0 .. c_N`` (a :class:`FockVector`).  Builders evaluate the closed-form
Fock expansions in log-magnitude space, so factorial ratios like
``(2n)!/(2^n n!)`` never overflow, and truncate adaptively: terms are added
until both the next term's squared magnitude and a geometric bound on the
remaining tail fall below ``tail_tol`` (relative to the accumulated norm).

Families provided:

* squeezed vacuum, with ``m`` photons added or subtracted
  (amplitudes proportional to ``sqrt((2n+m)!)/(2^n n!) e^{i n phi} (-tanh r)^n``
  on ``|2n+m>`` for addition, and to
  ``(2n)! e^{i n phi} (-tanh r)^n / (2^n n! sqrt((2n-m)!))`` on ``|2n-m>``
  for subtraction, with the sum starting at ``n = ceil(m/2)``),
* even/odd coherent superpositions (cat states) and plain coherent states,
  including one- and two-photon-added even cats,
* the exponential of the inverse-weighted two-photon raising operator
  ``G = a^dag^2 (1 + n)^{-1}`` acting on vacuum (:func:`janus_exponential`).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AnnihilatedToZero,
    SubtractFromVacuum,
    TruncationFailure,
    UnsupportedAddition,
    ValidationError,
)

CUTOFF_CAP = 512
DEFAULT_TAIL_TOL = 1e-12
NORM_TOL = 1e-10  # builders normalize to within a few ulp (2.2e-16)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SqueezeParams:
    """Squeezing magnitude ``r >= 0`` and phase ``phi``, reduced mod 2*pi."""

    r: float
    phi: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.r) or self.r < 0:
            raise ValidationError(f"squeezing magnitude must be finite and >= 0, got {self.r}")
        if not math.isfinite(self.phi):
            raise ValidationError("squeezing phase must be finite")
        reduced = self.phi % TWO_PI
        if reduced >= TWO_PI:  # fmod of a tiny negative rounds up to 2*pi itself
            reduced = 0.0
        object.__setattr__(self, "phi", reduced)


@dataclass(frozen=True)
class CatParams:
    """Coherent amplitude of a cat/coherent state.  |alpha| <= 12 keeps the
    adaptive truncation well inside the cutoff cap."""

    alpha: complex

    def __post_init__(self):
        a = complex(self.alpha)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValidationError("alpha must be finite")
        mag = math.hypot(a.real, a.imag)  # abs(a), but inf instead of OverflowError
        if mag > 12.0:
            raise ValidationError(f"|alpha| = {mag:g} exceeds the supported bound 12")
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class FockVector:
    """Normalized amplitudes in the truncated number basis.

    ``amplitudes[n]`` is ``c_n`` for ``n = 0 .. cutoff``; ``discarded_mass``
    is the probability weight dropped by the truncation (exact when a closed
    form for the full norm exists, otherwise a safe geometric bound).  At
    least one amplitude is required, all finite, with a norm within
    ``NORM_TOL`` of 1, and a discarded mass in [0, 1).
    """

    amplitudes: np.ndarray
    cutoff: int = field(init=False)
    discarded_mass: float

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise ValidationError(f"Fock amplitudes must be 1-D, got shape {amps.shape}")
        # a NaN, an infinity or no amplitude at all fails the norm test too
        norm = math.sqrt(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValidationError(f"Fock amplitudes must be finite with unit norm, got norm {norm!r}")
        if not 0.0 <= self.discarded_mass < 1.0:
            raise ValidationError(
                f"discarded mass must be in [0, 1), got {self.discarded_mass!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "cutoff", len(amps) - 1)

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


SVS_VALIDATED_DELTA = 3
# The series read photon counts as float64 (_log_factorial), exact up to 2**53;
# numpy cannot convert a count beyond 2**64 at all.
MAX_PHOTON_DELTA = 2**53
CAT_FAMILIES = ("cat-even", "cat-odd", "coherent")
FAMILIES = ("svs",) + CAT_FAMILIES

_CAT_KIND = {"cat-even": "even", "cat-odd": "odd", "coherent": "coherent"}


@dataclass(frozen=True)
class StateSpec:
    """Uniform address of one state: family, parameters, photon change.

    ``photon_delta > 0`` adds photons, ``< 0`` subtracts (squeezed family
    only), ``0`` leaves the base state.  Cat families support additions
    ``{0, 1, 2}`` on the even cat only.
    """

    family: str
    params: SqueezeParams | CatParams
    photon_delta: int = 0
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        _check_series_bounds(self.photon_delta, self.tail_tol)
        if self.family == "svs":
            if not isinstance(self.params, SqueezeParams):
                raise ValidationError("svs needs SqueezeParams")
            if abs(self.photon_delta) > SVS_VALIDATED_DELTA:
                warnings.warn(
                    f"photon_delta {self.photon_delta} is outside the validated range "
                    f"|m| <= {SVS_VALIDATED_DELTA}; results are unvalidated",
                    stacklevel=2,
                )
        else:
            if not isinstance(self.params, CatParams):
                raise ValidationError(f"{self.family} needs CatParams")
            allowed = (0, 1, 2) if self.family == "cat-even" else (0,)
            if self.photon_delta not in allowed:
                raise UnsupportedAddition(
                    f"{self.family} supports photon_delta in {allowed}, got {self.photon_delta}"
                )

    def label(self) -> str:
        base = {"svs": "svs", "cat-even": "ecs", "cat-odd": "ocs", "coherent": "coh"}[self.family]
        m = self.photon_delta
        if m > 0:
            return f"{base}_add{m}"
        if m < 0:
            return f"{base}_sub{-m}"
        return base

    def with_parameter(self, value: float) -> "StateSpec":
        """Return a copy with the family's swept parameter (r or real alpha) set."""
        if self.family == "svs":
            return replace(self, params=replace(self.params, r=float(value)))
        return replace(self, params=CatParams(complex(value)))


def _check_series_bounds(m: int, tail_tol: float) -> None:
    """Reject a photon change beyond +-2**53 or a tail tolerance outside (0, 1)."""
    if abs(m) > MAX_PHOTON_DELTA:
        raise ValidationError(f"photon_delta must be within +-2**53, got {m}")
    if not (0 < tail_tol < 1):
        raise ValidationError("tail_tol must be in (0, 1)")


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

# Stirling-series coefficients of Cephes lgam (S. L. Moshier, Methods and
# Programs for Mathematical Functions, 1989), the algorithm behind
# scipy.special.gammaln.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LOG_SQRT_2PI = 0.91893853320467274178


def _cephes_log_factorial(n: int) -> float:
    """Cephes lgam at x = n + 1: the exact product below 13, above it the
    Stirling sum with a 5-term correction below 1000, a 3-term one up to 1e8
    and none beyond."""
    x = float(n + 1)
    if x < 13.0:
        return math.log(math.factorial(n))
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    s = _LGAM_A[0]
    for a in _LGAM_A[1:]:
        s = s * p + a
    return q + s / x


# log n! for n <= 2 * CUTOFF_CAP + 4, which covers every n a series with
# |photon_delta| <= CUTOFF_CAP reads
_LOG_FACTORIALS = tuple(_cephes_log_factorial(n) for n in range(2 * CUTOFF_CAP + 5))


def _log_factorial(n: int) -> float:
    """log n! for an integer ``n >= 0``: the same double as ``gammaln(n + 1)``."""
    if n < len(_LOG_FACTORIALS):
        return _LOG_FACTORIALS[n]
    return _cephes_log_factorial(n)


def _legendre(m: int, c: float) -> float:
    """Legendre polynomial ``P_m(c)`` for ``c >= 1``: the same double as
    ``eval_legendre(m, c)``, whose integer-order recurrence this is."""
    if m == 0:
        return 1.0
    d, p = c - 1.0, c
    for k in range(1, m):
        d = ((2 * k + 1) / (k + 1)) * (c - 1.0) * p + (k / (k + 1)) * d
        p += d
    return p


# ---------------------------------------------------------------------------
# series assembly helpers
# ---------------------------------------------------------------------------

def _finish(indices, log_mags, phases, tail_bound, log_norm_closed=None) -> FockVector:
    """Turn unnormalized series data into a normalized FockVector.

    ``phases`` are unit-modulus complex factors per retained term.  When the
    closed-form log-norm of the untruncated series is known the discarded
    mass is computed exactly from the truncation deficit; otherwise the
    geometric ``tail_bound`` (already relative to the kept norm) is recorded.
    """
    log_mags = np.asarray(log_mags, dtype=float)
    scale = log_mags.max()
    mags = np.exp(log_mags - scale)
    kept = float(np.sum(mags * mags))
    discarded = tail_bound / (1.0 + tail_bound)
    if log_norm_closed is not None:
        # the measured deficit is exact down to rounding noise (~1e-16);
        # below that the geometric bound is the sharper sound value
        total = math.exp(log_norm_closed - 2.0 * scale)
        discarded = min(discarded, max(0.0, 1.0 - kept / total))
    coeffs = mags / math.sqrt(kept) * np.asarray(phases, dtype=np.complex128)
    amps = np.zeros(max(indices) + 1, dtype=np.complex128)
    amps[np.asarray(indices)] = coeffs
    return FockVector(amps, discarded)


def _series_phase(n: int, phi: float) -> complex:
    """Unit factor (-1)^n e^{i n phi}; exactly real when phi == 0."""
    sign = -1.0 if n % 2 else 1.0
    if phi == 0.0:
        return complex(sign)
    return sign * cmath.exp(1j * n * phi)


def _run_series(term_log_mag, term_index, term_phase, tail_tol, what, ratio_limit=0.0):
    """Accumulate series terms until tail_tol is met or the cap is hit.

    ``term_log_mag(n)`` gives the log magnitude of term ``n`` (n = 0, 1, ...
    relative to the series start), ``term_index(n)`` its Fock index.  Stops
    once the geometric bound ``next^2 / (1 - q)`` on the whole remaining tail
    drops below ``tail_tol`` times the accumulated squared norm.  ``q`` upper
    bounds every later term-to-term squared ratio: the local ratio works for
    the families whose ratios decrease, ``ratio_limit`` covers those that
    increase toward an asymptote (tanh^2 r for the squeezed series).
    """
    indices, log_mags, phases = [], [], []
    log_norm = -math.inf
    log_tol = math.log(tail_tol)
    n = 0
    lm, lm_next = term_log_mag(0), term_log_mag(1)  # each term's magnitude once
    while True:
        idx = term_index(n)
        if idx > CUTOFF_CAP:
            raise TruncationFailure(
                f"{what}: cutoff cap {CUTOFF_CAP} reached before tail tolerance {tail_tol:g}"
            )
        indices.append(idx)
        log_mags.append(lm)
        phases.append(term_phase(n))
        log_norm = np.logaddexp(log_norm, 2.0 * lm)
        lm_after = term_log_mag(n + 2)
        log_next_sq = 2.0 * lm_next
        step = 2.0 * (lm_after - lm_next)
        q = max(math.exp(min(step, 50.0)), ratio_limit)
        if q < 1.0:
            log_tail = log_next_sq - math.log1p(-q)
            if log_tail - log_norm < log_tol:
                return indices, log_mags, phases, math.exp(log_tail - log_norm)
        n += 1
        lm, lm_next = lm_next, lm_after


# ---------------------------------------------------------------------------
# squeezed-vacuum family
# ---------------------------------------------------------------------------

def build_svs_family(p: SqueezeParams, m: int, tail_tol: float = DEFAULT_TAIL_TOL) -> FockVector:
    """Squeezed vacuum with ``m`` photons added (m > 0) or subtracted (m < 0).

    Addition normalizes ``a^dag^m S(xi)|0>``; the closed-form norm of the
    series is ``m! (cosh r)^(m+1) P_m(cosh r)`` with ``P_m`` the Legendre
    polynomial, evaluated in log space.  Subtraction normalizes ``a^m S(xi)|0>``
    and requires ``r > 0``.  One-photon subtraction produces the same ray as
    one-photon addition, so ``m = -1`` returns the ``m = +1`` amplitudes
    (index-wise identical; literal evaluation of the subtracted series only
    differs by the global phase ``-e^{i phi}``).

    Both directions are one series over ``n >= max(0, ceil(-m/2))`` on
    ``|2n+m>``; only the log magnitude of a term and the closed-form norm
    depend on the sign of ``m``.
    """
    _check_series_bounds(m, tail_tol)
    if m < 0 and p.r == 0.0:
        raise SubtractFromVacuum(
            f"cannot subtract {-m} photon(s) from the vacuum (r = 0 makes the norm vanish)"
        )
    if m == -1:
        m = 1
    t = math.tanh(p.r)
    if t == 0.0:  # r = 0 with m >= 0: the state is |m>
        if m > CUTOFF_CAP:  # any r > 0 addition above the cap fails too
            raise TruncationFailure(f"|{m}> is above the cutoff cap {CUTOFF_CAP}")
        amps = np.zeros(m + 1, dtype=np.complex128)
        amps[m] = 1.0
        return FockVector(amps, 0.0)
    log_t = math.log(t)
    ln2 = math.log(2.0)
    n0 = max(0, (1 - m) // 2)  # smallest n with 2n + m >= 0

    def log_mag(k):
        n = n0 + k
        if m >= 0:
            return 0.5 * _log_factorial(2 * n + m) - n * ln2 - _log_factorial(n) + n * log_t
        return _log_factorial(2 * n) - n * ln2 - _log_factorial(n) \
            - 0.5 * _log_factorial(2 * n + m) + n * log_t

    what = (f"{m}-photon-added" if m >= 0 else f"{-m}-photon-subtracted") + f" SVS at r={p.r:g}"
    idx, lm, ph, tail = _run_series(
        log_mag, lambda k: 2 * (n0 + k) + m, lambda k: _series_phase(n0 + k, p.phi), tail_tol,
        what, ratio_limit=t * t,
    )
    if m >= 0:
        log_norm = _log_norm_added(p.r, m)
    elif m >= -3:
        log_norm = _log_closed_norm(_subtracted_norm_closed(p.r, -m), what)
    else:
        log_norm = None
    vec = _finish(idx, lm, ph, tail, log_norm)
    _check_tail(vec, tail_tol, what)
    return vec


def _check_tail(vec: FockVector, tail_tol: float, what: str) -> None:
    if vec.discarded_mass >= tail_tol:
        raise TruncationFailure(
            f"{what}: discarded mass {vec.discarded_mass:.3e} >= tail tolerance {tail_tol:g}"
        )


def _log_norm_added(r: float, m: int) -> float:
    """log of m!(cosh r)^(m+1) P_m(cosh r), the added-series squared norm."""
    c = math.cosh(r)
    return _log_factorial(m) + (m + 1) * math.log(c) + math.log(_legendre(m, c))


def _log_closed_norm(norm: float, what: str) -> float:
    """log of a closed-form squared norm, which underflows to 0 for tiny parameters."""
    if not norm > 0.0:
        raise ValidationError(f"{what}: closed-form norm underflows to {norm:g}")
    return math.log(norm)


def _subtracted_norm_closed(r: float, m: int) -> float:
    c, s = math.cosh(r), math.sinh(r)
    if m == 1:
        # not tabulated as a subtracted form anywhere; equals cosh r * sinh^2 r
        return c * s * s
    if m == 2:
        return 3 * c**5 - 5 * c**3 + 2 * c
    if m == 3:
        return 3 * s**4 * (5 * c**3 - 2 * c)
    raise ValueError(f"no closed form for m={m}")


def normalization_constant(kind: str, m: int, p: SqueezeParams, method: str = "closed") -> float:
    """Squared norm of the unnormalized added/subtracted squeezed-vacuum series.

    ``kind="added"`` returns ``m!(cosh r)^(m+1) P_m(cosh r)``;
    ``kind="subtracted"`` returns the polynomial-in-cosh closed form for
    ``m <= 3``.  ``method="series"`` sums the defining series instead, which
    the tests use as the independent route.  ``m`` runs over
    ``1 .. CUTOFF_CAP``, the photon changes a build can reach; a norm beyond
    the largest double raises ``ValidationError``.
    """
    if not 1 <= m <= CUTOFF_CAP:
        raise ValidationError(f"m must be in [1, {CUTOFF_CAP}], got {m}")
    if kind not in ("added", "subtracted"):
        raise ValidationError(f"kind must be 'added' or 'subtracted', got {kind!r}")
    if method not in ("closed", "series"):
        raise ValidationError(f"method must be 'closed' or 'series', got {method!r}")
    if kind == "subtracted" and p.r == 0.0:
        raise SubtractFromVacuum("subtracted-state norm vanishes at r = 0")
    try:
        if kind == "added" and method == "closed":
            norm = math.exp(_log_norm_added(p.r, m))
        elif kind == "added" or method == "series" or m > 3:
            norm = _norm_series(p.r, m, added=kind == "added")
        else:
            norm = _subtracted_norm_closed(p.r, m)
    except OverflowError:  # math.cosh, math.exp and ** raise instead of returning inf
        norm = math.inf
    if not math.isfinite(norm):
        raise ValidationError(f"{kind} norm for m={m} at r={p.r:g} overflows a double")
    return norm


def _norm_series(r: float, m: int, added: bool) -> float:
    from scipy.special import logsumexp  # the only scipy.special use; builds never reach it

    t = math.tanh(r)
    if t == 0.0:
        return float(math.factorial(m)) if added else 0.0
    if t == 1.0:  # the terms then never decrease
        raise TruncationFailure(f"normalization series diverges: tanh r rounds to 1 at r={r:g}")
    log_t2 = 2.0 * math.log(t)
    ln2 = math.log(2.0)
    terms = []
    top = -math.inf
    n = 0 if added else (m + 1) // 2
    while True:
        if added:
            lg = _log_factorial(2 * n + m) - 2 * n * ln2 - 2 * _log_factorial(n) + n * log_t2
        else:
            lg = 2 * (_log_factorial(2 * n) - n * ln2 - _log_factorial(n)) \
                + n * log_t2 - _log_factorial(2 * n - m)
        terms.append(lg)
        top = max(top, lg)
        if len(terms) > 3 and lg < top + math.log(1e-16) - 0.5 * abs(math.log1p(-t * t)) - 20:
            break
        n += 1
        if n > 50_000:  # pragma: no cover
            raise TruncationFailure("normalization series did not converge")
    return float(math.exp(logsumexp(terms)))


# ---------------------------------------------------------------------------
# cat family
# ---------------------------------------------------------------------------

def build_cat_family(kind: str, p: CatParams, m_add: int = 0,
                     tail_tol: float = DEFAULT_TAIL_TOL) -> FockVector:
    """Even/odd coherent superpositions, coherent states, and photon-added
    even cats.

    Even cat amplitudes are proportional to ``alpha^{2n}/sqrt((2n)!)`` on
    ``|2n>``; the one/two-photon-added even cats carry the extra factors
    ``sqrt(2n+1)`` and ``sqrt((2n+2)(2n+1))`` and shift the support up by
    ``m_add``.  Only the even cat has known added-photon expansions, so
    ``kind`` in {"odd", "coherent"} requires ``m_add = 0``.
    """
    if kind not in ("even", "odd", "coherent"):
        raise ValidationError(f"kind must be even/odd/coherent, got {kind!r}")
    _check_series_bounds(m_add, tail_tol)
    if m_add not in (0, 1, 2) or (kind != "even" and m_add != 0):
        raise UnsupportedAddition(f"no expansion for {m_add} photon(s) added to the {kind} state")
    alpha = p.alpha
    mag = abs(alpha)
    if mag == 0.0:
        if kind == "odd":
            raise ValidationError("odd cat is undefined at alpha = 0 (zero vector)")
        amps = np.zeros(m_add + 1, dtype=np.complex128)
        amps[m_add] = 1.0
        return FockVector(amps, 0.0)
    log_a = math.log(mag)
    arg = math.atan2(alpha.imag, alpha.real)  # cmath.phase raises when this underflows
    # term n carries alpha^j / sqrt(j!) with the power j = step * n + start
    step, start = {"coherent": (1, 0), "odd": (2, 1), "even": (2, 0)}[kind]

    def log_mag(n):
        j = step * n + start
        lm = j * log_a - 0.5 * _log_factorial(j)
        if m_add:  # a^dag^m_add |j> = sqrt((j + m_add)! / j!) |j + m_add>
            lm += 0.5 * math.log(math.prod(range(j + 1, j + m_add + 1)))
        return lm

    def index(n):
        return step * n + start + m_add

    def phase(n):
        return cmath.exp(1j * (step * n + start) * arg) if arg else 1.0

    what = f"{kind} cat (m_add={m_add}) at |alpha|={mag:g}"
    idx, lm, ph, tail = _run_series(log_mag, index, phase, tail_tol, what)
    log_norm = _log_norm_cat(kind, mag, m_add)
    vec = _finish(idx, lm, ph, tail, log_norm)
    _check_tail(vec, tail_tol, what)
    return vec


def _log_norm_cat(kind: str, mag: float, m_add: int) -> float:
    """log squared norm of the unnormalized cat series (closed forms).

    |alpha| <= 12 keeps x = |alpha|^2 <= 144, far from double overflow, so
    the hyperbolic functions are evaluated directly.
    """
    x = mag * mag
    if kind == "coherent":
        return x
    if kind == "odd":
        return _log_closed_norm(math.sinh(x), f"odd cat at |alpha|={mag:g}")
    if m_add == 0:
        return math.log(math.cosh(x))
    if m_add == 1:
        return math.log(math.cosh(x) + x * math.sinh(x))
    return math.log((2.0 + x * x) * math.cosh(x) + 4.0 * x * math.sinh(x))


# ---------------------------------------------------------------------------
# janus exponential
# ---------------------------------------------------------------------------

def janus_exponential(f: float) -> FockVector:
    """Normalized ``exp(f G)|0>`` with ``G = a^dag^2 (1 + a^dag a)^{-1}``.

    Built literally: ``G`` is applied repeatedly to the vacuum and the
    exponential series is summed term by term.  ``G|n> = sqrt((n+2)/(n+1))
    |n+2>``, so the support sits on even indices only.
    """
    if not math.isfinite(f) or f < 0:
        raise ValidationError(f"f must be finite and >= 0, got {f}")
    terms = [np.array([1.0])]  # f^j / j! * G^j |0>, dense on even indices
    norms_sq = [1.0]
    j = 0
    while True:
        prev = terms[-1]
        j += 1
        if 2 * j > CUTOFF_CAP:
            raise TruncationFailure("janus series passed the cutoff cap")
        nxt = np.zeros(j + 1)
        ks = np.arange(j)
        nxt[1:] = prev * np.sqrt((2 * ks + 2) / (2 * ks + 1.0)) * (f / j)
        term_sq = float(nxt[-1] ** 2)  # G^j|0> is a single basis vector scaled
        total = math.fsum(norms_sq)
        ratio = (2.0 * f) ** 2 / ((2 * j + 1) * (2 * j + 2))
        if term_sq < DEFAULT_TAIL_TOL * total and ratio < 1.0 \
                and term_sq * ratio / (1.0 - ratio) < DEFAULT_TAIL_TOL * total:
            break
        terms.append(nxt)
        norms_sq.append(term_sq)
    width = len(terms[-1])
    acc = np.zeros(width)
    for term in terms:
        acc[: len(term)] += term
    acc /= np.linalg.norm(acc)
    amps = np.zeros(2 * (width - 1) + 1, dtype=np.complex128)
    amps[::2] = acc
    tail = term_sq * (1.0 + ratio / (1.0 - ratio)) / math.fsum(norms_sq)
    return FockVector(amps, tail)


def two_photon_raising_matrix(dim: int) -> np.ndarray:
    """Dense matrix of ``a^dag^2 (1 + a^dag a)^{-1}`` on a dim-dimensional truncation, dim >= 1."""
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    g = np.zeros((dim, dim))
    n = np.arange(dim - 2)
    g[n + 2, n] = np.sqrt((n + 2) / (n + 1.0))
    return g


# ---------------------------------------------------------------------------
# ladder operators and scalar observables
# ---------------------------------------------------------------------------

def apply_ladder(v: FockVector, direction: str, times: int = 1) -> FockVector:
    """Apply the raising or lowering operator ``times`` times and renormalize.

    This is the independent construction route for the photon-added and
    photon-subtracted families: raising maps ``c_n -> sqrt(n+1) c_n`` shifted
    up, lowering maps ``c_n -> sqrt(n) c_n`` shifted down.  ``times`` is at
    most ``CUTOFF_CAP``, like every photon change a build reaches, and is
    checked before the first application.
    """
    if direction not in ("raise", "lower"):
        raise ValidationError(f"direction must be 'raise' or 'lower', got {direction!r}")
    if not 1 <= times <= CUTOFF_CAP:
        raise ValidationError(f"times must be in [1, {CUTOFF_CAP}], got {times}")
    amps = np.array(v.amplitudes, dtype=np.complex128)
    for _ in range(times):
        if direction == "raise":
            if len(amps) + 1 > CUTOFF_CAP + 1:
                raise TruncationFailure("raising past the cutoff cap")
            out = np.zeros(len(amps) + 1, dtype=np.complex128)
            out[1:] = amps * np.sqrt(np.arange(1, len(amps) + 1))
        else:
            out = amps[1:] * np.sqrt(np.arange(1, len(amps)))
        # scale the largest magnitude into [0.5, 1): a power of two is exact, so
        # the normalized result keeps its bits and long raisings cannot overflow
        _, exponent = np.frexp(np.max(np.abs(out), initial=0.0))
        amps = np.ldexp(out.view(np.float64), -exponent).view(np.complex128)
    norm = np.linalg.norm(amps)
    if norm == 0.0 or len(amps) == 0:
        raise AnnihilatedToZero("lowering produced the zero vector")
    return FockVector(amps / norm, v.discarded_mass)


def mean_photon_number(v: FockVector) -> float:
    """Expectation of the number operator, sum of n |c_n|^2."""
    return float(np.sum(np.arange(len(v.amplitudes)) * v.probabilities))


def check_angle(theta: float) -> None:
    """Reject a non-finite angle or one beyond +-2**53 rad.

    Beyond 2**53 neighbouring doubles are 2 rad apart, so the angle no longer
    names a phase, and ``theta * n`` overflows for the largest doubles.
    """
    if not abs(theta) <= 2.0**53:
        raise ValidationError(f"angle must be finite and within +-2**53, got {theta}")


def quadrature_variance(v: FockVector, theta: float) -> float:
    """Variance of the rotated quadrature (a^dag e^{i theta} + a e^{-i theta})/sqrt(2).

    Evaluated from the tridiagonal/pentadiagonal Fock matrix elements; the
    vacuum gives 1/2 in this convention.
    """
    check_angle(theta)
    c = v.amplitudes
    n = np.arange(len(c))
    nbar = float(np.sum(n * v.probabilities))
    a_expect = complex(np.sum(np.conj(c[:-1]) * c[1:] * np.sqrt(n[1:]))) if len(c) > 1 else 0.0
    a2_expect = complex(np.sum(np.conj(c[:-2]) * c[2:] * np.sqrt(n[1:-1] * n[2:]))) \
        if len(c) > 2 else 0.0
    mean = math.sqrt(2.0) * (cmath.exp(-1j * theta) * a_expect).real
    mean_sq = (cmath.exp(-2j * theta) * a2_expect).real + nbar + 0.5
    return mean_sq - mean * mean


def build_state(spec: StateSpec) -> FockVector:
    """Construct the FockVector a StateSpec addresses."""
    if spec.family == "svs":
        return build_svs_family(spec.params, spec.photon_delta, spec.tail_tol)
    return build_cat_family(_CAT_KIND[spec.family], spec.params, spec.photon_delta, spec.tail_tol)
