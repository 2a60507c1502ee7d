import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import eval_legendre, gammaln

from tomosense import states
from tomosense.errors import (
    AnnihilatedToZero,
    SubtractFromVacuum,
    TomosenseError,
    TruncationFailure,
    UnsupportedAddition,
    ValidationError,
)
from tomosense.states import (
    DEFAULT_TAIL_TOL,
    CatParams,
    FockVector,
    SqueezeParams,
    StateSpec,
    apply_ladder,
    build_cat_family,
    build_state,
    build_svs_family,
    janus_exponential,
    mean_photon_number,
    normalization_constant,
    quadrature_variance,
    two_photon_raising_matrix,
)

from conftest import align_global_phase, doubles

TIGHT = 1e-26  # tail tolerance for coefficient-level oracle comparisons


# ---------------------------------------------------------------------------
# squeezed vacuum family
# ---------------------------------------------------------------------------

def test_svs_r0_is_vacuum():
    v = build_svs_family(SqueezeParams(0.0), 0)
    assert v.amplitudes[0] == 1.0 and v.cutoff == 0


def test_svs_coefficients_at_default_r(default_r):
    # direct evaluation of the n=0,1 series terms
    v = build_svs_family(SqueezeParams(default_r), 0)
    c0 = math.cosh(default_r) ** -0.5
    c2 = -c0 * math.sqrt(2.0) / 2.0 * math.tanh(default_r)
    assert v.amplitudes[0].real == pytest.approx(c0, abs=1e-10)
    assert v.amplitudes[2].real == pytest.approx(c2, abs=1e-10)
    assert np.all(v.amplitudes[1::2] == 0)


def test_one_photon_addition_equals_subtraction():
    for r in (0.1, 0.5, 1.1):
        added = build_svs_family(SqueezeParams(r), 1)
        subtracted = build_svs_family(SqueezeParams(r), -1)
        assert np.array_equal(added.amplitudes, subtracted.amplitudes)


def test_subtract_from_vacuum_raises():
    with pytest.raises(SubtractFromVacuum):
        build_svs_family(SqueezeParams(0.0), -1)


def test_normalization_and_tail_accounting():
    for r, m in [(0.3, 0), (0.8, 2), (0.8, -3), (1.4, 0), (0.5, 3)]:
        v = build_svs_family(SqueezeParams(r), m)
        assert abs(np.sum(v.probabilities) - 1.0) < 1e-12
        assert 0.0 <= v.discarded_mass < 1e-12
        # recorded truncation loss must track the mass a tighter build keeps
        # beyond this cutoff (log-space rounding limits agreement to ~1%)
        tight = build_svs_family(SqueezeParams(r), m, 1e-20)
        true_tail = float(np.sum(tight.probabilities[v.cutoff + 1:]))
        assert v.discarded_mass == pytest.approx(true_tail, rel=0.01, abs=1e-14)
        if m == 0:
            assert mean_photon_number(v) == pytest.approx(math.sinh(r) ** 2, abs=1e-9)


def test_parity_support():
    r = 0.6
    assert np.all(build_svs_family(SqueezeParams(r), 0).amplitudes[1::2] == 0)
    assert np.all(build_svs_family(SqueezeParams(r), 2).amplitudes[1::2] == 0)
    assert np.all(build_svs_family(SqueezeParams(r), 1).amplitudes[0::2] == 0)
    assert np.all(build_svs_family(SqueezeParams(r), -3).amplitudes[0::2] == 0)


@pytest.mark.parametrize("r", [0.3, 0.5, 1.0 / math.sqrt(2.0)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_ladder_oracle_matches_closed_form(r, m):
    """Closed-form series vs repeated ladder application, both routes tight."""
    base = build_svs_family(SqueezeParams(r), 0, TIGHT)
    for delta, direction in ((m, "raise"), (-m, "lower")):
        closed = build_svs_family(SqueezeParams(r), delta, TIGHT)
        laddered = apply_ladder(base, direction, m)
        a, b = align_global_phase(closed.amplitudes, laddered.amplitudes)
        assert np.max(np.abs(a - b)) < 1e-10


def test_ladder_basics():
    one = apply_ladder(FockVector(np.array([1.0 + 0j]), 0.0), "raise", 1)
    assert one.amplitudes[1] == 1.0
    with pytest.raises(AnnihilatedToZero):
        apply_ladder(FockVector(np.array([1.0 + 0j]), 0.0), "lower", 1)
    with pytest.raises(ValidationError):
        apply_ladder(one, "sideways", 1)


def test_mean_photon_limits_and_monotonicity():
    for m in (1, 2, 3):
        v = build_svs_family(SqueezeParams(1e-4), m)
        assert abs(mean_photon_number(v) - m) < 1e-6
    for r in (0.3, 0.5, 0.8):
        nbars = [mean_photon_number(build_svs_family(SqueezeParams(r), m)) for m in range(4)]
        assert all(b > a for a, b in zip(nbars, nbars[1:]))


def test_quadrature_variance_closed_forms():
    vac = build_svs_family(SqueezeParams(0.0), 0)
    for theta in (0.0, 0.4, math.pi / 2):
        assert quadrature_variance(vac, theta) == pytest.approx(0.5, abs=1e-14)
    for r in (0.3, 0.7):
        v = build_svs_family(SqueezeParams(r), 0)
        assert quadrature_variance(v, 0.0) == pytest.approx(math.exp(-2 * r) / 2, abs=1e-10)
        assert quadrature_variance(v, math.pi / 2) == pytest.approx(math.exp(2 * r) / 2, abs=1e-10)


def test_variance_exponent_fits():
    """ln-variance slopes over r in [0.3, 0.8].

    The squeezed vacuum falls off exactly as exp(-2r).  One-photon addition
    scales the variance by the constant 3/2 (the state is the squeeze of
    |1>), so its fitted exponent is also exactly 2; two-photon addition
    decays faster than exp(-2r) on this window (fit ~ 2.59).
    """
    rs = np.linspace(0.3, 0.8, 51)
    kappa = {}
    for m in (0, 1, 2):
        lv = [math.log(quadrature_variance(build_svs_family(SqueezeParams(r), m), 0.0))
              for r in rs]
        kappa[m] = -np.polyfit(rs, lv, 1)[0]
    assert abs(kappa[0] - 2.0) < 1e-6
    assert abs(kappa[1] - 2.0) < 1e-6
    for r in (0.3, 0.55, 0.8):  # closed form var = (3/2) e^{-2r} for one added photon
        v1 = build_svs_family(SqueezeParams(r), 1)
        assert quadrature_variance(v1, 0.0) == pytest.approx(1.5 * math.exp(-2 * r), abs=1e-9)
    assert kappa[2] > 2.5  # measured 2.594; decays faster, not slower


def test_variance_matches_pdf_moments():
    """Dual route: operator matrix elements vs integrating the slice PDF."""
    from tomosense.tomography import auto_grid, pdf_slice

    for spec_args, theta in [((0.6, 2), 0.7), ((0.4, -2), 1.9)]:
        v = build_svs_family(SqueezeParams(spec_args[0]), spec_args[1], 1e-20)
        grid = auto_grid(v)
        xs = grid.points()
        pdf = pdf_slice(v, theta, grid).pdf
        mean = np.trapezoid(pdf * xs, xs)
        second = np.trapezoid(pdf * xs * xs, xs)
        assert quadrature_variance(v, theta) == pytest.approx(second - mean**2, abs=1e-9)


# ---------------------------------------------------------------------------
# normalization constants
# ---------------------------------------------------------------------------

def test_added_norm_polynomials():
    p = SqueezeParams(0.6)
    c = math.cosh(0.6)
    assert normalization_constant("added", 1, p) == pytest.approx(c**3, rel=1e-14)
    assert normalization_constant("added", 2, p) == pytest.approx(3 * c**5 - c**3, rel=1e-14)
    assert normalization_constant("added", 3, p) == pytest.approx(15 * c**7 - 9 * c**5, rel=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("r", [0.3, 0.6, 0.9])
def test_norm_series_agrees_with_closed_forms(m, r):
    p = SqueezeParams(r)
    for kind in ("added", "subtracted"):
        closed = normalization_constant(kind, m, p)
        series = normalization_constant(kind, m, p, method="series")
        assert abs(closed - series) / closed < 1e-10


def test_subtracted_norm_at_r0_raises():
    with pytest.raises(SubtractFromVacuum):
        normalization_constant("subtracted", 2, SqueezeParams(0.0))


@pytest.mark.parametrize("kind, m, r, method", [
    ("added", 400, 3.0, "closed"),  # P_400(cosh 3) overflows to inf
    ("added", 3, 1e300, "closed"),  # cosh r raises OverflowError
    ("added", 200, 0.0, "closed"),  # 200! alone overflows
    ("added", 200, 0.0, "series"),
    ("added", 3, 1e300, "series"),  # tanh r rounds to 1, the series never converges
    ("subtracted", 2, 800.0, "closed"),  # cosh(800)**5 raises OverflowError
    ("added", 0, 0.5, "closed"),
    ("added", states.CUTOFF_CAP + 1, 0.5, "closed"),  # finite, but no build reaches it
])
def test_normalization_constant_outside_its_range_raises(kind, m, r, method):
    with pytest.raises(TomosenseError):
        normalization_constant(kind, m, SqueezeParams(r), method)


@given(kind=st.sampled_from(("added", "subtracted")), m=st.integers(-2, states.CUTOFF_CAP + 2),
       r=st.floats(0.0, 1e300))
@settings(max_examples=100, deadline=None)
def test_closed_normalization_constant_is_finite_or_raises(kind, m, r):
    if kind == "subtracted":  # m > 3 has no closed form and sums the series
        m = min(m, 3)
    try:
        norm = normalization_constant(kind, m, SqueezeParams(r))
    except TomosenseError:
        return
    assert math.isfinite(norm) and norm >= 0.0


# ---------------------------------------------------------------------------
# special-function kernels: the same doubles as scipy.special
# ---------------------------------------------------------------------------

def test_log_factorial_equals_gammaln():
    table_and_past = np.arange(2 * states.CUTOFF_CAP + 9)
    sweep = np.arange(200_001)
    rng = np.random.default_rng(2024)
    sampled = np.concatenate([
        rng.integers(0, 2**53, 1000),
        np.unique((2.0 ** rng.uniform(0, 53, 2000)).astype(np.int64)),
        [11, 12, 998, 999, 10**8 - 1, 10**8, 2**53 - 1, 2**53],  # branch edges of x = n + 1
    ])
    for ns in (table_and_past, sweep, sampled):
        got = np.array([states._log_factorial(int(n)) for n in ns])
        assert np.array_equal(got, gammaln(ns + 1))


@pytest.mark.parametrize("r", [0.0, 1e-8, 0.1, 0.5, 1.0, 2.0, 3.5, 5.0])
def test_legendre_equals_eval_legendre(r):
    c = math.cosh(r)
    ms = np.arange(states.CUTOFF_CAP + 1)
    got = np.array([states._legendre(int(m), c) for m in ms])
    assert np.array_equal(got, eval_legendre(ms, c))


# ---------------------------------------------------------------------------
# cat family
# ---------------------------------------------------------------------------

def test_cat_limits():
    assert build_cat_family("even", CatParams(1e-8)).amplitudes[0] == pytest.approx(1.0, abs=1e-12)
    assert build_cat_family("odd", CatParams(1e-8)).amplitudes[1] == pytest.approx(1.0, abs=1e-12)


def test_added_even_cat_normalization_constant():
    # at alpha=1 the one-photon-added prefactor is (cosh 1 + sinh 1)^{-1/2} = e^{-1/2}
    v = build_cat_family("even", CatParams(1.0), 1)
    assert v.amplitudes[1].real == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_cat_parity():
    even = build_cat_family("even", CatParams(1.8))
    odd = build_cat_family("odd", CatParams(1.8))
    assert np.all(even.amplitudes[1::2] == 0)
    assert np.all(odd.amplitudes[0::2] == 0)
    assert np.all(build_cat_family("even", CatParams(1.8), 1).amplitudes[0::2] == 0)
    assert np.all(build_cat_family("even", CatParams(1.8), 2).amplitudes[1::2] == 0)


def test_cat_mean_photon_closed_forms():
    for alpha in (0.7, 1.8):
        x = alpha * alpha
        even = build_cat_family("even", CatParams(alpha))
        odd = build_cat_family("odd", CatParams(alpha))
        coh = build_cat_family("coherent", CatParams(alpha))
        assert mean_photon_number(even) == pytest.approx(x * math.tanh(x), abs=1e-10)
        assert mean_photon_number(odd) == pytest.approx(x / math.tanh(x), abs=1e-10)
        assert mean_photon_number(coh) == pytest.approx(x, abs=1e-10)


def test_unsupported_additions():
    for kind, m in (("odd", 1), ("coherent", 2), ("even", 3)):
        with pytest.raises(UnsupportedAddition):
            build_cat_family(kind, CatParams(1.0), m)
    with pytest.raises(ValidationError):
        build_cat_family("odd", CatParams(0.0))
    with pytest.raises(ValidationError):
        CatParams(13.0)


def test_cat_ladder_oracle():
    """Added even cats must equal normalized raisings of the plain even cat."""
    base = build_cat_family("even", CatParams(1.4), 0, TIGHT)
    for m_add in (1, 2):
        closed = build_cat_family("even", CatParams(1.4), m_add, TIGHT)
        laddered = apply_ladder(base, "raise", m_add)
        a, b = align_global_phase(closed.amplitudes, laddered.amplitudes)
        assert np.max(np.abs(a - b)) < 1e-10


# ---------------------------------------------------------------------------
# janus exponential
# ---------------------------------------------------------------------------

def test_janus_trivial_cases():
    assert janus_exponential(0.0).amplitudes[0] == 1.0
    v = janus_exponential(0.8)
    assert np.all(v.amplitudes[1::2] == 0)
    assert abs(np.sum(v.probabilities) - 1.0) < 1e-12


def test_janus_matches_matrix_exponential_oracle():
    dim = 64
    g = two_photon_raising_matrix(dim)
    oracle = expm(0.5 * g)[:, 0]
    oracle /= np.linalg.norm(oracle)
    v = janus_exponential(0.5)
    k = min(len(v.amplitudes), dim)
    assert np.max(np.abs(v.amplitudes[:k].real - oracle[:k])) < 1e-12
    # successive even-index ratios match the oracle's
    ours = v.amplitudes[2:k:2].real / v.amplitudes[0:k - 2:2].real
    theirs = oracle[2:k:2] / oracle[0:k - 2:2]
    valid = np.abs(oracle[0:k - 2:2]) > 1e-12
    assert np.allclose(ours[valid], theirs[valid], atol=1e-10)


def test_two_photon_raising_commutator_structure():
    """[a^2, G] with G = a^dag^2 (1+n)^{-1} is exactly 2 on the even sector.

    Direct evaluation: a^2 G |n> = (n+2)|n> and G a^2 |n> = n|n> (0 for
    n < 2), so the commutator is 2*I plus an extra |1><1| on the odd side,
    not the identity.  The factor 2 is what makes exp(f G)|0> reproduce an
    even-cat amplitude pattern with alpha^2 = 2f.
    """
    dim = 80
    g = two_photon_raising_matrix(dim)
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    comm = a @ a @ g - g @ a @ a
    body = comm[: dim - 4, : dim - 4]
    expected = 2.0 * np.eye(dim - 4)
    expected[1, 1] = 3.0
    assert np.max(np.abs(body - expected)) < 1e-12


# ---------------------------------------------------------------------------
# specs, params, and invariant properties
# ---------------------------------------------------------------------------

def test_state_spec_validation_and_roundtrip():
    spec = StateSpec("svs", SqueezeParams(0.5, 1.0), -2)
    assert spec.label() == "svs_sub2"
    cat = StateSpec("cat-even", CatParams(1.5 + 0.25j), 2)
    assert cat.label() == "ecs_add2"
    with pytest.raises(UnsupportedAddition):
        StateSpec("cat-odd", CatParams(1.0), 1)
    with pytest.raises(ValidationError):
        StateSpec("squeezed", SqueezeParams(0.5))
    with pytest.warns(UserWarning, match="unvalidated"):
        StateSpec("svs", SqueezeParams(0.5), 4)


def test_amplitudes_are_immutable():
    v = build_svs_family(SqueezeParams(0.5), 0)
    with pytest.raises(ValueError):
        v.amplitudes[0] = 0.0


@given(phi=st.floats(-1e6, 1e6, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_phi_reduced_modulo_two_pi(phi):
    p = SqueezeParams(0.3, phi)
    assert 0.0 <= p.phi < 2 * math.pi


@given(
    r=st.floats(0.05, 1.2),
    m=st.integers(-3, 3),
    phi=st.floats(0, 2 * math.pi - 1e-9),
)
@settings(max_examples=25, deadline=None)
def test_every_squeezed_state_is_normalized(r, m, phi):
    v = build_svs_family(SqueezeParams(r, phi), m)
    assert abs(np.sum(v.probabilities) - 1.0) < 1e-12
    assert v.discarded_mass < 1e-12


def _cat_with_closures_per_kind(kind, alpha, m_add):
    """Reference cat builder with one log-magnitude/index/phase closure set per
    kind; the shared power form in ``build_cat_family`` must match it bit for bit."""
    log_a, arg = math.log(abs(alpha)), cmath.phase(alpha)
    if kind == "coherent":
        def log_mag(n):
            return n * log_a - 0.5 * gammaln(n + 1)

        def index(n):
            return n

        def phase(n):
            return cmath.exp(1j * n * arg) if arg else 1.0
    elif kind == "odd":
        def log_mag(n):
            return (2 * n + 1) * log_a - 0.5 * gammaln(2 * n + 2)

        def index(n):
            return 2 * n + 1

        def phase(n):
            return cmath.exp(1j * (2 * n + 1) * arg) if arg else 1.0
    else:
        def log_mag(n):
            lm = 2 * n * log_a - 0.5 * gammaln(2 * n + 1)
            if m_add == 1:
                lm += 0.5 * math.log(2 * n + 1)
            elif m_add == 2:
                lm += 0.5 * math.log((2 * n + 2) * (2 * n + 1))
            return lm

        def index(n):
            return 2 * n + m_add

        def phase(n):
            return cmath.exp(1j * 2 * n * arg) if arg else 1.0

    idx, lm, ph, tail = states._run_series(log_mag, index, phase, DEFAULT_TAIL_TOL, "cat")
    return states._finish(idx, lm, ph, tail, states._log_norm_cat(kind, abs(alpha), m_add))


def test_cat_power_form_matches_per_kind_closures():
    cases = [("coherent", 0), ("odd", 0), ("even", 0), ("even", 1), ("even", 2)]
    for mag in (0.05, 0.3, 1.0, 1.8, 3.7, 7.0, 11.9):
        for angle in (0.0, 0.7, -2.1, math.pi):
            alpha = cmath.rect(mag, angle)
            for kind, m_add in cases:
                got = build_cat_family(kind, CatParams(alpha), m_add)
                want = _cat_with_closures_per_kind(kind, CatParams(alpha).alpha, m_add)
                assert np.array_equal(got.amplitudes, want.amplitudes), (kind, m_add, alpha)
                assert got.discarded_mass == want.discarded_mass, (kind, m_add, alpha)


def _svs_with_builder_per_direction(p, m, tail_tol=DEFAULT_TAIL_TOL):
    """Reference squeezed-vacuum builder with one series for addition and one
    for subtraction; the single series in ``build_svs_family`` must match it
    bit for bit, and raise the same exceptions with the same messages."""
    if m < 0:
        if p.r == 0.0:
            raise SubtractFromVacuum(
                f"cannot subtract {-m} photon(s) from the vacuum (r = 0 makes the norm vanish)"
            )
        if m == -1:
            return _svs_with_builder_per_direction(p, 1, tail_tol)
        return _svs_subtracted(p, -m, tail_tol)
    return _svs_added(p, m, tail_tol)


def _svs_added(p, m, tail_tol):
    t = math.tanh(p.r)
    if t == 0.0:
        if m > states.CUTOFF_CAP:
            raise TruncationFailure(f"|{m}> is above the cutoff cap {states.CUTOFF_CAP}")
        amps = np.zeros(m + 1, dtype=np.complex128)
        amps[m] = 1.0
        return FockVector(amps, 0.0)
    log_t = math.log(t)
    ln2 = math.log(2.0)

    def log_mag(n):
        return 0.5 * gammaln(2 * n + m + 1) - n * ln2 - gammaln(n + 1) + n * log_t

    what = f"{m}-photon-added SVS at r={p.r:g}"
    idx, lm, ph, tail = states._run_series(
        log_mag, lambda n: 2 * n + m, lambda n: states._series_phase(n, p.phi), tail_tol,
        what, ratio_limit=t * t,
    )
    vec = states._finish(idx, lm, ph, tail, states._log_norm_added(p.r, m))
    states._check_tail(vec, tail_tol, what)
    return vec


def _svs_subtracted(p, m, tail_tol):
    t = math.tanh(p.r)
    log_t = math.log(t)
    ln2 = math.log(2.0)
    n0 = (m + 1) // 2
    what = f"{m}-photon-subtracted SVS at r={p.r:g}"

    def log_mag(k):
        n = n0 + k
        return gammaln(2 * n + 1) - n * ln2 - gammaln(n + 1) \
            - 0.5 * gammaln(2 * n - m + 1) + n * log_t

    idx, lm, ph, tail = states._run_series(
        log_mag, lambda k: 2 * (n0 + k) - m, lambda k: states._series_phase(n0 + k, p.phi),
        tail_tol, what, ratio_limit=t * t,
    )
    log_norm = states._log_closed_norm(states._subtracted_norm_closed(p.r, m), what) \
        if m <= 3 else None
    vec = states._finish(idx, lm, ph, tail, log_norm)
    states._check_tail(vec, tail_tol, what)
    return vec


def _outcome(build, *args):
    """A built vector, or the type and message of the exception it raised."""
    try:
        return build(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def test_svs_single_series_matches_builder_per_direction():
    for r in (0.0, 1e-300, 1e-8, 0.01, 0.1, 0.5, 1.0 / math.sqrt(2.0), 1.0, 2.0):
        for phi in (0.0, 0.3, 2.5):
            p = SqueezeParams(r, phi)
            for m in range(-6, 7):
                got = _outcome(build_svs_family, p, m)
                want = _outcome(_svs_with_builder_per_direction, p, m)
                if isinstance(want, tuple):
                    assert got == want, (r, phi, m)
                    continue
                assert isinstance(got, FockVector), (r, phi, m, got)
                assert np.array_equal(got.amplitudes, want.amplitudes), (r, phi, m)
                assert got.discarded_mass == want.discarded_mass, (r, phi, m)


# edge doubles for every float field and photon changes far beyond any cutoff
HUGE_DELTAS = (2**53, -(2**53), 2**64, -(2**64), 10**30, -(10**30))


def _build_directly(family, params, m, tail_tol):
    if family == "svs":
        return build_svs_family(params, m, tail_tol)
    return build_cat_family(states._CAT_KIND[family], params, m, tail_tol)


# each state is built through a StateSpec and by calling its family builder
@given(family=st.sampled_from(states.FAMILIES), r=doubles, phi=doubles,
       alpha_re=doubles, alpha_im=doubles, tail_tol=doubles,
       m=st.one_of(st.sampled_from(HUGE_DELTAS), st.integers(-4, 4)))
@example(family="cat-even", r=0.5, phi=0.0, alpha_re=3.0, alpha_im=5e-324, tail_tol=1e-12, m=0)
@example(family="svs", r=0.5, phi=0.0, alpha_re=1.0, alpha_im=0.0, tail_tol=0.0, m=1)
@example(family="cat-even", r=0.5, phi=0.0, alpha_re=1.0, alpha_im=0.0, tail_tol=0.0, m=0)
@example(family="svs", r=0.5, phi=0.0, alpha_re=1.0, alpha_im=0.0, tail_tol=-1.0, m=1)
@example(family="svs", r=0.5, phi=0.0, alpha_re=1.0, alpha_im=0.0, tail_tol=1e-12, m=-2**70)
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_state_spec_builds_a_unit_vector_or_raises_a_tomosense_error(
        family, r, phi, alpha_re, alpha_im, tail_tol, m):
    try:
        if family == "svs":
            params = SqueezeParams(r, phi)
        else:
            params = CatParams(complex(alpha_re, alpha_im))
    except TomosenseError:
        return
    for build in (lambda *args: build_state(StateSpec(*args)), _build_directly):
        try:
            v = build(family, params, m, tail_tol)
        except TomosenseError:
            continue
        assert np.all(np.isfinite(v.amplitudes))
        assert abs(np.linalg.norm(v.amplitudes) - 1.0) <= 1e-9
