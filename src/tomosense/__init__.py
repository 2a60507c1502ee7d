"""tomosense: optical tomograms of nonclassical light and Wasserstein-distance
sensing of photon addition and subtraction.

The package builds squeezed-vacuum and cat-state families in a truncated
Fock basis, synthesizes their quadrature distributions and tomograms,
computes the order-1 Wasserstein distance between quadrature PDFs, locates
distance-curve crossovers, and simulates the whole analysis from sampled
homodyne records.
"""

__version__ = "0.1.0"

from .errors import (
    AnnihilatedToZero,
    EmptySamples,
    GridMismatch,
    GridTooNarrow,
    MultipleRootsWarning,
    NumericalError,
    SubtractFromVacuum,
    TomosenseError,
    TruncationFailure,
    UnsupportedAddition,
    ValidationError,
)
from .homodyne import (
    HistogramTomogram,
    MeasurementRecord,
    empirical_crossover,
    histogram_tomogram,
    record_bytes,
    record_from_bytes,
    sample_quadrature,
    state_pair,
)
from .states import (
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
from .tomography import (
    DistributionSlice,
    QuadratureGrid,
    Tomogram,
    auto_grid,
    count_interior_zeros,
    hermite_function,
    pdf_slice,
    pdf_slices,
    quadrature_amplitude,
    tomogram,
)
from .transport import (
    CrossoverResult,
    SweepTable,
    equal_mean_alpha,
    equal_mean_parameter,
    find_crossover,
    sweep_w1,
    w1_cdf,
    w1_curve,
    w1_empirical,
    w1_states,
)

__all__ = [name for name in dir() if not name.startswith("_")]
