"""Eigenvalue clouds of complex triangular matrices under normalized
rank-1 random perturbations: structured solvers, concentration regions,
and a reproducible Monte Carlo harness."""

# numpy imports these on first use (numpy.ma in np.unique): at start-up, not in a run
import numpy.ma, numpy.polynomial, numpy.random  # noqa: F401

from .errors import (
    ConfigError,
    ExperimentError,
    ShapeError,
)
from .linalg import (
    PolySymbol,
    jordan_corner,
    jordan_quadratic_forms,
    toeplitz_from_symbol,
)
from .sampling import (
    RankOnePerturbation,
    SeededRng,
    rank1_perturbation,
)
from .spectra import (
    Spectra,
    charpoly_jordan_rank1,
    dense_eigenvalues,
    eigen_resolvent_aberth,
    poly_roots,
    spectrum_match_distance,
)
from .geometry import (
    DiskUnion,
    SymbolBand,
    critical_values,
    separation_radius,
    symbol_image_curve,
    symbol_preimages,
)
from .experiments import (
    ConcentrationReport,
    ExperimentConfig,
    StructureSpec,
    corner_annulus_probability,
    run_experiment,
    scaling_fit,
    tail_carbery_wright,
    tail_hanson_wright,
    tail_norm_concentration,
    tail_quadratic_form_diag,
)

__version__ = "0.1.0"
