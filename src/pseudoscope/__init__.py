"""Eigenvalue clouds of complex triangular matrices under normalized
rank-1 random perturbations: structured solvers, concentration regions,
and a reproducible Monte Carlo harness."""

from .errors import (
    ConfigError,
    ConvergenceError,
    ExperimentError,
    NearSingularShift,
    ShapeError,
)
from .linalg import (
    PolySymbol,
    UpperTriangularMatrix,
    jordan_corner,
    jordan_nilpotent,
    jordan_quadratic_forms,
    quadratic_form,
    spectral_norm,
    toeplitz_from_symbol,
    triangular_resolvent_solve,
    two_block_corner,
)
from .sampling import (
    RankOnePerturbation,
    SeededRng,
    apply_perturbation,
    full_rank_perturbation,
    rank1_perturbation,
    sample_complex_normal,
)
from .spectra import (
    MonicPolynomial,
    Spectrum,
    charpoly_jordan_rank1,
    dense_eigenvalues,
    eigen_resolvent_aberth,
    poly_roots,
    spectrum_match_distance,
)
from .geometry import (
    Annulus,
    DiskUnion,
    ExclusionSet,
    SymbolBand,
    annulus_prob_limit,
    corner_eigenvalues,
    critical_values,
    root_separation_stats,
    separation_radius,
    symbol_image_curve,
    symbol_preimages,
    two_block_eigenvalues,
)
from .experiments import (
    ConcentrationReport,
    ExperimentConfig,
    StructureSpec,
    TrialRecord,
    corner_annulus_probability,
    run_experiment,
    scaling_fit,
    tail_carbery_wright,
    tail_hanson_wright,
    tail_norm_concentration,
    tail_quadratic_form_diag,
)

__version__ = "0.1.0"
