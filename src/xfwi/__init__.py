"""Extended waveform inversion with a medium-dependent residual weight.

The package implements the joint (state-and-medium) least-squares
formulation of waveform inversion, its reduced form with the residual
weighted by a medium-dependent covariance, numerical verifiers for their
equivalence, and a small constant-velocity experiment pipeline with a CLI.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateWeightsError,
    DimensionMismatchError,
    IllConditionedError,
    NotPositiveDefiniteError,
    RejectedInputError,
    SingularGeometryError,
    UnsupportedGeometryError,
    XfwiError,
)
from .formulations import (
    EquivalenceReport,
    ObjectiveReport,
    Problem,
    fd_gradient,
    grad_phi,
    helmholtz_problem,
    minimize_phi_contrast_source,
    minimize_phi_extended_source,
    phi_contrast_source,
    phi_conventional,
    phi_equation_error,
    phi_extended_source,
    phi_joint,
    phi_reduced,
    sigma_of_m,
    solve_state,
    verify_equivalence,
)
from .linops import (
    CovarianceSpec,
    DenseOperator,
    LinearOperator,
    SamplingOperator,
    dot_test,
    weighted_norm_sq,
)
from .toy import (
    ExtendedSourceResult,
    ScanResult,
    ToyConfig,
    acquisition,
    estimate_extended_source,
    half_max_basin_width,
    make_wavelet,
    scan_objective,
    synthesize_data,
)
from .wavemodel import (
    Acquisition,
    Dataset,
    HelmholtzModel1D,
    KernelPanels,
    adjoint_F,
    assemble_A,
    forward_F,
    kernel_k,
)
