"""Extended waveform inversion with a medium-dependent residual weight.

The package implements the joint (state-and-medium) least-squares
formulation of waveform inversion, its reduced form with the residual
weighted by a medium-dependent covariance, its gradient, a numerical
verifier of their equivalence, and a small constant-velocity experiment
pipeline with a CLI.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateWeightsError,
    DimensionMismatchError,
    IllConditionedError,
    NotPositiveDefiniteError,
    RejectedInputError,
    SingularGeometryError,
    XfwiError,
)
from .formulations import (
    EquivalenceReport,
    ObjectiveReport,
    Problem,
    fd_gradient,
    grad_phi,
    helmholtz_problem,
    phi_joint,
    phi_reduced,
    verify_equivalence,
)
from .linops import CovarianceSpec, SamplingOperator
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
