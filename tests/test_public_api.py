import types

import xfwi

# The public surface of the package. A name added to or removed from
# ``xfwi.__init__`` must be added to or removed from this list too.
PUBLIC_NAMES = {
    # errors
    "DegenerateWeightsError",
    "DimensionMismatchError",
    "IllConditionedError",
    "NotPositiveDefiniteError",
    "RejectedInputError",
    "SingularGeometryError",
    "UnsupportedGeometryError",
    "XfwiError",
    # formulations
    "EquivalenceReport",
    "ObjectiveReport",
    "Problem",
    "fd_gradient",
    "grad_phi",
    "helmholtz_problem",
    "minimize_phi_contrast_source",
    "minimize_phi_extended_source",
    "phi_contrast_source",
    "phi_conventional",
    "phi_equation_error",
    "phi_extended_source",
    "phi_joint",
    "phi_reduced",
    "sigma_of_m",
    "solve_state",
    "verify_equivalence",
    # linops
    "CovarianceSpec",
    "DenseOperator",
    "LinearOperator",
    "SamplingOperator",
    "dot_test",
    "weighted_norm_sq",
    # toy
    "ExtendedSourceResult",
    "ScanResult",
    "ToyConfig",
    "acquisition",
    "estimate_extended_source",
    "half_max_basin_width",
    "make_wavelet",
    "scan_objective",
    "synthesize_data",
    # wavemodel
    "Acquisition",
    "Dataset",
    "HelmholtzModel1D",
    "KernelPanels",
    "adjoint_F",
    "assemble_A",
    "forward_F",
    "kernel_k",
}


def test_public_names_are_the_listed_ones():
    exported = {
        name
        for name, value in vars(xfwi).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
