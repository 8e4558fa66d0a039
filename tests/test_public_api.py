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
    "XfwiError",
    # formulations
    "EquivalenceReport",
    "ObjectiveReport",
    "Problem",
    "fd_gradient",
    "grad_phi",
    "helmholtz_problem",
    "phi_joint",
    "phi_reduced",
    "verify_equivalence",
    # linops
    "CovarianceSpec",
    "SamplingOperator",
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
