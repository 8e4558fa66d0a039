import os
import subprocess
import sys
import types
from pathlib import Path

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


def test_cli_import_leaves_scipy_sparse_unloaded():
    # The joint solve imports scipy.sparse inside _joint_matrix and
    # _joint_factor, which keeps its import out of every command's start-up,
    # the toy commands' included.
    src = str(Path(xfwi.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, xfwi.cli; print(*(m for m in sys.modules if m.startswith('scipy.sparse')))"],
        env=env, check=True, capture_output=True, text=True,
    ).stdout.split()
    assert loaded == []
