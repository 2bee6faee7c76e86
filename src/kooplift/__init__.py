"""Data-driven Koopman operator identification.

Lift measured trajectories of nonlinear systems into observable space, fit a
best-fit linear evolution operator by regression, and work with its
eigenvalues, eigenfunctions, modes, multi-step predictions, and control-input
extensions.
"""

from .data import (
    Finding,
    SnapshotPairs,
    TrajectoryDataset,
    build_snapshot_pairs,
    validate_dataset,
)
from .differentiation import DifferentiationConfig, differentiate
from .errors import ConfigError, DataError, KoopliftError, RegressionError
from .model import KoopmanModel, ModeTable, RegressorConfig, fit
from .observables import (
    Concat,
    Custom,
    Identity,
    KernelLift,
    Polynomial,
    RadialBasis,
    RandomFourier,
    ReconstructionMap,
    TimeDelay,
    fit_reconstruction,
    observable_from_config,
)
from .regression import (
    EigenSystem,
    KernelConfig,
    RegressionResult,
    eig_biorthogonal,
    fit_edmd,
    fit_edmdc,
    fit_kdmd,
)
from .serialize import load_model, model_from_dict, model_to_dict, save_model
from .systems import (
    SystemSpec,
    drss,
    get_system,
    integrate_rk4,
    integrate_rk4_batch,
    linear2d_step,
    system_rhs,
    torus_signal,
)

__version__ = "0.1.0"

# the kernels have one implementation, in numpy; kept for callers that record it
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "__version__",
    # data
    "TrajectoryDataset", "SnapshotPairs", "Finding",
    "build_snapshot_pairs", "validate_dataset",
    # observables
    "Identity", "Polynomial", "TimeDelay", "RadialBasis", "RandomFourier",
    "Custom", "Concat", "KernelLift", "ReconstructionMap",
    "fit_reconstruction", "observable_from_config",
    # differentiation
    "DifferentiationConfig", "differentiate",
    # regression
    "EigenSystem", "RegressionResult", "KernelConfig", "eig_biorthogonal",
    "fit_edmd", "fit_edmdc", "fit_kdmd",
    # pipeline
    "KoopmanModel", "ModeTable", "RegressorConfig", "fit",
    "save_model", "load_model", "model_to_dict", "model_from_dict",
    # systems
    "SystemSpec", "get_system", "system_rhs", "integrate_rk4",
    "integrate_rk4_batch", "drss", "linear2d_step", "torus_signal",
    # errors
    "KoopliftError", "DataError", "ConfigError", "RegressionError",
]
