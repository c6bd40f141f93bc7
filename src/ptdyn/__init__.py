"""Finite-dimensional PT-symmetric quantum mechanics.

CPT-frame algebra, time evolution under time-dependent metric inner
products, and quantitative verification of the adiabatic approximation.
"""

from .adiabatic import (
    AdiabaticReport,
    BrokenSymmetryError,
    EigenFrame,
    LevelTrackingError,
    adiabatic_bound,
    adiabatic_bound_profile,
    build_eigenframe,
    build_report,
    dynamical_phase,
    fidelity_loss,
    gauge_fix,
    level_coupling_residual,
    operator_phase,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    frame_from_dict,
    frame_to_dict,
    load_config,
    save_config,
)
from .dynamics import (
    Equation,
    EvolutionProblem,
    IntegrationAbort,
    Trajectory,
    effective_generator,
    evolve_propagator,
    evolve_state,
)
from .frames import (
    CPTFrame,
    FrameAxiomError,
    FrameFamily,
    FrameGrid,
    SymmetryReport,
    cpt_adjoint,
    cpt_inner,
    cpt_norm,
    norm_equivalence_bounds,
    symmetry_report,
    validate_frames,
)
from .linalg import (
    AntilinearOperator,
    ConvergenceError,
    NonFiniteError,
    OperatorFamily,
    eigenpairs_stack,
    operator_norm,
)
from .models import (
    Model,
    ScalarFunction,
    build_constant_metric,
    build_two_level,
    two_level,
)

__version__ = "0.1.0"

__all__ = [
    "AdiabaticReport",
    "AntilinearOperator",
    "BrokenSymmetryError",
    "CPTFrame",
    "ConfigError",
    "ConvergenceError",
    "EigenFrame",
    "Equation",
    "EvolutionProblem",
    "FrameAxiomError",
    "FrameFamily",
    "FrameGrid",
    "IntegrationAbort",
    "LevelTrackingError",
    "Model",
    "NonFiniteError",
    "OperatorFamily",
    "ScalarFunction",
    "ScenarioConfig",
    "SymmetryReport",
    "Trajectory",
    "adiabatic_bound",
    "adiabatic_bound_profile",
    "build_constant_metric",
    "build_eigenframe",
    "build_report",
    "build_two_level",
    "cpt_adjoint",
    "cpt_inner",
    "cpt_norm",
    "dynamical_phase",
    "effective_generator",
    "eigenpairs_stack",
    "evolve_propagator",
    "evolve_state",
    "fidelity_loss",
    "frame_from_dict",
    "frame_to_dict",
    "gauge_fix",
    "level_coupling_residual",
    "load_config",
    "norm_equivalence_bounds",
    "operator_norm",
    "operator_phase",
    "save_config",
    "symmetry_report",
    "two_level",
    "validate_frames",
]
