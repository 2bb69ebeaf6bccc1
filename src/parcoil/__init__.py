"""Parallel-in-time integration with automatic time-window partitioning.

The package couples an adaptive implicit-Euler stepper with the
coarse/fine correction iteration: one adaptive coarse pass picks the time
grid and the window boundaries, concurrent fine solves refine each window,
and the iteration stops when the max-temperature jump at the boundaries
falls below tolerance.  A lumped no-insulation superconducting coil
surrogate and a closed-form linear problem ship as example systems.
"""

from .coil import (
    CoilParams,
    CoilProblem,
    LinearTestProblem,
    RampSchedule,
    axial_field,
    coil_jacobian,
    coil_rhs,
    critical_current_density,
    hts_resistivity,
    linear_test_rhs,
    source_current,
)
from .config import ConfigError, RunConfig, load_run_config, make_problem, run_id
from .diagnostics import (
    PararealReport,
    cumulative_fine_times,
    load_balance,
    max_possible_speedup,
    speedup,
)
from .parareal import (
    PararealConfig,
    PartitionError,
    parareal_update,
    pr_error,
    run_parareal,
    window_boundary_indices,
)
from .problem import Problem, State, Trajectory, as_state
from .stepper import (
    IntegrationFailed,
    StepCounters,
    StepFailed,
    StepperTolerances,
    adaptive_integrate,
    estimate_lte,
    fixed_integrate,
    implicit_euler_step,
    newton_jacobian,
    predict,
)

__version__ = "0.1.0"

__all__ = [
    "CoilParams",
    "CoilProblem",
    "LinearTestProblem",
    "RampSchedule",
    "axial_field",
    "coil_jacobian",
    "coil_rhs",
    "critical_current_density",
    "hts_resistivity",
    "linear_test_rhs",
    "source_current",
    "ConfigError",
    "RunConfig",
    "load_run_config",
    "make_problem",
    "run_id",
    "PararealReport",
    "cumulative_fine_times",
    "load_balance",
    "max_possible_speedup",
    "speedup",
    "PararealConfig",
    "PartitionError",
    "parareal_update",
    "pr_error",
    "run_parareal",
    "window_boundary_indices",
    "Problem",
    "State",
    "Trajectory",
    "as_state",
    "IntegrationFailed",
    "StepCounters",
    "StepFailed",
    "StepperTolerances",
    "adaptive_integrate",
    "estimate_lte",
    "fixed_integrate",
    "implicit_euler_step",
    "newton_jacobian",
    "predict",
    "__version__",
]
