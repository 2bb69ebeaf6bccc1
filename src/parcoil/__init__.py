"""Parallel-in-time integration with automatic time-window partitioning.

The package couples an adaptive implicit-Euler stepper with the
coarse/fine correction iteration: one adaptive coarse pass picks the time
grid and the window boundaries, concurrent fine solves refine each window,
and the iteration stops when the max-temperature jump at the boundaries
falls below tolerance.  A lumped no-insulation superconducting coil
surrogate and a closed-form linear problem ship as example systems.
"""

from . import coil, config, diagnostics, parareal, problem, stepper
from .coil import *  # noqa: F403
from .config import *  # noqa: F403
from .diagnostics import *  # noqa: F403
from .parareal import *  # noqa: F403
from .problem import *  # noqa: F403
from .stepper import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *coil.__all__,
    *config.__all__,
    *diagnostics.__all__,
    *parareal.__all__,
    *problem.__all__,
    *stepper.__all__,
    "__version__",
]
