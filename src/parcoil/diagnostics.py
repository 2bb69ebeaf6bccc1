"""Run report and performance metrics for parallel-in-time runs.

Wall-clock fields are the only non-deterministic report content; every
convergence and error field is bit-reproducible across repeated runs and
worker counts.  Newton iteration counts are kept alongside the wall times
as a deterministic load proxy, so CI can assert load-related properties
without flaky timing comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PararealReport",
    "load_balance",
    "speedup",
    "max_possible_speedup",
    "cumulative_fine_times",
]


@dataclass
class PararealReport:
    """Per-run diagnostics of one Parareal execution.

    All matrices are iteration-major: ``time_f_per_window_per_iter[k][j]``
    is the wall time of window ``j+1`` during iteration ``k+1``.  The
    coarse matrices hold zeros in their first row because iteration 1 runs
    the adaptive coarse pass (timed separately in ``time_ghat``) instead
    of per-window fixed-grid solves.
    """

    n_windows: int
    m_coarse_steps: int
    boundaries: np.ndarray
    converged: bool
    k_converged: int | None
    err_per_iter: list[float]
    time_ghat: float
    time_g_per_window_per_iter: list[list[float]]
    time_f_per_window_per_iter: list[list[float]]
    total_wall: float
    nr_ghat: int
    nr_g_per_window_per_iter: list[list[int]]
    nr_f_per_window_per_iter: list[list[int]]
    boundary_states: list[np.ndarray] = field(default_factory=list)

    @property
    def iterations_run(self) -> int:
        return len(self.err_per_iter)

    @property
    def time_g_per_iter(self) -> list[float]:
        """Wall time of each sequential coarse sweep (0.0 for iteration 1)."""
        return [sum(row) for row in self.time_g_per_window_per_iter]

    @property
    def nr_g_per_iter(self) -> list[int]:
        return [sum(row) for row in self.nr_g_per_window_per_iter]


def load_balance(cum_fine_per_window) -> float:
    """Ratio of the minimum to the maximum cumulative per-window time.

    1.0 means perfect balance; values near 0 mean one window dominates.
    """
    values = [float(v) for v in cum_fine_per_window]
    if not values:
        raise ValueError("load_balance needs at least one window total")
    if min(values) <= 0.0:
        raise ValueError("cumulative window times must be positive")
    return min(values) / max(values)


def speedup(report: PararealReport, sequential_wall: float) -> float:
    """Actual speedup: sequential reference wall time over Parareal wall time."""
    if sequential_wall <= 0.0:
        raise ValueError("sequential wall time must be positive")
    return sequential_wall / report.total_wall


def max_possible_speedup(n_windows: int, k_converged: int) -> float:
    """Upper bound N/K on the achievable speedup, as the exact ratio.

    Published tables often round this to an integer; the exact ratio is
    emitted here and any rounding is left to presentation layers.
    """
    if k_converged < 1:
        raise ValueError("iteration count must be >= 1")
    return n_windows / k_converged


def cumulative_fine_times(report: PararealReport) -> list[float]:
    """Per-window fine wall time summed over all iterations."""
    matrix = report.time_f_per_window_per_iter
    if not matrix:
        raise ValueError("report holds no fine-propagator timings")
    n = len(matrix[0])
    return [sum(row[j] for row in matrix) for j in range(n)]

