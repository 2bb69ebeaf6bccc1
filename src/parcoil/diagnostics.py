"""Run report and performance metrics for parallel-in-time runs.

Wall-clock fields are the only non-deterministic report content, and
``processes`` the only one that depends on the worker count; every
convergence and error field is bit-reproducible across repeated runs and
worker counts.  Newton iteration counts are kept alongside the wall times
as a deterministic load proxy: the load balance is taken from them, so it
reads the same in every run of one configuration, at any worker count.
Everything here works on Python floats and lists; the max-temperature
deviation interpolates linearly by ``np.interp``'s rules, bit for bit,
without importing numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

__all__ = [
    "PararealReport",
    "load_balance",
    "speedup",
    "max_possible_speedup",
    "max_temperature_deviation",
]


@dataclass
class PararealReport:
    """Per-run diagnostics of one Parareal execution.

    All matrices are iteration-major: ``time_f_per_window_per_iter[k][j]``
    is the wall time of window ``j+1`` during iteration ``k+1``.  The
    coarse matrices hold zeros in their first row because iteration 1 runs
    the adaptive coarse pass (timed separately in ``time_ghat``) instead
    of per-window fixed-grid solves.  From iteration 2 on, a window whose
    start value did not change is not swept, and not fine-solved unless
    its last fine solve was at another tolerance: its entries are then 0
    Newton iterations and 0.0 s (in iteration ``k`` this holds at least
    for windows ``1..k-1``, or ``1..k-2`` when iteration 1 solved at a
    looser tolerance than the later ones), so sums over the matrices count
    only the work done.  ``fine_tol_t_per_iter`` is the fine ``tol_t`` (K)
    of each iteration's solves.  ``boundaries`` are the window boundary
    times t_j, j = 0..N; the boundary values U_j are not reported.
    ``ghat_steps_rejected`` and ``rejected_f_per_window_per_iter`` count
    the trial steps the adaptive coarse pass and each fine solve rejected,
    and ``accepted_f_per_window_per_iter`` the steps each fine solve
    accepted (0 for a window not solved).  ``time_loop_open`` and
    ``time_loop_close`` are the wall times of opening the fine loop
    (forking its workers, after the adaptive coarse pass) and of closing
    it; ``total_wall`` spans both and leaves out the formatting of
    ``trajectory_rows``.  ``processes`` is the number of processes that
    ran the fine solves: this one and its forked workers.
    ``trajectory_rows`` is the formatted text of the trajectory's rows when
    the run was asked for it (``run_parareal``'s ``format_rows``), else None.
    """

    n_windows: int
    m_coarse_steps: int
    boundaries: tuple[float, ...]
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
    fine_tol_t_per_iter: list[float] = field(default_factory=list)
    ghat_steps_rejected: int = 0
    rejected_f_per_window_per_iter: list[list[int]] = field(default_factory=list)
    accepted_f_per_window_per_iter: list[list[int]] = field(default_factory=list)
    time_loop_open: float = 0.0
    time_loop_close: float = 0.0
    processes: int = 1
    trajectory_rows: str | None = None

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


def load_balance(report: PararealReport) -> float:
    """min/max over windows of the fine Newton iterations summed over all iterations.

    1.0 means perfect balance; values near 0 mean one window dominates.
    A window skipped in an iteration adds 0, so only the solves actually
    run count.  Every window of a finished run has at least one fine Newton
    iteration (each fine solve accepts a step, and an accepted implicit
    Euler step costs at least one), so the ratio lies in (0, 1].
    """
    per_window = [sum(col) for col in zip(*report.nr_f_per_window_per_iter)]
    if not per_window:
        raise ValueError("load_balance needs a report with at least one window")
    return min(per_window) / max(per_window)


def speedup(report: PararealReport, sequential_wall: float) -> float:
    """Actual speedup: sequential reference wall time over Parareal wall time."""
    if not 0.0 < sequential_wall < math.inf:
        raise ValueError(f"sequential wall time must be positive and finite, got {sequential_wall}")
    return sequential_wall / report.total_wall


def max_possible_speedup(n_windows: int, k_converged: int) -> float:
    """Upper bound N/K on the achievable speedup, as the exact ratio.

    Published tables often round this to an integer; the exact ratio is
    emitted here and any rounding is left to presentation layers.
    """
    if k_converged < 1:
        raise ValueError("iteration count must be >= 1")
    return n_windows / k_converged


def _interp(x, xp, fp) -> list[float]:
    """Piecewise-linear interpolation of ``fp`` over the increasing grid ``xp`` at each ``x``.

    Follows ``np.interp`` operation for operation, so the floats agree bit
    for bit: the end value outside the grid, ``fp[j]`` on a grid time and
    at the last one, and otherwise ``slope * (x - xp[j]) + fp[j]``.  Only
    ``np.interp``'s retry of a NaN result is left out; with finite values
    that needs an infinite slope, which no trajectory's times give.
    Pure Python, so that parcoil runs on the standard library alone.
    """
    last = len(xp) - 1
    out = []
    for v in x:
        j = bisect_right(xp, v) - 1
        if j < 0:
            out.append(fp[0])
        elif j == last or xp[j] == v:
            out.append(fp[j])
        else:
            slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
            out.append(slope * (v - xp[j]) + fp[j])
    return out


def max_temperature_deviation(traj, ref, problem, boundaries=()) -> tuple[list[float], float]:
    """|T_max(traj) - T_max(ref)| (K), with linear interpolation between grid points.

    Returns the deviation at each of ``ref``'s times, ``traj`` interpolated
    onto them, as a list of floats, and the largest deviation at the
    ``boundaries`` times (the window boundaries of a Parareal run), both
    interpolated there; 0.0 when no boundaries are given.

    The boundary deviation also holds ``ref``'s own linear-interpolation
    error between its grid points, which the deviation at ``ref``'s times
    does not, so it can exceed the largest of those (README's
    ``boundary_dev_mK`` gives a shipped ``study`` cell where it does).
    """
    t_max = [problem.max_temperature(u) for u in traj.states]
    ref_t_max = [problem.max_temperature(u) for u in ref.states]
    deviation = [abs(a - b) for a, b in zip(_interp(ref.times, traj.times, t_max), ref_t_max)]
    at_boundaries = [
        abs(a - b)
        for a, b in zip(
            _interp(boundaries, traj.times, t_max), _interp(boundaries, ref.times, ref_t_max)
        )
    ]
    return deviation, max(at_boundaries, default=0.0)
