"""Parareal iteration with automatic time-window partitioning.

The first iteration runs one adaptive coarse pass over the whole interval;
its accepted time steps both seed the initial boundary values and define
the windows (equal step-count split via the floor formula).  The pass
starts every Newton solve from the previous accepted state, as the
fixed-grid sweeps do, so a sweep from a state of the pass replays it bit
for bit: the coarse propagator G is one and the same in every iteration.
Later iterations alternate a sequential fixed-grid coarse sweep with the
standard correction

    U_j  <-  fine(U_{j-1}, previous iteration) + coarse(U_{j-1}, new) - coarse(U_{j-1}, previous)

and a concurrent fine solve on every window whose start value changed.
A window whose start is bitwise equal to that of its last fine solve is
neither swept nor re-solved: U_j is its last fine result, exactly.  U_0
never changes, so after k iterations the first k boundaries equal the
chained fine solve bit for bit and a run ends with a zero error by
iteration N+1.  Convergence is declared when the max-temperature jump
across all window boundaries drops below the requested tolerance.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial

import numpy as np

from .diagnostics import PararealReport
from .problem import Problem, State, Trajectory
from .stepper import (
    IntegrationFailed,
    StepCounters,
    StepperTolerances,
    adaptive_integrate,
    fixed_integrate,
)

# perfbench/tracing.py wraps adaptive_integrate, fixed_integrate and
# ProcessPoolExecutor by replacing them in this module, so they must stay
# module globals, looked up at call time (never bound at import).

__all__ = [
    "PararealConfig",
    "PartitionError",
    "window_boundary_indices",
    "parareal_update",
    "pr_error",
    "run_parareal",
]


class PartitionError(Exception):
    """The adaptive coarse pass produced fewer steps than windows."""


@dataclass(frozen=True)
class PararealConfig:
    """Run parameters: window count, convergence tolerance, propagator tolerances."""

    n_windows: int
    tol_pr: float
    fine_tol: StepperTolerances
    coarse_tol: StepperTolerances
    k_max: int = 20

    def __post_init__(self):
        if self.n_windows < 1:
            raise ValueError("n_windows must be >= 1")
        if not self.tol_pr > 0.0:
            raise ValueError("tol_pr must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")


def window_boundary_indices(m: int, n: int) -> list[int]:
    """Indices ``floor(m*j/n)`` for ``j = 0..n`` (exact integer floor).

    Splits ``m`` coarse steps into ``n`` windows of ``floor(m/n)`` or
    ``floor(m/n) + 1`` steps each.  Requires ``m >= n``.
    """
    if n < 1:
        raise ValueError("need at least one window")
    if m < n:
        raise PartitionError(
            f"adaptive coarse pass produced only {m} steps for {n} windows; "
            "reduce n_windows or tighten the coarse step tolerance (tol_t)"
        )
    return [(m * j) // n for j in range(n + 1)]


def parareal_update(fine_prev: State, coarse_new: State, coarse_prev: State) -> State:
    """Correction ``fine_prev + coarse_new - coarse_prev`` componentwise."""
    if fine_prev.shape != coarse_new.shape or fine_prev.shape != coarse_prev.shape:
        raise ValueError("state dimension mismatch in the correction update")
    out = fine_prev + coarse_new - coarse_prev
    out.setflags(write=False)
    return out


def pr_error(boundary_states, fine_states, problem: Problem) -> float:
    """Worst max-temperature jump at the window boundaries (K).

    ``boundary_states`` are the updated values U_j and ``fine_states`` the
    fine results arriving at the same boundaries, both for j = 1..N (the
    j = 0 boundary is exact by construction and excluded).
    """
    if len(boundary_states) != len(fine_states) or not boundary_states:
        raise ValueError("need one (U_j, fine_j) pair per window")
    return max(
        abs(problem.max_temperature(u) - problem.max_temperature(f))
        for u, f in zip(boundary_states, fine_states)
    )


def _propagate(context: str, integrate, problem: Problem, *args):
    """Call ``integrate(problem, *args, counters)``; return (trajectory, Newton iterations, wall s).

    A failure re-raises as :class:`IntegrationFailed` prefixed with ``context``.
    """
    counters = StepCounters()
    start = time.perf_counter()
    try:
        traj = integrate(problem, *args, counters)
    except IntegrationFailed as exc:
        raise IntegrationFailed(f"{context}: {exc}") from exc
    return traj, counters.nr_iterations, time.perf_counter() - start


def _pool(problem: Problem, n_workers: int):
    """Process pool for the fine loop, or None to run it in this process."""
    if n_workers == 1:
        return None
    try:
        pickle.dumps(problem)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise IntegrationFailed(
            f"the problem cannot be sent to worker processes (run with one worker): {exc}"
        ) from exc
    return ProcessPoolExecutor(max_workers=n_workers)


def _fine_batches(costs, n_batches: int) -> list[list[int]]:
    """Deal window indices into at most ``n_batches`` batches of similar total cost.

    Longest-first list scheduling: windows in order of decreasing cost
    (ties by index) each join the batch with the least cost so far (ties
    by batch index).  Equal costs deal the windows round-robin.  Empty
    batches are dropped.
    """
    if n_batches < 1:
        raise ValueError("need at least one batch")
    loads = [0] * min(n_batches, len(costs))
    batches: list[list[int]] = [[] for _ in loads]
    for i in sorted(range(len(costs)), key=lambda i: (-costs[i], i)):
        b = loads.index(min(loads))
        batches[b].append(i)
        loads[b] += costs[i]
    return [batch for batch in batches if batch]


def _fine_batch_task(args):
    """Worker body: solve a batch of windows; each result carries its validated trajectory."""
    problem, tol, k, windows = args
    results = []
    for j, t_a, t_b, u_start in windows:
        context = f"fine propagator failed in window {j} during iteration {k}"
        traj, nr, wall = _propagate(context, adaptive_integrate, problem, t_a, t_b, u_start, tol)
        results.append((j, traj, nr, wall))
    return results


def _run_fine_loop(problem, windows, tol, executor, n_workers, k, costs):
    """Solve ``windows`` in one batch per worker; returns ``(j, trajectory, nr, wall)`` per window.

    ``windows`` are ``(j, t_a, t_b, u_start)`` tuples and ``costs`` (one
    per window, e.g. its last fine Newton count) balance the batches.
    Without a pool the single batch runs in this process; without windows
    nothing runs.
    """
    if not windows:
        return []
    batches = _fine_batches(costs, n_workers)
    tasks = [(problem, tol, k, [windows[i] for i in batch]) for batch in batches]
    run = map if executor is None else executor.map
    results = []
    try:
        for batch_results in run(_fine_batch_task, tasks):
            results.extend(batch_results)
    except BrokenProcessPool as exc:
        solved = {j for j, *_ in results}
        pending = sorted(j for j, *_ in windows if j not in solved)
        raise IntegrationFailed(
            f"a fine worker process died during iteration {k} "
            f"while windows {pending} were unfinished: {exc}"
        ) from exc
    for _, traj, _, _ in results:
        # unpickled arrays come back writeable
        traj.times.setflags(write=False)
        traj.states.setflags(write=False)
    return results


def _stitch(fine_trajs) -> Trajectory:
    """Concatenate window trajectories, keeping the fine value at shared boundaries."""
    times = [fine_trajs[0].times]
    states = [fine_trajs[0].states]
    for traj in fine_trajs[1:]:
        times.append(traj.times[1:])
        states.append(traj.states[1:])
    return Trajectory(np.concatenate(times), np.vstack(states))


def run_parareal(
    problem: Problem,
    t_0: float,
    t_N: float,
    u_0: State,
    cfg: PararealConfig,
    n_workers: int | None = None,
) -> tuple[Trajectory, PararealReport]:
    """Execute the full algorithm from ``t_0`` to ``t_N``.

    Returns the stitched fine trajectory of the final iteration and the
    run report.  From iteration 2 on, only windows whose start value
    changed since their last fine solve are swept and fine-solved; the
    others keep their last fine trajectory and report zero work.  A run
    that exhausts ``cfg.k_max`` without meeting ``cfg.tol_pr`` is NOT an
    error: it returns normally with ``report.converged`` False and
    ``report.k_converged`` None, so callers must check the report.
    :class:`PartitionError` and :class:`IntegrationFailed` propagate with
    iteration/window context.
    """
    if not t_0 < t_N:
        raise ValueError("need t_0 < t_N")
    n = cfg.n_windows
    if n_workers is None:
        n_workers = min(n, os.cpu_count() or 1)
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")

    wall_start = time.perf_counter()

    # Iteration 1: one adaptive coarse solve over the whole interval
    # yields the coarse grid, the windows, and the initial boundary values.
    # Its Newton solves start from the previous state, as the sweeps' do,
    # so a sweep from a start Ĝ reached reproduces Ĝ bit for bit.
    ghat = partial(adaptive_integrate, newton_from_previous=True)
    coarse_traj, nr_ghat, time_ghat = _propagate(
        "adaptive coarse pass failed", ghat, problem, t_0, t_N, u_0, cfg.coarse_tol
    )
    t_hat = coarse_traj.times
    m = t_hat.size - 1
    idx = window_boundary_indices(m, n)
    boundaries = t_hat[idx]

    u_bounds = [coarse_traj.state(i) for i in idx]  # U_j, with U_0 = u_0
    u_coarse = list(u_bounds)  # coarse results of the previous iteration
    # Each window's last fine solve: its start state (bytes), its trajectory
    # and its Newton count (equal costs deal iteration 1 round-robin).
    fine_starts: list[bytes | None] = [None] * n
    fine_trajs: list[Trajectory | None] = [None] * n
    fine_nr = [1] * n
    err_per_iter: list[float] = []
    time_g, nr_g, time_f, nr_f = [], [], [], []

    executor = _pool(problem, n_workers)
    try:
        for k in range(1, cfg.k_max + 1):
            # Sequential coarse sweep on the frozen grid, each window followed
            # by U_j <- F(U_{j-1}^k) + G(U_{j-1}^{k+1}) - G(U_{j-1}^k); iteration
            # 1 keeps the Ĝ values.  A window whose start is bitwise unchanged
            # since its last fine solve would repeat that solve exactly, so it
            # is skipped and carries U_j = F(U_{j-1}) without the correction.
            g_nr, g_wall = [0] * n, [0.0] * n
            windows = []  # (j, t_a, t_b, U_{j-1}) of each window to re-solve
            for j in range(1, n + 1):
                if u_bounds[j - 1].tobytes() == fine_starts[j - 1]:
                    u_bounds[j] = fine_trajs[j - 1].terminal_state
                    continue
                windows.append((j, float(boundaries[j - 1]), float(boundaries[j]), u_bounds[j - 1]))
                if k > 1:
                    context = f"coarse sweep failed in window {j} during iteration {k}"
                    grid = t_hat[idx[j - 1] : idx[j] + 1]
                    traj, g_nr[j - 1], g_wall[j - 1] = _propagate(
                        context, fixed_integrate, problem, grid, u_bounds[j - 1], cfg.coarse_tol
                    )
                    u_bounds[j] = parareal_update(
                        fine_trajs[j - 1].terminal_state, traj.terminal_state, u_coarse[j]
                    )
                    u_coarse[j] = traj.terminal_state
            nr_g.append(g_nr)
            time_g.append(g_wall)

            costs = [fine_nr[j - 1] for j, *_ in windows]
            f_nr, f_wall = [0] * n, [0.0] * n
            for j, traj, nr, wall in _run_fine_loop(
                problem, windows, cfg.fine_tol, executor, n_workers, k, costs
            ):
                fine_starts[j - 1] = u_bounds[j - 1].tobytes()
                fine_trajs[j - 1] = traj
                fine_nr[j - 1] = f_nr[j - 1] = nr
                f_wall[j - 1] = wall
            nr_f.append(f_nr)
            time_f.append(f_wall)

            u_fine = [traj.terminal_state for traj in fine_trajs]
            err_per_iter.append(pr_error(u_bounds[1:], u_fine, problem))
            if err_per_iter[-1] < cfg.tol_pr:
                break
    finally:
        if executor is not None:
            # Pending batches are dropped on any exception, Ctrl-C included.
            executor.shutdown(cancel_futures=True)

    converged = err_per_iter[-1] < cfg.tol_pr
    trajectory = _stitch(fine_trajs)
    report = PararealReport(
        n_windows=n,
        m_coarse_steps=m,
        boundaries=boundaries,
        converged=converged,
        k_converged=k if converged else None,
        err_per_iter=err_per_iter,
        time_ghat=time_ghat,
        time_g_per_window_per_iter=time_g,
        time_f_per_window_per_iter=time_f,
        total_wall=time.perf_counter() - wall_start,
        nr_ghat=nr_ghat,
        nr_g_per_window_per_iter=nr_g,
        nr_f_per_window_per_iter=nr_f,
        boundary_states=list(u_bounds),
    )
    return trajectory, report
