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
The windows are dealt into cost-balanced batches: this process solves the
first, and up to P-1 worker processes, started before the coarse pass and
fed through one pipe each, solve the rest (P fine solves at once, never
more than N in all; P = 1 starts no process).
A window whose start is bitwise equal to that of its last fine solve is
neither swept nor re-solved: U_j is its last fine result, exactly.  U_0
never changes, so after k iterations the first k boundaries equal the
chained fine solve bit for bit and a run ends with a zero error by
iteration N+1.  Convergence is declared when the max-temperature jump
across all window boundaries drops below the requested tolerance.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import time
from concurrent.futures import ProcessPoolExecutor  # noqa: F401  (see below)
from dataclasses import dataclass
from functools import partial
from multiprocessing import Pipe, Process

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

# perfbench/tracing.py wraps adaptive_integrate and fixed_integrate by
# replacing them in this module, so they must stay module globals, looked
# up at call time (never bound at import).  It also replaces
# ProcessPoolExecutor, which the fine loop no longer uses: the name is
# imported only so that the tracer installs, and its pool spans stay empty.

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


def _solve_batch(problem, tol, k, windows):
    """Fine-solve ``(j, t_a, t_b, u_start)`` windows; one ``(j, trajectory, nr, wall)`` each."""
    results = []
    for j, t_a, t_b, u_start in windows:
        context = f"fine propagator failed in window {j} during iteration {k}"
        traj, nr, wall = _propagate(context, adaptive_integrate, problem, t_a, t_b, u_start, tol)
        results.append((j, traj, nr, wall))
    return results


def _fine_worker(conn, problem, tol):
    """Worker process body: answer each ``(k, windows)`` with its results or its exception."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    while True:
        try:
            k, windows = conn.recv()
        except EOFError:  # every copy of the caller's end is closed
            return
        try:
            reply = _solve_batch(problem, tol, k, windows)
        except Exception as exc:
            reply = exc
        conn.send(reply)


class _WorkerGroup:
    """``size`` fine-loop worker processes, each on its own pipe.

    The problem and the fine tolerance reach a worker once, when it
    starts.  No thread runs beside the caller, so nothing waits for the
    GIL while the caller solves a batch itself.  Workers ignore SIGINT;
    leaving the ``with`` block, normally or by any exception (Ctrl-C
    included), terminates and joins them.
    """

    def __init__(self, problem: Problem, tol: StepperTolerances, size: int):
        self.procs: list[Process] = []
        self.conns: list = []  # this process's end of each worker's pipe
        if size:
            try:
                pickle.dumps(problem)
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                raise IntegrationFailed(
                    f"the problem cannot be sent to worker processes (run with one worker): {exc}"
                ) from exc
        try:
            for _ in range(size):
                conn, child = Pipe()
                proc = Process(target=_fine_worker, args=(child, problem, tol), daemon=True)
                self.conns.append(conn)
                self.procs.append(proc)
                # SIGINT stays blocked across the fork, until the worker ignores it
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                try:
                    proc.start()
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                child.close()  # a later worker must not inherit it, or a death shows no EOF
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        started = [proc for proc in self.procs if proc.pid is not None]
        for proc in started:
            proc.terminate()
        for proc in started:
            proc.join()
        for conn in self.conns:
            conn.close()

    def send(self, k: int, batches) -> None:
        """Send one batch of windows to each of the first ``len(batches)`` workers."""
        for conn, windows in zip(self.conns, batches):
            with contextlib.suppress(OSError):  # a dead worker is reported by receive
                conn.send((k, windows))

    def receive(self, k: int, batches) -> list:
        """Results of the batches passed to :meth:`send`, in batch order.

        A worker's exception is re-raised here; a worker that died raises
        :class:`IntegrationFailed` naming the windows whose results never came.
        """
        results, lost, failure = [], [], None
        for conn, windows in zip(self.conns, batches):
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                lost += [j for j, *_ in windows]
                continue
            if isinstance(reply, Exception):
                failure = failure or reply
                continue
            for _, traj, _, _ in reply:
                # unpickled arrays come back writeable
                traj.times.setflags(write=False)
                traj.states.setflags(write=False)
            results += reply
        if lost:
            raise IntegrationFailed(
                f"a fine worker process died during iteration {k} "
                f"while windows {sorted(lost)} were unfinished"
            )
        if failure is not None:
            raise failure
        return results


def _run_fine_loop(problem, windows, tol, workers, k, costs):
    """Solve ``windows`` in one batch here and one per worker; ``(j, trajectory, nr, wall)`` each.

    ``windows`` are ``(j, t_a, t_b, u_start)`` tuples and ``costs`` (one
    per window, e.g. its last fine Newton count) balance the batches.
    The workers get their batches first, then this process solves the
    first batch; without windows nothing runs.
    """
    if not windows:
        return []
    batches = [
        [windows[i] for i in batch] for batch in _fine_batches(costs, len(workers.procs) + 1)
    ]
    workers.send(k, batches[1:])
    results = _solve_batch(problem, tol, k, batches[0])
    return results + workers.receive(k, batches[1:])


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

    # The workers start first, so their start-up overlaps Ĝ.
    with _WorkerGroup(problem, cfg.fine_tol, min(n_workers, n) - 1) as workers:
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
                t_a, t_b = float(boundaries[j - 1]), float(boundaries[j])
                windows.append((j, t_a, t_b, u_bounds[j - 1]))
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
            fine_results = _run_fine_loop(problem, windows, cfg.fine_tol, workers, k, costs)
            for j, traj, nr, wall in fine_results:
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
