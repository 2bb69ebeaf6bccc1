"""Parareal iteration with automatic time-window partitioning.

The first iteration runs one adaptive coarse pass over the whole interval;
its accepted time steps both seed the initial boundary values and define
the windows (equal step-count split via the floor formula).  Every coarse
step, in the pass and in the fixed-grid sweeps, is one linearly implicit
Euler step from the previous state (one Jacobian and one linear solve, no
Newton loop), so a sweep from a state of the pass replays it bit for bit:
the coarse propagator G is one and the same in every iteration.
Later iterations alternate a sequential fixed-grid coarse sweep with the
standard correction

    U_j  <-  fine(U_{j-1}, previous iteration) + coarse(U_{j-1}, new) - coarse(U_{j-1}, previous)

and a concurrent fine solve.  The fine propagator F is one object,
opened before the coarse pass: it keeps each window's last fine solve
under a key (start bytes, tolerance), re-solves exactly the windows
whose key changed, and deals them into cost-balanced batches on their
last Newton counts.  This process solves the first batch, and up to P-1
worker processes, fed through one pipe each, solve the rest (P fine
solves at once; P = 1 starts no process).  :class:`_FineLoop` alone
decides P and pins its processes to CPUs; its docstring gives the rule.
It pins because, left to the scheduler on the 2-CPU host the benchmark
was measured on, a forked worker and its caller ran the batches on the
same CPU in most runs, each batch taking about twice its CPU time in
wall time, and pinning the worker alone did not stop it.

Iteration 1's fine results only seed the first correction, so they are
solved at a looser tolerance (:attr:`PararealConfig.first_fine_tol`, after
Maday & Mula's adaptive Parareal); every later iteration solves at the
target ``fine_tol``, and a run never stops after a loose iteration.
A window whose start is bitwise equal to that of its last fine solve is
not swept: U_j is its last fine result, exactly, and F re-solves it only
at a new tolerance.  U_0 never changes, so after k iterations the first
k boundaries (k-1 when iteration 1 was loose) equal the chained fine
solve bit for bit, and a run ends with a zero error by iteration N+1
(N+2).  Convergence is declared when the max-temperature jump across all
window boundaries drops below the requested tolerance.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import struct
import time
from dataclasses import dataclass, replace
from functools import partial

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
# up at call time (never bound at import); it finds their counters by
# keyword and a tolerance only in adaptive_integrate's arguments.  It also
# reads and replaces ProcessPoolExecutor when it installs, so the name
# resolves here (see __getattr__ below) although nothing here uses it: the
# fine loop is _FineLoop, and the tracer's pool spans stay empty.

# The fine loop's workers are forked whatever the default start method (it
# is forkserver on Linux from Python 3.14): they inherit the problem, so it
# never crosses a pipe, and SIGINT stays blocked across the fork.
_FORK = multiprocessing.get_context("fork")
Process, Pipe = _FORK.Process, _FORK.Pipe

__all__ = [
    "PararealConfig",
    "PartitionError",
    "window_boundary_indices",
    "parareal_update",
    "pr_error",
    "run_parareal",
]


def __getattr__(name):
    # Imported on first access only: concurrent.futures pulls in logging,
    # subprocess and queue, about 12 ms of every command's start-up.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    @property
    def first_fine_tol(self) -> StepperTolerances:
        """Fine tolerance of iteration 1: ``fine_tol`` loosened by a factor R in [1, 10].

        ``tol_t`` becomes max(tol_t, min(10 tol_t, tol_pr/100)) and ``tol_nr``
        is scaled by the same R.  R = 1 (``fine_tol`` itself) when the fine
        ``tol_t`` is already at least tol_pr/100, or when iteration 1 is the
        only one (``k_max == 1``).
        """
        tol = self.fine_tol
        tol_t = max(tol.tol_t, min(10.0 * tol.tol_t, self.tol_pr / 100.0))
        if self.k_max == 1 or tol_t == tol.tol_t:
            return tol
        return replace(tol, tol_t=tol_t, tol_nr=tol.tol_nr * (tol_t / tol.tol_t))


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
    if not len(fine_prev) == len(coarse_new) == len(coarse_prev):
        raise ValueError("state dimension mismatch in the correction update")
    return tuple([f + g - h for f, g, h in zip(fine_prev, coarse_new, coarse_prev)])


def _bits(u: State) -> bytes:
    """The bytes of ``u``'s floats: equal keys mean bitwise equal states (-0.0 is not 0.0)."""
    return struct.pack(f"{len(u)}d", *u)


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
    """Call ``integrate(problem, *args, counters=...)``; return (trajectory, counters, wall s).

    A failure re-raises as :class:`IntegrationFailed` prefixed with ``context``.
    """
    counters = StepCounters()
    start = time.perf_counter()
    try:
        traj = integrate(problem, *args, counters=counters)
    except IntegrationFailed as exc:
        raise IntegrationFailed(f"{context}: {exc}") from exc
    return traj, counters, time.perf_counter() - start


def _fine_batches(costs, n_batches: int) -> list[list[int]]:
    """Deal window indices into at most ``n_batches`` batches of similar total cost.

    Longest-first list scheduling: windows in order of decreasing cost
    (ties by index) each join the batch with the least cost so far (ties
    by batch index).  Equal costs deal the windows round-robin.  Empty
    batches are dropped.
    """
    loads = [0] * min(n_batches, len(costs))
    batches: list[list[int]] = [[] for _ in loads]
    for i in sorted(range(len(costs)), key=lambda i: (-costs[i], i)):
        b = loads.index(min(loads))
        batches[b].append(i)
        loads[b] += costs[i]
    return [batch for batch in batches if batch]


def _solve_batch(problem, tol, k, windows):
    """Fine-solve ``(j, t_a, t_b, u_start)`` windows; one ``(j, traj, counters, wall)`` each."""
    results = []
    for j, t_a, t_b, u_start in windows:
        context = f"fine propagator failed in window {j} during iteration {k}"
        results.append(
            (j, *_propagate(context, adaptive_integrate, problem, t_a, t_b, u_start, tol))
        )
    return results


def _fine_worker(conn, problem):
    """Worker process body: answer each ``(k, tol, windows)`` with its results or its exception."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    while True:
        try:
            k, tol, windows = conn.recv()
        except EOFError:  # every copy of the caller's end is closed
            return
        try:
            reply = _solve_batch(problem, tol, k, windows)
        except Exception as exc:
            reply = exc
        conn.send(reply)


def _allowed_cpus() -> set[int] | None:
    """The CPUs this process may run on, or None where the platform cannot tell or set them."""
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "sched_setaffinity"):
        return None
    return os.sched_getaffinity(0)


class _FineLoop:
    """The fine propagator F over ``n`` windows, run by P processes: this one and P-1 workers.

    P = min(``n_workers``, ``n``).  ``n_workers`` defaults to the number of
    CPUs this process may run on (``os.sched_getaffinity(0)``), or to
    ``os.cpu_count()`` where the platform cannot tell; below 1 it is a
    ``ValueError``, raised before any process starts.

    It keeps each window's last fine solve: the key (start bytes,
    tolerance) that decides whether to re-solve it, its trajectory, and
    its Newton count, the cost on which re-solves are dealt longest-first
    into batches (equal counts deal iteration 1 round-robin).
    A worker inherits the problem when it is forked and gets the tolerance
    with every batch; each worker has its own pipe.  No thread runs beside
    the caller, so nothing waits for the GIL while the caller solves a
    batch itself.  Workers ignore SIGINT; leaving the ``with`` block, normally
    or by any exception (Ctrl-C included), terminates and joins them.

    When P > 1 and this process's allowed CPUs number exactly P, process i
    of the loop (0 is this one) runs on the i-th lowest of them only: this
    process pins each worker right after its fork, and then itself, so the
    fine solves of one iteration run at the same time rather than sharing
    one CPU.  A worker that pinned itself would still run on this
    process's CPU until it did, and the caller's own pin would wait for
    it.  :meth:`close`, which also runs when ``__init__`` fails after the
    checks, stops the workers and then restores this process's mask.
    """

    def __init__(self, problem: Problem, n: int, n_workers: int | None = None):
        allowed = _allowed_cpus()
        if n_workers is None:
            n_workers = len(allowed) if allowed is not None else os.cpu_count() or 1
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        p = min(n_workers, n)
        self.problem = problem
        self.keys: list[tuple[bytes, StepperTolerances] | None] = [None] * n
        self.trajs: list[Trajectory | None] = [None] * n
        self.nr = [1] * n
        self.procs: list[Process] = []
        self.conns: list = []  # this process's end of each worker's pipe
        self.mask = allowed if p > 1 and len(allowed or ()) == p else None  # restored on close
        cpus = sorted(self.mask) if self.mask else [None] * p
        try:
            for cpu in cpus[1:]:
                conn, child = Pipe()
                proc = Process(target=_fine_worker, args=(child, problem), daemon=True)
                self.conns.append(conn)
                self.procs.append(proc)
                # SIGINT stays blocked across the fork, until the worker ignores it
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                try:
                    proc.start()
                    if cpu is not None:
                        os.sched_setaffinity(proc.pid, {cpu})
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                child.close()  # a later worker must not inherit it, or a death shows no EOF
            if self.mask:
                os.sched_setaffinity(0, {cpus[0]})
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        try:
            started = [proc for proc in self.procs if proc.pid is not None]
            for proc in started:
                proc.terminate()
            for proc in started:
                proc.join()
            for conn in self.conns:
                conn.close()
        finally:
            if self.mask:
                os.sched_setaffinity(0, self.mask)

    def reused(self, j: int, u: State) -> State | None:
        """Window ``j``'s last fine result if that solve started at exactly ``u``, else None."""
        key = self.keys[j - 1]
        return self.trajs[j - 1].terminal_state if key and key[0] == _bits(u) else None

    def solve(
        self, k: int, tol: StepperTolerances, boundaries, starts
    ) -> tuple[list[int], list[int], list[float], list[int]]:
        """Iteration ``k``'s fine solve at ``tol`` from the window starts U_0..U_{N-1}.

        Re-solves each window whose key (start bytes, ``tol``) changed and
        returns the iteration's Newton, rejected-step, wall and accepted-step
        rows, zero elsewhere.  The workers get their batches first, then
        this process solves the first batch.  A worker's exception is
        re-raised here; a worker that died raises :class:`IntegrationFailed`
        naming the windows whose results never came.
        """
        n = len(self.nr)
        nr_row, rejected_row, wall_row, accepted_row = [0] * n, [0] * n, [0.0] * n, [0] * n
        keys = [(_bits(u), tol) for u in starts]
        windows = [
            (j, boundaries[j - 1], boundaries[j], u)
            for j, u in enumerate(starts, 1)
            if keys[j - 1] != self.keys[j - 1]
        ]
        if not windows:
            return nr_row, rejected_row, wall_row, accepted_row
        costs = [self.nr[j - 1] for j, *_ in windows]
        batches = [[windows[i] for i in b] for b in _fine_batches(costs, len(self.conns) + 1)]
        for conn, batch in zip(self.conns, batches[1:]):
            with contextlib.suppress(OSError):  # a dead worker is reported below
                conn.send((k, tol, batch))
        results = _solve_batch(self.problem, tol, k, batches[0])
        lost, failure = [], None
        for conn, batch in zip(self.conns, batches[1:]):
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                lost += [j for j, *_ in batch]
                continue
            if isinstance(reply, Exception):
                failure = failure or reply
                continue
            results += reply
        if lost:
            raise IntegrationFailed(
                f"a fine worker process died during iteration {k} "
                f"while windows {sorted(lost)} were unfinished"
            )
        if failure is not None:
            raise failure
        self.keys = keys
        for j, traj, counters, wall in results:
            self.trajs[j - 1] = traj
            self.nr[j - 1] = nr_row[j - 1] = counters.nr_iterations
            rejected_row[j - 1] = counters.steps_rejected
            wall_row[j - 1] = wall
            accepted_row[j - 1] = counters.steps_accepted
        return nr_row, rejected_row, wall_row, accepted_row


def _stitch(fine_trajs) -> Trajectory:
    """Concatenate window trajectories, keeping the fine value at shared boundaries."""
    times, states = list(fine_trajs[0].times), list(fine_trajs[0].states)
    for traj in fine_trajs[1:]:
        times += traj.times[1:]
        states += traj.states[1:]
    return Trajectory(times, states)


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
    run report.  Iteration 1 fine-solves every window at
    ``cfg.first_fine_tol``, later iterations at ``cfg.fine_tol``.  From
    iteration 2 on, only windows whose start value changed since their
    last fine solve are swept; F re-solves those and the windows whose
    last solve was at another tolerance, and the others keep their last
    fine trajectory and report zero work.  A run may stop only after an
    iteration at ``cfg.fine_tol``.  A run that exhausts ``cfg.k_max`` without meeting ``cfg.tol_pr`` is NOT an
    error: it returns normally with ``report.converged`` False and
    ``report.k_converged`` None, so callers must check the report.
    :class:`PartitionError` and :class:`IntegrationFailed` propagate with
    iteration/window context.  ``n_workers`` goes to :class:`_FineLoop`,
    which sets P from it.
    """
    if not t_0 < t_N:
        raise ValueError("need t_0 < t_N")
    n = cfg.n_windows
    wall_start = time.perf_counter()

    # The workers start first, so their start-up overlaps Ĝ.
    with _FineLoop(problem, n, n_workers) as fine:
        # Iteration 1: one adaptive coarse solve over the whole interval
        # yields the coarse grid, the windows, and the initial boundary values.
        # It takes the sweeps' linearized step, so a sweep from a start Ĝ
        # reached reproduces Ĝ bit for bit.
        ghat = partial(adaptive_integrate, linearized=True)
        coarse_traj, ghat_counters, time_ghat = _propagate(
            "adaptive coarse pass failed", ghat, problem, t_0, t_N, u_0, cfg.coarse_tol
        )
        t_hat = coarse_traj.times
        m = len(t_hat) - 1
        idx = window_boundary_indices(m, n)
        boundaries = tuple(t_hat[i] for i in idx)

        u_bounds = [coarse_traj.states[i] for i in idx]  # U_j, with U_0 = u_0
        u_coarse = list(u_bounds)  # coarse results of the previous iteration
        err_per_iter: list[float] = []
        fine_tol_t: list[float] = []
        time_g, nr_g, time_f, nr_f, rejected_f, accepted_f = [], [], [], [], [], []

        for k in range(1, cfg.k_max + 1):
            tol = cfg.first_fine_tol if k == 1 else cfg.fine_tol
            # Sequential coarse sweep on the frozen grid, each window followed
            # by U_j <- F(U_{j-1}^k) + G(U_{j-1}^{k+1}) - G(U_{j-1}^k); iteration
            # 1 keeps the Ĝ values.  A window that F last solved from exactly
            # U_{j-1} is not swept and carries U_j = F(U_{j-1}) without the
            # correction.  F then re-solves the windows whose start or
            # tolerance changed.
            g_nr, g_wall = [0] * n, [0.0] * n
            for j in range(1, n + 1):
                u_fine = fine.reused(j, u_bounds[j - 1])
                if u_fine is not None:
                    u_bounds[j] = u_fine
                elif k > 1:
                    context = f"coarse sweep failed in window {j} during iteration {k}"
                    grid = t_hat[idx[j - 1] : idx[j] + 1]
                    traj, g_counters, g_wall[j - 1] = _propagate(
                        context, fixed_integrate, problem, grid, u_bounds[j - 1]
                    )
                    g_nr[j - 1] = g_counters.nr_iterations
                    u_bounds[j] = parareal_update(
                        fine.trajs[j - 1].terminal_state, traj.terminal_state, u_coarse[j]
                    )
                    u_coarse[j] = traj.terminal_state
            nr_g.append(g_nr)
            time_g.append(g_wall)

            f_nr, f_rejected, f_wall, f_accepted = fine.solve(k, tol, boundaries, u_bounds[:-1])
            nr_f.append(f_nr)
            rejected_f.append(f_rejected)
            time_f.append(f_wall)
            accepted_f.append(f_accepted)
            fine_tol_t.append(tol.tol_t)

            err_per_iter.append(
                pr_error(u_bounds[1:], [traj.terminal_state for traj in fine.trajs], problem)
            )
            if err_per_iter[-1] < cfg.tol_pr and tol == cfg.fine_tol:
                break

    converged = err_per_iter[-1] < cfg.tol_pr
    trajectory = _stitch(fine.trajs)
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
        nr_ghat=ghat_counters.nr_iterations,
        nr_g_per_window_per_iter=nr_g,
        nr_f_per_window_per_iter=nr_f,
        ghat_steps_rejected=ghat_counters.steps_rejected,
        rejected_f_per_window_per_iter=rejected_f,
        accepted_f_per_window_per_iter=accepted_f,
        fine_tol_t_per_iter=fine_tol_t,
        boundary_states=tuple(u_bounds),
    )
    return trajectory, report
