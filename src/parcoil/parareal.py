"""Parareal iteration with automatic time-window partitioning.

The first iteration runs one adaptive coarse pass over the whole interval;
its accepted time steps both seed the initial boundary values and define
the windows (equal step-count split via the floor formula).  Every coarse
step, in the pass and in the fixed-grid sweeps, is the fine propagator's
Newton step started at the previous state and stopped after its first
iteration: the linearly implicit Euler step (one Jacobian and one linear
solve), so a sweep from a state of the pass replays it bit for bit:
the coarse propagator G is one and the same in every iteration.
Later iterations alternate a sequential fixed-grid coarse sweep with the
standard correction

    U_j  <-  fine(U_{j-1}, previous iteration) + coarse(U_{j-1}, new) - coarse(U_{j-1}, previous)

and a concurrent fine solve.  The fine propagator F is one object,
opened after the coarse pass: it keeps each window's last fine solve
under a key (start bytes, tolerance), re-solves exactly the windows
whose key changed, and deals them into cost-balanced batches on their
last Newton counts.  This process's ``solved`` holds every window's last
fine trajectory, and a worker's ``solved`` holds its own.  This process
solves the first batch, and up to P-1 worker processes, forked with
``os.fork`` and fed through one pipe pair each, solve the rest (P fine
solves at once; P = 1 starts no process).
A caller that asks for the trajectory's rows (``format_rows``) gets
them from the same processes: after the last iteration each process is
asked for the rows of the windows whose final solve it ran.  Every
process, this one included, answers a request, a batch or a list of
window numbers, by :func:`_answer`, and :meth:`_FineLoop._exchange` is
the one round of requests: it sends each worker its request, answers
this process's, then reads the replies in order.  Each pipe carries a
stream of pickles, one per request and one per reply.
Closing the loop signals the workers and does not wait for them: they
are reaped after the run (see :func:`_reap`).  :class:`_FineLoop` alone
decides P, from the fine work the coarse pass predicts, and pins its
workers, never the caller, to CPUs; its docstring gives both rules, and
README the measurements behind them.

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

import atexit
import contextlib
import math
import os
import pickle
import signal
import struct
import time
from collections.abc import Callable, Sequence
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
        for name in ("n_windows", "k_max"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:  # a float or a bool is no count
                raise ValueError(f"{name} must be an integer >= 1, not {value!r}")
        if not self.tol_pr > 0.0:
            raise ValueError("tol_pr must be positive")

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


# The text of the rows of points (times, states), one row per point.
RowFormat = Callable[[Sequence[float], Sequence[State]], str]


def _join_windows(windows) -> list[list]:
    """Join ``(j, trajectory)`` pairs, ascending ``j``, one run of consecutive windows at a time.

    Window 1 gives every point, a later window all but its first, which is
    the last of the window before.  Each run comes back as ``[its first
    window, its last window, times, states]``, the points as plain lists.
    """
    runs = []
    for j, traj in windows:
        if runs and runs[-1][1] == j - 1:
            run = runs[-1]
            run[1] = j
        else:
            run = [j, j, [], []]
            runs.append(run)
        start = 0 if j == 1 else 1
        run[2] += traj.times[start:]
        run[3] += traj.states[start:]
    return runs


def _answer(problem, format_rows: RowFormat, solved: dict, request):
    """The reply to one fine-loop request, in any process; ``solved`` holds its last solves.

    A batch ``(k, tol, windows)`` is solved by :func:`_solve_batch`, and
    each solve is recorded in ``solved``.  A list of window numbers asks
    for the rows of those windows from their solves, joined by
    :func:`_join_windows`: each run of consecutive windows is formatted in
    one call, and comes back as ``(its first window, its text)``, so that a
    process that holds every window makes one call, as the sequential solve
    does.  An exception there becomes an :class:`IntegrationFailed` naming
    the windows and the exception, so that it reads the same from any
    process.
    """
    if isinstance(request, list):
        runs = _join_windows([(j, solved[j]) for j in request])
        try:
            return [(first, format_rows(times, states)) for first, _, times, states in runs]
        except Exception as exc:
            raise IntegrationFailed(
                f"cannot format the rows of windows {request}: {type(exc).__name__}: {exc}"
            ) from exc
    k, tol, windows = request
    results = _solve_batch(problem, tol, k, windows)
    solved.update((j, traj) for j, traj, *_ in results)
    return results


def _send(pipe, message) -> None:
    """Write ``message`` to ``pipe``, an ``os.fdopen`` file, as one pickle, and flush it."""
    pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
    pipe.flush()


def _fine_worker(requests: int, replies: int, problem, format_rows, inherited) -> None:
    """A forked worker's life: send back :func:`_answer`'s reply to each request, or its exception.

    It first closes ``inherited``, the caller's pipe ends (holding one, it
    would see no EOF when the caller closes them), and it leaves by
    ``os._exit`` whatever happens, never into the caller's stack.  An
    exception whose pickle does not load again goes back as an
    :class:`IntegrationFailed` naming its type and message, the windows and
    the iteration, so the caller can raise every reply it gets as it comes.
    """
    code = 1
    try:
        for pipe in inherited:
            pipe.close()
        requests, replies = os.fdopen(requests, "rb"), os.fdopen(replies, "wb")
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        solved: dict[int, Trajectory] = {}
        while True:
            try:
                request = pickle.load(requests)
            except EOFError:  # the caller closed its end
                code = 0
                break
            try:
                reply = _answer(problem, format_rows, solved, request)
            except Exception as exc:
                reply = exc
                try:
                    pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
                except Exception:  # a rows request raises only IntegrationFailed, which loads
                    k, _, windows = request
                    reply = IntegrationFailed(
                        f"fine propagator failed in windows {[j for j, *_ in windows]} "
                        f"during iteration {k}: {type(exc).__name__}: {exc}"
                    )
            _send(replies, reply)
    finally:
        os._exit(code)


# Forked workers not yet waited for.  Closing a loop signals its workers
# without waiting; each close then reaps the ones that have exited, by pid
# (never os.waitpid(-1), which would take other children, subprocess's
# among them), and interpreter exit waits for the rest.
_UNREAPED: list[int] = []


def _reap(block: bool = False) -> None:
    """Reap the exited workers in ``_UNREAPED``; with ``block``, signal and wait for each."""
    for pid in list(_UNREAPED):
        try:
            if block:
                os.kill(pid, signal.SIGTERM)
            done, _ = os.waitpid(pid, 0 if block else os.WNOHANG)
        except (ChildProcessError, ProcessLookupError):  # reaped elsewhere
            done = pid
        if done:
            _UNREAPED.remove(pid)


atexit.register(_reap, block=True)


def _allowed_cpus() -> set[int] | None:
    """The CPUs this process may run on, or None where the platform cannot tell or set them."""
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "sched_setaffinity"):
        return None
    return os.sched_getaffinity(0)


# G, the least predicted fine Newton work per process at which a forked
# worker stops losing (read at call time), set between the predictions
# where P=2 lost and won against P=1 on the shipped ramp (README, "Library
# use", has the sweep).  No larger P was measured, so a run forks every
# worker it may or none.
_MIN_WORK_PER_PROCESS = 450.0


class _FineLoop:
    """F on the ``n`` windows of ``boundaries``, run by P processes: this one and P-1 workers.

    P is min(``n_workers``, ``n``) where ``work``, one iteration's
    predicted fine Newton work, is at least 2·G, else 1: G is
    ``_MIN_WORK_PER_PROCESS``, set where a second process stops losing.
    ``n_workers`` defaults to the number of CPUs this process may run on
    (``os.sched_getaffinity(0)``), or to ``os.cpu_count()`` where the
    platform cannot tell; one that is not an ``int`` (a ``bool``
    included) or is below 1 is a ``ValueError``, raised before any
    process starts.

    It keeps each window's last fine solve: the key (start bytes,
    tolerance) that decides whether to re-solve it, its trajectory, its
    Newton count, the cost on which re-solves are dealt longest-first
    into batches (equal counts deal iteration 1 round-robin), and the
    process that ran it.  This process's ``solved`` holds every window's
    last fine trajectory, and a worker's ``solved`` holds its own.  A
    worker is forked by ``os.fork``, so it inherits the problem and
    ``format_rows``; only batches, window numbers, results and text cross
    the pipes.  No thread runs beside the
    caller, so nothing waits for the GIL while the caller solves a batch.
    Workers ignore SIGINT.  Leaving the ``with`` block, normally or by any
    exception (Ctrl-C included), sends each worker SIGTERM and closes the
    pipes without waiting for the workers to exit; :func:`_reap` waits for
    them later, so at most P-1 wait unreaped between runs.

    When P > 1 and this process's allowed CPUs number exactly P, this
    process pins worker i to the (i+1)-th lowest of them right after its
    fork (a worker that pinned itself would run on this process's CPU until
    it did), so the fine solves of one iteration run at the same time.
    This process's own mask is never changed: pinning it too gained nothing.
    :meth:`close`, which also runs when ``__init__`` fails after the
    checks, signals the workers; an ``OSError`` starting worker i (its
    pipes, fork or pin) then becomes an :class:`IntegrationFailed` naming i.
    """

    def __init__(
        self,
        problem: Problem,
        boundaries: Sequence[float],
        n_workers: int | None,
        work: float,
        format_rows: RowFormat | None = None,
    ):
        allowed = _allowed_cpus()
        if n_workers is None:
            n_workers = len(allowed) if allowed is not None else os.cpu_count() or 1
        if type(n_workers) is not int or n_workers < 1:  # a float or a bool is no count
            raise ValueError(f"n_workers must be an integer >= 1, not {n_workers!r}")
        n = len(boundaries) - 1
        p = min(n_workers, n) if work >= 2 * _MIN_WORK_PER_PROCESS else 1
        self.problem = problem
        self.boundaries = boundaries
        self.format_rows = format_rows
        self.keys: list[tuple[bytes, StepperTolerances] | None] = [None] * n
        self.nr = [1] * n
        self.owners = [0] * n  # the process of each window's last solve: 0 this one, i worker i
        self.solved: dict[int, Trajectory] = {}  # every window's last fine trajectory
        self.pids: list[int] = []
        self.pipes: list = []  # this process's ends, as files: to, then from, each worker
        cpus = sorted(allowed) if p > 1 and len(allowed or ()) == p else [None] * p
        try:
            for i, cpu in enumerate(cpus[1:], 1):
                (requests, to_worker), (from_worker, replies) = os.pipe(), os.pipe()
                self.pipes += [os.fdopen(to_worker, "wb"), os.fdopen(from_worker, "rb")]
                # SIGINT stays blocked across the fork, until the worker ignores it
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                try:
                    pid = os.fork()
                    if pid == 0:
                        _fine_worker(requests, replies, problem, format_rows, self.pipes)
                    self.pids.append(pid)
                    _UNREAPED.append(pid)
                    if cpu is not None:
                        os.sched_setaffinity(pid, {cpu})
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    # a later worker must not inherit them, or a death shows no EOF
                    os.close(requests)
                    os.close(replies)
        except OSError as exc:  # a process limit, say: the run fails, not the program
            self.close()
            raise IntegrationFailed(f"cannot start fine worker {i}: {exc}") from exc
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        for pid in self.pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGTERM)
        for pipe in self.pipes:
            # raises, with its fd closed, if it holds a batch a dead worker never read
            with contextlib.suppress(OSError):
                pipe.close()
        _reap()

    def reused(self, j: int, u: State) -> State | None:
        """Window ``j``'s last fine result if that solve started at exactly ``u``, else None."""
        key = self.keys[j - 1]
        return self.solved[j].terminal_state if key and key[0] == _bits(u) else None

    def solve(
        self, k: int, tol: StepperTolerances, starts
    ) -> tuple[list[int], list[int], list[float], list[int]]:
        """Iteration ``k``'s fine solve at ``tol`` from the window starts U_0..U_{N-1}.

        Re-solves each window whose key (start bytes, ``tol``) changed and
        returns the iteration's Newton, rejected-step, wall and accepted-step
        rows, zero elsewhere.  This process solves the first batch.  A
        worker's exception is re-raised here as the worker sent it: itself,
        or an :class:`IntegrationFailed` naming it with its windows when it
        does not pickle and load again.
        """
        n = len(self.nr)
        nr_row, rejected_row, wall_row, accepted_row = [0] * n, [0] * n, [0.0] * n, [0] * n
        keys = [(_bits(u), tol) for u in starts]
        windows = [
            (j, self.boundaries[j - 1], self.boundaries[j], u)
            for j, u in enumerate(starts, 1)
            if keys[j - 1] != self.keys[j - 1]
        ]
        if not windows:
            return nr_row, rejected_row, wall_row, accepted_row
        costs = [self.nr[j - 1] for j, *_ in windows]
        batches = [[windows[i] for i in b] for b in _fine_batches(costs, len(self.pids) + 1)]
        results = self._exchange([(k, tol, batch) for batch in batches], k)
        self.keys = keys
        for owner, batch in enumerate(batches):
            for j, *_ in batch:
                self.owners[j - 1] = owner
        for j, traj, counters, wall in results:
            self.solved[j] = traj
            self.nr[j - 1] = nr_row[j - 1] = counters.nr_iterations
            rejected_row[j - 1] = counters.steps_rejected
            wall_row[j - 1] = wall
            accepted_row[j - 1] = counters.steps_accepted
        return nr_row, rejected_row, wall_row, accepted_row

    def rows(self) -> str:
        """The rows of the joined final trajectory, as ``format_rows`` writes them.

        Each window's rows come from the process that last solved it, as
        :func:`_join_windows` joins them.
        """
        owned = [[] for _ in range(len(self.pids) + 1)]
        for j, owner in enumerate(self.owners, 1):
            owned[owner].append(j)
        return "".join([text for _, text in sorted(self._exchange(owned))])

    def _exchange(self, requests, k: int | None = None) -> list:
        """The replies to ``requests``, one per process (``requests[i]`` for worker i), joined.

        ``k`` is the iteration of a round of batches, None for a round of
        rows.  Each worker whose request names windows is sent it, then
        this process answers ``requests[0]``, then the workers' replies are
        read in order.  The first exception a worker sent is raised once
        every reply has been read.  A worker that died, before its reply or
        part way through it, raises :class:`IntegrationFailed` naming the
        windows whose results, in iteration ``k``, or rows (``k`` None)
        never came.
        """
        asked = []
        for i, request in enumerate(requests[1:], 1):
            js = request if k is None else [j for j, *_ in request[2]]
            if js:
                asked.append((i, js))
                with contextlib.suppress(OSError):  # a dead worker is reported below
                    _send(self.pipes[2 * i - 2], request)
        replies = _answer(self.problem, self.format_rows, self.solved, requests[0])
        lost, failure = [], None
        for i, js in asked:
            try:
                reply = pickle.load(self.pipes[2 * i - 1])
            except (EOFError, OSError, pickle.UnpicklingError):  # cut short by a death
                lost += js
                continue
            if isinstance(reply, Exception):
                failure = failure or reply
            else:
                replies += reply
        if lost and k is None:
            raise IntegrationFailed(
                f"a fine worker process died before the rows of windows {sorted(lost)} came"
            )
        if lost:
            raise IntegrationFailed(
                f"a fine worker process died during iteration {k} "
                f"while windows {sorted(lost)} were unfinished"
            )
        if failure is not None:
            raise failure
        return replies


def run_parareal(
    problem: Problem,
    t_0: float,
    t_N: float,
    u_0: State,
    cfg: PararealConfig,
    n_workers: int | None = None,
    *,
    format_rows: RowFormat | None = None,
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
    which opens after Ĝ and sets P from it and Ĝ's predicted fine work.

    ``format_rows(times, states)``, when given, returns the text of those
    points' rows, one independent row per point, and may be any callable
    (the workers inherit it at the fork).  The rows of the returned
    trajectory then come back as ``report.trajectory_rows``, each window's
    formatted by the process that last solved it, before the loop closes;
    a failure there raises :class:`IntegrationFailed`.  That formatting
    is left out of ``report.total_wall``.
    """
    if not t_0 < t_N:
        raise ValueError("need t_0 < t_N")
    n = cfg.n_windows
    wall_start = time.perf_counter()

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

    # Ĝ also predicts one target-tolerance iteration's fine Newton work: the
    # order-1 controller accepts steps of size proportional to sqrt(tol_t).
    work = m * math.sqrt(cfg.coarse_tol.tol_t / cfg.fine_tol.tol_t)
    open_start = time.perf_counter()
    with _FineLoop(problem, boundaries, n_workers, work, format_rows) as fine:
        time_loop_open = time.perf_counter() - open_start
        u_bounds = [coarse_traj.states[i] for i in idx]  # U_j, with U_0 = u_0
        u_coarse = list(u_bounds)  # coarse results of the previous iteration
        err_per_iter: list[float] = []
        records = []  # per iteration: the sweep's Newton and wall rows, F's four rows, tol_t

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
                        fine.solved[j].terminal_state, traj.terminal_state, u_coarse[j]
                    )
                    u_coarse[j] = traj.terminal_state
            records.append((g_nr, g_wall, *fine.solve(k, tol, u_bounds[:-1]), tol.tol_t))

            fine_ends = [fine.solved[j].terminal_state for j in range(1, n + 1)]
            err_per_iter.append(pr_error(u_bounds[1:], fine_ends, problem))
            if err_per_iter[-1] < cfg.tol_pr and tol == cfg.fine_tol:
                break
        rows_start = time.perf_counter()
        rows = fine.rows() if format_rows is not None else None
        close_start = time.perf_counter()
    time_loop_close = time.perf_counter() - close_start

    converged = err_per_iter[-1] < cfg.tol_pr
    [[_, _, times, states]] = _join_windows(sorted(fine.solved.items()))
    nr_g, time_g, nr_f, rejected_f, time_f, accepted_f, fine_tol_t = map(list, zip(*records))
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
        total_wall=time.perf_counter() - wall_start - (close_start - rows_start),
        time_loop_open=time_loop_open,
        time_loop_close=time_loop_close,
        nr_ghat=ghat_counters.nr_iterations,
        nr_g_per_window_per_iter=nr_g,
        nr_f_per_window_per_iter=nr_f,
        ghat_steps_rejected=ghat_counters.steps_rejected,
        rejected_f_per_window_per_iter=rejected_f,
        accepted_f_per_window_per_iter=accepted_f,
        fine_tol_t_per_iter=fine_tol_t,
        processes=len(fine.pids) + 1,
        trajectory_rows=rows,
    )
    return Trajectory(times, states), report
