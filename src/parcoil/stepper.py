"""Implicit Euler time integration with Newton-Raphson linearization.

Two propagator flavors share one Newton step solver:

* :func:`adaptive_integrate` controls the step size from the local
  truncation error of the maximum temperature (solution minus polynomial
  prediction) and lands exactly on forced event times, e.g. instants where
  a source ramp changes rate.
* :func:`fixed_integrate` replays implicit Euler on a prescribed grid with
  no rejection, as required when a coarse sweep must reuse the time steps
  chosen by an earlier adaptive pass.

Newton convergence follows the max-temperature criterion (absolute change
between subsequent iterates below ``tol_nr``) combined with a residual
decrease check, which guards against false triggers on states whose
temperature component is insensitive to the remaining error.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .problem import Problem, State, Trajectory

__all__ = [
    "StepperTolerances",
    "StepCounters",
    "StepFailed",
    "IntegrationFailed",
    "newton_jacobian",
    "implicit_euler_step",
    "predict",
    "estimate_lte",
    "adaptive_integrate",
    "fixed_integrate",
]

# Step-size controller safety factor (elementary order-1 controller).
SAFETY = 0.9
# Relative floor on the error estimate inside the controller.
LTE_FLOOR_REL = 1e-12


@dataclass(frozen=True)
class StepperTolerances:
    """Tolerances and step bounds for one propagator.

    ``tol_nr`` and ``tol_t`` are in kelvin: the Newton stopping tolerance
    on the max-temperature change and the local-truncation-error tolerance
    on the max temperature.  ``dt_*`` are in seconds.
    """

    tol_nr: float
    tol_t: float
    dt_init: float = 0.1
    dt_min: float = 1e-9
    dt_max: float = 2.0
    nr_max_iters: int = 50

    def __post_init__(self):
        for name in ("tol_nr", "tol_t", "dt_init", "dt_min", "dt_max"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"StepperTolerances.{name} must be positive")
        if self.nr_max_iters < 1:
            raise ValueError("nr_max_iters must be a positive integer")
        if not (self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need dt_min <= dt_init <= dt_max")


@dataclass
class StepCounters:
    """Mutable work counters; integrators accumulate into one if supplied."""

    nr_iterations: int = 0
    steps_accepted: int = 0
    steps_rejected: int = 0


class StepFailed(Exception):
    """Newton-Raphson did not converge within the iteration budget."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations


class IntegrationFailed(Exception):
    """A propagator could not reach the end of its interval."""


def newton_jacobian(problem: Problem, t: float, u: State) -> np.ndarray:
    """Jacobian of ``problem.rhs`` at ``(t, u)`` for the Newton matrix.

    Delegates to :meth:`Problem.jacobian`: closed form where the problem
    supplies one, forward differences otherwise.
    """
    return problem.jacobian(t, u)


def _all_finite(values) -> bool:
    return all(map(math.isfinite, values))


def _newton_update(dt: float, jac: np.ndarray, r: np.ndarray, iters: int) -> np.ndarray:
    """Solve ``(I - dt*jac) du = -r`` for the Newton update ``du``.

    Two-component systems use the closed-form inverse on Python floats,
    which costs a fraction of a LAPACK call; other sizes go through
    LAPACK.  Raises :class:`StepFailed` on a non-finite Jacobian or a
    singular matrix.
    """
    if r.size != 2:
        if not np.all(np.isfinite(jac)):
            raise StepFailed("non-finite Jacobian", iters)
        try:
            return np.linalg.solve(np.eye(r.size) - dt * jac, -r)
        except np.linalg.LinAlgError as exc:
            raise StepFailed(f"singular Newton matrix: {exc}", iters) from exc
    entries = jac.ravel().tolist()
    if not _all_finite(entries):
        raise StepFailed("non-finite Jacobian", iters)
    a, b, c, d = entries
    m00, m01, m10, m11 = 1.0 - dt * a, -dt * b, -dt * c, 1.0 - dt * d
    det = m00 * m11 - m01 * m10
    if det == 0.0:
        raise StepFailed("singular Newton matrix: zero determinant", iters)
    r0, r1 = r.tolist()
    return np.array([(m01 * r1 - m11 * r0) / det, (m10 * r0 - m00 * r1) / det])


def implicit_euler_step(
    problem: Problem,
    t: float,
    dt: float,
    u_prev: State,
    guess: State,
    tol: StepperTolerances,
    counters: StepCounters | None = None,
) -> State:
    """Solve ``u - u_prev - dt*rhs(t+dt, u) = 0`` by Newton-Raphson.

    Starts from ``guess``; converged when the max-temperature change
    between subsequent iterates is below ``tol.tol_nr`` and the residual
    norm has decreased from its initial value.  Raises :class:`StepFailed`
    on non-finite residuals, Jacobians or iterates, on a singular Newton
    matrix, or when the iteration budget is exhausted.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if guess.shape != u_prev.shape:
        raise ValueError("guess and u_prev must have the same dimension")

    t_new = t + dt
    u = np.array(guess, dtype=float)
    iters = 0
    # Overflow inside rhs or the Jacobian surfaces as a non-finite value,
    # which the checks below turn into StepFailed.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            r = u - u_prev - dt * problem.rhs(t_new, u)
            r_list = r.tolist()
            if not _all_finite(r_list):
                raise StepFailed("non-finite residual at the initial guess", 0)
            r0_norm = math.hypot(*r_list)
            # A very good predictor leaves the initial residual at rounding
            # noise, where a strict decrease is unattainable; residuals at or
            # below this scale-aware floor count as converged.
            r_floor = 1e-14 * (1.0 + math.hypot(*u_prev.tolist()))
            temp = problem.max_temperature(u)
            for _ in range(tol.nr_max_iters):
                iters += 1
                jac = newton_jacobian(problem, t_new, u)
                u_new = u + _newton_update(dt, jac, r, iters)
                if not _all_finite(u_new.tolist()):
                    raise StepFailed("non-finite Newton iterate", iters)
                r = u_new - u_prev - dt * problem.rhs(t_new, u_new)
                r_list = r.tolist()
                if not _all_finite(r_list):
                    raise StepFailed("non-finite residual", iters)
                temp_new = problem.max_temperature(u_new)
                r_norm = math.hypot(*r_list)
                if abs(temp_new - temp) < tol.tol_nr and (r_norm < r0_norm or r_norm <= r_floor):
                    u_new.setflags(write=False)
                    return u_new
                u, temp = u_new, temp_new
            raise StepFailed(f"no convergence within {tol.nr_max_iters} iterations", iters)
        finally:
            if counters is not None:
                counters.nr_iterations += iters


def predict(history, t_next: float) -> State:
    """Polynomial extrapolation from the last accepted results.

    ``history`` holds up to two ``(time, state)`` pairs with increasing
    times: one pair gives a constant prediction, two give componentwise
    linear extrapolation to ``t_next``.
    """
    if len(history) == 0:
        raise ValueError("predict needs at least one history entry")
    if len(history) == 1:
        return np.array(history[0][1], dtype=float)
    (t0, u0), (t1, u1) = history[-2], history[-1]
    w = (t_next - t1) / (t1 - t0)
    return u1 + w * (u1 - u0)


def estimate_lte(problem: Problem, u_solved: State, u_predicted: State) -> float:
    """Local truncation error proxy: |max_T(solved) - max_T(predicted)| in K."""
    if u_solved.shape != u_predicted.shape:
        raise ValueError("state dimension mismatch")
    return abs(problem.max_temperature(u_solved) - problem.max_temperature(u_predicted))


def _next_stop(t: float, t_b: float, events, ev_idx: int) -> tuple[float, int]:
    """First forced event strictly after ``t``, else ``t_b``."""
    while ev_idx < len(events) and events[ev_idx] <= t:
        ev_idx += 1
    if ev_idx < len(events):
        return events[ev_idx], ev_idx
    return t_b, ev_idx


def adaptive_integrate(
    problem: Problem,
    t_a: float,
    t_b: float,
    u_a: State,
    tol: StepperTolerances,
    counters: StepCounters | None = None,
) -> Trajectory:
    """Adaptive implicit Euler from ``(t_a, u_a)`` to exactly ``t_b``.

    Every trial step is clipped to land exactly on the next forced event
    time (or ``t_b`` if nearer), solved with the extrapolated prediction
    as Newton guess, and accepted when the estimated local truncation
    error of the max temperature is below ``tol.tol_t``.  Rejected or
    failed steps retry with half the step; the accepted step feeds an
    order-1 controller.  Raises :class:`IntegrationFailed` if the step
    size underflows ``tol.dt_min`` through repeated rejection.
    """
    if not t_a < t_b:
        raise ValueError("need t_a < t_b")
    if not np.all(np.isfinite(u_a)):
        raise ValueError("initial state contains non-finite entries")

    events = list(problem.forced_event_times(t_a, t_b))
    times = [float(t_a)]
    states = [np.array(u_a, dtype=float)]
    history: deque = deque(maxlen=2)
    history.append((float(t_a), states[0]))

    t = float(t_a)
    u = states[0]
    dt = tol.dt_init
    ev_idx = 0

    while t < t_b:
        stop, ev_idx = _next_stop(t, t_b, events, ev_idx)
        gap = stop - t
        if dt >= gap:
            dt_step, t_new = gap, stop
        else:
            dt_step, t_new = dt, t + dt
        if not t_new > t:
            raise IntegrationFailed(
                f"step size {dt_step:.3g} cannot advance time at t={t:.6g}"
            )

        guess = predict(history, t_new)
        try:
            u_new = implicit_euler_step(problem, t, dt_step, u, guess, tol, counters)
        except StepFailed:
            dt = 0.5 * dt_step
            if counters is not None:
                counters.steps_rejected += 1
            if dt < tol.dt_min:
                raise IntegrationFailed(
                    f"step size underflow at t={t:.6g}: Newton kept failing above dt_min"
                ) from None
            continue

        lte = estimate_lte(problem, u_new, guess)
        if lte >= tol.tol_t:
            dt = 0.5 * dt_step
            if counters is not None:
                counters.steps_rejected += 1
            if dt < tol.dt_min:
                raise IntegrationFailed(
                    f"step size underflow at t={t:.6g}: tolerance tol_t={tol.tol_t:g} unattainable"
                )
            continue

        t, u = t_new, u_new
        times.append(t)
        states.append(u)
        history.append((t, u))
        if counters is not None:
            counters.steps_accepted += 1
        dt = SAFETY * dt_step * np.sqrt(tol.tol_t / max(lte, LTE_FLOOR_REL * tol.tol_t))
        dt = min(tol.dt_max, max(tol.dt_min, dt))

    return Trajectory(np.array(times), np.array(states))


def fixed_integrate(
    problem: Problem,
    grid,
    u_a: State,
    tol: StepperTolerances,
    counters: StepCounters | None = None,
) -> Trajectory:
    """Implicit Euler on exactly the given time grid (no rejection).

    The Newton guess for each step is the previous state.  A Newton
    failure is fatal here: a fixed grid cannot subdivide, so
    :class:`IntegrationFailed` propagates the failure.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must hold at least start and end times")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("grid times must be strictly increasing")

    states = [np.array(u_a, dtype=float)]
    u = states[0]
    for i in range(grid.size - 1):
        t, dt = float(grid[i]), float(grid[i + 1] - grid[i])
        try:
            u = implicit_euler_step(problem, t, dt, u, u, tol, counters)
        except StepFailed as exc:
            raise IntegrationFailed(
                f"Newton failed on the fixed grid at t={t:.6g} (dt={dt:.3g}): {exc}"
            ) from exc
        states.append(u)
        if counters is not None:
            counters.steps_accepted += 1

    return Trajectory(grid, np.array(states))
