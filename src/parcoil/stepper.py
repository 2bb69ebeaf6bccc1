"""Implicit Euler time integration, by Newton-Raphson or linearized.

Two step functions share one residual and one linear solve:

* :func:`implicit_euler_step` solves the implicit Euler equation by
  Newton-Raphson to a tolerance (the fine propagator and the sequential
  solve).
* :func:`linearized_euler_step` takes the linearly implicit (Rosenbrock)
  Euler step ``u + (I - dt*J)^-1 * dt*f``: the first Newton iteration
  started at the previous state, with no convergence test (the coarse
  propagator).

Two propagator flavors drive them:

* :func:`adaptive_integrate` controls the step size from the local
  truncation error of the maximum temperature (solution minus prediction:
  the explicit Euler step on a call's first step, linear extrapolation of
  the last two accepted states after it) and lands exactly on forced event
  times, e.g. instants where a source ramp changes rate.  Every call, so
  every Parareal window, starts with an estimate of second order.  Each
  window still restarts at ``dt_init`` and must land on its end, costs
  that the sequential solve pays once, so the windows of a run take more
  steps than one solve of the whole interval.  On the benchmark's
  quench-coarse scenario (seed 0) the 32 windows solved from the final
  boundary values accept 256 steps and reject 16, against 216 and 19 for
  the sequential solve; on quench-fine's 16 windows, 3354 and 45 against
  3338 and 37.
* :func:`fixed_integrate` replays linearized steps on a prescribed grid
  with no rejection and no tolerance, as required when a coarse sweep
  must reuse the time steps chosen by an earlier adaptive pass.

Both take each step as ``dt = t_new - t`` from the grid times.  With
``linearized`` the adaptive pass takes the same linearized step as the
fixed-grid replay, so the replay of any slice of its grid from its own
state reproduces it bit for bit: Parareal's coarse pass and its sweeps
are one propagator.

Newton convergence follows the max-temperature criterion (absolute change
between subsequent iterates below ``tol_nr``) combined with a residual
decrease check, which guards against false triggers on states whose
temperature component is insensitive to the remaining error.

A state is a tuple of Python floats: on a few components that is cheaper
than numpy and performs the same IEEE operations.  Each propagator
converts its start state once and builds one :class:`Trajectory` from the
accepted tuples.  The Newton matrix is solved on Python floats too, by
Gaussian elimination with partial pivoting, so the stepper is sized for
lumped systems of a few components: elimination costs O(n^3) interpreted
operations and loses to LAPACK past about five components.

Both step functions take ``rhs`` and the Jacobian at each Newton start
from one :meth:`Problem.rhs_and_jacobian` call, which the coil answers
from one evaluation; later Newton iterations call ``rhs`` and
:func:`newton_jacobian` apart.

A two-component state (the coil) takes a scalar step: both step functions
unpack it once and run the residual, the closed-form 2x2 solve (inline),
the update and the finiteness checks on local floats, with the float
operations of the tuple step in the same order, so the results are the
same to the bit.  This skips the tuple building of the general path.
:func:`adaptive_integrate` takes one prediction and one error estimate
per trial step on every state size; from a call's second step on, a
two-component state extrapolates its prediction on local floats, with the
operations of the tuple extrapolation in their order.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from math import isfinite

from .problem import Problem, State, Trajectory, as_state

__all__ = [
    "StepperTolerances",
    "StepCounters",
    "StepFailed",
    "IntegrationFailed",
    "newton_jacobian",
    "implicit_euler_step",
    "linearized_euler_step",
    "adaptive_integrate",
    "fixed_integrate",
]

# Step-size controller safety factor (elementary order-1 controller).
SAFETY = 0.9
# Smallest factor by which a step rejected on its error estimate shrinks;
# the largest is one half.
REJECT_SHRINK_MIN = 0.2
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
        if type(self.nr_max_iters) is not int or self.nr_max_iters < 1:  # a bool is no count
            raise ValueError(f"nr_max_iters must be a positive integer, not {self.nr_max_iters!r}")
        if not (self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need dt_min <= dt_init <= dt_max")


@dataclass
class StepCounters:
    """Mutable work counters; integrators accumulate into one if supplied."""

    nr_iterations: int = 0
    steps_accepted: int = 0
    steps_rejected: int = 0


class StepFailed(Exception):
    """A step could not be taken: no Newton convergence or a failed evaluation."""


class IntegrationFailed(Exception):
    """A propagator could not reach the end of its interval."""


def newton_jacobian(problem: Problem, t: float, u: State):
    """Jacobian rows of ``problem.rhs`` at ``(t, u)`` for the Newton matrix.

    Delegates to :meth:`Problem.jacobian`: closed form where the problem
    supplies one, forward differences otherwise.
    """
    return problem.jacobian(t, u)


def _all_finite(values) -> bool:
    return all(map(math.isfinite, values))


def _residual(f, dt: float, u: State, u_prev: State) -> tuple:
    """Implicit Euler residual ``u - u_prev - dt*f`` componentwise, ``f = rhs(t, u)``."""
    return tuple([a - b - dt * c for a, b, c in zip(u, u_prev, f, strict=True)])


def _newton_update(dt: float, jac, r: tuple) -> tuple:
    """Solve ``(I - dt*jac) du = -r`` for the Newton update ``du``.

    Gaussian elimination with partial pivoting on Python floats, which on
    a few components costs a fraction of a LAPACK call; it takes O(n^3)
    interpreted operations, so past about five components LAPACK would be
    faster.  The step functions solve two-component systems in closed form
    themselves and call this for every other size.  Raises
    :class:`StepFailed` on a non-finite Jacobian or an exactly zero pivot
    (the singularity test of LAPACK's ``dgesv``).  Python float products
    and quotients overflow to ``inf`` without raising, so overflow surfaces
    as a non-finite update, which the caller turns into :class:`StepFailed`.
    """
    n = len(r)
    # augmented rows [I - dt*jac | -r]
    rows = []
    for i, (jac_row, r_i) in enumerate(zip(jac, r, strict=True)):
        if not _all_finite(jac_row):
            raise StepFailed("non-finite Jacobian")
        row = [-dt * x for x in jac_row]
        row[i] = 1.0 - dt * jac_row[i]
        row.append(-r_i)
        rows.append(row)
    for k in range(n):
        # the first row of largest magnitude in column k, as dgesv picks
        p, big = k, abs(rows[k][k])
        for i in range(k + 1, n):
            if abs(rows[i][k]) > big:
                p, big = i, abs(rows[i][k])
        pivot_row = rows[p]
        pivot = pivot_row[k]
        if pivot == 0.0:
            raise StepFailed(f"singular Newton matrix: zero pivot in column {k}")
        rows[p] = rows[k]
        rows[k] = pivot_row
        for i in range(k + 1, n):
            row = rows[i]
            f = row[k] / pivot
            if f != 0.0:  # a zero multiplier leaves the row unchanged
                for j in range(k + 1, n + 1):
                    row[j] -= f * pivot_row[j]
    du = [0.0] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        s = row[n]
        for j in range(k + 1, n):
            s -= row[j] * du[j]
        du[k] = s / row[k]
    return tuple(du)


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

    ``u_prev`` and ``guess`` are states; the solution comes back as one.
    Starts from ``guess``; converged when the max-temperature change
    between subsequent iterates is below ``tol.tol_nr`` and the residual
    norm has decreased from its initial value.  Raises :class:`StepFailed` on
    non-finite residuals, Jacobians or iterates, on an ``ArithmeticError``
    (a float overflow or division by zero) inside ``rhs`` or the Jacobian,
    on a singular Newton matrix, or when the iteration budget is exhausted.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if len(guess) != len(u_prev):
        raise ValueError("guess and u_prev must have the same dimension")

    t_new = t + dt
    u = guess
    iters = 0
    try:
        if len(u_prev) == 2:
            # the tuple path below on local floats, with the same operations
            p0, p1 = u_prev
            x0, x1 = u
            (f0, f1), jac = problem.rhs_and_jacobian(t_new, u)
            r0 = x0 - p0 - dt * f0
            r1 = x1 - p1 - dt * f1
            if not (isfinite(r0) and isfinite(r1)):
                raise StepFailed("non-finite residual at the initial guess")
            r0_norm = math.hypot(r0, r1)
            r_floor = 1e-14 * (1.0 + math.hypot(p0, p1))
            temp = problem.max_temperature(u)
            for _ in range(tol.nr_max_iters):
                iters += 1
                (a, b), (c, d) = newton_jacobian(problem, t_new, u) if jac is None else jac
                jac = None
                if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)):
                    raise StepFailed("non-finite Jacobian")
                m00, m01, m10, m11 = 1.0 - dt * a, -dt * b, -dt * c, 1.0 - dt * d
                det = m00 * m11 - m01 * m10
                if det == 0.0:
                    raise StepFailed("singular Newton matrix: zero determinant")
                x0 = x0 + (m01 * r1 - m11 * r0) / det
                x1 = x1 + (m10 * r0 - m00 * r1) / det
                if not (isfinite(x0) and isfinite(x1)):
                    raise StepFailed("non-finite Newton iterate")
                u = (x0, x1)
                f0, f1 = problem.rhs(t_new, u)
                r0 = x0 - p0 - dt * f0
                r1 = x1 - p1 - dt * f1
                if not (isfinite(r0) and isfinite(r1)):
                    raise StepFailed("non-finite residual")
                temp_new = problem.max_temperature(u)
                r_norm = math.hypot(r0, r1)
                if abs(temp_new - temp) < tol.tol_nr and (r_norm < r0_norm or r_norm <= r_floor):
                    return u
                temp = temp_new
            raise StepFailed(f"no convergence within {tol.nr_max_iters} iterations")

        f, jac = problem.rhs_and_jacobian(t_new, u)
        r = _residual(f, dt, u, u_prev)
        if not _all_finite(r):
            raise StepFailed("non-finite residual at the initial guess")
        r0_norm = math.hypot(*r)
        # A very good predictor leaves the initial residual at rounding
        # noise, where a strict decrease is unattainable; residuals at or
        # below this scale-aware floor count as converged.
        r_floor = 1e-14 * (1.0 + math.hypot(*u_prev))
        temp = problem.max_temperature(u)
        for _ in range(tol.nr_max_iters):
            iters += 1
            du = _newton_update(dt, newton_jacobian(problem, t_new, u) if jac is None else jac, r)
            jac = None
            u_new = tuple(map(operator.add, u, du))
            if not _all_finite(u_new):
                raise StepFailed("non-finite Newton iterate")
            r = _residual(problem.rhs(t_new, u_new), dt, u_new, u_prev)
            if not _all_finite(r):
                raise StepFailed("non-finite residual")
            temp_new = problem.max_temperature(u_new)
            r_norm = math.hypot(*r)
            if abs(temp_new - temp) < tol.tol_nr and (r_norm < r0_norm or r_norm <= r_floor):
                return u_new
            u, temp = u_new, temp_new
        raise StepFailed(f"no convergence within {tol.nr_max_iters} iterations")
    except ArithmeticError as exc:
        # Python floats raise where numpy returned inf or nan; both are a
        # failed evaluation of this step, not a crash.
        raise StepFailed(f"arithmetic error in rhs or Jacobian: {exc}") from exc
    finally:
        if counters is not None:
            counters.nr_iterations += iters


def linearized_euler_step(
    problem: Problem,
    t: float,
    dt: float,
    u: State,
    counters: StepCounters | None = None,
) -> State:
    """Linearly implicit Euler step ``u + (I - dt*J)^-1 * dt*rhs(t+dt, u)``.

    ``J`` is the Jacobian at ``(t+dt, u)``.  This is the first Newton
    iteration of :func:`implicit_euler_step` started at ``u``, with no
    convergence test: one Jacobian and one linear solve, counted as one
    Newton iteration whether or not the step succeeds.  Raises
    :class:`StepFailed` on a non-finite residual, Jacobian or result, on a
    singular matrix, or on an ``ArithmeticError`` inside ``rhs`` or the
    Jacobian.
    """
    t_new = t + dt
    try:
        if len(u) == 2:
            # the tuple path below on local floats, with the same operations:
            # the residual keeps u - u, so that dt*f == 0 gives 0.0, not -0.0
            x0, x1 = u
            (f0, f1), jac = problem.rhs_and_jacobian(t_new, u)
            r0 = x0 - x0 - dt * f0
            r1 = x1 - x1 - dt * f1
            if not (isfinite(r0) and isfinite(r1)):
                raise StepFailed("non-finite residual")
            (a, b), (c, d) = jac
            if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)):
                raise StepFailed("non-finite Jacobian")
            m00, m01, m10, m11 = 1.0 - dt * a, -dt * b, -dt * c, 1.0 - dt * d
            det = m00 * m11 - m01 * m10
            if det == 0.0:
                raise StepFailed("singular Newton matrix: zero determinant")
            x0 = x0 + (m01 * r1 - m11 * r0) / det
            x1 = x1 + (m10 * r0 - m00 * r1) / det
            if not (isfinite(x0) and isfinite(x1)):
                raise StepFailed("non-finite linearized step")
            return (x0, x1)

        f, jac = problem.rhs_and_jacobian(t_new, u)
        r = _residual(f, dt, u, u)
        if not _all_finite(r):
            raise StepFailed("non-finite residual")
        du = _newton_update(dt, jac, r)
        u_new = tuple(map(operator.add, u, du))
        if not _all_finite(u_new):
            raise StepFailed("non-finite linearized step")
        return u_new
    except ArithmeticError as exc:
        raise StepFailed(f"arithmetic error in rhs or Jacobian: {exc}") from exc
    finally:
        if counters is not None:
            counters.nr_iterations += 1


def adaptive_integrate(
    problem: Problem,
    t_a: float,
    t_b: float,
    u_a: State,
    tol: StepperTolerances,
    counters: StepCounters | None = None,
    *,
    linearized: bool = False,
) -> Trajectory:
    """Adaptive implicit Euler from ``(t_a, u_a)`` to exactly ``t_b``.

    Every trial step is clipped to land exactly on the next forced event
    time (or ``t_b`` if nearer), solved by Newton from the prediction (or,
    with ``linearized``, taken as one :func:`linearized_euler_step` from
    the last accepted state), and accepted when the
    estimated local truncation error of the max temperature (the solution
    minus the prediction, ``lte = |max_T(u_new) - max_T(guess)|``) is
    below ``tol.tol_t``.  The first step predicts the explicit Euler step
    ``u_a + dt*rhs(t_a, u_a)`` (one extra ``rhs`` call per call), later
    steps extrapolate the last two accepted states linearly.  A step
    rejected on its error estimate retries at
    ``dt * max(REJECT_SHRINK_MIN, min(0.5, SAFETY*sqrt(tol_t/lte)))``, a
    failed Newton step or a non-finite (NaN or infinite) error estimate at
    half the step; the accepted step feeds an order-1 controller.  Raises
    ``ValueError`` if ``rhs(t_a, u_a)`` has not one component per state
    component, :class:`IntegrationFailed` at once if it is non-finite or
    raises ``ArithmeticError``, and if the step size underflows
    ``tol.dt_min`` through repeated rejection.

    Each step uses ``dt = t_new - t``, so with ``linearized``
    :func:`fixed_integrate` on any slice of the returned grid, started from
    the state at the slice's first time, reproduces the returned states
    bit for bit.
    """
    if not t_a < t_b:
        raise ValueError("need t_a < t_b")
    u = as_state(u_a)
    t = float(t_a)
    # the start slope, for the first step's explicit Euler prediction
    try:
        slope = tuple(map(float, problem.rhs(t, u)))
    except ArithmeticError as exc:
        raise IntegrationFailed(f"rhs failed at the start state, t={t:.6g}: {exc}") from exc
    if len(slope) != len(u):
        raise ValueError(f"rhs gave {len(slope)} components for a state of {len(u)}")
    if not _all_finite(slope):
        raise IntegrationFailed(f"non-finite rhs at the start state, t={t:.6g}")

    stops = deque([*problem.forced_event_times(t_a, t_b), t_b])  # where a step must land
    times = [t]
    states = [u]
    t_prev = u_prev = None  # the accepted point before (t, u), once there is one

    dt = tol.dt_init
    # a two-component state (the coil) extrapolates on local floats, with
    # the operations of the tuple extrapolation
    scalar = len(u) == 2
    max_t = problem.max_temperature

    while t < t_b:
        while stops[0] <= t:
            stops.popleft()
        gap = stops[0] - t
        t_new = stops[0] if dt >= gap else t + dt
        dt_step = t_new - t  # the step fixed_integrate takes on this grid
        if not t_new > t:
            raise IntegrationFailed(f"step size {dt:.3g} cannot advance time at t={t:.6g}")

        if u_prev is None:  # the explicit Euler step along the start slope
            guess = tuple([a + dt_step * b for a, b in zip(u, slope)])
        else:
            w = (t_new - t) / (t - t_prev)
            if scalar:
                a0, a1 = u_prev
                b0, b1 = u
                guess = (b0 + w * (b0 - a0), b1 + w * (b1 - a1))
            else:
                guess = tuple([b + w * (b - a) for a, b in zip(u_prev, u)])
        try:
            if linearized:
                u_new = linearized_euler_step(problem, t, dt_step, u, counters)
            else:
                u_new = implicit_euler_step(problem, t, dt_step, u, guess, tol, counters)
        except StepFailed:
            shrink, reason = 0.5, "Newton kept failing above dt_min"
        else:
            lte = abs(max_t(u_new) - max_t(guess))
            if lte < tol.tol_t:  # False for NaN, so a NaN estimate is rejected
                t_prev, u_prev, t, u = t, u, t_new, u_new
                times.append(t)
                states.append(u)
                if counters is not None:
                    counters.steps_accepted += 1
                dt = SAFETY * dt_step * math.sqrt(tol.tol_t / max(lte, LTE_FLOOR_REL * tol.tol_t))
                dt = min(tol.dt_max, max(tol.dt_min, dt))
                continue
            if isfinite(lte):
                shrink = max(REJECT_SHRINK_MIN, min(0.5, SAFETY * math.sqrt(tol.tol_t / lte)))
                reason = f"tolerance tol_t={tol.tol_t:g} unattainable"
            else:  # NaN or inf: halved, as a failed Newton solve is
                shrink, reason = 0.5, "non-finite error estimate"

        # the step is rejected, on its Newton solve or on its error estimate
        dt = dt_step * shrink
        if counters is not None:
            counters.steps_rejected += 1
        if dt < tol.dt_min:
            raise IntegrationFailed(f"step size underflow at t={t:.6g}: {reason}")

    return Trajectory(times, states)


def fixed_integrate(
    problem: Problem,
    grid,
    u_a: State,
    counters: StepCounters | None = None,
) -> Trajectory:
    """Linearized implicit Euler on exactly the given time grid (no rejection).

    Each step is one :func:`linearized_euler_step` of ``t_next - t``,
    exactly as in :func:`adaptive_integrate` with ``linearized``: on a
    slice of that pass's grid, started from its state, this replays it bit
    for bit.  No step is rejected, so no tolerance is taken.  A failed
    step is fatal here: a fixed grid cannot subdivide, so
    :class:`IntegrationFailed` propagates the failure.
    """
    times = tuple(map(float, grid))
    if len(times) < 2:
        raise ValueError("grid must hold at least start and end times")
    if not all(map(operator.lt, times, times[1:])):
        raise ValueError("grid times must be strictly increasing")

    u = tuple(map(float, u_a))
    states = [u]
    for t, t_next in zip(times, times[1:]):
        dt = t_next - t
        try:
            u = linearized_euler_step(problem, t, dt, u, counters)
        except StepFailed as exc:
            raise IntegrationFailed(
                f"step failed on the fixed grid at t={t:.6g} (dt={dt:.3g}): {exc}"
            ) from exc
        states.append(u)
        if counters is not None:
            counters.steps_accepted += 1

    return Trajectory(times, states)
