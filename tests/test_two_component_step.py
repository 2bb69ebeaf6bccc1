"""The scalar two-component step and loop against the tuple paths they replace.

The reference below is the tuple path of the step kernel
``implicit_euler_step`` with the closed-form 2x2 Newton update, as it was
before two-component states got their own scalar path, and the first
iterate of that path from the previous state, the coarse step that
``linearized_euler_step`` takes through the kernel.  The scalar path must
give the same bits (compared by ``float.hex``, so 0.0 and -0.0 differ),
the same Newton count and the same ``StepFailed`` message, on well-posed
steps and on every way a step can fail.

The second reference is ``adaptive_integrate``'s loop as it was before it
took its prediction and error estimate inline: every trial step through a
``predict`` over a history of the last two accepted points and an
``estimate_lte``.  On every state size, the loop must give the same times,
state bits and work counters, or the same ``IntegrationFailed`` message.
"""

import math
import operator

from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from parcoil import (
    CoilParams,
    CoilProblem,
    IntegrationFailed,
    Problem,
    RampSchedule,
    StepCounters,
    StepFailed,
    StepperTolerances,
    Trajectory,
    adaptive_integrate,
    as_state,
    implicit_euler_step,
    linearized_euler_step,
)
from parcoil.stepper import LTE_FLOOR_REL, REJECT_SHRINK_MIN, SAFETY

# -- reference: the tuple path ----------------------------------------------


def _all_finite(values):
    return all(map(math.isfinite, values))


def _residual(problem, t, dt, u, u_prev):
    f = problem.rhs(t, u)
    return tuple([a - b - dt * c for a, b, c in zip(u, u_prev, f, strict=True)])


def _newton_update_2x2(dt, jac, r):
    (a, b), (c, d) = jac
    if not _all_finite((a, b, c, d)):
        raise StepFailed("non-finite Jacobian")
    m00, m01, m10, m11 = 1.0 - dt * a, -dt * b, -dt * c, 1.0 - dt * d
    det = m00 * m11 - m01 * m10
    if det == 0.0:
        raise StepFailed("singular Newton matrix: zero determinant")
    r0, r1 = r
    return ((m01 * r1 - m11 * r0) / det, (m10 * r0 - m00 * r1) / det)


def reference_implicit_step(problem, t, dt, u_prev, guess, tol, counters):
    t_new = t + dt
    u = guess
    iters = 0
    try:
        r = _residual(problem, t_new, dt, u, u_prev)
        if not _all_finite(r):
            raise StepFailed("non-finite residual at the initial guess")
        r0_norm = math.hypot(*r)
        r_floor = 1e-14 * (1.0 + math.hypot(*u_prev))
        temp = problem.max_temperature(u)
        for _ in range(tol.nr_max_iters):
            iters += 1
            du = _newton_update_2x2(dt, problem.jacobian(t_new, u), r)
            u_new = tuple(map(operator.add, u, du))
            if not _all_finite(u_new):
                raise StepFailed("non-finite Newton iterate")
            r = _residual(problem, t_new, dt, u_new, u_prev)
            if not _all_finite(r):
                raise StepFailed("non-finite residual")
            temp_new = problem.max_temperature(u_new)
            r_norm = math.hypot(*r)
            if abs(temp_new - temp) < tol.tol_nr and (r_norm < r0_norm or r_norm <= r_floor):
                return u_new
            u, temp = u_new, temp_new
        raise StepFailed(f"no convergence within {tol.nr_max_iters} iterations")
    except ArithmeticError as exc:
        raise StepFailed(f"arithmetic error in rhs or Jacobian: {exc}") from exc
    finally:
        counters.nr_iterations += iters


def reference_linearized_step(problem, t, dt, u, counters):
    t_new = t + dt
    try:
        r = _residual(problem, t_new, dt, u, u)
        if not _all_finite(r):
            raise StepFailed("non-finite residual at the initial guess")
        du = _newton_update_2x2(dt, problem.jacobian(t_new, u), r)
        u_new = tuple(map(operator.add, u, du))
        if not _all_finite(u_new):
            raise StepFailed("non-finite Newton iterate")
        return u_new
    except ArithmeticError as exc:
        raise StepFailed(f"arithmetic error in rhs or Jacobian: {exc}") from exc
    finally:
        counters.nr_iterations += 1


# -- comparison ---------------------------------------------------------------


def outcome(step, *args):
    """``(kind, value, newton count)`` of one step, floats as hex strings."""
    counters = StepCounters()
    try:
        u = step(*args, counters)
    except StepFailed as exc:
        return "failed", str(exc), counters.nr_iterations
    assert type(u) is tuple and all(type(x) is float for x in u)
    return "state", tuple(map(float.hex, u)), counters.nr_iterations


def assert_same_steps(problem, t, dt, u_prev, guess, tol):
    assert outcome(implicit_euler_step, problem, t, dt, u_prev, guess, tol) == outcome(
        reference_implicit_step, problem, t, dt, u_prev, guess, tol
    )
    assert outcome(linearized_euler_step, problem, t, dt, u_prev) == outcome(
        reference_linearized_step, problem, t, dt, u_prev
    )


class Linear2(Problem):
    """``d_t u = A u + b`` on two components, with an optional bad Jacobian entry.

    ``bad`` is ``None`` or ``(i, j, value)``: the Jacobian returns ``value``
    at row ``i``, column ``j``.  ``blowup`` above zero makes ``rhs`` return
    ``blowup_value`` in its first component wherever ``|u_0|`` exceeds it,
    or raise ``OverflowError`` if ``blowup_value`` is None.
    """

    component_names = ("u_0", "u_1")

    def __init__(self, a, b, bad=None, blowup=0.0, blowup_value=math.inf):
        self.a = tuple(tuple(row) for row in a)
        self.b = tuple(b)
        self.bad = bad
        self.blowup = blowup
        self.blowup_value = blowup_value

    def rhs(self, t, u):
        (a00, a01), (a10, a11) = self.a
        f0 = a00 * u[0] + a01 * u[1] + self.b[0]
        f1 = a10 * u[0] + a11 * u[1] + self.b[1]
        if self.blowup > 0.0 and abs(u[0]) > self.blowup:
            if self.blowup_value is None:
                raise OverflowError("u_0 out of range")
            f0 = self.blowup_value
        return (f0, f1)

    def jacobian(self, t, u):
        if self.bad is None:
            return self.a
        i, j, value = self.bad
        rows = [list(row) for row in self.a]
        rows[i][j] = value
        return tuple(map(tuple, rows))

    def max_temperature(self, u):
        return max(u)

    def initial_state(self):
        return as_state((0.0, 0.0))


class LinearN(Problem):
    """``d_t u = A u + b`` on any number of components, ``max(u)`` as the temperature."""

    def __init__(self, a, b):
        self.a = tuple(tuple(row) for row in a)
        self.b = tuple(b)

    @property
    def component_names(self):
        return tuple(f"u_{i}" for i in range(len(self.b)))

    def rhs(self, t, u):
        return tuple([sum(map(operator.mul, row, u)) + b for row, b in zip(self.a, self.b)])

    def jacobian(self, t, u):
        return self.a

    def max_temperature(self, u):
        return max(u)

    def initial_state(self):
        return as_state((0.0,) * len(self.b))


# Signed zeros and exact small values next to general floats: a residual of
# 0.0 against -0.0 is the difference a reordered expression would make.
SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])
ENTRY = st.one_of(SPECIAL, st.floats(-50.0, 50.0))
COMPONENT = st.one_of(SPECIAL, st.floats(-1e3, 1e3), st.floats(-1e200, 1e200))
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
STEP = st.one_of(st.sampled_from([0.125, 0.25, 0.5, 1.0]), st.floats(1e-9, 10.0))
TOLERANCES = st.builds(
    StepperTolerances,
    tol_nr=st.sampled_from([1e-12, 1e-8, 1e-4, 1e-2, 10.0]),
    tol_t=st.just(1.0),
    dt_init=st.just(1.0),
    dt_min=st.just(1e-9),
    dt_max=st.just(10.0),
    nr_max_iters=st.integers(1, 6),
)


@st.composite
def states(draw, component=COMPONENT):
    return (draw(component), draw(component))


@st.composite
def guesses(draw, u_prev):
    """The previous state itself, a nearby point or an independent one."""
    kind = draw(st.sampled_from(["prev", "near", "far"]))
    if kind == "prev":
        return u_prev
    if kind == "near":
        return tuple(x + draw(st.floats(-1e-3, 1e-3)) for x in u_prev)
    return draw(states())


class TestAgainstTheTuplePath:
    @settings(max_examples=400, deadline=None)
    @given(
        data=st.data(),
        a=st.tuples(st.tuples(ENTRY, ENTRY), st.tuples(ENTRY, ENTRY)),
        b=st.tuples(ENTRY, ENTRY),
        dt=STEP,
        tol=TOLERANCES,
    )
    def test_random_linear_systems(self, data, a, b, dt, tol):
        u_prev = data.draw(states(), label="u_prev")
        guess = data.draw(guesses(u_prev), label="guess")
        assert_same_steps(Linear2(a, b), 0.0, dt, u_prev, guess, tol)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        zero_rows=st.sets(st.integers(0, 1), min_size=1),
        dt=STEP,
        tol=TOLERANCES,
    )
    def test_signed_zeros(self, data, zero_rows, dt, tol):
        # a zero row of A and b makes that rhs component an exact signed
        # zero, and a state of signed zeros carries the sign of the
        # residual's zero into the result: u - u - dt*f gives 0.0 where
        # -(dt*f) gives -0.0
        zero = st.sampled_from([0.0, -0.0])
        a = tuple(
            data.draw(st.tuples(zero, zero) if i in zero_rows else st.tuples(ENTRY, ENTRY))
            for i in range(2)
        )
        b = tuple(data.draw(zero if i in zero_rows else ENTRY) for i in range(2))
        u_prev = data.draw(states(st.one_of(zero, ENTRY)), label="u_prev")
        guess = data.draw(guesses(u_prev), label="guess")
        assert_same_steps(Linear2(a, b), 0.0, dt, u_prev, guess, tol)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        t=st.floats(0.0, 200.0),
        dt=STEP,
        tol=TOLERANCES,
        plateau=st.floats(100.0, 200.0),
    )
    def test_coil_at_random_states(self, data, t, dt, tol, plateau):
        # currents and temperatures up to and past the critical surface
        problem = CoilProblem(
            CoilParams(), RampSchedule(((50.0, plateau), (150.0, plateau), (200.0, 0.0)))
        )
        current = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-300.0, 300.0))
        u_prev = (data.draw(current, label="I_theta"), data.draw(st.floats(4.0, 150.0)))
        guess = data.draw(guesses(u_prev), label="guess")
        assert_same_steps(problem, t, dt, u_prev, guess, tol)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        a=st.tuples(st.tuples(ENTRY, ENTRY), st.tuples(ENTRY, ENTRY)),
        i=st.integers(0, 1),
        j=st.integers(0, 1),
        value=st.sampled_from([math.nan, math.inf, -math.inf]),
        tol=TOLERANCES,
    )
    def test_non_finite_jacobians(self, data, a, i, j, value, tol):
        u_prev = data.draw(states(), label="u_prev")
        problem = Linear2(a, (0.0, 0.0), bad=(i, j, value))
        assert_same_steps(problem, 0.0, 0.5, u_prev, u_prev, tol)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        log2_dt=st.integers(-4, 3),
        b01=ENTRY,
        a11=ENTRY,
        row=st.integers(0, 1),
        tol=TOLERANCES,
    )
    def test_zero_determinants(self, data, log2_dt, b01, a11, row, tol):
        # dt is a power of two, so 1 - dt*(1/dt) is exactly 0 and a row of
        # the Newton matrix is zero
        dt = 2.0**log2_dt
        if row == 0:
            a = ((1.0 / dt, 0.0), (b01, a11))
        else:
            a = ((a11, b01), (0.0, 1.0 / dt))
        u_prev = data.draw(states(), label="u_prev")
        guess = data.draw(guesses(u_prev), label="guess")
        problem = Linear2(a, (0.0, 1.0))
        assert outcome(reference_linearized_step, problem, 0.0, dt, u_prev)[0] == "failed"
        assert_same_steps(problem, 0.0, dt, u_prev, guess, tol)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        a=st.tuples(st.tuples(ENTRY, ENTRY), st.tuples(ENTRY, ENTRY)),
        blowup=st.floats(1e-3, 1e3),
        blowup_value=st.sampled_from([math.inf, -math.inf, math.nan, None]),
        dt=STEP,
        tol=TOLERANCES,
    )
    def test_non_finite_residuals(self, data, a, blowup, blowup_value, dt, tol):
        # rhs turns non-finite or raises past |u_0| = blowup: at the guess,
        # at a later iterate, or never; or the state itself is not finite
        component = st.one_of(SPECIAL, st.floats(-1e4, 1e4), NON_FINITE)
        u_prev = data.draw(states(component), label="u_prev")
        guess = data.draw(guesses(u_prev), label="guess")
        problem = Linear2(a, (1.0, -1.0), blowup=blowup, blowup_value=blowup_value)
        assert_same_steps(problem, 0.0, dt, u_prev, guess, tol)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        log2_dt=st.integers(-4, 3),
        log2_pivot=st.integers(-60, -1),
        a11=ENTRY,
        scale=st.floats(1e250, 1e300),
        tol=TOLERANCES,
    )
    def test_overflowing_updates(self, data, log2_dt, log2_pivot, a11, scale, tol):
        # (I - dt*A)[0][0] is the small power of two 2**log2_pivot, so the
        # update of a state near 1e300 can overflow to inf
        dt = 2.0**log2_dt
        a = (((1.0 - 2.0**log2_pivot) / dt, 0.0), (0.0, a11))
        u_prev = (data.draw(st.sampled_from([scale, -scale])), data.draw(ENTRY))
        guess = data.draw(guesses(u_prev), label="guess")
        assert_same_steps(Linear2(a, (0.0, 0.0)), 0.0, dt, u_prev, guess, tol)


# -- reference: the loop through predict and estimate_lte ---------------------


def reference_predict(history, t_next, slope):
    if len(history) == 1:
        ((t0, u0),) = history
        dt = t_next - t0
        return tuple([a + dt * b for a, b in zip(u0, slope)])
    (t0, u0), (t1, u1) = history[-2], history[-1]
    w = (t_next - t1) / (t1 - t0)
    return tuple([b + w * (b - a) for a, b in zip(u0, u1)])


def reference_estimate_lte(problem, u_solved, u_predicted):
    if len(u_solved) != len(u_predicted):
        raise ValueError("state dimension mismatch")
    return abs(problem.max_temperature(u_solved) - problem.max_temperature(u_predicted))


def reference_integrate(problem, t_a, t_b, u_a, tol, counters, *, linearized=False):
    u = as_state(u_a)
    t = float(t_a)
    try:
        slope = tuple(map(float, problem.rhs(t, u)))
    except ArithmeticError as exc:
        raise IntegrationFailed(f"rhs failed at the start state, t={t:.6g}: {exc}") from exc
    if not _all_finite(slope):
        raise IntegrationFailed(f"non-finite rhs at the start state, t={t:.6g}")

    stops = deque([*problem.forced_event_times(t_a, t_b), t_b])
    times = [t]
    states = [u]
    history = deque(maxlen=2)
    history.append((t, u))
    dt = tol.dt_init
    while t < t_b:
        while stops[0] <= t:
            stops.popleft()
        gap = stops[0] - t
        t_new = stops[0] if dt >= gap else t + dt
        dt_step = t_new - t
        if not t_new > t:
            raise IntegrationFailed(f"step size {dt:.3g} cannot advance time at t={t:.6g}")

        guess = reference_predict(history, t_new, slope)
        try:
            if linearized:
                u_new = linearized_euler_step(problem, t, dt_step, u, counters)
            else:
                u_new = implicit_euler_step(problem, t, dt_step, u, guess, tol, counters)
        except StepFailed:
            shrink, reason = 0.5, "Newton kept failing above dt_min"
        else:
            lte = reference_estimate_lte(problem, u_new, guess)
            if lte < tol.tol_t:
                t, u = t_new, u_new
                times.append(t)
                states.append(u)
                history.append((t, u))
                counters.steps_accepted += 1
                dt = SAFETY * dt_step * math.sqrt(tol.tol_t / max(lte, LTE_FLOOR_REL * tol.tol_t))
                dt = min(tol.dt_max, max(tol.dt_min, dt))
                continue
            if math.isfinite(lte):
                shrink = max(REJECT_SHRINK_MIN, min(0.5, SAFETY * math.sqrt(tol.tol_t / lte)))
                reason = f"tolerance tol_t={tol.tol_t:g} unattainable"
            else:
                shrink, reason = 0.5, "non-finite error estimate"
        dt = dt_step * shrink
        counters.steps_rejected += 1
        if dt < tol.dt_min:
            raise IntegrationFailed(f"step size underflow at t={t:.6g}: {reason}")
    return Trajectory(times, states)


def integration_outcome(integrate, problem, t_a, t_b, u_a, tol, linearized):
    """``(kind, value, counters)`` of one call, floats as hex strings."""
    counters = StepCounters()
    try:
        traj = integrate(problem, t_a, t_b, u_a, tol, counters, linearized=linearized)
    except IntegrationFailed as exc:
        return "failed", str(exc), counters
    times = tuple(map(float.hex, traj.times))
    return "trajectory", (times, tuple(tuple(map(float.hex, u)) for u in traj.states)), counters


def assert_same_loops(problem, t_a, t_b, u_a, tol, linearized):
    got = integration_outcome(adaptive_integrate, problem, t_a, t_b, u_a, tol, linearized)
    want = integration_outcome(reference_integrate, problem, t_a, t_b, u_a, tol, linearized)
    assert got == want
    return got


def coil(plateau):
    ramp = RampSchedule(((50.0, plateau), (150.0, plateau), (200.0, 0.0)))
    return CoilProblem(CoilParams(), ramp)


# the fine tolerances of the shipped configs and the benchmark's, and the coarse ones
LOOP_TOL_MK = st.one_of(
    st.sampled_from([0.01, 0.1, 1.0, 3.0, 10.0, 20.0]), st.floats(0.01, 20.0)
)
# at 0.01 mK the implicit steps across the ramp's start of the plateau are
# rejected on their error estimate
REJECTING = {
    "plateau": 140.0,
    "t_a": 45.0,
    "span": 10.0,
    "current": 0.0,
    "temperature": 77.0,
    "tol_mk": 0.01,
    "dt_max": 2.0,
    "linearized": False,
}


class TestLoopAgainstThePredictPath:
    @settings(max_examples=150, deadline=None)
    @given(
        plateau=st.floats(100.0, 200.0),
        # starts on, before and between the ramp's breakpoints (50, 150, 200 s)
        t_a=st.one_of(st.sampled_from([0.0, 45.0, 50.0, 145.0, 150.0]), st.floats(0.0, 195.0)),
        span=st.floats(0.5, 60.0),
        current=st.one_of(st.just(0.0), st.floats(0.0, 200.0)),
        temperature=st.one_of(st.just(77.0), st.floats(77.0, 85.0)),
        tol_mk=LOOP_TOL_MK,
        dt_max=st.sampled_from([0.5, 2.0]),
        linearized=st.booleans(),
    )
    @example(**REJECTING)
    def test_coil_intervals(
        self, plateau, t_a, span, current, temperature, tol_mk, dt_max, linearized
    ):
        tol = StepperTolerances(
            tol_nr=1e-3 * tol_mk, tol_t=1e-3 * tol_mk, dt_init=0.1, dt_min=1e-9, dt_max=dt_max
        )
        u_a = (current, temperature)
        assert_same_loops(coil(plateau), t_a, t_a + span, u_a, tol, linearized)

    def test_the_rejecting_example_rejects(self):
        args = dict(REJECTING)
        tol_mk, dt_max = args.pop("tol_mk"), args.pop("dt_max")
        tol = StepperTolerances(tol_nr=1e-3 * tol_mk, tol_t=1e-3 * tol_mk, dt_max=dt_max)
        u_a = (args["current"], args["temperature"])
        t_a = args["t_a"]
        kind, _, counters = assert_same_loops(
            coil(args["plateau"]), t_a, t_a + args["span"], u_a, tol, args["linearized"]
        )
        assert kind == "trajectory"
        assert counters.steps_rejected > 0

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.tuples(st.tuples(ENTRY, ENTRY), st.tuples(ENTRY, ENTRY)),
        b=st.tuples(ENTRY, ENTRY),
        u_a=states(st.one_of(SPECIAL, st.floats(-1e3, 1e3))),
        tol_t=st.floats(1e-6, 1e-1),
        dt_min=st.sampled_from([1e-3, 1e-2]),
        linearized=st.booleans(),
    )
    def test_random_linear_systems(self, a, b, u_a, tol_t, dt_min, linearized):
        # max(u) as the temperature: either component decides the estimate;
        # stiff or growing systems end in a step-size underflow, compared too
        tol = StepperTolerances(tol_nr=tol_t, tol_t=tol_t, dt_init=0.1, dt_min=dt_min, dt_max=0.5)
        assert_same_loops(Linear2(a, b), 0.0, 2.0, u_a, tol, linearized)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.sampled_from([1, 3, 4]),
        tol_t=st.floats(1e-6, 1e-1),
        dt_min=st.sampled_from([1e-3, 1e-2]),
        linearized=st.booleans(),
    )
    def test_n_component_linear_systems(self, data, n, tol_t, dt_min, linearized):
        # the tuple prediction on every other state size: the explicit Euler
        # first step, the extrapolation after it, and the estimate on max(u)
        a = data.draw(st.tuples(*[st.tuples(*[ENTRY] * n)] * n), label="a")
        b = data.draw(st.tuples(*[ENTRY] * n), label="b")
        u_a = data.draw(st.tuples(*[st.one_of(SPECIAL, st.floats(-1e3, 1e3))] * n), label="u_a")
        tol = StepperTolerances(tol_nr=tol_t, tol_t=tol_t, dt_init=0.1, dt_min=dt_min, dt_max=0.5)
        assert_same_loops(LinearN(a, b), 0.0, 2.0, u_a, tol, linearized)
