"""The scalar two-component step against the tuple-path step it replaces.

The reference below is the tuple path of ``implicit_euler_step``,
``linearized_euler_step`` and the closed-form 2x2 Newton update as they
were before two-component states got their own scalar path.  The scalar
path must give the same bits (compared by ``float.hex``, so 0.0 and -0.0
differ), the same Newton count and the same ``StepFailed`` message, on
well-posed steps and on every way a step can fail.
"""

import math
import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from parcoil import (
    CoilParams,
    CoilProblem,
    Problem,
    RampSchedule,
    StepCounters,
    StepFailed,
    StepperTolerances,
    as_state,
    implicit_euler_step,
    linearized_euler_step,
)

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
            raise StepFailed("non-finite residual")
        du = _newton_update_2x2(dt, problem.jacobian(t_new, u), r)
        u_new = tuple(map(operator.add, u, du))
        if not _all_finite(u_new):
            raise StepFailed("non-finite linearized step")
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
