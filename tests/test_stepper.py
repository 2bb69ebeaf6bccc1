import math

import numpy as np
import pytest

from parcoil import (
    CoilProblem,
    IntegrationFailed,
    LinearTestProblem,
    Problem,
    RampSchedule,
    StepCounters,
    StepFailed,
    StepperTolerances,
    adaptive_integrate,
    as_state,
    estimate_lte,
    fixed_integrate,
    hts_resistivity,
    implicit_euler_step,
    newton_jacobian,
    predict,
)

DECAY = LinearTestProblem(-1.0, (1.0,))
TIGHT = StepperTolerances(tol_nr=1e-10, tol_t=1.0, dt_init=0.5, dt_min=1e-12, dt_max=1.0)


def central_difference_jacobian(problem, t, u, delta=1e-6):
    dim = u.size
    jac = np.empty((dim, dim))
    for i in range(dim):
        up, dn = np.array(u, dtype=float), np.array(u, dtype=float)
        up[i] += delta
        dn[i] -= delta
        jac[:, i] = (problem.rhs(t, up) - problem.rhs(t, dn)) / (2 * delta)
    return jac


class TestNewtonJacobian:
    def test_linear_problem(self):
        jac = newton_jacobian(DECAY, 0.3, as_state([2.0]))
        assert jac[0, 0] == pytest.approx(-1.0, rel=1e-6)

    def test_zero_rhs(self):
        jac = newton_jacobian(LinearTestProblem(0.0, (1.0, 1.0)), 0.0, as_state([1.0, 2.0]))
        assert np.array_equal(jac, np.zeros((2, 2)))

    def test_coil_matches_central_difference(self, coil_problem):
        u = as_state([90.0, 79.5])
        fd = newton_jacobian(coil_problem, 60.0, u)
        cd = central_difference_jacobian(coil_problem, 60.0, u)
        assert np.allclose(fd, cd, rtol=1e-4, atol=1e-8)


class CubicDecay(Problem):
    """``d_t u = -u**3`` componentwise, without a closed-form Jacobian."""

    dimension = 2
    component_names = ("a", "b")

    def rhs(self, t, u):
        return -(u**3)

    def max_temperature(self, u):
        return float(np.max(u))

    def initial_state(self):
        return as_state([1.0, 2.0])


class PowerSaturation(Problem):
    """``d_t u = 1 - u**299`` through the power law; u = 0 is a good start.

    From ``u_prev = 0`` the first Newton iterate is ``u = dt``, so steps with
    ``dt > 10.7`` overflow the power term.
    """

    dimension = 1
    component_names = ("u",)

    def rhs(self, t, u):
        return np.array([1.0 - hts_resistivity(float(u[0]), 1.0, 1.0, 300.0)])

    def max_temperature(self, u):
        return float(u[0])

    def initial_state(self):
        return as_state([0.0])


def forward_difference_reference(problem, t, u, eps=1e-7):
    f0 = problem.rhs(t, u)
    jac = np.empty((u.size, u.size))
    for i in range(u.size):
        delta = eps * max(abs(float(u[i])), 1.0)
        up = u.copy()
        up[i] += delta
        jac[:, i] = (problem.rhs(t, up) - f0) / delta
    return jac


class TestDefaultJacobian:
    def test_problem_without_jacobian_gets_forward_difference(self):
        problem = CubicDecay()
        u = as_state([1.5, -0.5])
        reference = forward_difference_reference(problem, 0.0, u)
        assert np.array_equal(newton_jacobian(problem, 0.0, u), reference)

    def test_default_jacobian_drives_newton(self):
        # implicit Euler on -u^3 still converges through the difference quotient
        problem = CubicDecay()
        u0 = problem.initial_state()
        u = implicit_euler_step(problem, 0.0, 0.1, u0, u0, TIGHT)
        residual = u - u0 - 0.1 * problem.rhs(0.1, u)
        assert np.max(np.abs(residual)) < 1e-9


class TestOverflow:
    def test_overflow_is_a_failed_step(self):
        problem = PowerSaturation()
        u0 = problem.initial_state()
        with pytest.raises(StepFailed, match="non-finite residual") as info:
            implicit_euler_step(problem, 0.0, 16.0, u0, u0, TIGHT)
        assert info.value.iterations == 1

    def test_adaptive_halves_after_overflow(self):
        problem = PowerSaturation()
        tol = StepperTolerances(tol_nr=1e-9, tol_t=10.0, dt_init=16.0, dt_min=1e-6, dt_max=16.0)
        counters = StepCounters()
        traj = adaptive_integrate(problem, 0.0, 20.0, problem.initial_state(), tol, counters)
        assert counters.steps_rejected >= 1
        assert traj.times[1] <= 8.0
        assert traj.t_end == 20.0
        assert traj.terminal_state[0] == pytest.approx(1.0, abs=1e-6)


class TestImplicitEulerStep:
    @pytest.mark.parametrize("u0", [(1.0,), (1.0, 1.0)])
    def test_singular_newton_matrix_fails(self, u0):
        # 1 - dt*rate = 0: the Newton matrix has a zero determinant
        growth = LinearTestProblem(2.0, u0)
        u_prev = growth.initial_state()
        with pytest.raises(StepFailed, match="singular"):
            implicit_euler_step(growth, 0.0, 0.5, u_prev, u_prev, TIGHT)

    def test_linear_closed_form(self):
        # u = u_prev / (1 - rate*dt) for the scalar linear problem
        u = implicit_euler_step(DECAY, 0.0, 0.5, as_state([1.0]), as_state([1.0]), TIGHT)
        assert u[0] == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_zero_rhs_keeps_state(self):
        still = LinearTestProblem(0.0, (1.0, 1.0))
        u_prev = as_state([4.0, -2.0])
        u = implicit_euler_step(still, 1.0, 7.0, u_prev, u_prev, TIGHT)
        assert np.array_equal(u, u_prev)

    def test_coil_rest_state_is_fixed_point(self):
        problem = CoilProblem(ramp=RampSchedule(()))
        u_prev = problem.initial_state()
        u = implicit_euler_step(problem, 0.0, 1.0, u_prev, u_prev, TIGHT)
        assert np.array_equal(u, u_prev)

    def test_failure_carries_iteration_count(self):
        budget = StepperTolerances(
            tol_nr=1e-14, tol_t=1.0, dt_init=0.5, dt_min=1e-12, dt_max=1.0, nr_max_iters=1
        )
        # one iteration cannot meet a 1e-14 max-temperature change from a bad guess
        with pytest.raises(StepFailed) as info:
            implicit_euler_step(DECAY, 0.0, 0.5, as_state([1.0]), as_state([50.0]), budget)
        assert info.value.iterations == 1

    def test_counters_accumulate(self):
        counters = StepCounters()
        implicit_euler_step(DECAY, 0.0, 0.5, as_state([1.0]), as_state([1.0]), TIGHT, counters)
        assert counters.nr_iterations >= 1


class TestPredict:
    def test_constant_from_single_entry(self):
        assert np.array_equal(predict([(0.0, as_state([1.0]))], 1.0), [1.0])

    def test_linear_extrapolation(self):
        history = [(0.0, as_state([0.0])), (1.0, as_state([2.0]))]
        assert np.array_equal(predict(history, 2.0), [4.0])

    def test_endpoint_reproduces_last_state(self):
        history = [(0.0, as_state([0.0])), (1.0, as_state([2.0]))]
        assert np.array_equal(predict(history, 1.0), [2.0])


class TestEstimateLte:
    def test_identical_states(self):
        s = as_state([1.0, 78.0])
        assert estimate_lte(CoilProblem(), s, s) == 0.0

    def test_definition(self):
        problem = CoilProblem()
        a, b = as_state([0.0, 78.0]), as_state([0.0, 77.9])
        assert estimate_lte(problem, a, b) == pytest.approx(0.1, rel=1e-12)

    def test_symmetric(self):
        problem = CoilProblem()
        a, b = as_state([0.0, 78.0]), as_state([0.0, 77.5])
        assert estimate_lte(problem, a, b) == estimate_lte(problem, b, a)


class TestAdaptiveIntegrate:
    def test_constant_solution_two_entries(self):
        still = LinearTestProblem(0.0, (3.0,))
        span = StepperTolerances(tol_nr=1e-8, tol_t=1e-8, dt_init=1.0, dt_min=1e-12, dt_max=1.0)
        traj = adaptive_integrate(still, 0.0, 1.0, still.initial_state(), span)
        assert traj.n_points == 2
        assert np.array_equal(traj.times, [0.0, 1.0])
        assert np.all(traj.states == 3.0)

    def test_linear_terminal_value(self):
        # per-step tolerance 1e-4 over ~90 accepted steps bounds the global
        # drift near a few millis; the closed form is the oracle
        tol = StepperTolerances(tol_nr=1e-8, tol_t=1e-4, dt_init=0.05, dt_min=1e-12, dt_max=0.25)
        traj = adaptive_integrate(DECAY, 0.0, 1.0, DECAY.initial_state(), tol)
        assert abs(traj.terminal_state[0] - math.exp(-1.0)) < 5e-3

    def test_linear_terminal_error_shrinks_with_tolerance(self):
        errors = []
        for tol_t in (1e-3, 1e-4, 1e-5):
            tol = StepperTolerances(
                tol_nr=1e-10, tol_t=tol_t, dt_init=0.05, dt_min=1e-12, dt_max=0.25
            )
            traj = adaptive_integrate(DECAY, 0.0, 1.0, DECAY.initial_state(), tol)
            errors.append(abs(traj.terminal_state[0] - math.exp(-1.0)))
        assert errors[0] > errors[1] > errors[2]

    def test_forced_events_land_exactly(self, coil_problem, fine_tols):
        traj = adaptive_integrate(
            coil_problem, 0.0, 60.0, coil_problem.initial_state(), fine_tols
        )
        assert 50.0 in traj.times
        assert traj.times[0] == 0.0 and traj.times[-1] == 60.0

    def test_deterministic_repeat(self, coil_problem, fine_tols):
        a = adaptive_integrate(coil_problem, 0.0, 60.0, coil_problem.initial_state(), fine_tols)
        b = adaptive_integrate(coil_problem, 0.0, 60.0, coil_problem.initial_state(), fine_tols)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_unattainable_tolerance_fails(self):
        fast = LinearTestProblem(-1000.0, (1.0,))
        tol = StepperTolerances(tol_nr=1e-8, tol_t=1e-13, dt_init=0.1, dt_min=0.05, dt_max=0.5)
        with pytest.raises(IntegrationFailed):
            adaptive_integrate(fast, 0.0, 1.0, fast.initial_state(), tol)

    def test_counters_track_steps(self, coil_problem, fine_tols):
        counters = StepCounters()
        traj = adaptive_integrate(
            coil_problem, 0.0, 30.0, coil_problem.initial_state(), fine_tols, counters
        )
        assert counters.steps_accepted == traj.n_points - 1
        assert counters.nr_iterations >= counters.steps_accepted


class TestFixedIntegrate:
    def test_constant_solution(self):
        still = LinearTestProblem(0.0, (5.0,))
        traj = fixed_integrate(still, [0.0, 0.5, 1.0], still.initial_state(), TIGHT)
        assert np.all(traj.states == 5.0)

    def test_linear_repeated_closed_form(self):
        traj = fixed_integrate(DECAY, [0.0, 0.5, 1.0], DECAY.initial_state(), TIGHT)
        assert traj.states[:, 0] == pytest.approx([1.0, 2.0 / 3.0, 4.0 / 9.0], rel=1e-12)

    def test_single_interval_matches_one_step(self):
        via_grid = fixed_integrate(DECAY, [0.0, 0.5], DECAY.initial_state(), TIGHT)
        one_step = implicit_euler_step(
            DECAY, 0.0, 0.5, DECAY.initial_state(), DECAY.initial_state(), TIGHT
        )
        assert np.array_equal(via_grid.terminal_state, one_step)

    def test_newton_failure_is_fatal(self):
        # a single Newton iteration cannot satisfy the max-temperature
        # criterion when the step moves the state, so the grid solve dies
        budget = StepperTolerances(
            tol_nr=1e-10, tol_t=1.0, dt_init=0.5, dt_min=1e-12, dt_max=1.0, nr_max_iters=1
        )
        with pytest.raises(IntegrationFailed):
            fixed_integrate(DECAY, [0.0, 0.5, 1.0], DECAY.initial_state(), budget)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            fixed_integrate(DECAY, [0.0, 0.0, 1.0], DECAY.initial_state(), TIGHT)
        with pytest.raises(ValueError):
            fixed_integrate(DECAY, [0.0], DECAY.initial_state(), TIGHT)


class TestConvergenceOrder:
    def test_first_order_on_linear_problem(self):
        # closed form of n repeated implicit Euler steps: (1 + h)^(-n)
        errors = []
        for k in range(4, 9):
            n = 2**k
            h = 1.0 / n
            grid = np.linspace(0.0, 1.0, n + 1)
            traj = fixed_integrate(DECAY, grid, DECAY.initial_state(), TIGHT)
            closed = (1.0 + h) ** (-n)
            assert traj.terminal_state[0] == pytest.approx(closed, rel=1e-10)
            errors.append(abs(traj.terminal_state[0] - math.exp(-1.0)))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        assert all(abs(order - 1.0) <= 0.1 for order in orders)
