import math
import os
import pathlib
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parcoil import (
    CoilProblem,
    IntegrationFailed,
    LinearTestProblem,
    PararealConfig,
    Problem,
    RampSchedule,
    StepCounters,
    StepFailed,
    StepperTolerances,
    adaptive_integrate,
    as_state,
    fixed_integrate,
    implicit_euler_step,
    linearized_euler_step,
    newton_jacobian,
    run_parareal,
)
from parcoil import cli, stepper
from parcoil.stepper import REJECT_SHRINK_MIN, SAFETY, _newton_update

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DECAY = LinearTestProblem(-1.0, (1.0,))
TIGHT = StepperTolerances(tol_nr=1e-10, tol_t=1.0, dt_init=0.5, dt_min=1e-12, dt_max=1.0)


def central_difference_jacobian(problem, t, u, delta=1e-6):
    dim = len(u)
    jac = np.empty((dim, dim))
    for i in range(dim):
        up, dn = np.array(u, dtype=float), np.array(u, dtype=float)
        up[i] += delta
        dn[i] -= delta
        jac[:, i] = (np.asarray(problem.rhs(t, up)) - np.asarray(problem.rhs(t, dn))) / (2 * delta)
    return jac


class TestNewtonJacobian:
    def test_linear_problem(self):
        jac = np.asarray(newton_jacobian(DECAY, 0.3, as_state([2.0])))
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

    component_names = ("a", "b")

    def rhs(self, t, u):
        return tuple(-(x**3) for x in u)

    def max_temperature(self, u):
        return float(np.max(u))

    def initial_state(self):
        return as_state([1.0, 2.0])

    def derived_columns(self):
        return (("u_sum", lambda t, u: math.fsum(u)),)


class PowerSaturation(Problem):
    """``d_t u = 1 - u**299`` through the power law; u = 0 is a good start.

    From ``u_prev = 0`` the first Newton iterate is ``u = dt``, so steps with
    ``dt > 10.7`` overflow the power term.
    """

    component_names = ("u",)

    def rhs(self, t, u):
        try:
            power = abs(float(u[0])) ** 299.0
        except OverflowError:
            power = math.inf
        return np.array([1.0 - power])

    def max_temperature(self, u):
        return float(u[0])

    def initial_state(self):
        return as_state([0.0])


class PowerBlowup(Problem):
    """``d_t u = 1 - u**400`` on Python floats, where ``**`` raises past u = 5.9.

    From ``u_prev = 0`` the first Newton iterate is ``u = dt``, so steps with
    ``dt > 5.9`` raise ``OverflowError`` inside ``rhs``.
    """

    component_names = ("u",)

    def rhs(self, t, u):
        return (1.0 - u[0] ** 400,)

    def max_temperature(self, u):
        return u[0]

    def initial_state(self):
        return as_state([0.0])


class MatrixLinear(Problem):
    """``d_t u = A u`` for a general square matrix ``A`` given as rows."""

    def __init__(self, a, u0):
        self.a = tuple(tuple(map(float, row)) for row in a)
        self.u0 = as_state(u0)

    @property
    def component_names(self):
        return tuple(f"u_{i}" for i in range(len(self.a)))

    def rhs(self, t, u):
        return tuple(math.fsum(a * x for a, x in zip(row, u)) for row in self.a)

    def jacobian(self, t, u):
        return self.a

    def max_temperature(self, u):
        return float(max(u))

    def initial_state(self):
        return self.u0


class NanJacobian(MatrixLinear):
    """A finite rhs whose Jacobian has a NaN in its last row."""

    def jacobian(self, t, u):
        *rows, last = self.a
        return (*rows, (*last[:-1], math.nan))


class NanRhs(LinearTestProblem):
    """A rhs that evaluates to NaN everywhere."""

    def rhs(self, t, u):
        return (math.nan,) * len(u)


class NanTemperature(LinearTestProblem):
    """A well-behaved rhs whose max temperature is NaN everywhere."""

    def max_temperature(self, u):
        return math.nan


class DividesByZero(LinearTestProblem):
    """A rhs that raises ``ZeroDivisionError`` everywhere."""

    def rhs(self, t, u):
        return (1.0 / 0.0,) * len(u)


class ConstantSlope(Problem):
    """``d_t u = 1``: explicit and implicit Euler both give the exact solution."""

    component_names = ("u",)

    def rhs(self, t, u):
        return (1.0,)

    def jacobian(self, t, u):
        return ((0.0,),)

    def max_temperature(self, u):
        return u[0]

    def initial_state(self):
        return as_state([0.0])


def forward_difference_reference(problem, t, u, eps=1e-7):
    f0 = np.asarray(problem.rhs(t, u))
    jac = np.empty((len(u), len(u)))
    for i in range(len(u)):
        delta = eps * max(abs(u[i]), 1.0)
        up = list(u)
        up[i] += delta
        jac[:, i] = (np.asarray(problem.rhs(t, tuple(up))) - f0) / delta
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
        residual = np.asarray(u) - u0 - 0.1 * np.asarray(problem.rhs(0.1, u))
        assert np.max(np.abs(residual)) < 1e-9


class TestOverflow:
    def test_overflow_is_a_failed_step(self):
        problem = PowerSaturation()
        u0 = problem.initial_state()
        counters = StepCounters()
        with pytest.raises(StepFailed, match="non-finite residual"):
            implicit_euler_step(problem, 0.0, 16.0, u0, u0, TIGHT, counters)
        assert counters.nr_iterations == 1

    def test_adaptive_halves_after_overflow(self):
        problem = PowerSaturation()
        tol = StepperTolerances(tol_nr=1e-9, tol_t=10.0, dt_init=16.0, dt_min=1e-6, dt_max=16.0)
        counters = StepCounters()
        # the default Jacobian differences the rhs's numpy infinities
        with pytest.warns(RuntimeWarning, match="invalid value"):
            traj = adaptive_integrate(problem, 0.0, 20.0, problem.initial_state(), tol, counters)
        assert counters.steps_rejected >= 1
        assert traj.times[1] <= 8.0
        assert traj.times[-1] == 20.0
        assert traj.terminal_state[0] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("u0", [(1e308,), (1e308, 1e308, 1e308)], ids=["one", "three"])
    @pytest.mark.parametrize("linearized", [False, True], ids=["implicit", "linearized"])
    def test_overflowing_update_is_a_failed_step(self, u0, linearized):
        # the tuple path: growth at rate 1 over dt = 0.5 doubles 1e308 to inf
        problem = LinearTestProblem(1.0, u0)
        counters = StepCounters()
        with pytest.raises(StepFailed, match="^non-finite Newton iterate$"):
            if linearized:
                linearized_euler_step(problem, 0.0, 0.5, u0, counters)
            else:
                implicit_euler_step(problem, 0.0, 0.5, u0, u0, TIGHT, counters)
        assert counters.nr_iterations == 1


class TestArithmeticError:
    def test_float_overflow_in_rhs_is_a_failed_step(self):
        counters = StepCounters()
        with pytest.raises(StepFailed, match="arithmetic error"):
            implicit_euler_step(PowerBlowup(), 0.0, 16.0, (0.0,), (0.0,), TIGHT, counters)
        assert counters.nr_iterations == 1

    def test_adaptive_halves_after_float_overflow(self):
        problem = PowerBlowup()
        tol = StepperTolerances(tol_nr=1e-9, tol_t=10.0, dt_init=16.0, dt_min=1e-6, dt_max=16.0)
        counters = StepCounters()
        traj = adaptive_integrate(problem, 0.0, 20.0, problem.initial_state(), tol, counters)
        assert counters.steps_rejected >= 1
        assert traj.times[1] <= 8.0
        assert traj.times[-1] == 20.0
        assert traj.terminal_state[0] == pytest.approx(1.0, abs=1e-6)


def is_float_tuple(u):
    return type(u) is tuple and all(type(x) is float for x in u)


class RecordsStates:
    """Notes, per method, whether each state the problem receives is a tuple of floats."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        names = ("rhs", "jacobian", "rhs_and_jacobian", "max_temperature", "derived_columns")
        self.seen = {name: [] for name in names}

    def rhs(self, t, u):
        self.seen["rhs"].append(is_float_tuple(u))
        return super().rhs(t, u)

    def jacobian(self, t, u):
        self.seen["jacobian"].append(is_float_tuple(u))
        return super().jacobian(t, u)

    def rhs_and_jacobian(self, t, u):
        self.seen["rhs_and_jacobian"].append(is_float_tuple(u))
        return super().rhs_and_jacobian(t, u)

    def max_temperature(self, u):
        self.seen["max_temperature"].append(is_float_tuple(u))
        return super().max_temperature(u)

    def derived_columns(self):
        def recorded(fn):
            def column(t, u):
                self.seen["derived_columns"].append(is_float_tuple(u))
                return fn(t, u)

            return column

        return tuple((name, recorded(fn)) for name, fn in super().derived_columns())


class RecordingCoil(RecordsStates, CoilProblem):
    """Closed-form Jacobian."""


class RecordingCubic(RecordsStates, CubicDecay):
    """Default forward-difference Jacobian, whose perturbed states are recorded too.

    The stepper takes the default pair through ``rhs_and_jacobian`` at each
    Newton start, so the states of both calls are recorded there too.
    """


CONTRACT_TOLS = {
    RecordingCoil: (
        60.0,
        StepperTolerances(tol_nr=1e-4, tol_t=1e-4, dt_init=0.1, dt_min=1e-9, dt_max=2.0),
        StepperTolerances(tol_nr=1e-2, tol_t=2e-2, dt_init=0.5, dt_min=1e-9, dt_max=2.0),
    ),
    RecordingCubic: (
        2.0,
        StepperTolerances(tol_nr=1e-8, tol_t=1e-4, dt_init=0.05, dt_min=1e-12, dt_max=0.25),
        StepperTolerances(tol_nr=1e-8, tol_t=5e-3, dt_init=0.1, dt_min=1e-12, dt_max=0.5),
    ),
}


# The cubic runs through the CLI as a linear_test config whose problem is replaced.
CONTRACT_CFGS = {
    RecordingCoil: pathlib.Path(REPO_ROOT, "configs", "ni_coil.cfg").read_text(),
    RecordingCubic: textwrap.dedent(
        """
        [run]
        problem = linear_test
        t_end = 2.0

        [parareal]
        n_windows = 4
        tol_pr_mk = 10

        [fine]
        tol_nr_mk = 1e-5
        tol_t_mk = 0.1
        dt_init = 0.05
        dt_min = 1e-12
        dt_max = 0.25

        [coarse]
        tol_t_mk = 5
        dt_init = 0.1
        dt_min = 1e-12
        dt_max = 0.5

        [study]
        n_windows_list = 2, 4
        fine_tol_mk_list = 1, 0.1
        """
    ),
}


# the problem methods the propagators call with a state
STEPPER_CALLS = ("rhs", "jacobian", "rhs_and_jacobian", "max_temperature")


def assert_only_float_tuples(seen, *names):
    assert seen["jacobian"] or seen["rhs_and_jacobian"], "no Newton iteration ran"
    for name in names:
        assert all(seen[name]), f"{name} received a state that is not a tuple of floats"


@pytest.mark.parametrize("make", [RecordingCoil, RecordingCubic], ids=["coil", "cubic"])
class TestFloatContract:
    """Inside the propagators a problem only ever sees tuples of Python floats."""

    def test_adaptive_integrate(self, make):
        problem = make()
        t_end, fine, _ = CONTRACT_TOLS[make]
        adaptive_integrate(problem, 0.0, t_end, problem.initial_state(), fine)
        assert_only_float_tuples(problem.seen, *STEPPER_CALLS)

    def test_fixed_integrate(self, make):
        problem = make()
        t_end = CONTRACT_TOLS[make][0]
        fixed_integrate(problem, np.linspace(0.0, t_end, 9), problem.initial_state())
        assert_only_float_tuples(problem.seen, *STEPPER_CALLS)

    def test_run_parareal_one_worker(self, make):
        problem = make()
        t_end, fine, coarse = CONTRACT_TOLS[make]
        cfg = PararealConfig(n_windows=4, tol_pr=1e-2, fine_tol=fine, coarse_tol=coarse)
        run_parareal(problem, 0.0, t_end, problem.initial_state(), cfg, n_workers=1)
        # the boundary comparisons read trajectory rows, which are the same tuples
        assert_only_float_tuples(problem.seen, *STEPPER_CALLS)

    def test_cli_parareal_with_baseline_and_study(self, make, tmp_path, monkeypatch):
        # the deviation, the boundary states and the trajectory writer pass tuples too
        problem = make()
        monkeypatch.setattr(cli, "make_problem", lambda cfg: problem)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONTRACT_CFGS[make])
        for command in (["parareal", "--with-baseline"], ["study"]):
            out = str(tmp_path / command[0])
            assert cli.main([*command, "--config", str(cfg), "--out", out, "--workers", "1"]) == 0
        assert problem.seen["derived_columns"], "no derived column was written"
        assert_only_float_tuples(problem.seen, *STEPPER_CALLS, "derived_columns")


class TestImplicitEulerStep:
    @pytest.mark.parametrize("u0", [(1.0,), (1.0, 1.0), (1.0, 1.0, 1.0)])
    def test_singular_newton_matrix_fails(self, u0):
        # 1 - dt*rate = 0: the Newton matrix has a zero determinant
        growth = LinearTestProblem(2.0, u0)
        u_prev = growth.initial_state()
        with pytest.raises(StepFailed, match="singular"):
            implicit_euler_step(growth, 0.0, 0.5, u_prev, u_prev, TIGHT)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("linearized", [False, True], ids=["implicit", "linearized"])
    def test_nan_jacobian_fails(self, dim, linearized):
        problem = NanJacobian(np.eye(dim), np.ones(dim))
        u_prev = problem.initial_state()
        counters = StepCounters()
        with pytest.raises(StepFailed, match="^non-finite Jacobian$"):
            if linearized:
                linearized_euler_step(problem, 0.0, 0.5, u_prev, counters)
            else:
                implicit_euler_step(problem, 0.0, 0.5, u_prev, u_prev, TIGHT, counters)
        assert counters.nr_iterations == 1

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
        counters = StepCounters()
        with pytest.raises(StepFailed):
            implicit_euler_step(
                DECAY, 0.0, 0.5, as_state([1.0]), as_state([50.0]), budget, counters
            )
        assert counters.nr_iterations == 1

    def test_counters_accumulate(self):
        counters = StepCounters()
        implicit_euler_step(DECAY, 0.0, 0.5, as_state([1.0]), as_state([1.0]), TIGHT, counters)
        assert counters.nr_iterations >= 1


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: implicit_euler_step(DECAY, 0.0, 0.0, (1.0,), (1.0,), TIGHT), "dt must be"),
            (lambda: implicit_euler_step(DECAY, 0.0, -0.5, (1.0,), (1.0,), TIGHT), "dt must be"),
            (lambda: linearized_euler_step(DECAY, 0.0, 0.0, (1.0,)), "dt must be"),
            (
                lambda: implicit_euler_step(DECAY, 0.0, 0.5, (1.0,), (1.0, 1.0), TIGHT),
                "guess and u_prev must have the same dimension",
            ),
            (lambda: adaptive_integrate(DECAY, 1.0, 1.0, (1.0,), TIGHT), "need t_a < t_b"),
            (lambda: adaptive_integrate(DECAY, 1.0, 0.5, (1.0,), TIGHT), "need t_a < t_b"),
        ],
        ids=[
            "dt_0",
            "dt_negative",
            "linearized_dt_0",
            "guess_size",
            "empty_interval",
            "reversed_interval",
        ],
    )
    def test_bad_arguments_are_a_value_error(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            call()


class TestAdaptiveIntegrate:
    def test_constant_solution_two_entries(self):
        still = LinearTestProblem(0.0, (3.0,))
        span = StepperTolerances(tol_nr=1e-8, tol_t=1e-8, dt_init=1.0, dt_min=1e-12, dt_max=1.0)
        traj = adaptive_integrate(still, 0.0, 1.0, still.initial_state(), span)
        assert len(traj.times) == 2
        assert np.array_equal(traj.times, [0.0, 1.0])
        assert np.all(np.asarray(traj.states) == 3.0)

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
        assert counters.steps_accepted == len(traj.times) - 1
        assert counters.nr_iterations >= counters.steps_accepted


class TestStepController:
    @pytest.mark.parametrize("linearized", [False, True])
    def test_constant_slope_first_step_accepted_at_dt_init(self, linearized):
        # the explicit Euler predictor is exact here, so the first LTE estimate is 0
        problem = ConstantSlope()
        tol = StepperTolerances(tol_nr=1e-9, tol_t=1e-6, dt_init=0.1, dt_min=1e-12, dt_max=0.5)
        counters = StepCounters()
        traj = adaptive_integrate(
            problem, 0.0, 1.0, problem.initial_state(), tol, counters, linearized=linearized
        )
        assert traj.times[1] == 0.1
        assert counters.steps_rejected == 0
        assert traj.terminal_state[0] == pytest.approx(1.0, rel=1e-12)

    def test_retry_after_lte_rejection_is_sized_from_the_error(self, monkeypatch):
        # d_t u = -u from 1 at dt = 0.1: the first trial's error estimate,
        # its solution against its guess, is about 0.0091; each tolerance
        # puts the retry factor in another range
        trials, ltes = [], []
        step = stepper.implicit_euler_step

        def recording_step(problem, t, dt, u_prev, guess, *args):
            trials.append(dt)
            u_new = step(problem, t, dt, u_prev, guess, *args)
            ltes.append(abs(DECAY.max_temperature(u_new) - DECAY.max_temperature(guess)))
            return u_new

        monkeypatch.setattr(stepper, "implicit_euler_step", recording_step)
        factors = []
        for tol_t in (6e-3, 1.1e-3, 9e-5):
            trials.clear()
            ltes.clear()
            tol = StepperTolerances(
                tol_nr=1e-10, tol_t=tol_t, dt_init=0.1, dt_min=1e-12, dt_max=0.5
            )
            adaptive_integrate(DECAY, 0.0, 0.2, DECAY.initial_state(), tol)
            assert trials[0] == 0.1 and ltes[0] >= tol_t
            factor = max(REJECT_SHRINK_MIN, min(0.5, SAFETY * math.sqrt(tol_t / ltes[0])))
            assert trials[1] == 0.1 * factor
            factors.append(factor)
        # the cap, a factor from the error estimate, and the floor
        assert factors[0] == 0.5
        assert REJECT_SHRINK_MIN < factors[1] < 0.5
        assert factors[2] == REJECT_SHRINK_MIN

    @pytest.mark.parametrize("linearized", [False, True])
    def test_newton_failure_underflow(self, linearized):
        # every trial fails on the NaN Jacobian: 0.1, 0.05 and 0.025 are
        # rejected, and the halved 0.0125 is below dt_min
        problem = NanJacobian(((-1.0, 0.0), (0.0, -2.0)), (1.0, 2.0))
        tol = StepperTolerances(tol_nr=1e-9, tol_t=1.0, dt_init=0.1, dt_min=0.02, dt_max=0.5)
        counters = StepCounters()
        message = r"^step size underflow at t=0\.25: Newton kept failing above dt_min$"
        with pytest.raises(IntegrationFailed, match=message):
            adaptive_integrate(
                problem, 0.25, 1.0, problem.initial_state(), tol, counters, linearized=linearized
            )
        assert counters == StepCounters(nr_iterations=3, steps_accepted=0, steps_rejected=3)

    def test_unattainable_tolerance_underflow(self):
        # each trial shrinks by REJECT_SHRINK_MIN: 0.1 and 0.02 are rejected,
        # and 0.004 is below dt_min
        fast = LinearTestProblem(-1000.0, (1.0,))
        tol = StepperTolerances(tol_nr=1e-8, tol_t=1e-13, dt_init=0.1, dt_min=0.015, dt_max=0.5)
        counters = StepCounters()
        message = r"^step size underflow at t=0\.25: tolerance tol_t=1e-13 unattainable$"
        with pytest.raises(IntegrationFailed, match=message):
            adaptive_integrate(fast, 0.25, 1.0, fast.initial_state(), tol, counters)
        assert counters.steps_accepted == 0
        assert counters.steps_rejected == 2

    def test_step_that_cannot_advance_time_fails(self):
        # at t = 1e6 a step of 1e-12 is below half a unit in the last place: t + dt == t
        tol = StepperTolerances(tol_nr=1e-8, tol_t=1e-4, dt_init=1e-12, dt_min=1e-12, dt_max=0.5)
        counters = StepCounters()
        message = r"^step size 1e-12 cannot advance time at t=1e\+06$"
        with pytest.raises(IntegrationFailed, match=message):
            adaptive_integrate(DECAY, 1e6, 1e6 + 1.0, DECAY.initial_state(), tol, counters)
        assert counters == StepCounters()

    @pytest.mark.parametrize("u0", [(1.0,), (1.0, 2.0), (1.0, 2.0, 3.0)])
    @pytest.mark.parametrize("dt_min, rejections", [(0.02, 3), (1e-4, 10)])
    @pytest.mark.parametrize("linearized", [False, True])
    def test_nan_error_estimate_fails(self, u0, dt_min, rejections, linearized):
        # a NaN max temperature fails every Newton solve on its convergence
        # test and gives the linearized step a NaN error estimate: each
        # trial is rejected and halved, down from 0.1 to below dt_min
        problem = NanTemperature(-1.0, u0)
        tol = StepperTolerances(tol_nr=1e-9, tol_t=1.0, dt_init=0.1, dt_min=dt_min, dt_max=0.5)
        counters = StepCounters()
        reason = "non-finite error estimate" if linearized else "Newton kept failing above dt_min"
        message = rf"^step size underflow at t=0\.25: {reason}$"
        with pytest.raises(IntegrationFailed, match=message):
            adaptive_integrate(
                problem, 0.25, 1.0, problem.initial_state(), tol, counters, linearized=linearized
            )
        assert counters.steps_accepted == 0
        assert counters.steps_rejected == rejections
        assert counters.nr_iterations == rejections * (1 if linearized else tol.nr_max_iters)

    @pytest.mark.parametrize("make", [NanRhs, DividesByZero], ids=["nan", "zero-division"])
    @pytest.mark.parametrize("linearized", [False, True])
    def test_bad_rhs_at_the_start_fails_at_once(self, make, linearized):
        problem = make(-1.0, (1.0, 2.0))
        counters = StepCounters()
        with pytest.raises(IntegrationFailed, match=r"rhs .*at the start state, t=0\.25"):
            adaptive_integrate(
                problem, 0.25, 1.0, problem.initial_state(), TIGHT, counters, linearized=linearized
            )
        # no trial step: the step size is not shrunk down to dt_min
        assert counters == StepCounters()


class WrongRhsSize(LinearTestProblem):
    """``d_t u = rate * u`` whose rhs has one component more (``extra`` 1) or less (-1).

    With ``only_at_start`` the rhs is the wrong size only at ``t_start``.
    """

    def __init__(self, rate, u0, extra, t_start, only_at_start):
        super().__init__(rate, u0)
        self.extra, self.t_start, self.only_at_start = extra, t_start, only_at_start

    def rhs(self, t, u):
        f = super().rhs(t, u)
        if self.only_at_start and t != self.t_start:
            return f
        return f + (0.5,) if self.extra > 0 else f[: self.extra]


class TestStartSlopeSize:
    @pytest.mark.parametrize("u0", [(1.0,), (1.0, 2.0), (1.0, 2.0, 3.0)])
    @pytest.mark.parametrize("extra", [1, -1], ids=["too-many", "too-few"])
    @pytest.mark.parametrize("only_at_start", [False, True], ids=["everywhere", "at-start"])
    @pytest.mark.parametrize("linearized", [False, True])
    def test_rhs_of_the_wrong_size_is_refused(self, u0, extra, only_at_start, linearized):
        problem = WrongRhsSize(-1.0, u0, extra, 0.25, only_at_start)
        counters = StepCounters()
        message = rf"^rhs gave {len(u0) + extra} components for a state of {len(u0)}$"
        with pytest.raises(ValueError, match=message):
            adaptive_integrate(
                problem, 0.25, 1.0, problem.initial_state(), TIGHT, counters, linearized=linearized
            )
        assert counters == StepCounters()


class TestWindowWarmStart:
    """A window solve started on the sequential solve costs about what it spent there."""

    TOL = StepperTolerances(tol_nr=1e-8, tol_t=1e-5, dt_init=0.05, dt_min=1e-12, dt_max=0.25)
    # Newton iterations a window may cost above the sequential solve over the
    # same span: at most 13 measured over about 8000 random draws, against up
    # to 39 with a constant first predictor and halving retries
    EXCESS = 16

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3))
    def test_window_costs_at_most_the_sequential_span(self, data, dim):
        diagonal, off_diagonal = st.floats(-3.0, 1.0), st.floats(-1.0, 1.0)
        a = [
            [data.draw(diagonal if i == j else off_diagonal) for j in range(dim)]
            for i in range(dim)
        ]
        component = st.one_of(st.just(0.0), st.floats(0.1, 10.0), st.floats(-10.0, -0.1))
        problem = MatrixLinear(a, data.draw(st.lists(component, min_size=dim, max_size=dim)))
        work = []  # (trial start time, Newton iterations) of every sequential trial step
        step = stepper.implicit_euler_step

        def recording_step(problem, t, dt, u_prev, guess, tol, counters):
            before = counters.nr_iterations
            try:
                return step(problem, t, dt, u_prev, guess, tol, counters)
            finally:
                work.append((t, counters.nr_iterations - before))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stepper, "implicit_euler_step", recording_step)
            seq = adaptive_integrate(
                problem, 0.0, 1.0, problem.initial_state(), self.TOL, StepCounters()
            )
        m = len(seq.times) - 1
        i = data.draw(st.integers(0, m - 1))
        k = data.draw(st.integers(i + 1, m))
        t_i, t_k = seq.times[i], seq.times[k]
        counters = StepCounters()
        window = adaptive_integrate(problem, t_i, t_k, seq.states[i], self.TOL, counters)
        assert window.times[-1] == t_k
        span = sum(nr for t, nr in work if t_i <= t < t_k)
        assert counters.nr_iterations <= span + self.EXCESS


class TestFixedIntegrate:
    def test_constant_solution(self):
        still = LinearTestProblem(0.0, (5.0,))
        traj = fixed_integrate(still, [0.0, 0.5, 1.0], still.initial_state())
        assert np.all(np.asarray(traj.states) == 5.0)

    def test_linear_repeated_closed_form(self):
        traj = fixed_integrate(DECAY, [0.0, 0.5, 1.0], DECAY.initial_state())
        closed_form = [1.0, 2.0 / 3.0, 4.0 / 9.0]
        assert np.asarray(traj.states)[:, 0] == pytest.approx(closed_form, rel=1e-12)

    def test_single_interval_matches_one_step(self):
        via_grid = fixed_integrate(DECAY, [0.0, 0.5], DECAY.initial_state())
        one_step = linearized_euler_step(DECAY, 0.0, 0.5, DECAY.initial_state())
        assert np.array_equal(via_grid.terminal_state, one_step)

    @pytest.mark.parametrize("u0", [(1.0,), (1.0, 2.0, 3.0)], ids=["one", "three"])
    def test_step_failure_is_fatal(self, u0):
        # a fixed grid cannot subdivide, so a failed step ends the solve;
        # the failed coarse step still counts its one Newton iteration
        problem = NanRhs(-1.0, u0)
        counters = StepCounters()
        message = r"at t=0 \(dt=0.5\): non-finite residual at the initial guess$"
        with pytest.raises(IntegrationFailed, match=message):
            fixed_integrate(problem, [0.0, 0.5, 1.0], problem.initial_state(), counters)
        assert counters.nr_iterations == 1

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            fixed_integrate(DECAY, [0.0, 0.0, 1.0], DECAY.initial_state())
        with pytest.raises(ValueError):
            fixed_integrate(DECAY, [0.0], DECAY.initial_state())


def square_matrices(dim):
    row = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
    return st.lists(row, min_size=dim, max_size=dim)


def vectors(dim):
    return st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)


class TestNewtonUpdate:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 6),
        dt=st.sampled_from([0.125, 0.25, 0.5, 1.0]),
        zero_corner=st.booleans(),
    )
    def test_matches_lapack(self, data, dim, dt, zero_corner):
        jac = data.draw(square_matrices(dim), label="jac")
        if zero_corner and dim > 1:
            # dt is a power of two, so this zeroes (I - dt*jac)[0][0] exactly
            # and the elimination must exchange rows
            jac[0][0] = 1.0 / dt
        r = data.draw(vectors(dim), label="r")
        matrix = np.eye(dim) - dt * np.array(jac)
        assume(np.linalg.norm(r) > 0.1 and np.linalg.cond(matrix) < 100.0)
        exact = np.linalg.solve(matrix, -np.array(r))
        du = _newton_update(dt, jac, tuple(r))
        assert np.linalg.norm(du - exact) <= 1e-12 * np.linalg.norm(exact)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 6), dt=st.floats(1e-3, 1.0))
    def test_diagonal_system_divides_exactly(self, data, dim, dt):
        diag = data.draw(vectors(dim), label="diag")
        r = data.draw(vectors(dim), label="r")
        assume(all(1.0 - dt * a != 0.0 for a in diag))
        jac = [[a if i == j else 0.0 for j in range(dim)] for i, a in enumerate(diag)]
        expected = tuple(-r_i / (1.0 - dt * a) for r_i, a in zip(r, diag))
        assert _newton_update(dt, jac, tuple(r)) == expected


class TestLinearizedEulerStep:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dt=st.floats(1e-3, 0.5))
    def test_coarse_step_solves_the_linear_system(self, data, dt):
        # on d_t u = A u one coarse step is implicit Euler exactly:
        # (I - dt*A) u_new = u, whatever the Newton tolerances say
        dim = data.draw(st.integers(1, 3), label="dim")
        a = np.array(data.draw(square_matrices(dim), label="A"))
        u0 = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)))
        matrix = np.eye(dim) - dt * a
        assume(np.linalg.norm(u0) > 0.1 and np.linalg.cond(matrix) < 100.0)
        counters = StepCounters()
        traj = fixed_integrate(MatrixLinear(a, u0), [0.0, dt], u0, counters)
        exact = np.linalg.solve(matrix, u0)
        assert np.linalg.norm(traj.terminal_state - exact) <= 1e-12 * np.linalg.norm(exact)
        assert counters.nr_iterations == 1

    @pytest.mark.parametrize("u0", [(1.0,), (1.0, 1.0), (1.0, 1.0, 1.0)])
    def test_singular_matrix_fails_after_one_iteration(self, u0):
        counters = StepCounters()
        with pytest.raises(StepFailed, match="singular"):
            linearized_euler_step(LinearTestProblem(2.0, u0), 0.0, 0.5, u0, counters)
        assert counters.nr_iterations == 1

    @pytest.mark.parametrize(
        "problem, u0",
        [(PowerBlowup(), (6.0,)), (DividesByZero(-1.0, (1.0, 1.0, 1.0)), (1.0, 1.0, 1.0))],
        ids=["overflow-one", "zero-division-three"],
    )
    def test_float_overflow_in_rhs_is_a_failed_step(self, problem, u0):
        counters = StepCounters()
        with pytest.raises(StepFailed, match="arithmetic error"):
            linearized_euler_step(problem, 0.0, 0.5, u0, counters)
        assert counters.nr_iterations == 1

    def test_adaptive_halves_after_failed_step(self):
        # every step of dt = 0.5 meets the singular matrix 1 - 0.5*2 = 0
        growth = LinearTestProblem(2.0, (1.0,))
        tol = StepperTolerances(tol_nr=1e-9, tol_t=1e3, dt_init=0.5, dt_min=1e-6, dt_max=0.5)
        counters = StepCounters()
        traj = adaptive_integrate(
            growth, 0.0, 1.0, growth.initial_state(), tol, counters, linearized=True
        )
        assert traj.times[-1] == 1.0 and 0.5 not in np.diff(traj.times)
        assert counters.steps_rejected >= 1
        assert counters.nr_iterations == counters.steps_accepted + counters.steps_rejected


class TestConvergenceOrder:
    def test_first_order_on_linear_problem(self):
        # closed form of n repeated implicit Euler steps: (1 + h)^(-n)
        errors = []
        for k in range(4, 9):
            n = 2**k
            h = 1.0 / n
            grid = np.linspace(0.0, 1.0, n + 1)
            traj = fixed_integrate(DECAY, grid, DECAY.initial_state())
            closed = (1.0 + h) ** (-n)
            assert traj.terminal_state[0] == pytest.approx(closed, rel=1e-10)
            errors.append(abs(traj.terminal_state[0] - math.exp(-1.0)))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        assert all(abs(order - 1.0) <= 0.1 for order in orders)
