"""The coil's fused ``rhs_and_jacobian`` against the separate ``rhs`` and Jacobian.

``coil_rhs_and_jacobian`` must give ``(coil_rhs, coil_jacobian)`` bit for
bit (compared by ``float.hex``, so 0.0 and -0.0 differ) on every branch
of the coil's law, and a whole run that takes it at each Newton start must
equal, bit for bit and count for count, the run that takes the default
pair (``rhs``, the residual check, then ``newton_jacobian``).
"""

import dataclasses
import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parcoil import (
    CoilParams,
    CoilProblem,
    LinearTestProblem,
    Problem,
    RampSchedule,
    StepCounters,
    StepperTolerances,
    adaptive_integrate,
    coil_jacobian,
    coil_rhs,
    coil_rhs_and_jacobian,
    load_run_config,
    make_problem,
    run_parareal,
)
from parcoil import coil

from conftest import WALL_FIELDS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_COIL_CFG = os.path.join(REPO_ROOT, "configs", "ni_coil.cfg")

PARAMS = CoilParams()
RAMP = RampSchedule(((50.0, 140.0), (150.0, 140.0), (200.0, 0.0)))
# a temperature whose J_c fraction sits just below the 1e-6 floor
T_FLOOR = PARAMS.t_c - 0.5e-6 * (PARAMS.t_c - PARAMS.t_op)


def as_hex(value):
    """Nested tuples, lists and dicts with every float written by ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: as_hex(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return type(value)(map(as_hex, value))
    return value


# every ramp segment, its exact breakpoints (start and end included) and
# times after the last one
TIMES = st.one_of(
    st.sampled_from([0.0, 50.0, 150.0, 200.0]),
    st.floats(0.0, 50.0),
    st.floats(50.0, 150.0),
    st.floats(150.0, 200.0),
    st.floats(200.0, 1e6),
)
# T <= T_op (J_c = j_c0), the linear part, and the 1e-6 floor from just
# below T_c on
TEMPERATURES = st.one_of(
    st.sampled_from([PARAMS.t_op, PARAMS.t_c, T_FLOOR]),
    st.floats(0.0, PARAMS.t_op),
    st.floats(PARAMS.t_op, PARAMS.t_c),
    st.floats(T_FLOOR, 1e3),
)
# I_theta = 0 of both signs, the operating range, and currents whose power
# law overflows to inf
CURRENTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-300.0, 300.0),
    st.floats(-1e200, 1e200),
)


class TestFusedKernel:
    @settings(max_examples=1000, deadline=None)
    @given(t=TIMES, i_theta=CURRENTS, temp=TEMPERATURES, n=st.sampled_from([1.0, 2.5, 25.0]))
    @example(t=25.0, i_theta=100.0, temp=70.0, n=25.0)  # J_c = j_c0
    @example(t=100.0, i_theta=130.0, temp=80.0, n=25.0)  # the linear part
    @example(t=175.0, i_theta=130.0, temp=95.0, n=25.0)  # the floor above T_c
    @example(t=50.0, i_theta=140.0, temp=PARAMS.t_op, n=25.0)  # a breakpoint
    @example(t=300.0, i_theta=0.0, temp=78.0, n=25.0)  # after the last one, no current
    @example(t=300.0, i_theta=-0.0, temp=T_FLOOR, n=25.0)
    @example(t=100.0, i_theta=1e30, temp=78.0, n=25.0)  # the power law overflows
    def test_equals_the_separate_calls(self, t, i_theta, temp, n):
        params = dataclasses.replace(PARAMS, n=n)
        s = (i_theta, temp)
        separate = (coil_rhs(t, s, params, RAMP), coil_jacobian(t, s, params, RAMP))
        assert as_hex(coil_rhs_and_jacobian(t, s, params, RAMP)) == as_hex(separate)

    def test_overflow_reaches_both_parts(self):
        f, jac = coil_rhs_and_jacobian(100.0, (1e30, 78.0), PARAMS, RAMP)
        assert math.isinf(f[0]) and math.isinf(jac[0][0])

    def test_problem_method_is_the_kernel(self):
        problem = CoilProblem(PARAMS, RAMP)
        s = (120.0, 79.0)
        assert as_hex(problem.rhs_and_jacobian(60.0, s)) == as_hex(
            (problem.rhs(60.0, s), problem.jacobian(60.0, s))
        )


class FusedLinear(LinearTestProblem):
    """The linear problem with ``rhs_and_jacobian`` overridden by the default pair."""

    calls = 0

    def rhs_and_jacobian(self, t, u):
        self.calls += 1
        return super().rhs_and_jacobian(t, u)


@pytest.mark.parametrize("u_0", [(1.0,), (1.0, -2.0, 3.0)], ids=["one", "three"])
@pytest.mark.parametrize("linearized", [False, True], ids=["implicit", "linearized"])
def test_tuple_path_takes_the_fused_start(u_0, linearized):
    # the general (not two-component) path of both step functions
    tol = StepperTolerances(tol_nr=1e-10, tol_t=1e-5, dt_init=0.05, dt_min=1e-12, dt_max=0.25)
    results = []
    for problem in (LinearTestProblem(-1.0, u_0), FusedLinear(-1.0, u_0)):
        counters = StepCounters()
        traj = adaptive_integrate(problem, 0.0, 1.0, u_0, tol, counters, linearized=linearized)
        results.append(as_hex((traj.times, traj.states, dataclasses.asdict(counters))))
    assert problem.calls == counters.steps_accepted + counters.steps_rejected
    assert results[0] == results[1]


def run_results(cfg, problem):
    """The sequential fine solve and the parareal runs at 1 and 2 workers, floats as hex."""
    u_0 = problem.initial_state()
    counters = StepCounters()
    traj = adaptive_integrate(problem, cfg.t_start, cfg.t_end, u_0, cfg.parareal.fine_tol, counters)
    results = {"sequential": as_hex((traj.times, traj.states, dataclasses.asdict(counters)))}
    for n_workers in (1, 2):
        traj, report = run_parareal(
            problem, cfg.t_start, cfg.t_end, u_0, cfg.parareal, n_workers=n_workers
        )
        fields = {
            f.name: getattr(report, f.name)
            for f in dataclasses.fields(report)
            if f.name not in WALL_FIELDS
        }
        assert fields["boundary_states"]
        results[n_workers] = as_hex((traj.times, traj.states, fields))
    return results


def test_runs_equal_the_default_pair(monkeypatch):
    # the shipped coil run with the fused start, then with the default pair
    cfg = load_run_config(SHIPPED_COIL_CFG)
    problem = make_problem(cfg)
    calls = []
    kernel = coil.coil_rhs_and_jacobian

    def counting(*args):
        calls.append(args[0])
        return kernel(*args)

    monkeypatch.setattr(coil, "coil_rhs_and_jacobian", counting)
    fused = run_results(cfg, problem)
    assert calls, "the fused kernel was not called"
    calls.clear()
    monkeypatch.setattr(CoilProblem, "rhs_and_jacobian", Problem.rhs_and_jacobian)
    assert run_results(cfg, problem) == fused
    assert not calls, "the default pair called the fused kernel"
