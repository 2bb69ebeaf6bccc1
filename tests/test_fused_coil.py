"""The coil's three entries against a reference copy of the law, and the fused start.

``coil_rhs``, ``coil_jacobian`` and ``coil_rhs_and_jacobian`` (and the
``CoilProblem`` methods over them) must equal the helper-based law below
bit for bit (compared by ``float.hex``, so 0.0 and -0.0 differ) on every
branch, and a whole run that takes the fused call at each Newton start
must equal, bit for bit and count for count, the run that takes the
default pair (``rhs``, the residual check, then ``newton_jacobian``).
"""

import dataclasses
import math
import os

import numpy as np
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
    source_current,
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


# The law as separate helpers, as it stood before it became one kernel;
# the entries must keep these bits.
JC_REL_FLOOR = 1e-6


def hts_resistivity(j: float, j_c: float, e_c: float, n: float) -> float:
    """Power-law resistivity ``(e_c/j_c) * (|j|/j_c)**(n-1)`` in Ohm*m.

    Overflow of the power term yields ``inf`` (the caller's finiteness
    checks treat that as a failed evaluation, not a crash).
    """
    if j_c <= 0.0:
        raise ValueError("critical current density must be positive (critical surface collapsed)")
    try:
        return (e_c / j_c) * (abs(j) / j_c) ** (n - 1.0)
    except OverflowError:
        return math.inf


def critical_current_density(t: float, params: CoilParams) -> float:
    """Linear-in-temperature J_c with a relative floor above T_c (A/m^2)."""
    frac = (params.t_c - t) / (params.t_c - params.t_op)
    # Comparisons rather than min/max calls: this runs in every rhs and
    # Jacobian evaluation.
    if frac >= 1.0:
        return params.j_c0
    return params.j_c0 * (frac if frac > JC_REL_FLOOR else JC_REL_FLOOR)


def reference_rhs(t, s, params, ramp):
    """Time derivative of ``(I_theta, T)`` for the coil surrogate."""
    i_theta, temp = s
    i_radial = source_current(t, ramp) - i_theta

    j = i_theta / params.a_hts
    j_c = critical_current_density(temp, params)
    r_hts = hts_resistivity(j, j_c, params.e_c, params.n) * params.length / params.a_hts

    di_theta = (params.r_contact * i_radial - r_hts * i_theta) / params.inductance
    p_contact = params.r_contact * i_radial * i_radial
    p_hts = r_hts * i_theta * i_theta
    d_temp = (p_contact + p_hts - params.cooling * (temp - params.t_op)) / params.heat_capacity
    return (di_theta, d_temp)


def reference_jacobian(t, s, params, ramp):
    """Closed-form Jacobian rows of :func:`reference_rhs` with respect to ``(I_theta, T)``.

    With ``r = r_hts`` the power law gives ``d(r*I)/dI = n*r`` and
    ``d(r*I^2)/dI = (n+1)*r*I``; on the linear part of J_c(T),
    ``dr/dT = n*r / (T_c - T)``, and zero where J_c is clipped.
    """
    i_theta, temp = s
    i_radial = source_current(t, ramp) - i_theta

    j_c = critical_current_density(temp, params)
    r_hts = (
        hts_resistivity(i_theta / params.a_hts, j_c, params.e_c, params.n)
        * params.length
        / params.a_hts
    )
    frac = (params.t_c - temp) / (params.t_c - params.t_op)
    dr_dtemp = params.n * r_hts / (params.t_c - temp) if JC_REL_FLOOR < frac < 1.0 else 0.0

    inv_l = 1.0 / params.inductance
    inv_c = 1.0 / params.heat_capacity
    return (
        (-(params.r_contact + params.n * r_hts) * inv_l, -i_theta * dr_dtemp * inv_l),
        (
            (-2.0 * params.r_contact * i_radial + (params.n + 1.0) * r_hts * i_theta) * inv_c,
            (i_theta * i_theta * dr_dtemp - params.cooling) * inv_c,
        ),
    )


class TestHtsResistivity:
    def test_at_critical_current_density(self):
        j_c, e_c = 2.5e8, 1e-4
        assert hts_resistivity(j_c, j_c, e_c, 25.0) == pytest.approx(e_c / j_c, rel=1e-14)

    def test_zero_current(self):
        assert hts_resistivity(0.0, 2.5e8, 1e-4, 25.0) == 0.0

    def test_quadratic_index(self):
        j_c, e_c = 1e8, 1e-4
        assert hts_resistivity(2 * j_c, j_c, e_c, 2.0) == pytest.approx(2 * e_c / j_c, rel=1e-14)

    def test_overflow_yields_inf(self):
        # (1e300)^24 overflows a float; the power law must report inf, not raise
        assert hts_resistivity(1e300, 1.0, 1e-4, 25.0) == math.inf

    def test_monotone_in_current_magnitude(self):
        j_values = np.linspace(-3e8, 3e8, 101)
        rho = [hts_resistivity(j, 1.2e8, 1e-4, 25.0) for j in j_values]
        mags = np.abs(j_values)
        order = np.argsort(mags)
        assert all(np.diff(np.array(rho)[order]) >= 0.0)


class TestCriticalCurrentDensity:
    def test_operating_point(self):
        assert critical_current_density(PARAMS.t_op, PARAMS) == PARAMS.j_c0

    def test_floor_at_critical_temperature(self):
        assert critical_current_density(PARAMS.t_c, PARAMS) == PARAMS.j_c0 * 1e-6

    def test_linear_midpoint(self):
        t_mid = 0.5 * (PARAMS.t_op + PARAMS.t_c)
        assert critical_current_density(t_mid, PARAMS) == pytest.approx(0.5 * PARAMS.j_c0)

    def test_clamped_below_operating_temperature(self):
        assert critical_current_density(PARAMS.t_op - 20.0, PARAMS) == PARAMS.j_c0


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
    def test_equals_the_reference(self, t, i_theta, temp, n):
        params = dataclasses.replace(PARAMS, n=n)
        s = (i_theta, temp)
        f, jac = reference_rhs(t, s, params, RAMP), reference_jacobian(t, s, params, RAMP)
        problem = CoilProblem(params, RAMP)
        entries = (
            coil_rhs(t, s, params, RAMP),
            coil_jacobian(t, s, params, RAMP),
            coil_rhs_and_jacobian(t, s, params, RAMP),
            problem.rhs(t, s),
            problem.jacobian(t, s),
            problem.rhs_and_jacobian(t, s),
        )
        assert as_hex(entries) == as_hex((f, jac, (f, jac), f, jac, (f, jac)))

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
