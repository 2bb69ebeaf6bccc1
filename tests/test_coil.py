import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcoil import (
    CoilParams,
    CoilProblem,
    LinearTestProblem,
    RampSchedule,
    adaptive_integrate,
    as_state,
    axial_field,
    coil_rhs,
    linear_test_rhs,
    source_current,
)

PARAMS = CoilParams()


class TestSourceCurrent:
    RAMP = RampSchedule(((10.0, 100.0),))

    def test_linear_midpoint(self):
        assert source_current(5.0, self.RAMP) == 50.0

    def test_plateau_hold(self):
        assert source_current(20.0, self.RAMP) == 100.0

    def test_ramp_start(self):
        assert source_current(0.0, self.RAMP) == 0.0

    @pytest.mark.parametrize("t", [-20.0, -1e-300, -0.0])
    def test_zero_before_the_ramp(self, t):
        # not the first segment extrapolated backwards
        assert source_current(t, self.RAMP) == 0.0

    def test_multi_segment(self):
        ramp = RampSchedule(((10.0, 100.0), (20.0, 0.0)))
        assert source_current(15.0, ramp) == 50.0

    def test_breakpoint_validation(self):
        with pytest.raises(ValueError):
            RampSchedule(((10.0, 100.0), (10.0, 50.0)))
        with pytest.raises(ValueError):
            RampSchedule(((0.0, 100.0),))


class TestCoilRhs:
    def test_rest_state_is_stationary(self):
        rhs = coil_rhs(0.0, as_state([0.0, PARAMS.t_op]), PARAMS, RampSchedule(()))
        assert np.array_equal(rhs, [0.0, 0.0])

    def test_steady_superconducting_state(self):
        # current fully azimuthal, well below critical: both derivatives ~ 0
        ramp = RampSchedule(((10.0, 10.0),))
        rhs = coil_rhs(20.0, as_state([10.0, PARAMS.t_op]), PARAMS, ramp)
        assert abs(rhs[0]) < 1e-9
        assert abs(rhs[1]) < 1e-9

    def test_mid_ramp_derivative_closed_form(self):
        # I_theta = 0 makes the HTS term vanish: only the contact path drives
        ramp = RampSchedule(((10.0, 100.0),))
        rhs = coil_rhs(5.0, as_state([0.0, PARAMS.t_op]), PARAMS, ramp)
        i_radial = 50.0
        assert rhs[0] == pytest.approx(PARAMS.r_contact * i_radial / PARAMS.inductance, rel=1e-14)
        expected_dt = PARAMS.r_contact * i_radial**2 / PARAMS.heat_capacity
        assert rhs[1] == pytest.approx(expected_dt, rel=1e-14)

    def test_pure_cooling_above_bath(self):
        rhs = coil_rhs(0.0, as_state([0.0, PARAMS.t_op + 5.0]), PARAMS, RampSchedule(()))
        assert rhs[1] < 0.0

    def test_deterministic(self):
        s = as_state([80.0, 78.0])
        a = coil_rhs(33.0, s, PARAMS, CoilProblem().ramp)
        b = coil_rhs(33.0, s, PARAMS, CoilProblem().ramp)
        assert np.array_equal(a, b)


class TestAxialField:
    def test_zero_current(self):
        assert axial_field(as_state([0.0, 77.0]), PARAMS) == 0.0

    def test_definition(self):
        assert axial_field(as_state([40.0, 77.0]), PARAMS) == PARAMS.field_constant * 40.0

    def test_linearity(self):
        b1 = axial_field(as_state([13.0, 77.0]), PARAMS)
        b2 = axial_field(as_state([26.0, 77.0]), PARAMS)
        assert b2 == pytest.approx(2.0 * b1, rel=1e-14)


class TestLinearTestRhs:
    def test_negative_rate(self):
        assert np.array_equal(linear_test_rhs(0.0, as_state([2.0]), -1.0), [-2.0])

    def test_zero_rate(self):
        assert np.array_equal(linear_test_rhs(5.0, as_state([3.0, -1.0]), 0.0), [0.0, 0.0])

    def test_closed_form_solution_value(self):
        assert math.exp(-1.0) == pytest.approx(0.3678794411714423, rel=1e-15)


class TestCoilProblem:
    def test_forced_events_are_ramp_breakpoints(self, coil_problem):
        assert coil_problem.forced_event_times(0.0, 200.0) == [50.0, 150.0]

    def test_forced_events_strictly_inside(self, coil_problem):
        assert coil_problem.forced_event_times(50.0, 150.0) == []
        assert coil_problem.forced_event_times(49.0, 151.0) == [50.0, 150.0]

    def test_ramp_start_is_a_forced_event(self, coil_problem):
        assert coil_problem.forced_event_times(-20.0, 200.0) == [0.0, 50.0, 150.0]
        assert coil_problem.forced_event_times(-20.0, 0.0) == []

    def test_rest_state_held_before_the_ramp(self, coil_problem, fine_tols):
        u_0 = coil_problem.initial_state()
        traj = adaptive_integrate(coil_problem, -20.0, 10.0, u_0, fine_tols)
        assert 0.0 in traj.times
        rest = {repr(u) for t, u in zip(traj.times, traj.states) if t <= 0.0}
        assert rest == {"(0.0, 77.0)"}

    def test_initial_state(self, coil_problem):
        u0 = coil_problem.initial_state()
        assert np.array_equal(u0, [0.0, coil_problem.params.t_op])

    def test_component_names_match_dimension(self, coil_problem):
        assert len(coil_problem.component_names) == len(coil_problem.initial_state())


class TestCoilParamsValidation:
    @pytest.mark.parametrize("bad", [{"j_c0": -1.0}, {"cooling": 0.0}, {"n": 0.5}])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            CoilParams(**bad)

    def test_rejects_inverted_temperatures(self):
        with pytest.raises(ValueError):
            CoilParams(t_c=70.0, t_op=77.0)


def central_difference_jacobian(problem, t, u, rel=1e-7):
    dim = len(u)
    jac = np.empty((dim, dim))
    for i in range(dim):
        delta = rel * max(abs(float(u[i])), 1.0)
        up, dn = np.array(u, dtype=float), np.array(u, dtype=float)
        up[i] += delta
        dn[i] -= delta
        jac[:, i] = (np.asarray(problem.rhs(t, up)) - np.asarray(problem.rhs(t, dn))) / (2 * delta)
    return jac


# (temperature range in K, |I_theta| / I_c(T) range); temperatures keep
# 0.05 K from the J_c clamp at t_op and 0.5 K from T_c, where the
# difference quotient would straddle a kink or the n=25 pole of dr/dT.
REGIMES = {
    "superconducting": ((77.05, 88.0), (0.0, 0.95)),
    "flux_flow": ((77.05, 88.0), (1.0, 1.3)),
    "near_t_c": ((89.0, 91.5), (0.3, 1.3)),
}


class TestCoilJacobian:
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @settings(max_examples=150, deadline=None)
    @given(
        temp_frac=st.floats(0.0, 1.0),
        load_frac=st.floats(0.0, 1.0),
        negative=st.booleans(),
        t=st.floats(0.0, 200.0),
    )
    def test_matches_central_difference(self, regime, temp_frac, load_frac, negative, t):
        (t_lo, t_hi), (x_lo, x_hi) = REGIMES[regime]
        temp = t_lo + temp_frac * (t_hi - t_lo)
        # every regime lies on the linear part of J_c(T)
        i_c = PARAMS.j_c0 * ((PARAMS.t_c - temp) / (PARAMS.t_c - PARAMS.t_op)) * PARAMS.a_hts
        i_theta = (x_lo + load_frac * (x_hi - x_lo)) * i_c * (-1.0 if negative else 1.0)
        problem = CoilProblem()
        u = as_state([i_theta, temp])
        analytic = np.asarray(problem.jacobian(t, u))
        reference = central_difference_jacobian(problem, t, u)
        # rounding of the quotient scales with each row's largest entry
        atol = 1e-7 * np.abs(analytic).max(axis=1, keepdims=True)
        assert np.all(np.abs(analytic - reference) <= atol + 1e-5 * np.abs(reference))

    @pytest.mark.parametrize("temp", [PARAMS.t_op - 5.0, PARAMS.t_c + 1.0])
    def test_zero_temperature_slope_where_jc_is_clipped(self, temp):
        jac = np.asarray(CoilProblem().jacobian(10.0, as_state([100.0, temp])))
        assert jac[0, 1] == 0.0
        assert jac[1, 1] == -PARAMS.cooling / PARAMS.heat_capacity


class TestLinearJacobian:
    @pytest.mark.parametrize("rate", [-1.0, 0.0, 2.5])
    def test_rate_times_identity(self, rate):
        problem = LinearTestProblem(rate, (1.0, 2.0, 3.0))
        jac = problem.jacobian(0.7, problem.initial_state())
        assert np.array_equal(jac, rate * np.eye(3))
