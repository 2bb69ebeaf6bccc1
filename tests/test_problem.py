import numpy as np
import pytest

from parcoil import LinearTestProblem, Trajectory, as_state


class TestAsState:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_state([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_state([float("inf")])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_state([[1.0, 2.0]])

    def test_result_is_read_only(self):
        s = as_state([1.0, 2.0])
        with pytest.raises(ValueError):
            s[0] = 3.0


class TestMaxTemperature:
    def test_single_component(self):
        problem = LinearTestProblem(-1.0, (77.0,))
        assert problem.max_temperature(as_state([77.0])) == 77.0

    def test_max_of_two(self):
        problem = LinearTestProblem(-1.0, (1.0, 1.0))
        assert problem.max_temperature(as_state([20.0, 30.0])) == 30.0

    def test_nan_rejected_upstream(self):
        # the state invariant stops NaN before max_temperature ever sees it
        with pytest.raises(ValueError):
            as_state([float("nan"), 30.0])


class TestTrajectory:
    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0, 1.0]), np.zeros((3, 1)))

    def test_rejects_non_finite_states(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.array([[0.0], [np.inf]]))

    def test_exact_time_lookup(self):
        traj = Trajectory(np.array([0.0, 0.5, 1.0]), np.array([[1.0], [2.0], [3.0]]))
        assert traj.state_at_time(0.5)[0] == 2.0
        with pytest.raises(KeyError):
            traj.state_at_time(0.25)

    def test_terminal_state_and_span(self):
        traj = Trajectory(np.array([2.0, 3.0]), np.array([[1.0, 5.0], [4.0, 6.0]]))
        assert traj.t_start == 2.0
        assert traj.t_end == 3.0
        assert np.array_equal(traj.terminal_state, [4.0, 6.0])

    def test_states_are_read_only(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.array([[1.0], [2.0]]))
        with pytest.raises(ValueError):
            traj.states[0, 0] = 9.0
