import csv
import itertools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcoil import (
    LinearTestProblem,
    PararealConfig,
    PararealReport,
    StepperTolerances,
    Trajectory,
    adaptive_integrate,
    cli,
    load_balance,
    max_possible_speedup,
    max_temperature_deviation,
    run_parareal,
    speedup,
)

FINE = StepperTolerances(tol_nr=1e-8, tol_t=1e-4, dt_init=0.05, dt_min=1e-12, dt_max=0.25)
# Coarse steps of at most 1/8 give every window count up to 6 enough steps.
COARSE = StepperTolerances(tol_nr=1e-8, tol_t=5e-3, dt_init=0.1, dt_min=1e-12, dt_max=0.125)
component = st.one_of(st.just(0.0), st.floats(0.1, 10.0), st.floats(-10.0, -0.1))


def synthetic_report(nr_f, total_wall=10.0):
    k = len(nr_f)
    n = len(nr_f[0]) if nr_f else 0
    return PararealReport(
        n_windows=n,
        m_coarse_steps=4 * n,
        boundaries=np.linspace(0.0, 1.0, n + 1),
        converged=True,
        k_converged=k,
        err_per_iter=[1e-3] * k,
        time_ghat=0.5,
        time_g_per_window_per_iter=[[0.0] * n for _ in range(k)],
        time_f_per_window_per_iter=[[0.0] * n for _ in range(k)],
        total_wall=total_wall,
        nr_ghat=10,
        nr_g_per_window_per_iter=[[0] * n for _ in range(k)],
        nr_f_per_window_per_iter=nr_f,
    )


class TestLoadBalance:
    def test_ratio(self):
        # per-window totals 1, 2 and 4; a skipped window adds 0
        assert load_balance(synthetic_report([[1, 1, 2], [0, 1, 2]])) == 0.25

    def test_perfect_balance(self):
        assert load_balance(synthetic_report([[3, 3, 3]])) == 1.0

    def test_single_window(self):
        assert load_balance(synthetic_report([[2], [3]])) == 1.0

    def test_empty_is_hard_error(self):
        with pytest.raises(ValueError):
            load_balance(synthetic_report([]))

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k, n = rng.integers(1, 4), rng.integers(1, 12)
            nr_f = rng.integers(0, 20, size=(k, n))
            nr_f[0] += 1  # iteration 1 solves every window
            ratio = load_balance(synthetic_report(nr_f.tolist()))
            totals = nr_f.sum(axis=0)
            assert 0.0 < ratio <= 1.0
            assert (ratio == 1.0) == bool(np.all(totals == totals[0]))

    @settings(max_examples=20, deadline=None)
    @given(
        rate=st.floats(-3.0, 1.0),
        u_0=st.lists(component, min_size=1, max_size=3),
        n=st.integers(1, 6),
    )
    def test_equals_the_ratio_of_report_csv_fine_newton_totals(self, rate, u_0, n):
        problem = LinearTestProblem(rate, u_0)
        cfg = PararealConfig(n_windows=n, tol_pr=1e-6, fine_tol=FINE, coarse_tol=COARSE)
        _, report = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)
        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "report.csv")
            cli._write_csv(path, cli._report_rows(report, "run"))
            with open(path, newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
        totals = [sum(int(r["nr_fine"]) for r in rows if r["j"] == str(j)) for j in range(1, n + 1)]
        assert min(totals) >= 1
        assert load_balance(report) == min(totals) / max(totals)


class TestSpeedup:
    def test_ratio(self):
        report = synthetic_report([[1, 2]], total_wall=50.0)
        assert speedup(report, 100.0) == 2.0

    def test_equal_times(self):
        report = synthetic_report([[1]], total_wall=42.0)
        assert speedup(report, 42.0) == 1.0

    def test_definitional_round_trip(self):
        report = synthetic_report([[1]], total_wall=7.25)
        seq = 29.0
        assert speedup(report, seq) * report.total_wall == seq

    @pytest.mark.parametrize("wall", [0.0, -1.0, float("nan"), float("inf")])
    def test_wall_must_be_positive_and_finite(self, wall):
        report = synthetic_report([[1]], total_wall=7.25)
        with pytest.raises(ValueError, match="positive and finite"):
            speedup(report, wall)


class TestMaxPossibleSpeedup:
    def test_table_entries(self):
        assert max_possible_speedup(16, 2) == 8.0
        assert max_possible_speedup(8, 2) == 4.0

    def test_no_parallel_gain(self):
        assert max_possible_speedup(6, 6) == 1.0

    def test_exact_ratio_not_rounded(self):
        assert max_possible_speedup(24, 5) == 4.8

    @pytest.mark.parametrize("k", [0, -1])
    def test_iteration_count_below_1_is_refused(self, k):
        with pytest.raises(ValueError, match="^iteration count must be >= 1$"):
            max_possible_speedup(8, k)


class TestCoarseSweepTimes:
    def test_each_iteration_sums_its_row(self):
        report = synthetic_report([[1, 1], [1, 1], [0, 1]])
        report.time_g_per_window_per_iter[1:] = [[0.25, 0.5], [0.0, 0.125]]
        assert report.time_g_per_iter == [0.0, 0.75, 0.125]


class TestMaxTemperatureDeviation:
    PROBLEM = LinearTestProblem(-1.0, (0.0, 0.0))  # T_max is the larger component

    def test_on_the_reference_times_and_at_the_boundaries(self):
        traj = Trajectory(np.array([0.0, 2.0, 4.0]), np.array([[0.0, 0.0], [4.0, 1.0], [0.0, 0.0]]))
        ref = Trajectory(np.array([0.0, 1.0, 3.0, 4.0]), np.zeros((4, 2)) + [[0.0, -1.0]])
        deviation, at_boundaries = max_temperature_deviation(traj, ref, self.PROBLEM, [0.0, 2.0])
        # traj's T_max interpolated onto ref's times: 0, 2, 2, 0
        assert deviation == [0.0, 2.0, 2.0, 0.0]
        # at t = 2 traj reads 4, which no reference time sees
        assert at_boundaries == 4.0

    def test_no_boundaries(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.array([[1.0, 0.0], [3.0, 0.0]]))
        deviation, at_boundaries = max_temperature_deviation(traj, traj, self.PROBLEM)
        assert deviation == [0.0, 0.0]
        assert at_boundaries == 0.0

    @settings(max_examples=20, deadline=None)
    @given(
        rate=st.floats(-3.0, 1.0),
        u_0=st.lists(component, min_size=1, max_size=3),
        n=st.integers(1, 6),
    )
    def test_run_to_exactness_reports_the_chained_fine_deviation(self, rate, u_0, n):
        # tol_pr -> 0 with k_max = N + 2: the run ends at the chained fine solve
        problem = LinearTestProblem(rate, u_0)
        cfg = PararealConfig(
            n_windows=n, tol_pr=1e-30, fine_tol=FINE, coarse_tol=COARSE, k_max=n + 2
        )
        traj, report = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)
        assert report.converged
        u = problem.initial_state()
        times, states = [0.0], [u]
        for a, b in zip(report.boundaries, report.boundaries[1:]):
            window = adaptive_integrate(problem, a, b, u, FINE)
            times += window.times[1:]
            states += window.states[1:]
            u = window.terminal_state
        chained = Trajectory(times, states)
        sequential = adaptive_integrate(problem, 0.0, 1.0, problem.initial_state(), FINE)
        got, at_got = max_temperature_deviation(traj, sequential, problem, report.boundaries)
        want, at_want = max_temperature_deviation(chained, sequential, problem, report.boundaries)
        assert list(map(float.hex, got)) == list(map(float.hex, want))
        assert at_got.hex() == at_want.hex()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_interpolation_matches_np_interp_bit_for_bit(self, data):
        # one component, so T_max is the state itself
        problem = LinearTestProblem(-1.0, (0.0,))
        value = st.floats(-1e4, 1e4)

        def grid(label):
            # strictly increasing, gaps of at least 1e-6 s, so every slope is finite
            start = data.draw(st.floats(-1e3, 1e3), f"{label} start")
            gaps = data.draw(st.lists(st.floats(1e-6, 1e2), max_size=39), f"{label} gaps")
            times = list(itertools.accumulate(gaps, initial=start))
            values = data.draw(st.lists(value, min_size=len(times), max_size=len(times)), label)
            return times, values

        xp, fp = grid("traj")
        ref_times, ref_fp = grid("ref")
        # query times inside and outside the grids, on their times and at both ends
        query = st.one_of(
            st.sampled_from(xp),
            st.sampled_from(ref_times),
            st.floats(xp[0], xp[-1]),
            st.floats(-1e4, 1e4),
        )
        at = data.draw(st.lists(query, max_size=40), "at")
        traj = Trajectory(xp, [(f,) for f in fp])
        ref = Trajectory(ref_times, [(f,) for f in ref_fp])

        deviation, at_boundaries = max_temperature_deviation(traj, ref, problem, at)

        want = np.abs(np.interp(ref_times, xp, fp) - np.array(ref_fp))
        at_want = np.abs(np.interp(at, xp, fp) - np.interp(at, ref_times, ref_fp)).max(initial=0.0)
        assert all(type(v) is float for v in deviation)
        assert list(map(float.hex, deviation)) == list(map(float.hex, want.tolist()))
        assert at_boundaries.hex() == float(at_want).hex()
