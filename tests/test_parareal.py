import os
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcoil import (
    IntegrationFailed,
    LinearTestProblem,
    PararealConfig,
    PartitionError,
    StepperTolerances,
    adaptive_integrate,
    as_state,
    fixed_integrate,
    parareal_update,
    pr_error,
    run_parareal,
    window_boundary_indices,
)
from parcoil import parareal
from parcoil.parareal import _fine_batches

LIN_FINE = StepperTolerances(tol_nr=1e-8, tol_t=1e-4, dt_init=0.05, dt_min=1e-12, dt_max=0.25)
LIN_COARSE = StepperTolerances(tol_nr=1e-8, tol_t=5e-3, dt_init=0.1, dt_min=1e-12, dt_max=0.5)


class TestWindowBoundaryIndices:
    def test_even_split(self):
        assert window_boundary_indices(16, 8) == [0, 2, 4, 6, 8, 10, 12, 14, 16]

    def test_rational_floor(self):
        assert window_boundary_indices(10, 4) == [0, 2, 5, 7, 10]

    def test_identity_partition(self):
        assert window_boundary_indices(5, 5) == [0, 1, 2, 3, 4, 5]

    def test_too_few_steps(self):
        with pytest.raises(PartitionError):
            window_boundary_indices(3, 4)

    def test_random_cases_match_floor_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 65))
            m = int(rng.integers(n, 4 * n + 50))
            idx = window_boundary_indices(m, n)
            oracle = [int(Fraction(m * j, n).__floor__()) for j in range(n + 1)]
            assert idx == oracle
            counts = np.diff(idx)
            assert set(counts) <= {m // n, m // n + 1}
            assert idx[0] == 0 and idx[-1] == m
            assert all(c >= 1 for c in counts)


def record_sweep_grids(monkeypatch, n_windows=3, k_max=3):
    """Run parareal on the linear problem and record the grid of every coarse sweep."""
    grids = []

    def recording_fixed_integrate(problem, grid, *args):
        grids.append(np.array(grid))
        return fixed_integrate(problem, grid, *args)

    monkeypatch.setattr(parareal, "fixed_integrate", recording_fixed_integrate)
    problem = LinearTestProblem(-1.0, (1.0,))
    cfg = PararealConfig(
        n_windows=n_windows, tol_pr=1e-30, fine_tol=LIN_FINE, coarse_tol=LIN_COARSE, k_max=k_max
    )
    _, report = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)
    t_hat = adaptive_integrate(problem, 0.0, 1.0, problem.initial_state(), LIN_COARSE).times
    # iterations 2..k_max each sweep the windows in order
    sweeps = [grids[i : i + n_windows] for i in range(0, len(grids), n_windows)]
    return report, t_hat, sweeps


class TestPartitionWindows:
    def test_boundaries_are_subsequence(self, monkeypatch):
        # windows split the adaptive coarse grid at the floor indices
        report, t_hat, _ = record_sweep_grids(monkeypatch)
        bounds = report.boundaries
        assert report.m_coarse_steps == t_hat.size - 1
        assert bounds[0] == t_hat[0] and bounds[-1] == t_hat[-1]
        assert all(t in t_hat for t in bounds)
        assert np.all(np.diff(bounds) > 0)
        assert np.array_equal(bounds, t_hat[window_boundary_indices(t_hat.size - 1, 3)])


class TestCoarseWindowGrid:
    # every coarse sweep runs on the grid points of its own window

    def test_slice(self, monkeypatch):
        report, t_hat, sweeps = record_sweep_grids(monkeypatch)
        idx = window_boundary_indices(t_hat.size - 1, 3)
        expected = [t_hat[idx[j - 1] : idx[j] + 1] for j in (1, 2, 3)]
        assert len(sweeps) == 2  # iterations 2 and 3
        for sweep in sweeps:
            assert len(sweep) == len(expected)
            assert all(np.array_equal(g, e) for g, e in zip(sweep, expected))

    def test_adjacent(self, monkeypatch):
        report, _, sweeps = record_sweep_grids(monkeypatch)
        for sweep in sweeps:
            for j, grid in enumerate(sweep, start=1):
                assert grid.size >= 2
                assert grid[0] == report.boundaries[j - 1]
                assert grid[-1] == report.boundaries[j]
            for left, right in zip(sweep[:-1], sweep[1:]):
                assert left[-1] == right[0]

    def test_full_range(self, monkeypatch):
        _, t_hat, sweeps = record_sweep_grids(monkeypatch)
        assert sweeps
        for sweep in sweeps:
            joined = np.concatenate([sweep[0]] + [g[1:] for g in sweep[1:]])
            assert np.array_equal(joined, t_hat)


class TestPararealUpdate:
    def test_coarse_correction_cancels(self):
        fine = as_state([1.5, 2.5])
        coarse = as_state([3.0, 4.0])
        assert np.array_equal(parareal_update(fine, coarse, coarse), fine)

    def test_telescoping(self):
        shared = as_state([2.0, 2.0])
        new = as_state([3.0, 4.0])
        assert np.array_equal(parareal_update(shared, new, shared), new)

    def test_componentwise(self):
        out = parareal_update(as_state([1.0, 2.0]), as_state([3.0, 4.0]), as_state([2.0, 2.0]))
        assert np.array_equal(out, [2.0, 4.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            parareal_update(as_state([1.0]), as_state([1.0, 2.0]), as_state([1.0, 2.0]))


class TestPrError:
    PROBLEM = LinearTestProblem(-1.0, (1.0,))

    def test_converged_fixed_point(self):
        states = [as_state([1.0]), as_state([2.0])]
        assert pr_error(states, states, self.PROBLEM) == 0.0

    def test_single_window_definition(self):
        assert pr_error(
            [as_state([77.003])], [as_state([77.0])], self.PROBLEM
        ) == pytest.approx(3e-3, rel=1e-9)

    def test_max_picks_worst_window(self):
        updated = [as_state([1e-3]), as_state([7e-3]), as_state([2e-3])]
        fine = [as_state([0.0]), as_state([0.0]), as_state([0.0])]
        assert pr_error(updated, fine, self.PROBLEM) == pytest.approx(7e-3, rel=1e-12)


def chained_fine_oracle(problem, boundaries, tol):
    """Sequential fine propagation through the window boundaries."""
    u = problem.initial_state()
    values = [u]
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        u = adaptive_integrate(problem, float(a), float(b), u, tol).terminal_state
        values.append(u)
    return values


class TestRunParareal:
    def test_degenerate_coarse_equals_fine(self):
        # constant dynamics reproduce the telescoping identity exactly
        problem = LinearTestProblem(0.0, (1.0, 2.0))
        tol = StepperTolerances(tol_nr=1e-6, tol_t=1e-6, dt_init=0.25, dt_min=1e-12, dt_max=0.25)
        cfg = PararealConfig(n_windows=4, tol_pr=1e-8, fine_tol=tol, coarse_tol=tol, k_max=20)
        _, report = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)
        assert report.converged
        assert report.k_converged == 1
        assert report.err_per_iter == [0.0]

    @pytest.mark.parametrize("k_max", [1, 2, 3, 4])
    def test_exactness_after_k_iterations(self, k_max):
        problem = LinearTestProblem(-1.0, (1.0,))
        cfg = PararealConfig(
            n_windows=4, tol_pr=1e-30, fine_tol=LIN_FINE, coarse_tol=LIN_COARSE, k_max=k_max
        )
        traj, report = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)
        oracle = chained_fine_oracle(problem, report.boundaries, LIN_FINE)
        for j in range(1, k_max + 1):
            t_j = float(report.boundaries[j])
            got = float(traj.state_at_time(t_j)[0])
            assert abs(got - float(oracle[j][0])) < 10 * LIN_FINE.tol_nr

    def test_not_converged_returns_report(self):
        problem = LinearTestProblem(-1.0, (1.0,))
        cfg = PararealConfig(
            n_windows=4, tol_pr=1e-30, fine_tol=LIN_FINE, coarse_tol=LIN_COARSE, k_max=2
        )
        traj, report = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)
        assert not report.converged
        assert report.k_converged is None
        assert len(report.err_per_iter) == 2
        assert len(report.time_f_per_window_per_iter) == 2
        assert traj.t_end == 1.0

    def test_partition_error_propagates(self):
        problem = LinearTestProblem(0.0, (1.0,))
        wide = StepperTolerances(tol_nr=1e-6, tol_t=1e-6, dt_init=1.0, dt_min=1e-12, dt_max=1.0)
        cfg = PararealConfig(n_windows=4, tol_pr=1e-3, fine_tol=wide, coarse_tol=wide, k_max=5)
        with pytest.raises(PartitionError):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)

    def test_boundaries_appear_in_stitched_trajectory(self):
        problem = LinearTestProblem(-1.0, (1.0,))
        cfg = PararealConfig(
            n_windows=4, tol_pr=1e-5, fine_tol=LIN_FINE, coarse_tol=LIN_COARSE, k_max=10
        )
        traj, report = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)
        for t in report.boundaries:
            traj.state_at_time(float(t))  # raises KeyError if absent

    def test_report_shapes(self):
        problem = LinearTestProblem(-1.0, (1.0,))
        cfg = PararealConfig(
            n_windows=3, tol_pr=1e-5, fine_tol=LIN_FINE, coarse_tol=LIN_COARSE, k_max=10
        )
        _, report = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)
        k = report.iterations_run
        assert report.converged and len(report.err_per_iter) == report.k_converged == k
        assert all(len(row) == 3 for row in report.time_f_per_window_per_iter)
        assert all(len(row) == 3 for row in report.nr_f_per_window_per_iter)
        assert len(report.boundary_states) == 4
        assert report.err_per_iter[-1] < cfg.tol_pr
        assert report.m_coarse_steps >= 3


class TestFineBatches:
    @settings(max_examples=300, deadline=None)
    @given(
        costs=st.lists(st.integers(0, 10_000), min_size=1, max_size=64),
        n_batches=st.integers(1, 12),
    )
    def test_every_window_in_exactly_one_batch(self, costs, n_batches):
        batches = _fine_batches(costs, n_batches)
        assert 1 <= len(batches) <= n_batches
        assert all(batches)
        assert sorted(i for batch in batches for i in batch) == list(range(len(costs)))
        # longest-first list scheduling stays within one window of the mean load
        loads = [sum(costs[i] for i in batch) for batch in batches]
        assert max(loads) <= sum(costs) / len(batches) + max(costs)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 64), n_batches=st.integers(1, 12), cost=st.integers(0, 100))
    def test_equal_costs_give_equal_batches(self, n, n_batches, cost):
        batches = _fine_batches([cost] * n, n_batches)
        sizes = [len(batch) for batch in batches]
        assert max(sizes) - min(sizes) <= 1
        if cost > 0:
            assert batches == [list(range(b, n, len(batches))) for b in range(len(batches))]

    def test_longest_first(self):
        # costs 5, 4 open the batches; 2 joins the lighter one, then 1 does
        assert _fine_batches([1, 5, 2, 4], 2) == [[1, 0], [3, 2]]


class DiesInWorker(LinearTestProblem):
    """Linear decay whose rhs kills any process but the one that built it."""

    def __init__(self):
        super().__init__(-1.0, (1.0,))
        self.owner = os.getpid()

    def rhs(self, t, u):
        if os.getpid() != self.owner:
            os._exit(3)
        return super().rhs(t, u)


class Unpicklable(LinearTestProblem):
    def __init__(self):
        super().__init__(-1.0, (1.0,))
        self.lock = threading.Lock()


class TestFineLoopFailures:
    CFG = PararealConfig(n_windows=4, tol_pr=1e-5, fine_tol=LIN_FINE, coarse_tol=LIN_COARSE)

    def test_fine_failure_names_window_and_iteration(self):
        hopeless = StepperTolerances(tol_nr=1e-8, tol_t=1e-13, dt_init=0.1, dt_min=0.05, dt_max=0.5)
        cfg = PararealConfig(n_windows=4, tol_pr=1e-5, fine_tol=hopeless, coarse_tol=LIN_COARSE)
        problem = LinearTestProblem(-1.0, (1.0,))
        with pytest.raises(IntegrationFailed, match=r"window 1 during iteration 1"):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)

    def test_worker_crash_is_integration_failure(self):
        problem = DiesInWorker()
        unfinished = r"died during iteration 1 while windows \[1, 2, 3, 4\]"
        with pytest.raises(IntegrationFailed, match=unfinished):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers=2)

    def test_unpicklable_problem_is_integration_failure(self):
        problem = Unpicklable()
        with pytest.raises(IntegrationFailed, match="cannot be sent to worker processes"):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers=2)


class TestCoarseFailures:
    def test_ghat_failure_is_named(self):
        hopeless = StepperTolerances(tol_nr=1e-8, tol_t=1e-13, dt_init=0.1, dt_min=0.05, dt_max=0.5)
        cfg = PararealConfig(n_windows=4, tol_pr=1e-5, fine_tol=LIN_FINE, coarse_tol=hopeless)
        problem = LinearTestProblem(-1.0, (1.0,))
        with pytest.raises(IntegrationFailed, match=r"^adaptive coarse pass failed: "):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)

    def test_sweep_failure_names_window_and_iteration(self, monkeypatch):
        calls = []

        def fails_on_seventh_window(*args):
            calls.append(args)
            if len(calls) == 7:  # iteration 2 sweeps windows 1-4, iteration 3 fails in 3
                raise IntegrationFailed("stub Newton failure")
            return fixed_integrate(*args)

        monkeypatch.setattr(parareal, "fixed_integrate", fails_on_seventh_window)
        problem = LinearTestProblem(-1.0, (1.0,))
        cfg = PararealConfig(
            n_windows=4, tol_pr=1e-30, fine_tol=LIN_FINE, coarse_tol=LIN_COARSE, k_max=5
        )
        context = r"^coarse sweep failed in window 3 during iteration 3: stub Newton failure$"
        with pytest.raises(IntegrationFailed, match=context):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)
