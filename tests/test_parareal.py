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
    coarse_window_grid,
    parareal_update,
    partition_windows,
    pr_error,
    run_parareal,
    window_boundary_indices,
)
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


class TestPartitionWindows:
    def test_boundaries_are_subsequence(self):
        t_hat = np.array([0.0, 0.5, 1.5, 2.0, 3.25, 5.0, 7.0])
        bounds = partition_windows(t_hat, 3)
        assert bounds[0] == t_hat[0] and bounds[-1] == t_hat[-1]
        assert all(t in t_hat for t in bounds)
        assert np.all(np.diff(bounds) > 0)

    def test_requires_increasing_grid(self):
        with pytest.raises(ValueError):
            partition_windows([0.0, 0.0, 1.0], 2)


class TestCoarseWindowGrid:
    T_HAT = np.array([0.0, 1.0, 2.0, 3.0])

    def test_slice(self):
        assert np.array_equal(coarse_window_grid(self.T_HAT, 1.0, 3.0), [1.0, 2.0, 3.0])

    def test_adjacent(self):
        assert np.array_equal(coarse_window_grid(self.T_HAT, 1.0, 2.0), [1.0, 2.0])

    def test_full_range(self):
        assert np.array_equal(coarse_window_grid(self.T_HAT, 0.0, 3.0), self.T_HAT)

    def test_non_member_endpoint(self):
        with pytest.raises(ValueError):
            coarse_window_grid(self.T_HAT, 0.5, 3.0)


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
