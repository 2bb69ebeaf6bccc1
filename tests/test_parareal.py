import contextlib
import dataclasses
import io
import math
import os
import pickle
import re
import signal
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parcoil import (
    CoilProblem,
    IntegrationFailed,
    LinearTestProblem,
    PararealConfig,
    PartitionError,
    RampSchedule,
    StepperTolerances,
    Trajectory,
    adaptive_integrate,
    as_state,
    fixed_integrate,
    load_run_config,
    make_problem,
    parareal_update,
    pr_error,
    run_parareal,
    window_boundary_indices,
)
from parcoil import parareal
from parcoil.parareal import _fine_batches

from conftest import ALLOWED_CPUS, lowest_cpus, run_fingerprint

LIN_FINE = StepperTolerances(tol_nr=1e-8, tol_t=1e-4, dt_init=0.05, dt_min=1e-12, dt_max=0.25)
LIN_COARSE = StepperTolerances(tol_nr=1e-8, tol_t=5e-3, dt_init=0.1, dt_min=1e-12, dt_max=0.5)
LINEAR = LinearTestProblem(-1.0, (1.0,))  # stateless, so one instance serves every test
SHIPPED_COIL_CFG = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs", "ni_coil.cfg")


def bits(values) -> bytes:
    """The bytes of a state, a trajectory field or a list of states: a bitwise comparison key."""
    return np.asarray(values, dtype=float).tobytes()


def is_float_tuple(values) -> bool:
    return type(values) is tuple and all(type(x) is float for x in values)


def state_at(traj, t):
    """The state of ``traj`` at its grid time ``t`` (ValueError if ``t`` is not one)."""
    return traj.states[traj.times.index(t)]


REAP = parareal._reap


@pytest.fixture(autouse=True)
def workers_reaped_by_the_test(monkeypatch):
    """Each test starts with no fine worker of an earlier test left, and no close reaps one.

    So :func:`workers_exit` sees the exit status of every worker a test forks.
    """
    REAP(block=True)
    monkeypatch.setattr(parareal, "_reap", lambda block=False: None)


def workers_exit(pids=None, timeout=10.0) -> list[int]:
    """Reap ``pids`` (default: every fine worker not yet reaped); their exit codes, in order.

    Each must exit within ``timeout`` seconds.  A worker that a closing
    loop signalled while it waited for a batch exits with -SIGTERM.
    """
    pids = list(parareal._UNREAPED) if pids is None else pids
    deadline = time.monotonic() + timeout
    codes = []
    for pid in pids:
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            assert time.monotonic() < deadline, f"worker {pid} still running after {timeout} s"
            time.sleep(0.001)
        if pid in parareal._UNREAPED:
            parareal._UNREAPED.remove(pid)
        codes.append(os.waitstatus_to_exitcode(status))
    return codes


SIGNALLED = -signal.SIGTERM


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

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_window(self, n):
        with pytest.raises(ValueError, match="^need at least one window$"):
            window_boundary_indices(3, n)

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
    """Run parareal on the linear problem and record the grid of every coarse sweep.

    ``sweeps[k][j]`` is the grid window ``j`` was swept on during iteration
    ``k``, in sweep order; window and iteration come from the failure
    context that each propagator call carries.
    """
    sweeps = {}
    propagate = parareal._propagate

    def recording_propagate(context, integrate, problem, *args):
        if integrate is fixed_integrate:
            j, k = map(int, re.search(r"window (\d+) during iteration (\d+)", context).groups())
            sweeps.setdefault(k, {})[j] = np.array(args[0])
        return propagate(context, integrate, problem, *args)

    monkeypatch.setattr(parareal, "_propagate", recording_propagate)
    problem = LinearTestProblem(-1.0, (1.0,))
    cfg = PararealConfig(
        n_windows=n_windows, tol_pr=1e-30, fine_tol=LIN_FINE, coarse_tol=LIN_COARSE, k_max=k_max
    )
    _, report = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)
    ghat = adaptive_integrate(problem, 0.0, 1.0, problem.initial_state(), LIN_COARSE)
    t_hat = np.array(ghat.times)
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
        assert list(sweeps) == [2, 3]  # iterations 2 and 3
        for k, sweep in sweeps.items():
            # windows 1..k-1 start where their last fine solve did: not swept
            assert list(sweep) == list(range(k, 4))
            for j, grid in sweep.items():
                assert np.array_equal(grid, t_hat[idx[j - 1] : idx[j] + 1])

    def test_adjacent(self, monkeypatch):
        report, _, sweeps = record_sweep_grids(monkeypatch)
        for sweep in sweeps.values():
            for j, grid in sweep.items():
                assert grid.size >= 2
                assert grid[0] == report.boundaries[j - 1]
                assert grid[-1] == report.boundaries[j]
            grids = list(sweep.values())
            for left, right in zip(grids[:-1], grids[1:]):
                assert left[-1] == right[0]

    def test_full_range(self, monkeypatch):
        # the swept windows joined give the coarse grid from their first start to t_N
        _, t_hat, sweeps = record_sweep_grids(monkeypatch)
        idx = window_boundary_indices(t_hat.size - 1, 3)
        assert sweeps
        for sweep in sweeps.values():
            grids = list(sweep.values())
            joined = np.concatenate([grids[0]] + [g[1:] for g in grids[1:]])
            assert np.array_equal(joined, t_hat[idx[min(sweep) - 1] :])


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

    @pytest.mark.parametrize(
        "n_updated, n_fine", [(2, 1), (1, 2), (0, 0)], ids=["fewer_fine", "more_fine", "none"]
    )
    def test_needs_one_pair_per_window(self, n_updated, n_fine):
        state = as_state([1.0])
        with pytest.raises(ValueError, match=r"^need one \(U_j, fine_j\) pair per window$"):
            pr_error([state] * n_updated, [state] * n_fine, self.PROBLEM)


def chained_fine_oracle(problem, boundaries, tol):
    """Sequential fine propagation through the window boundaries."""
    u = problem.initial_state()
    values = [u]
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        u = adaptive_integrate(problem, a, b, u, tol).terminal_state
        values.append(u)
    return values


class TestCountsAreIntegers:
    """A count that is not an int fails where it is given, not in the middle of a run."""

    FIELDS = dict(n_windows=4, tol_pr=1e-5, fine_tol=LIN_FINE, coarse_tol=LIN_COARSE, k_max=5)

    @pytest.mark.parametrize("name", ["n_windows", "k_max"])
    @pytest.mark.parametrize("value", [4.0, 2.5, True, "4", None])
    def test_parareal_config(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            PararealConfig(**{**self.FIELDS, name: value})

    @pytest.mark.parametrize("value", [2.0, 2.5, True])
    def test_newton_iteration_cap(self, value):
        with pytest.raises(ValueError, match="nr_max_iters must be a positive integer"):
            dataclasses.replace(LIN_FINE, nr_max_iters=value)


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
            assert bits(state_at(traj, report.boundaries[j])) == bits(oracle[j])

    @pytest.mark.usefixtures("forks_at_any_work")
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_loop_open_and_close_walls_lie_within_the_run(self, n_workers):
        problem = LinearTestProblem(-1.0, (1.0,))
        cfg = PararealConfig(n_windows=4, tol_pr=1e-5, fine_tol=LIN_FINE, coarse_tol=LIN_COARSE)
        _, report = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers)
        walls = (report.time_loop_open, report.time_loop_close)
        assert all(wall >= 0.0 for wall in walls)
        # opening, Ĝ and closing are disjoint spans of the run in this process
        assert sum(walls) + report.time_ghat <= report.total_wall

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
        assert traj.times[-1] == 1.0

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
        assert all(t in traj.times for t in report.boundaries)

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
        assert len(report.boundaries) == 4
        assert report.err_per_iter[-1] < cfg.tol_pr
        assert report.m_coarse_steps >= 3


# Coarse steps of at most 1/8 give every window count up to 6 enough steps.
PROP_COARSE = StepperTolerances(tol_nr=1e-8, tol_t=5e-3, dt_init=0.1, dt_min=1e-12, dt_max=0.125)
# Components are 0 or at least 0.1 in magnitude, so with tol_pr = 1e-30 a
# boundary jump below the tolerance can only be an exact 0.
component = st.one_of(st.just(0.0), st.floats(0.1, 10.0), st.floats(-10.0, -0.1))
linear_systems = st.builds(
    LinearTestProblem, st.floats(-3.0, 1.0), st.lists(component, min_size=1, max_size=3)
)
# forks_at_any_work only sets a constant, so it may hold across a test's examples
FIXED_G = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestWindowSkipping:
    """From iteration 2 on, windows whose start is bitwise unchanged are not re-solved."""

    @pytest.mark.usefixtures("forks_at_any_work")
    @FIXED_G
    @given(problem=linear_systems, n=st.integers(2, 6), data=st.data())
    def test_first_k_boundaries_are_chained_fine_bitwise(self, problem, n, data):
        k = data.draw(st.integers(1, n + 1), label="k")
        cfg = PararealConfig(
            n_windows=n, tol_pr=1e-30, fine_tol=LIN_FINE, coarse_tol=PROP_COARSE, k_max=k
        )
        one = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)
        traj, report = one
        k_run = report.iterations_run
        assert k_run == k or report.converged
        oracle = chained_fine_oracle(problem, report.boundaries, LIN_FINE)
        for j in range(1, min(k_run, n) + 1):
            assert bits(state_at(traj, report.boundaries[j])) == bits(oracle[j])
        two = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=2)
        assert run_fingerprint(*two) == run_fingerprint(*one)

    @settings(max_examples=20, deadline=None)
    @given(problem=linear_systems, n=st.integers(2, 6))
    def test_converges_exactly_by_iteration_n_plus_1(self, problem, n):
        cfg = PararealConfig(
            n_windows=n, tol_pr=1e-30, fine_tol=LIN_FINE, coarse_tol=PROP_COARSE, k_max=n + 2
        )
        _, report = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)
        assert report.converged and report.k_converged <= n + 1
        assert report.err_per_iter[-1] == 0.0

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_skipped_windows_report_zero_work(self, monkeypatch, n):
        solved = set()  # (propagator, iteration, window) of every window solve
        propagate = parareal._propagate

        def recording_propagate(context, integrate, problem, *args):
            found = re.search(r"window (\d+) during iteration (\d+)", context)
            if found:
                j, k = map(int, found.groups())
                solved.add((integrate is fixed_integrate, k, j))
            return propagate(context, integrate, problem, *args)

        monkeypatch.setattr(parareal, "_propagate", recording_propagate)
        problem = LinearTestProblem(-1.0, (1.0,))
        cfg = PararealConfig(
            n_windows=n, tol_pr=1e-30, fine_tol=LIN_FINE, coarse_tol=PROP_COARSE, k_max=n + 2
        )
        _, report = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)
        assert report.converged and report.k_converged <= n + 1
        rows = (
            (False, report.nr_f_per_window_per_iter, report.time_f_per_window_per_iter),
            (True, report.nr_g_per_window_per_iter, report.time_g_per_window_per_iter),
        )
        for sweep, nr, wall in rows:
            for k in range(1, report.iterations_run + 1):
                for j in range(1, n + 1):
                    if (sweep, k, j) in solved:
                        assert j >= k and (k > 1 or not sweep)
                        assert nr[k - 1][j - 1] > 0 and wall[k - 1][j - 1] > 0.0
                    else:
                        assert nr[k - 1][j - 1] == 0 and wall[k - 1][j - 1] == 0.0
                        if not sweep:
                            assert report.rejected_f_per_window_per_iter[k - 1][j - 1] == 0
        # a swept window is always fine-solved in the same iteration, and vice versa
        fine = {(k, j) for sweep, k, j in solved if not sweep}
        assert {(k, j) for sweep, k, j in solved if sweep} == {(k, j) for k, j in fine if k > 1}
        assert {j for k, j in fine if k == 1} == set(range(1, n + 1))


    @pytest.mark.usefixtures("forks_at_any_work")
    def test_iteration_without_changed_windows_does_not_call_the_pool(self, monkeypatch):
        sent = []  # iteration k of every batch sent down a worker pipe
        send = parareal._send

        def recording_send(pipe, message):
            sent.append(message[0])  # in this process only batches are sent
            send(pipe, message)

        monkeypatch.setattr(parareal, "_send", recording_send)
        problem = LinearTestProblem(-1.0, (1.0,))
        cfg = PararealConfig(
            n_windows=3, tol_pr=1e-30, fine_tol=LIN_FINE, coarse_tol=PROP_COARSE, k_max=5
        )
        _, report = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=2)
        # iteration 4 = N+1 finds every start unchanged and re-solves nothing
        assert report.k_converged == 4 and report.err_per_iter[-1] == 0.0
        solved = [any(row) for row in report.nr_f_per_window_per_iter]
        assert solved == [True, True, True, False]
        # iterations 1-3 dispatch (3 windows, then 2, then 1: one batch per
        # worker beyond the first); iteration 4 sends the worker nothing
        dispatched = [(k, sent.count(k)) for k in range(1, 5) if solved[k - 1]]
        assert dispatched == [(1, 1), (2, 1), (3, 0)]
        assert sorted(sent) == [1, 2]


def loosened(tol, r):
    return dataclasses.replace(tol, tol_t=r * tol.tol_t, tol_nr=r * tol.tol_nr)


class TestFirstFineTol:
    """Iteration 1 solves at R x the fine tolerances, R = max(1, min(10, tol_pr / (100 tol_t)))."""

    def shipped(self, **fine_mk):
        cfg = load_run_config(SHIPPED_COIL_CFG).parareal
        fine = {key: 1e-3 * value for key, value in fine_mk.items()}
        return dataclasses.replace(cfg, fine_tol=dataclasses.replace(cfg.fine_tol, **fine))

    def test_fine_tolerance_far_below_tol_pr_is_loosened_tenfold(self):
        # quench-fine's shape: shipped ramp and tol_pr 10 mK, fine 0.01 mK, N = 16
        cfg = dataclasses.replace(self.shipped(tol_t=0.01, tol_nr=0.01), n_windows=16)
        first = cfg.first_fine_tol
        assert first.tol_t == pytest.approx(1e-4, rel=1e-12)  # 0.1 mK
        assert first.tol_nr == pytest.approx(1e-4, rel=1e-12)
        assert dataclasses.replace(first, tol_t=1e-5, tol_nr=1e-5) == cfg.fine_tol

    def test_partial_loosening_up_to_tol_pr_over_100(self):
        first = self.shipped(tol_t=0.05, tol_nr=0.02).first_fine_tol  # R = 2
        assert first.tol_t == pytest.approx(1e-4, rel=1e-12)
        assert first.tol_nr == pytest.approx(4e-5, rel=1e-12)

    @pytest.mark.parametrize("name", ["ni_coil.cfg", "linear_test.cfg"])
    def test_shipped_configs_keep_their_fine_tolerance(self, name):
        cfg = load_run_config(os.path.join(os.path.dirname(SHIPPED_COIL_CFG), name)).parareal
        assert cfg.first_fine_tol is cfg.fine_tol

    def test_shipped_study_cells_keep_their_fine_tolerance(self):
        run = load_run_config(SHIPPED_COIL_CFG)
        cells = [(n, mk) for n in run.n_windows_list for mk in run.fine_tol_mk_list]
        assert len(cells) == 9
        for n, tol_mk in cells:  # built as cmd_study builds them
            cfg = dataclasses.replace(self.shipped(tol_nr=tol_mk, tol_t=tol_mk), n_windows=n)
            assert cfg.first_fine_tol is cfg.fine_tol

    def test_quench_coarse_and_linear_serial_shapes_keep_their_fine_tolerance(self):
        # fine 3 mK against tol_pr 10 mK, N = 32
        coarse = dataclasses.replace(self.shipped(tol_nr=3.0, tol_t=3.0), n_windows=32)
        assert coarse.first_fine_tol is coarse.fine_tol
        # linear problem, tol_pr equal to the fine tol_t (0.01 mK)
        fine = StepperTolerances(tol_nr=1e-8, tol_t=1e-5, dt_init=0.05, dt_min=1e-12, dt_max=0.25)
        serial = PararealConfig(n_windows=8, tol_pr=1e-3 * 0.01, fine_tol=fine, coarse_tol=LIN_COARSE)
        assert serial.first_fine_tol is serial.fine_tol

    def test_single_iteration_runs_at_the_target_tolerance(self):
        cfg = dataclasses.replace(self.shipped(tol_t=0.01, tol_nr=0.01), k_max=1)
        assert cfg.first_fine_tol is cfg.fine_tol


def run_loose(problem, cfg, n_workers, r):
    """``run_parareal`` with iteration 1 at ``r`` x the fine tolerances."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PararealConfig, "first_fine_tol", property(lambda c: loosened(c.fine_tol, r)))
        return run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=n_workers)


class TestLooseFirstIteration:
    """With a loose iteration 1, exactness moves by one iteration and K is never 1."""

    @pytest.mark.usefixtures("forks_at_any_work")
    @FIXED_G
    @given(problem=linear_systems, n=st.integers(2, 6), r=st.floats(2.0, 10.0), data=st.data())
    def test_first_k_minus_1_boundaries_are_chained_fine_bitwise(self, problem, n, r, data):
        k = data.draw(st.integers(2, n + 2), label="k")
        cfg = PararealConfig(
            n_windows=n, tol_pr=1e-30, fine_tol=LIN_FINE, coarse_tol=PROP_COARSE, k_max=k
        )
        one = run_loose(problem, cfg, 1, r)
        traj, report = one
        assert report.iterations_run == k or report.converged
        assert report.k_converged != 1
        assert report.fine_tol_t_per_iter == [r * LIN_FINE.tol_t] + [LIN_FINE.tol_t] * (
            report.iterations_run - 1
        )
        oracle = chained_fine_oracle(problem, report.boundaries, LIN_FINE)
        for j in range(1, min(report.iterations_run - 1, n) + 1):
            assert bits(state_at(traj, report.boundaries[j])) == bits(oracle[j])
        if k == n + 2:
            assert report.converged and report.err_per_iter[-1] == 0.0
        assert run_fingerprint(*run_loose(problem, cfg, 2, r)) == run_fingerprint(*one)

    @pytest.mark.usefixtures("forks_at_any_work")
    @FIXED_G
    @given(problem=linear_systems, n=st.integers(1, 6), tol_pr=st.floats(0.02, 1.0))
    def test_never_stops_after_the_loose_iteration(self, problem, n, tol_pr):
        # tol_pr > 100 tol_t, so the rule itself loosens iteration 1 (R > 1)
        cfg = PararealConfig(
            n_windows=n, tol_pr=tol_pr, fine_tol=LIN_FINE, coarse_tol=PROP_COARSE, k_max=4
        )
        assert cfg.first_fine_tol.tol_t > LIN_FINE.tol_t
        one = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)
        _, report = one
        assert report.converged and report.k_converged >= 2
        assert report.fine_tol_t_per_iter[0] == cfg.first_fine_tol.tol_t
        assert set(report.fine_tol_t_per_iter[1:]) == {LIN_FINE.tol_t}
        # iteration 2 re-solves window 1 at the target tolerance, without a sweep
        assert report.nr_f_per_window_per_iter[1][0] > 0
        assert report.nr_g_per_window_per_iter[1][0] == 0
        two = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=2)
        assert run_fingerprint(*two) == run_fingerprint(*one)


def record_ghat(problem, t_end, coarse_tol):
    """Run one parareal iteration and return its adaptive coarse trajectory Ĝ."""
    recorded = []
    propagate = parareal._propagate

    def recording_propagate(context, integrate, problem, *args):
        out = propagate(context, integrate, problem, *args)
        if context == "adaptive coarse pass failed":
            recorded.append(out[0])
        return out

    cfg = PararealConfig(
        n_windows=1, tol_pr=1.0, fine_tol=coarse_tol, coarse_tol=coarse_tol, k_max=1
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parareal, "_propagate", recording_propagate)
        run_parareal(problem, 0.0, t_end, problem.initial_state(), cfg, n_workers=1)
    (ghat,) = recorded
    return ghat


class TestCoarseReplay:
    """A sweep of any window of Ĝ's grid, started from Ĝ's state, reproduces Ĝ bit for bit."""

    def assert_windows_replay_ghat(self, problem, t_end, coarse_tol, data):
        ghat = record_ghat(problem, t_end, coarse_tol)
        m = len(ghat.times) - 1
        idx = window_boundary_indices(m, data.draw(st.integers(1, m), label="n_windows"))
        for a, b in zip(idx, idx[1:]):
            replay = fixed_integrate(problem, ghat.times[a : b + 1], ghat.states[a])
            assert bits(replay.states) == bits(ghat.states[a : b + 1])

    @settings(max_examples=10, deadline=None)
    @given(plateau=st.floats(130.0, 142.0), data=st.data())
    def test_coil_plateau(self, plateau, data):
        problem = CoilProblem(ramp=RampSchedule(((50.0, plateau), (150.0, plateau), (200.0, 0.0))))
        coarse_tol = load_run_config(SHIPPED_COIL_CFG).parareal.coarse_tol
        self.assert_windows_replay_ghat(problem, 200.0, coarse_tol, data)

    @settings(max_examples=20, deadline=None)
    @given(problem=linear_systems, data=st.data())
    def test_linear_systems(self, problem, data):
        self.assert_windows_replay_ghat(problem, 1.0, PROP_COARSE, data)


class TestFineResults:
    """Fine windows are validated once, in their propagator, and kept read-only."""

    def shipped_coil(self):
        cfg = load_run_config(SHIPPED_COIL_CFG)
        return make_problem(cfg), cfg

    def test_one_trajectory_per_propagator_call_plus_stitch(self, monkeypatch):
        problem, cfg = self.shipped_coil()
        built = []
        post_init = Trajectory.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Trajectory, "__post_init__", counting_post_init)
        _, report = run_parareal(
            problem, cfg.t_start, cfg.t_end, problem.initial_state(), cfg.parareal, n_workers=1
        )
        sweeps = sum(nr > 0 for row in report.nr_g_per_window_per_iter for nr in row)
        fines = sum(nr > 0 for row in report.nr_f_per_window_per_iter for nr in row)
        assert (sweeps, fines) == (7, 8 + 7)
        assert len(built) == 1 + sweeps + fines + 1

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_fine_results_are_read_only(self, monkeypatch, n_workers):
        problem, cfg = self.shipped_coil()
        results = []  # every fine trajectory F keeps, as it keeps it
        solve = parareal._FineLoop.solve

        def recording_solve(self, k, tol, starts):
            kept = list(self.trajs)
            rows = solve(self, k, tol, starts)
            results.extend(traj for traj, old in zip(self.trajs, kept) if traj is not old)
            return rows

        monkeypatch.setattr(parareal._FineLoop, "solve", recording_solve)
        run_parareal(
            problem, cfg.t_start, cfg.t_end, problem.initial_state(), cfg.parareal, n_workers
        )
        assert len(results) == 8 + 7
        # tuples of floats, so immutable, also after a worker pipe
        states = [u for traj in results for u in traj.states]
        assert all(is_float_tuple(traj.times) and type(traj.states) is tuple for traj in results)
        assert all(map(is_float_tuple, states))


class TestFineLoopKeys:
    """F alone decides what it re-solves: each window whose (start bytes, tolerance) key changed."""

    BOUNDARIES = (0.0, 0.25, 0.5, 0.75, 1.0)
    STARTS = [(1.0,), (0.0,), (0.5,), (0.25,)]  # U_0..U_3
    LOOSE = loosened(LIN_FINE, 10.0)

    def solve_sequence(self, size):
        """Solve one fixed sequence of window starts; the Newton and rejected rows of each solve."""
        problem = LinearTestProblem(-1.0, (1.0,))
        rows = []
        with parareal._FineLoop(problem, self.BOUNDARIES, size + 1, math.inf) as fine:

            def solve(k, tol, starts):
                kept = list(fine.trajs)
                nr, rejected, wall, accepted = fine.solve(k, tol, starts)
                rows.append((nr, rejected))
                solved = [traj is not old for traj, old in zip(fine.trajs, kept)]
                assert solved == [x > 0 for x in nr] == [x > 0.0 for x in wall]
                assert solved == [x > 0 for x in accepted]
                return solved

            assert solve(1, self.LOOSE, self.STARTS) == [True] * 4
            # the same starts at a new tolerance
            assert solve(2, LIN_FINE, self.STARTS) == [True] * 4
            # the same starts at the same tolerance
            assert solve(3, LIN_FINE, self.STARTS) == [False] * 4
            assert rows[-1] == ([0] * 4, [0] * 4)
            # one changed start
            changed = [*self.STARTS[:2], (0.4,), self.STARTS[3]]
            assert solve(4, LIN_FINE, changed) == [False, False, True, False]

            want = adaptive_integrate(problem, 0.5, 0.75, (0.4,), LIN_FINE).terminal_state
            assert bits(fine.reused(3, (0.4,))) == bits(want)
            assert fine.reused(3, (0.5,)) is None
            assert fine.reused(2, (0.0,)) == fine.trajs[1].terminal_state
            assert fine.reused(2, (-0.0,)) is None
        assert workers_exit() == [SIGNALLED] * size
        return rows

    def test_re_solves_exactly_the_changed_keys_at_any_worker_count(self):
        assert self.solve_sequence(0) == self.solve_sequence(1)


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
    """Linear decay whose rhs before ``t_death`` kills any process but the one that built it."""

    def __init__(self, t_death=math.inf):
        super().__init__(-1.0, (1.0,))
        self.owner = os.getpid()
        self.t_death = t_death

    def rhs(self, t, u):
        if os.getpid() != self.owner and t < self.t_death:
            os._exit(3)
        return super().rhs(t, u)


class NanInWorker(DiesInWorker):
    """Linear decay whose rhs is NaN in any process but the one that built it."""

    def rhs(self, t, u):
        if os.getpid() != self.owner:
            return (math.nan,)
        return super().rhs(t, u)


class OneArgError(Exception):
    """An exception that unpickles: its one argument is its message."""


class TwoArgError(Exception):
    """An exception that pickles but does not unpickle: its ``args`` is one joined message."""

    def __init__(self, where, detail):
        super().__init__(f"{where}: {detail}")


class RaisesInWorker(DiesInWorker):
    """Linear decay whose rhs raises ``error(*args)`` in any process but the one that built it."""

    def __init__(self, error, *args):
        super().__init__()
        self.error, self.error_args = error, args

    def rhs(self, t, u):
        if os.getpid() != self.owner:
            raise self.error(*self.error_args)
        return super().rhs(t, u)


class NanRhs(LinearTestProblem):
    """A rhs that evaluates to NaN everywhere."""

    def rhs(self, t, u):
        return (math.nan,) * len(u)


class Unpicklable(LinearTestProblem):
    def __init__(self):
        super().__init__(-1.0, (1.0,))
        self.lock = threading.Lock()


class TestFineLoopFailures:
    """At two workers windows 1 and 3 are solved in this process, 2 and 4 by the worker."""

    CFG = PararealConfig(n_windows=4, tol_pr=1e-5, fine_tol=LIN_FINE, coarse_tol=LIN_COARSE)
    HOPELESS = StepperTolerances(tol_nr=1e-8, tol_t=1e-13, dt_init=0.1, dt_min=0.05, dt_max=0.5)

    def test_fine_failure_names_window_and_iteration(self):
        cfg = dataclasses.replace(self.CFG, fine_tol=self.HOPELESS)
        problem = LinearTestProblem(-1.0, (1.0,))
        with pytest.raises(IntegrationFailed, match=r"window 1 during iteration 1"):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)

    def test_failure_in_this_process_stops_the_workers(self):
        cfg = dataclasses.replace(self.CFG, fine_tol=self.HOPELESS)
        problem = LinearTestProblem(-1.0, (1.0,))
        with pytest.raises(IntegrationFailed, match=r"window 1 during iteration 1"):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=2)
        assert workers_exit() == [SIGNALLED]

    @pytest.mark.usefixtures("forks_at_any_work")
    def test_worker_failure_names_window_and_iteration(self):
        problem = NanInWorker()
        with pytest.raises(IntegrationFailed, match=r"window 2 during iteration 1"):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers=2)
        assert workers_exit() == [SIGNALLED]

    @pytest.mark.usefixtures("forks_at_any_work")
    def test_worker_exception_is_re_raised_as_itself(self):
        problem = RaisesInWorker(OneArgError, "rhs failed")
        with pytest.raises(OneArgError, match=r"^rhs failed$"):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers=2)
        assert workers_exit() == [SIGNALLED]

    @pytest.mark.parametrize(
        "error, args, fails, message",
        [
            # pickles, but loading it calls TwoArgError with one argument
            (TwoArgError, ("rhs", "failed"), "detail", r"TwoArgError: rhs: failed"),
            # does not pickle at all
            (
                OneArgError,
                (threading.Lock(),),
                "cannot pickle",
                r"OneArgError: <unlocked _thread.lock object at 0x[0-9a-f]+>",
            ),
        ],
        ids=["does_not_load", "does_not_pickle"],
    )
    @pytest.mark.usefixtures("forks_at_any_work")
    def test_worker_exception_that_does_not_unpickle_is_named(self, error, args, fails, message):
        problem = RaisesInWorker(error, *args)
        with pytest.raises(TypeError, match=fails):  # what a round trip here would raise
            pickle.loads(pickle.dumps(error(*args)))
        named = rf"^fine propagator failed in windows \[2, 4\] during iteration 1: {message}$"
        with pytest.raises(IntegrationFailed, match=named):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers=2)
        assert workers_exit() == [SIGNALLED]

    @pytest.mark.usefixtures("forks_at_any_work")
    def test_worker_crash_is_integration_failure(self):
        problem = DiesInWorker()
        unfinished = r"died during iteration 1 while windows \[2, 4\] were unfinished"
        with pytest.raises(IntegrationFailed, match=unfinished):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers=2)
        assert workers_exit() == [3]  # dead before the close signalled it

    @pytest.mark.usefixtures("forks_at_any_work")
    def test_reply_cut_short_by_a_dying_worker_is_a_death(self, monkeypatch):
        owner, send = os.getpid(), parareal._send

        def half_a_reply_then_death(pipe, message):
            if os.getpid() == owner:
                return send(pipe, message)
            data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            pipe.write(data[: len(data) // 2])
            pipe.flush()
            os._exit(3)

        problem = LinearTestProblem(-1.0, (1.0,))
        # what the caller reads of such a reply: a pickle cut short, not an EOF
        reply = parareal._solve_batch(problem, LIN_FINE, 1, [(2, 0.25, 0.5, (0.75,))])
        data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        with pytest.raises(pickle.UnpicklingError, match="truncated"):
            pickle.load(io.BytesIO(data[: len(data) // 2]))
        monkeypatch.setattr(parareal, "_send", half_a_reply_then_death)
        unfinished = r"died during iteration 1 while windows \[2, 4\] were unfinished"
        with pytest.raises(IntegrationFailed, match=unfinished):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers=2)
        assert workers_exit() == [3]

    @pytest.mark.usefixtures("forks_at_any_work")
    def test_worker_raising_base_exception_leaves_by_os_exit(self, monkeypatch):
        owner, solve_batch = os.getpid(), parareal._solve_batch

        def escapes_in_a_worker(*args):
            if os.getpid() != owner:
                raise BaseException("out of the worker's loop")
            return solve_batch(*args)

        # not an Exception, so the worker sends nothing back: it ends by os._exit(1)
        monkeypatch.setattr(parareal, "_solve_batch", escapes_in_a_worker)
        problem = LinearTestProblem(-1.0, (1.0,))
        unfinished = r"died during iteration 1 while windows \[2, 4\] were unfinished"
        with pytest.raises(IntegrationFailed, match=unfinished):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers=2)
        assert workers_exit() == [1]

    @pytest.mark.usefixtures("forks_at_any_work")
    def test_worker_crash_names_only_its_windows(self):
        # three batches: windows 1 and 4 here, 2 in the first worker, 3 in the second
        problem = LinearTestProblem(-1.0, (1.0,))
        _, report = run_parareal(problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers=1)
        problem = DiesInWorker(t_death=report.boundaries[2])  # window 2 dies, window 3 does not
        unfinished = r"died during iteration 1 while windows \[2\] were unfinished"
        with pytest.raises(IntegrationFailed, match=unfinished):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers=3)
        assert workers_exit() == [3, SIGNALLED]

    @pytest.mark.usefixtures("forks_at_any_work")
    def test_unpicklable_problem_runs_in_forked_workers(self):
        # the workers inherit the problem at the fork; it never crosses a pipe
        problem = Unpicklable()
        one = run_parareal(problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers=1)
        two = run_parareal(problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers=2)
        assert run_fingerprint(*two) == run_fingerprint(*one)
        assert workers_exit() == [SIGNALLED]

    def test_reply_larger_than_a_pipe_buffer_comes_back_bit_for_bit(self):
        problem = LinearTestProblem(-1.0, (1.0,))
        tiny_steps = dataclasses.replace(LIN_FINE, dt_init=1e-4, dt_max=1e-4)
        boundaries, starts = TestFineLoopKeys.BOUNDARIES, TestFineLoopKeys.STARTS
        solved = []
        for size in (0, 1):
            with parareal._FineLoop(problem, boundaries, size + 1, math.inf) as fine:
                fine.solve(1, tiny_steps, starts)
                solved.append(fine.trajs)
        assert workers_exit() == [SIGNALLED]
        # windows 2 and 4 came back from the worker in one reply
        assert len(pickle.dumps([solved[1][1], solved[1][3]])) > 64 * 1024
        for here, there in zip(*solved):
            assert bits(there.times) == bits(here.times)
            assert bits(there.states) == bits(here.states)


def repr_rows(times, states):
    """A row format that a library caller might pass: one ``repr`` line per point."""
    return "".join(f"{t!r} {u!r}\n" for t, u in zip(times, states))


class TestTrajectoryRows:
    """``format_rows``: each window's rows come from the process of its last solve."""

    CFG = TestFineLoopFailures.CFG

    def run(self, problem, n_workers, format_rows=repr_rows):
        return run_parareal(
            problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers, format_rows=format_rows
        )

    @pytest.mark.usefixtures("forks_at_any_work")
    @pytest.mark.parametrize("n_workers", [2, 3, 4])
    def test_rows_of_the_stitched_trajectory_at_any_worker_count(self, n_workers):
        problem = LinearTestProblem(-1.0, (1.0,))
        plain = self.run(problem, 1, None)
        assert plain[1].trajectory_rows is None
        one, many = self.run(problem, 1), self.run(problem, n_workers)
        assert many[1].processes == n_workers
        assert one[1].trajectory_rows == repr_rows(plain[0].times, plain[0].states)
        assert run_fingerprint(*many) == run_fingerprint(*one)
        assert workers_exit() == [SIGNALLED] * (n_workers - 1)

    @pytest.mark.usefixtures("forks_at_any_work")
    def test_a_closure_reaches_the_workers(self):
        # nothing that formats rows crosses a pipe: the workers inherit it at the fork
        problem, lock = LinearTestProblem(-1.0, (1.0,)), threading.Lock()

        def locked_rows(times, states):
            with lock:
                return repr_rows(times, states)

        two = self.run(problem, 2, locked_rows)
        assert run_fingerprint(*two) == run_fingerprint(*self.run(problem, 1))
        assert workers_exit() == [SIGNALLED]

    @pytest.mark.usefixtures("forks_at_any_work")
    def test_a_failure_here_names_this_process_windows(self):
        def fails(times, states):
            raise ZeroDivisionError("no rows")

        problem = LinearTestProblem(-1.0, (1.0,))
        unformatted = r"^cannot format the rows of windows \[1, 4\]: ZeroDivisionError: no rows$"
        with pytest.raises(IntegrationFailed, match=unformatted):
            self.run(problem, 2, fails)
        assert workers_exit() == [SIGNALLED]


def refuse_to_pin(pid, cpus):
    raise AssertionError(f"pinned process {pid} to {cpus}")


def counting_forks(monkeypatch) -> list:
    """Patch ``os.fork``, which the fine loop forks its workers by; the pid of every child."""
    started = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return started


class TestWorkerGroup:
    CFG = TestFineLoopFailures.CFG

    @pytest.mark.usefixtures("forks_at_any_work")
    def test_success_leaves_no_process(self):
        problem = LinearTestProblem(-1.0, (1.0,))
        _, report = run_parareal(problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers=2)
        assert report.converged
        assert workers_exit() == [SIGNALLED]

    @pytest.mark.usefixtures("forks_at_any_work")
    def test_runs_leave_at_most_p_minus_1_workers_unreaped(self, monkeypatch):
        # P = 3: each close reaps the workers of earlier runs that have exited
        monkeypatch.setattr(parareal, "_reap", REAP)
        problem = LinearTestProblem(-1.0, (1.0,))
        for _ in range(20):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers=3)
            assert len(parareal._UNREAPED) <= 2
        left = len(parareal._UNREAPED)
        assert workers_exit() == [SIGNALLED] * left

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    @pytest.mark.usefixtures("forks_at_any_work")
    def test_closed_loops_leave_no_descriptor_open(self):
        unfinished = r"died during iteration 1 while windows \[2, 4\] were unfinished"
        before = len(os.listdir("/proc/self/fd"))
        for problem in (LinearTestProblem(-1.0, (1.0,)), DiesInWorker()) * 2:
            with contextlib.suppress(IntegrationFailed):
                run_parareal(problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers=2)
        assert workers_exit() == [SIGNALLED, 3] * 2
        # a worker dead before its batch was sent: the batch stays in the
        # buffer of the caller's end, whose close then fails
        with pytest.raises(IntegrationFailed, match=unfinished):
            with parareal._FineLoop(LINEAR, TestFineLoopKeys.BOUNDARIES, 2, math.inf) as fine:
                os.kill(fine.pids[0], signal.SIGKILL)
                os.waitid(os.P_PID, fine.pids[0], os.WEXITED | os.WNOWAIT)  # dead, not reaped
                fine.solve(1, LIN_FINE, TestFineLoopKeys.STARTS)
        assert workers_exit(fine.pids) == [-signal.SIGKILL]
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("block", [False, True], ids=["poll", "block"])
    def test_reap_drops_a_worker_waited_for_elsewhere(self, block):
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        parareal._UNREAPED.append(pid)
        REAP(block=block)
        assert pid not in parareal._UNREAPED

    def test_a_failed_fork_signals_the_workers_already_forked(self, monkeypatch):
        started = counting_forks(monkeypatch)
        fork = os.fork

        def second_fork_fails():
            if started:
                raise OSError("no second fork")
            return fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        with pytest.raises(IntegrationFailed, match="^cannot start fine worker 2: ") as failure:
            parareal._FineLoop(LINEAR, TestFineLoopKeys.BOUNDARIES, 3, math.inf)
        assert type(failure.value.__cause__) is OSError
        assert str(failure.value.__cause__) == "no second fork"
        assert len(started) == 1
        assert workers_exit() == [SIGNALLED]

    @pytest.mark.parametrize(
        "n_workers", [0, 3.0, 2.0, 1.5, True, "2"], ids=["0", "3.0", "2.0", "1.5", "True", "str"]
    )
    def test_worker_count_not_an_integer_above_0_is_a_value_error(self, monkeypatch, n_workers):
        started = counting_forks(monkeypatch)
        mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        problem = LinearTestProblem(-1.0, (1.0,))
        with pytest.raises(ValueError, match="n_workers must be an integer >= 1, not "):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers)
        assert started == []
        assert mask is None or os.sched_getaffinity(0) == mask

    @pytest.mark.usefixtures("forks_at_any_work")
    def test_workers_capped_at_window_count(self, monkeypatch):
        started = counting_forks(monkeypatch)
        problem = LinearTestProblem(-1.0, (1.0,))
        cfg = dataclasses.replace(self.CFG, n_windows=2)
        one = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)
        assert started == []
        five = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=5)
        assert len(started) == 1
        assert run_fingerprint(*five) == run_fingerprint(*one)
        assert workers_exit(started) == [SIGNALLED]


class TestProcessCount:
    """P is min(n_workers, N) where W, Ĝ's predicted fine work, is at least 2·G; else 1."""

    @pytest.mark.parametrize(
        "work, n, processes", [(899.0, 4, 1), (900.0, 4, 3), (math.inf, 4, 3), (900.0, 2, 2)]
    )
    def test_every_worker_or_none(self, monkeypatch, work, n, processes):
        monkeypatch.setattr(parareal, "_MIN_WORK_PER_PROCESS", 450.0)
        with parareal._FineLoop(LINEAR, [j / n for j in range(n + 1)], 3, work) as fine:
            assert len(fine.pids) + 1 == processes
        assert workers_exit() == [SIGNALLED] * (processes - 1)

    @pytest.mark.parametrize(
        "fine_mk, n_windows, work, processes",
        [(3.0, 32, 315, 1), (None, 8, 1725, 2)],
        ids=["3mK-N32", "ni_coil.cfg"],
    )
    def test_shipped_ramp_at_two_workers(self, monkeypatch, fine_mk, n_windows, work, processes):
        cfg = load_run_config(SHIPPED_COIL_CFG)
        pr_cfg = dataclasses.replace(cfg.parareal, n_windows=n_windows)
        if fine_mk is not None:
            fine_tol = dataclasses.replace(
                pr_cfg.fine_tol, tol_nr=1e-3 * fine_mk, tol_t=1e-3 * fine_mk
            )
            pr_cfg = dataclasses.replace(pr_cfg, fine_tol=fine_tol)
        problem = make_problem(cfg)
        predicted = []
        init = parareal._FineLoop.__init__

        def recording_init(self, problem, n, n_workers, work, *rest):
            predicted.append(work)
            init(self, problem, n, n_workers, work, *rest)

        monkeypatch.setattr(parareal._FineLoop, "__init__", recording_init)
        started = counting_forks(monkeypatch)

        def run():
            return run_parareal(
                problem, cfg.t_start, cfg.t_end, problem.initial_state(), pr_cfg, n_workers=2
            )

        by_rule = run()
        # W = m·√(coarse tol_t / fine tol_t) with m = 122 Ĝ steps; G = 450
        assert by_rule[1].m_coarse_steps == 122 and round(predicted[0]) == work
        assert by_rule[1].processes == processes and len(started) == processes - 1
        # the other process count, by G = 0 or G = inf: the same results bit for bit
        monkeypatch.setattr(parareal, "_MIN_WORK_PER_PROCESS", math.inf if processes > 1 else 0.0)
        other = run()
        assert other[1].processes == 3 - processes and len(started) == 1
        assert run_fingerprint(*other) == run_fingerprint(*by_rule)
        assert workers_exit(started) == [SIGNALLED]


@pytest.fixture
def two_cpus():
    """This process's mask cut to its two lowest allowed CPUs, for the caller and one worker."""
    if ALLOWED_CPUS < 2:
        pytest.skip("needs two allowed CPUs")
    with lowest_cpus(2):
        yield os.sched_getaffinity(0)


@pytest.fixture
def caller_never_pinned(two_cpus):
    """``two_cpus``, with any call that would change this process's mask failing the test."""
    set_affinity = os.sched_setaffinity

    def workers_only(pid, cpus):
        assert pid not in (0, os.getpid()), f"changed the caller's mask to {cpus}"
        set_affinity(pid, cpus)

    with pytest.MonkeyPatch.context() as patch:  # undone before two_cpus restores the mask
        patch.setattr(os, "sched_setaffinity", workers_only)
        yield two_cpus


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls")
class TestCpuPlacement:
    """One CPU per fine worker when the caller's mask holds one per process; no timing measured.

    The caller's own mask never changes.
    """

    CFG = TestFineLoopFailures.CFG
    BOUNDARIES = TestFineLoopKeys.BOUNDARIES
    STARTS = TestFineLoopKeys.STARTS

    def run(self, problem, n_workers):
        return run_parareal(problem, 0.0, 1.0, problem.initial_state(), self.CFG, n_workers)

    def test_only_the_worker_gets_its_own_cpu(self, caller_never_pinned):
        with parareal._FineLoop(LINEAR, self.BOUNDARIES, 2, math.inf) as fine:
            # the worker is pinned once the loop is open, before it gets any batch
            caller = os.sched_getaffinity(0)
            worker = os.sched_getaffinity(fine.pids[0])
        assert worker == {sorted(caller_never_pinned)[1]}
        assert caller == caller_never_pinned
        assert os.sched_getaffinity(0) == caller_never_pinned

    @pytest.mark.usefixtures("forks_at_any_work")
    def test_mask_unchanged_through_a_normal_exit(self, caller_never_pinned):
        problem = LinearTestProblem(-1.0, (1.0,))
        assert run_fingerprint(*self.run(problem, 2)) == run_fingerprint(*self.run(problem, 1))
        assert os.sched_getaffinity(0) == caller_never_pinned

    @pytest.mark.parametrize("t_end", [0.0, -1.0], ids=["empty", "reversed"])
    def test_an_empty_or_reversed_interval_forks_nothing(
        self, caller_never_pinned, monkeypatch, t_end
    ):
        problem = LinearTestProblem(-1.0, (1.0,))
        started = counting_forks(monkeypatch)
        with pytest.raises(ValueError, match=r"^need t_0 < t_N$"):
            run_parareal(problem, 0.0, t_end, problem.initial_state(), self.CFG, n_workers=2)
        assert started == []
        assert os.sched_getaffinity(0) == caller_never_pinned

    @pytest.mark.parametrize("where", ["caller", "worker"])
    @pytest.mark.usefixtures("forks_at_any_work")
    def test_mask_unchanged_through_a_fine_solve_exception(self, caller_never_pinned, where):
        if where == "caller":
            cfg = dataclasses.replace(self.CFG, fine_tol=TestFineLoopFailures.HOPELESS)
            problem = LinearTestProblem(-1.0, (1.0,))
        else:
            cfg, problem = self.CFG, NanInWorker()
        with pytest.raises(IntegrationFailed, match=r"during iteration 1"):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=2)
        assert os.sched_getaffinity(0) == caller_never_pinned
        assert workers_exit() == [SIGNALLED]

    def test_mask_unchanged_through_an_interrupt(self, caller_never_pinned):
        with pytest.raises(KeyboardInterrupt):
            with parareal._FineLoop(LINEAR, self.BOUNDARIES, 2, math.inf) as fine:
                fine.solve(1, LIN_FINE, self.STARTS)
                raise KeyboardInterrupt
        assert os.sched_getaffinity(0) == caller_never_pinned
        assert workers_exit() == [SIGNALLED]

    def test_mask_unchanged_through_a_start_that_fails_part_way(
        self, caller_never_pinned, monkeypatch
    ):
        forked = []
        fork = os.fork

        def forks_then_fails():
            pid = fork()
            if pid == 0:
                return pid
            forked.append(pid)
            raise OSError("start failed after the fork")

        monkeypatch.setattr(os, "fork", forks_then_fails)
        with pytest.raises(IntegrationFailed, match="^cannot start fine worker 1: ") as failure:
            parareal._FineLoop(LINEAR, self.BOUNDARIES, 2, math.inf)
        assert type(failure.value.__cause__) is OSError
        assert str(failure.value.__cause__) == "start failed after the fork"
        assert os.sched_getaffinity(0) == caller_never_pinned
        # the loop never learnt the pid, so nothing signalled the worker: it
        # ends, by os._exit(0), on the EOF of the caller's closed pipe ends
        assert parareal._UNREAPED == []
        assert workers_exit(forked) == [0]

    def test_mask_unchanged_through_an_interrupted_start(self, caller_never_pinned, monkeypatch):
        # Ctrl-C while the loop forks its second worker of P = 3
        started = counting_forks(monkeypatch)
        fork = os.fork

        def second_fork_interrupted():
            if started:
                raise KeyboardInterrupt
            return fork()

        monkeypatch.setattr(os, "fork", second_fork_interrupted)
        with pytest.raises(KeyboardInterrupt):
            parareal._FineLoop(LINEAR, self.BOUNDARIES, 3, math.inf)
        assert len(started) == 1
        assert workers_exit() == [SIGNALLED]
        assert os.sched_getaffinity(0) == caller_never_pinned

    def test_mask_unchanged_through_a_worker_pin_that_fails(self, caller_never_pinned):
        def cannot_pin(pid, cpus):
            raise OSError(f"cannot pin process {pid}")

        with pytest.MonkeyPatch.context() as patch:
            # in place of the fixture's guard: a pin of this process would name pid 0
            patch.setattr(os, "sched_setaffinity", cannot_pin)
            started = counting_forks(patch)
            with pytest.raises(IntegrationFailed, match="^cannot start fine worker 1: ") as failure:
                parareal._FineLoop(LINEAR, self.BOUNDARIES, 2, math.inf)
        assert type(failure.value.__cause__) is OSError
        assert str(failure.value.__cause__) == f"cannot pin process {started[0]}"
        assert os.sched_getaffinity(0) == caller_never_pinned
        assert workers_exit() == [SIGNALLED]

    @pytest.mark.usefixtures("forks_at_any_work")
    def test_more_allowed_cpus_than_processes_pins_nothing(self, monkeypatch):
        problem = LinearTestProblem(-1.0, (1.0,))
        one = self.run(problem, 1)
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
            patch.setattr(os, "sched_setaffinity", refuse_to_pin)  # caller and worker alike
            started = counting_forks(patch)
            two = self.run(problem, 2)
        assert len(started) == 1
        assert run_fingerprint(*two) == run_fingerprint(*one)
        assert workers_exit(started) == [SIGNALLED]

    @pytest.mark.usefixtures("forks_at_any_work")
    def test_one_allowed_cpu_pins_nothing(self, monkeypatch):
        problem = LinearTestProblem(-1.0, (1.0,))
        one = self.run(problem, 1)
        with lowest_cpus(1):
            with monkeypatch.context() as patch:
                patch.setattr(os, "sched_setaffinity", refuse_to_pin)  # caller and worker alike
                started = counting_forks(patch)
                two = self.run(problem, 2)
        assert len(started) == 1
        assert run_fingerprint(*two) == run_fingerprint(*one)
        assert workers_exit(started) == [SIGNALLED]

    @pytest.mark.usefixtures("forks_at_any_work")
    def test_no_affinity_calls_pins_nothing_and_counts_every_cpu(self, monkeypatch):
        problem = LinearTestProblem(-1.0, (1.0,))
        one = self.run(problem, 1)
        monkeypatch.delattr(os, "sched_setaffinity")
        monkeypatch.delattr(os, "sched_getaffinity")
        started = counting_forks(monkeypatch)
        default = self.run(problem, None)
        assert len(started) == min(self.CFG.n_windows, os.cpu_count() or 1) - 1
        assert run_fingerprint(*default) == run_fingerprint(*one)
        assert workers_exit(started) == [SIGNALLED] * len(started)

    def test_default_workers_under_one_allowed_cpu_start_no_process(self, monkeypatch):
        problem = LinearTestProblem(-1.0, (1.0,))
        one = self.run(problem, 1)
        started = counting_forks(monkeypatch)
        with lowest_cpus(1):
            default = self.run(problem, None)
        assert started == []
        assert run_fingerprint(*default) == run_fingerprint(*one)


class TestCoarseFailures:
    def test_ghat_failure_is_named(self):
        hopeless = StepperTolerances(tol_nr=1e-8, tol_t=1e-13, dt_init=0.1, dt_min=0.05, dt_max=0.5)
        cfg = PararealConfig(n_windows=4, tol_pr=1e-5, fine_tol=LIN_FINE, coarse_tol=hopeless)
        problem = LinearTestProblem(-1.0, (1.0,))
        with pytest.raises(IntegrationFailed, match=r"^adaptive coarse pass failed: "):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)

    def test_sweep_failure_names_window_and_iteration(self, monkeypatch):
        calls = []

        def fails_on_fourth_window(*args, **kwargs):
            calls.append(args)
            if len(calls) == 4:  # iteration 2 sweeps windows 2-4, iteration 3 fails in 3
                raise IntegrationFailed("stub Newton failure")
            return fixed_integrate(*args, **kwargs)

        monkeypatch.setattr(parareal, "fixed_integrate", fails_on_fourth_window)
        problem = LinearTestProblem(-1.0, (1.0,))
        cfg = PararealConfig(
            n_windows=4, tol_pr=1e-30, fine_tol=LIN_FINE, coarse_tol=LIN_COARSE, k_max=5
        )
        context = r"^coarse sweep failed in window 3 during iteration 3: stub Newton failure$"
        with pytest.raises(IntegrationFailed, match=context):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)

    def test_non_finite_rhs_in_a_sweep_names_window_and_iteration(self, monkeypatch):
        calls = []

        def nan_rhs_on_second_sweep(problem, grid, u_a, counters=None):
            calls.append(grid)
            if len(calls) == 2:  # iteration 2 sweeps windows 2-4; the second is window 3
                problem = NanRhs()
            return fixed_integrate(problem, grid, u_a, counters)

        monkeypatch.setattr(parareal, "fixed_integrate", nan_rhs_on_second_sweep)
        problem = LinearTestProblem(-1.0, (1.0,))
        cfg = PararealConfig(
            n_windows=4, tol_pr=1e-30, fine_tol=LIN_FINE, coarse_tol=LIN_COARSE, k_max=5
        )
        context = (
            r"^coarse sweep failed in window 3 during iteration 2: "
            r"step failed on the fixed grid at t=\S+ \(dt=\S+\): "
            r"non-finite residual at the initial guess$"
        )
        with pytest.raises(IntegrationFailed, match=context):
            run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)
