"""Deterministic work counts of the shipped coil configuration.

Newton iterations, accepted and rejected steps and the parareal iteration
count are machine-independent, so they are pinned exactly: a change that
moves one of them changes the numerics, and must say so.  Wall time is
never checked here.
"""

import os

from parcoil import StepCounters, adaptive_integrate, load_run_config, make_problem, run_parareal

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_COIL_CFG = os.path.join(REPO_ROOT, "configs", "ni_coil.cfg")


def test_sequential_fine_solve_counts():
    cfg = load_run_config(SHIPPED_COIL_CFG)
    problem = make_problem(cfg)
    counters = StepCounters()
    adaptive_integrate(
        problem, cfg.t_start, cfg.t_end, problem.initial_state(), cfg.parareal.fine_tol, counters
    )
    assert (counters.nr_iterations, counters.steps_accepted, counters.steps_rejected) == (
        1155,
        1070,
        42,
    )


def test_parareal_counts_at_one_worker():
    cfg = load_run_config(SHIPPED_COIL_CFG)
    problem = make_problem(cfg)
    _, report = run_parareal(
        problem, cfg.t_start, cfg.t_end, problem.initial_state(), cfg.parareal, n_workers=1
    )
    assert report.k_converged == 2
    assert report.m_coarse_steps == 122
    assert report.nr_ghat == 228
    # iteration k re-solves (sweep and fine) only windows k..N
    assert report.nr_g_per_iter == [0, 182]
    assert [sum(row) for row in report.nr_f_per_window_per_iter] == [1255, 1130]
