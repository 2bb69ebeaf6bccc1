"""Deterministic work counts of the shipped coil configuration and of the
three-component linear problem.

Newton iterations, accepted and rejected steps and the parareal iteration
count are machine-independent, so they are pinned exactly: a change that
moves one of them changes the numerics, and must say so.  Wall time is
never checked here.
"""

import collections
import dataclasses
import os

from parcoil import (
    CoilProblem,
    LinearTestProblem,
    PararealConfig,
    StepCounters,
    StepperTolerances,
    adaptive_integrate,
    load_run_config,
    make_problem,
    max_temperature_deviation,
    run_parareal,
    window_boundary_indices,
)
from parcoil import coil, stepper

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_COIL_CFG = os.path.join(REPO_ROOT, "configs", "ni_coil.cfg")

# Config values in mK become kelvin as the config loader converts them.
MK = 1e-3


def linear_three_components():
    """d_t u = -u from (1, 2, 3) to t = 1: fine 0.01 mK, coarse 5 mK, N = 8, tol_pr 0.01 mK."""
    problem = LinearTestProblem(-1.0, (1.0, 2.0, 3.0))
    fine = StepperTolerances(
        tol_nr=MK * 1e-5, tol_t=MK * 0.01, dt_init=0.05, dt_min=1e-12, dt_max=0.25
    )
    coarse = StepperTolerances(
        tol_nr=MK * 1e-5, tol_t=MK * 5.0, dt_init=0.1, dt_min=1e-12, dt_max=0.5
    )
    cfg = PararealConfig(n_windows=8, tol_pr=MK * 0.01, fine_tol=fine, coarse_tol=coarse)
    return problem, cfg


def test_sequential_fine_solve_counts():
    cfg = load_run_config(SHIPPED_COIL_CFG)
    problem = make_problem(cfg)
    counters = StepCounters()
    adaptive_integrate(
        problem, cfg.t_start, cfg.t_end, problem.initial_state(), cfg.parareal.fine_tol, counters
    )
    assert (counters.nr_iterations, counters.steps_accepted, counters.steps_rejected) == (
        1152,
        1072,
        39,
    )


def test_parareal_counts_at_one_worker():
    cfg = load_run_config(SHIPPED_COIL_CFG)
    problem = make_problem(cfg)
    _, report = run_parareal(
        problem, cfg.t_start, cfg.t_end, problem.initial_state(), cfg.parareal, n_workers=1
    )
    assert report.k_converged == 2
    assert report.m_coarse_steps == 122
    assert report.nr_ghat == 129
    # iteration k re-solves (sweep and fine) only windows k..N
    assert report.nr_g_per_iter == [0, 107]
    assert [sum(row) for row in report.nr_f_per_window_per_iter] == [1167, 1038]


def test_shipped_deviation_from_the_sequential_run():
    # summary.csv's max_dev_mK and boundary_dev_mK with --with-baseline
    cfg = load_run_config(SHIPPED_COIL_CFG)
    problem = make_problem(cfg)
    u_0 = problem.initial_state()
    traj, report = run_parareal(problem, cfg.t_start, cfg.t_end, u_0, cfg.parareal, n_workers=1)
    baseline = adaptive_integrate(problem, cfg.t_start, cfg.t_end, u_0, cfg.parareal.fine_tol)
    deviation, at_boundaries = max_temperature_deviation(traj, baseline, problem, report.boundaries)
    assert round(1e3 * max(deviation), 2) == 9.09
    assert round(1e3 * at_boundaries, 2) == 2.67


def test_one_newton_iteration_per_coarse_step():
    cfg = load_run_config(SHIPPED_COIL_CFG)
    problem = make_problem(cfg)
    ghat = StepCounters()
    adaptive_integrate(
        problem,
        cfg.t_start,
        cfg.t_end,
        problem.initial_state(),
        cfg.parareal.coarse_tol,
        ghat,
        linearized=True,
    )
    assert ghat.nr_iterations == ghat.steps_accepted + ghat.steps_rejected
    _, report = run_parareal(
        problem, cfg.t_start, cfg.t_end, problem.initial_state(), cfg.parareal, n_workers=1
    )
    assert report.nr_ghat == ghat.nr_iterations
    idx = window_boundary_indices(report.m_coarse_steps, report.n_windows)
    steps = [b - a for a, b in zip(idx, idx[1:])]
    # iteration 1 sweeps nothing; iteration 2 sweeps every window but the first
    assert report.nr_g_per_window_per_iter == [[0] * report.n_windows, [0, *steps[1:]]]


def test_loose_first_iteration_counts_and_deviation():
    # the shipped ramp at fine 0.01 mK, N = 16: iteration 1 solves at 0.1 mK
    cfg = load_run_config(SHIPPED_COIL_CFG)
    fine = dataclasses.replace(cfg.parareal.fine_tol, tol_nr=1e-3 * 0.01, tol_t=1e-3 * 0.01)
    pr_cfg = dataclasses.replace(cfg.parareal, n_windows=16, fine_tol=fine)
    problem = make_problem(cfg)
    u_0 = problem.initial_state()
    traj, report = run_parareal(problem, cfg.t_start, cfg.t_end, u_0, pr_cfg, n_workers=1)
    assert report.k_converged == 2
    assert report.fine_tol_t_per_iter == [pr_cfg.first_fine_tol.tol_t, fine.tol_t]
    # 3507 + 3265 when iteration 1 solves at 0.01 mK; iteration 2 now re-solves window 1 too
    assert [sum(row) for row in report.nr_f_per_window_per_iter] == [1183, 3444]
    assert report.nr_g_per_iter == [0, 115]
    baseline = adaptive_integrate(problem, cfg.t_start, cfg.t_end, u_0, fine)
    deviation, at_boundaries = max_temperature_deviation(traj, baseline, problem, report.boundaries)
    # 15.0 and 10.3 mK when iteration 1 solves at 0.01 mK
    assert 1e3 * max(deviation) <= 11.0
    assert 1e3 * at_boundaries <= 5.0


def test_linear_three_component_counts():
    # a diagonal 3x3 Newton matrix: the general (not 2x2) linear solve
    problem, cfg = linear_three_components()
    u_0 = problem.initial_state()
    counters = StepCounters()
    adaptive_integrate(problem, 0.0, 1.0, u_0, cfg.fine_tol, counters)
    assert (counters.nr_iterations, counters.steps_accepted, counters.steps_rejected) == (
        966,
        480,
        3,
    )
    _, report = run_parareal(problem, 0.0, 1.0, u_0, cfg, n_workers=1)
    assert report.k_converged == 3
    assert report.m_coarse_steps == 22
    assert report.nr_ghat == 23
    assert report.nr_g_per_iter == [0, 20, 17]
    assert [sum(row) for row in report.nr_f_per_window_per_iter] == [1008, 905, 765]


def test_layer_boundaries_count_the_work(monkeypatch):
    # the layer boundaries are stepper.newton_jacobian, coil.coil_rhs and
    # the fused CoilProblem.rhs_and_jacobian, which counts as one of each:
    # one Jacobian per counted Newton iteration, and a pinned number of rhs
    # calls, on the sequential solve, Ĝ and a parareal run
    calls = collections.Counter()
    jacobian, rhs, fused = stepper.newton_jacobian, coil.coil_rhs, CoilProblem.rhs_and_jacobian

    def counting_jacobian(*args):
        calls["jacobian"] += 1
        return jacobian(*args)

    def counting_rhs(*args):
        calls["rhs"] += 1
        return rhs(*args)

    def counting_fused(*args):
        calls["rhs"] += 1
        calls["jacobian"] += 1
        return fused(*args)

    monkeypatch.setattr(stepper, "newton_jacobian", counting_jacobian)
    monkeypatch.setattr(coil, "coil_rhs", counting_rhs)
    monkeypatch.setattr(CoilProblem, "rhs_and_jacobian", counting_fused)
    cfg = load_run_config(SHIPPED_COIL_CFG)
    problem = make_problem(cfg)
    u_0 = problem.initial_state()
    counts = []
    for tol, linearized in ((cfg.parareal.fine_tol, False), (cfg.parareal.coarse_tol, True)):
        calls.clear()
        counters = StepCounters()
        adaptive_integrate(
            problem, cfg.t_start, cfg.t_end, u_0, tol, counters, linearized=linearized
        )
        assert calls["jacobian"] == counters.nr_iterations
        counts.append((calls["rhs"], calls["jacobian"]))
    calls.clear()
    _, report = run_parareal(problem, cfg.t_start, cfg.t_end, u_0, cfg.parareal, n_workers=1)
    newton = report.nr_ghat + sum(report.nr_g_per_iter)
    newton += sum(map(sum, report.nr_f_per_window_per_iter))
    assert calls["jacobian"] == newton
    counts.append((calls["rhs"], calls["jacobian"]))
    # (rhs, Jacobian) calls: sequential fine solve, Ĝ, parareal at one worker
    assert counts == [(2264, 1152), (130, 129), (4591, 2441)]
