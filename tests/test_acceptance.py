"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The wall-clock speedup smoke test is marked ``speedup`` and is
excluded from default runs (it needs >= 8 hardware threads and tens of
seconds of compute).
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from parcoil import (
    CoilProblem,
    LinearTestProblem,
    PararealConfig,
    PararealReport,
    StepperTolerances,
    adaptive_integrate,
    axial_field,
    fixed_integrate,
    load_balance,
    max_possible_speedup,
    run_parareal,
    speedup,
    window_boundary_indices,
)
from parcoil.parareal import _fine_batches

TOL_PR = 10e-3  # 10 mK
FINE = StepperTolerances(tol_nr=1e-4, tol_t=1e-4, dt_init=0.1, dt_min=1e-9, dt_max=2.0)
COARSE = StepperTolerances(tol_nr=10e-3, tol_t=20e-3, dt_init=0.5, dt_min=1e-9, dt_max=2.0)
WINDOW_COUNTS = (8, 16, 24)


def check(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def coil():
    return CoilProblem()


@pytest.fixture(scope="module")
def fine_reference(coil):
    """Sequential fine run over the full interval at the default tolerances."""
    start = time.perf_counter()
    traj = adaptive_integrate(coil, 0.0, 200.0, coil.initial_state(), FINE)
    return traj, time.perf_counter() - start


@pytest.fixture(scope="module")
def coil_cells(coil):
    """Criterion-2 runs (single worker; used by criteria 2, 3, 6 and 10)."""
    cells = {}
    start = time.perf_counter()
    for n in WINDOW_COUNTS:
        cfg = PararealConfig(n_windows=n, tol_pr=TOL_PR, fine_tol=FINE, coarse_tol=COARSE)
        cells[n] = run_parareal(coil, 0.0, 200.0, coil.initial_state(), cfg, n_workers=1)
    return cells, time.perf_counter() - start


def chained_fine(problem, boundaries, tol):
    u = problem.initial_state()
    values = [u]
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        u = adaptive_integrate(problem, a, b, u, tol).terminal_state
        values.append(u)
    return values


def test_criterion_1_parareal_exactness():
    problem = LinearTestProblem(-1.0, (1.0,))
    fine = StepperTolerances(tol_nr=1e-8, tol_t=1e-4, dt_init=0.05, dt_min=1e-12, dt_max=0.25)
    coarse = StepperTolerances(tol_nr=1e-8, tol_t=5e-3, dt_init=0.1, dt_min=1e-12, dt_max=0.5)
    start = time.perf_counter()
    checked = mismatched = 0
    for k in range(1, 5):
        cfg = PararealConfig(
            n_windows=4, tol_pr=1e-30, fine_tol=fine, coarse_tol=coarse, k_max=k
        )
        traj, report = run_parareal(problem, 0.0, 1.0, problem.initial_state(), cfg, n_workers=1)
        oracle = chained_fine(problem, report.boundaries, fine)
        for j in range(1, k + 1):
            got = traj.states[traj.times.index(report.boundaries[j])]
            checked += 1
            mismatched += np.asarray(got).tobytes() != np.asarray(oracle[j]).tobytes()
    elapsed = time.perf_counter() - start
    check(
        "criterion 1 (parareal exactness, linear N=4)",
        mismatched == 0 and elapsed < 10.0,
        f"{mismatched} of {checked} boundaries differ bitwise from the chained fine solve, "
        f"runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_2_convergence_contract(coil_cells):
    cells, elapsed = coil_cells
    ks = {n: report.k_converged for n, (_, report) in cells.items()}
    errs = {n: report.err_per_iter[-1] for n, (_, report) in cells.items()}
    ok = all(report.converged for _, report in cells.values())
    ok = ok and all(k is not None and k <= 4 for k in ks.values())
    ok = ok and all(err < TOL_PR for err in errs.values())
    ok = ok and elapsed < 300.0
    detail = ", ".join(f"N={n}: K={ks[n]}, err={1e3 * errs[n]:.2f} mK" for n in WINDOW_COUNTS)
    check("criterion 2 (convergence contract)", ok, f"{detail}; runtime {elapsed:.1f}s < 300s")


def test_criterion_3_solution_accuracy(coil, coil_cells, fine_reference):
    cells, _ = coil_cells
    ref_traj, _ = fine_reference
    limit = TOL_PR + 2 * FINE.tol_t
    ref_terminal = coil.max_temperature(ref_traj.terminal_state)
    diffs = {
        n: abs(coil.max_temperature(traj.terminal_state) - ref_terminal)
        for n, (traj, _) in cells.items()
    }
    detail = ", ".join(f"N={n}: {1e3 * d:.4f} mK" for n, d in diffs.items())
    check(
        "criterion 3 (terminal accuracy vs sequential fine)",
        all(d < limit for d in diffs.values()),
        f"{detail}; limit {1e3 * limit:.1f} mK",
    )


def test_criterion_4_partitioning_property():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(300):
        n = int(rng.integers(1, 65))
        m = int(rng.integers(n, 6 * n + 40))
        idx = window_boundary_indices(m, n)
        oracle = [math.floor(Fraction(m * j, n)) for j in range(n + 1)]
        counts = np.diff(idx)
        ok = ok and idx == oracle
        ok = ok and idx[0] == 0 and idx[-1] == m
        ok = ok and bool(np.all(counts >= 1))
        ok = ok and set(counts.tolist()) <= {m // n, m // n + 1}
        if not ok:
            break
    check("criterion 4 (floor partitioning property)", ok, "300 random (M, N) cases")


def test_criterion_5_stepper_order():
    problem = LinearTestProblem(-1.0, (1.0,))
    start = time.perf_counter()
    errors = []
    for k in range(4, 9):
        grid = np.linspace(0.0, 1.0, 2**k + 1)
        traj = fixed_integrate(problem, grid, problem.initial_state())
        errors.append(abs(traj.terminal_state[0] - math.exp(-1.0)))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    elapsed = time.perf_counter() - start
    check(
        "criterion 5 (implicit Euler order)",
        all(abs(p - 1.0) <= 0.1 for p in orders) and elapsed < 5.0,
        f"observed orders {['%.3f' % p for p in orders]}, runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_6_forced_events(coil, coil_cells, fine_reference):
    ref_traj, _ = fine_reference
    cells, _ = coil_cells
    breakpoints = coil.ramp.breakpoint_times  # (50, 150, 200)
    interior = [t for t in breakpoints if 0.0 < t < 200.0]
    trajectories = [ref_traj] + [traj for traj, _ in cells.values()]
    ok = all(
        all(t in traj.times for t in interior) and traj.times[-1] == 200.0
        for traj in trajectories
    )
    check(
        "criterion 6 (forced ramp events land bitwise)",
        ok,
        f"breakpoints {interior} present in {len(trajectories)} adaptive trajectories",
    )


def test_criterion_7_field_delay(coil, fine_reference):
    ref_traj, _ = fine_reference
    b_z = np.array([axial_field(u, coil.params) for u in ref_traj.states])
    plateau = b_z.max()
    t_cross = ref_traj.times[np.argmax(b_z >= 0.95 * plateau)]
    plateau_start = coil.ramp.breakpoint_times[0]
    check(
        "criterion 7 (delayed axial field)",
        t_cross > plateau_start,
        f"B_z reaches 95% of plateau at t={t_cross:.2f}s > ramp plateau start {plateau_start}s",
    )


def test_criterion_8_tolerance_sensitivity(coil):
    tols_mk = (10.0, 1.0, 0.1)
    reference_mk = 0.01

    def run(mk):
        tol = StepperTolerances(
            tol_nr=1e-3 * mk, tol_t=1e-3 * mk, dt_init=0.1, dt_min=1e-9, dt_max=2.0
        )
        return adaptive_integrate(coil, 0.0, 200.0, coil.initial_state(), tol)

    ref = run(reference_mk)
    ref_t_max = np.asarray(ref.states)[:, 1]
    max_errs = []
    for mk in tols_mk:
        traj = run(mk)
        interp = np.interp(traj.times, ref.times, ref_t_max)
        max_errs.append(float(np.max(np.abs(np.asarray(traj.states)[:, 1] - interp))))
    ok = all(a >= b for a, b in zip(max_errs, max_errs[1:]))
    detail = ", ".join(
        f"{mk} mK -> {1e3 * err:.3f} mK" for mk, err in zip(tols_mk, max_errs)
    )
    check("criterion 8 (tolerance sensitivity non-increasing)", ok, detail)


def test_criterion_9_diagnostics_arithmetic():
    report = PararealReport(
        n_windows=2,
        m_coarse_steps=8,
        boundaries=np.array([0.0, 0.5, 1.0]),
        converged=True,
        k_converged=2,
        err_per_iter=[0.02, 0.001],
        time_ghat=0.5,
        time_g_per_window_per_iter=[[0.0, 0.0], [0.1, 0.2]],
        time_f_per_window_per_iter=[[1.0, 2.0], [3.0, 4.0]],
        total_wall=50.0,
        nr_ghat=12,
        nr_g_per_window_per_iter=[[0, 0], [3, 4]],
        nr_f_per_window_per_iter=[[5, 6], [7, 8]],
    )
    ok = load_balance(report) == 12 / 14
    ok = ok and max_possible_speedup(16, 2) == 8.0
    ok = ok and max_possible_speedup(8, 2) == 4.0
    ok = ok and max_possible_speedup(5, 5) == 1.0
    ok = ok and speedup(report, 100.0) == 2.0
    ok = ok and speedup(report, 100.0) * report.total_wall == 100.0
    check("criterion 9 (diagnostics arithmetic, exact)", ok)


def _report_fingerprint(traj, report):
    """Canonical bytes of every non-wall-clock result field."""
    parts = [
        np.asarray(traj.times).tobytes(),
        np.asarray(traj.states).tobytes(),
        np.asarray(report.boundaries).tobytes(),
        np.array(report.err_per_iter).tobytes(),
        repr(report.k_converged).encode(),
        repr(report.converged).encode(),
        repr(report.m_coarse_steps).encode(),
        repr(report.nr_ghat).encode(),
        repr(report.nr_g_per_window_per_iter).encode(),
        repr(report.nr_f_per_window_per_iter).encode(),
    ] + [np.asarray(u).tobytes() for u in report.boundary_states]
    return b"|".join(parts)


def test_criterion_10_worker_count_determinism(coil, coil_cells):
    cells, _ = coil_cells
    ok = True
    for n in WINDOW_COUNTS:
        cfg = PararealConfig(n_windows=n, tol_pr=TOL_PR, fine_tol=FINE, coarse_tol=COARSE)
        parallel = run_parareal(coil, 0.0, 200.0, coil.initial_state(), cfg, n_workers=n)
        ok = ok and _report_fingerprint(*cells[n]) == _report_fingerprint(*parallel)
    check(
        "criterion 10 (worker-count determinism)",
        ok,
        f"workers 1 vs N byte-identical for N in {WINDOW_COUNTS}",
    )


def test_batched_fine_loop_determinism(coil, coil_cells):
    """2 and 3 workers, several windows per batch, cost order unlike window order."""
    cells, _ = coil_cells
    ok = True
    for n in (8, 16):
        cfg = PararealConfig(n_windows=n, tol_pr=TOL_PR, fine_tol=FINE, coarse_tol=COARSE)
        for workers in (2, 3):
            run = run_parareal(coil, 0.0, 200.0, coil.initial_state(), cfg, n_workers=workers)
            batches = _fine_batches(run[1].nr_f_per_window_per_iter[0], workers)
            ok = ok and all(len(batch) > 1 for batch in batches)
            ok = ok and any(batch != sorted(batch) for batch in batches)
            ok = ok and _report_fingerprint(*cells[n]) == _report_fingerprint(*run)
    check(
        "batched fine loop (worker-count determinism)",
        ok,
        "workers 1 vs 2 and 3 byte-identical for N in (8, 16)",
    )


def test_more_workers_than_windows_determinism(coil, coil_cells):
    """More workers than windows: the group is capped at N - 1 forked workers."""
    cells, _ = coil_cells
    cfg = PararealConfig(n_windows=8, tol_pr=TOL_PR, fine_tol=FINE, coarse_tol=COARSE)
    run = run_parareal(coil, 0.0, 200.0, coil.initial_state(), cfg, n_workers=12)
    check(
        "more workers than windows (worker-count determinism)",
        _report_fingerprint(*cells[8]) == _report_fingerprint(*run),
        "workers 1 vs 12 byte-identical for N = 8",
    )


@pytest.mark.speedup
def test_criterion_11_speedup_smoke(coil):
    threads = os.cpu_count() or 1
    if threads < 8:
        pytest.skip(f"needs >= 8 hardware threads, found {threads}")

    # calibrate a deliberately expensive fine propagator: cap the step so
    # the sequential baseline lands near 40 s on this machine
    probe = StepperTolerances(tol_nr=1e-4, tol_t=1e-4, dt_init=0.01, dt_min=1e-9, dt_max=0.01)
    start = time.perf_counter()
    adaptive_integrate(coil, 0.0, 20.0, coil.initial_state(), probe)
    probe_wall = time.perf_counter() - start
    dt_max = min(0.01, max(probe_wall / 400.0, 1e-5))
    expensive = StepperTolerances(
        tol_nr=1e-4, tol_t=1e-4, dt_init=dt_max, dt_min=1e-9, dt_max=dt_max
    )

    start = time.perf_counter()
    adaptive_integrate(coil, 0.0, 200.0, coil.initial_state(), expensive)
    sequential_wall = time.perf_counter() - start
    cfg = PararealConfig(n_windows=16, tol_pr=TOL_PR, fine_tol=expensive, coarse_tol=COARSE)
    _, report = run_parareal(coil, 0.0, 200.0, coil.initial_state(), cfg, n_workers=16)
    actual = speedup(report, sequential_wall)
    check(
        "criterion 11 (speedup smoke test)",
        sequential_wall >= 30.0 and actual > 1.0,
        f"sequential {sequential_wall:.1f}s, parareal {report.total_wall:.1f}s, speedup {actual:.2f}",
    )
