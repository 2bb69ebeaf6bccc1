"""Deterministic work counts and the critical-path speedup model.

The model charges every propagator its Newton iterations and assumes
unlimited workers, after Gander & Vandewalle (SIAM J. Sci. Comput. 29(2),
2007): the adaptive coarse pass and each coarse sweep are sequential,
the fine solves of one iteration run side by side, so an iteration costs
its sweep plus its slowest fine window.
"""

from __future__ import annotations


def critical_path_newton(report) -> int:
    """Ĝ + Σ_k (Σ_j sweep_kj + max_j fine_kj), in Newton iterations."""
    return report.nr_ghat + sum(
        sum(sweep) + max(fine)
        for sweep, fine in zip(report.nr_g_per_window_per_iter, report.nr_f_per_window_per_iter)
    )


def total_newton(report) -> int:
    """Newton iterations over all propagator calls of one parareal run."""
    return (
        report.nr_ghat
        + sum(map(sum, report.nr_g_per_window_per_iter))
        + sum(map(sum, report.nr_f_per_window_per_iter))
    )


def modelled_speedup(report, sequential_newton: int) -> float:
    """Sequential Newton iterations over the critical-path Newton iterations."""
    return sequential_newton / critical_path_newton(report)


def tol_margin(report, tol_pr: float) -> float:
    """min_k |err_k - tol_pr| / tol_pr: how close an iteration came to flipping K."""
    return min(abs(err - tol_pr) for err in report.err_per_iter) / tol_pr


def load_balance_newton(report) -> float:
    """min/max over windows of the fine Newton iterations summed over iterations."""
    per_window = [sum(col) for col in zip(*report.nr_f_per_window_per_iter)]
    return min(per_window) / max(per_window)


def step_totals(spans) -> dict[str, int]:
    """Newton iterations and accepted/rejected steps summed over propagator spans."""
    return {
        "newton": sum(s.info[0] for s in spans),
        "accepted": sum(s.info[1] for s in spans),
        "rejected": sum(s.info[2] for s in spans),
    }


def count_record(sequential: dict[str, int], report, cfg, propagator_spans) -> dict:
    """Every deterministic count of one scenario, for the exact-repeat check.

    ``propagator_spans`` are the adaptive and fixed-grid propagator calls of
    one parareal run made at one worker, so every call is visible in-process.
    """
    adaptive = [s for s in propagator_spans if s.name == "stepper.adaptive_integrate"]
    ghat = [s for s in adaptive if s.info[3] == cfg.coarse_tol]
    fine = [s for s in adaptive if s.info[3] != cfg.coarse_tol]
    sweeps = [s for s in propagator_spans if s.name == "stepper.fixed_integrate"]
    record = {
        "sequential": sequential,
        "ghat": step_totals(ghat),
        "sweeps": step_totals(sweeps),
        "fine": step_totals(fine),
        "sweep_newton_per_iter": report.nr_g_per_iter,
        "fine_newton_per_iter": [sum(row) for row in report.nr_f_per_window_per_iter],
        "iterations": report.iterations_run,
        "converged": report.converged,
        "coarse_steps": report.m_coarse_steps,
        "window_solves": len(fine),
        "critical_path_newton": critical_path_newton(report),
        "modelled_speedup": modelled_speedup(report, sequential["newton"]),
        "err_per_iter_mk": [1e3 * err for err in report.err_per_iter],
        "tol_margin": tol_margin(report, cfg.tol_pr),
    }
    if record["ghat"]["newton"] != report.nr_ghat or record["fine"]["newton"] != sum(
        record["fine_newton_per_iter"]
    ):
        raise ValueError("traced propagator counts disagree with the parareal report")
    return record
