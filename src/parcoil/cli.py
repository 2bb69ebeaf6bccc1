"""Command-line front end: sequential runs, Parareal runs, and studies.

Every command reads one configuration file and writes UTF-8 CSV files
into the output directory.  Floats are serialized with 12 significant
digits, so re-running a command with the same configuration and worker
count reproduces all non-wall-clock columns byte-identically.

Exit codes: 0 success (and convergence), 1 configuration error,
2 partitioning/integration failure, 3 Parareal did not converge within
the iteration cap (outputs are still written), 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys
import time

import numpy as np

from .config import ConfigError, RunConfig, load_run_config, make_problem, run_id
from .diagnostics import (
    PararealReport,
    cumulative_fine_times,
    load_balance,
    max_possible_speedup,
    speedup,
)
from .parareal import PartitionError, run_parareal
from .problem import Problem, Trajectory
from .stepper import IntegrationFailed, StepCounters, StepperTolerances, adaptive_integrate

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return "" if value is None else str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_trajectory_csv(path: str, problem: Problem, traj: Trajectory) -> None:
    derived = problem.derived_columns()
    header = ["time_s", *problem.component_names, "T_max_K", *(name for name, _ in derived)]
    rows = []
    for i in range(traj.n_points):
        t = float(traj.times[i])
        state = traj.state(i)
        row = [t, *(float(v) for v in state), problem.max_temperature(state)]
        rows.append(row + [fn(t, state) for _, fn in derived])
    _write_csv(path, header, rows)


def _sequential_fine_run(problem: Problem, cfg: RunConfig, tol: StepperTolerances):
    counters = StepCounters()
    start = time.perf_counter()
    traj = adaptive_integrate(
        problem, cfg.t_start, cfg.t_end, problem.initial_state(), tol, counters
    )
    wall = time.perf_counter() - start
    return traj, wall, counters


def cmd_sequential(cfg: RunConfig, args) -> int:
    problem = make_problem(cfg)
    rid = run_id(cfg)
    traj, wall, counters = _sequential_fine_run(problem, cfg, cfg.parareal.fine_tol)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_trajectory_csv(os.path.join(cfg.out_dir, "trajectory.csv"), problem, traj)
    _write_csv(
        os.path.join(cfg.out_dir, "sequential_summary.csv"),
        ["run_id", "wall_s", "steps", "nr_iterations"],
        [[rid, wall, traj.n_points - 1, counters.nr_iterations]],
    )
    print(
        f"sequential: wall={wall:.3f} s, steps={traj.n_points - 1}, "
        f"nr_iterations={counters.nr_iterations}"
    )
    return 0


def _write_report_csv(path: str, report: PararealReport, rid: str) -> None:
    header = [
        "run_id",
        "N",
        "k",
        "j",
        "t_start_s",
        "t_end_s",
        "fine_wall_s",
        "coarse_wall_s",
        "nr_iters",
    ]
    rows = []
    bounds = report.boundaries
    for k in range(report.iterations_run):
        for j in range(report.n_windows):
            rows.append(
                [
                    rid,
                    report.n_windows,
                    k + 1,
                    j + 1,
                    float(bounds[j]),
                    float(bounds[j + 1]),
                    report.time_f_per_window_per_iter[k][j],
                    report.time_g_per_window_per_iter[k][j],
                    report.nr_f_per_window_per_iter[k][j]
                    + report.nr_g_per_window_per_iter[k][j],
                ]
            )
    _write_csv(path, header, rows)


def _write_summary_csv(path: str, report: PararealReport, rid: str, baseline_wall=None) -> None:
    header = [
        "run_id",
        "N",
        "K",
        "k",
        "err_mK",
        "load_balance",
        "n_over_k",
        "baseline_wall_s",
        "speedup",
    ]
    lb = load_balance(cumulative_fine_times(report))
    n_over_k = max_possible_speedup(report.n_windows, report.k_converged) if report.converged else None
    speed = speedup(report, baseline_wall) if baseline_wall is not None else None
    rows = []
    for k, err in enumerate(report.err_per_iter, start=1):
        rows.append(
            [rid, report.n_windows, report.k_converged, k, 1e3 * err, lb, n_over_k, baseline_wall, speed]
        )
    _write_csv(path, header, rows)


def cmd_parareal(cfg: RunConfig, args) -> int:
    baseline_wall = args.baseline_wall
    if baseline_wall is not None and not 0.0 < baseline_wall < math.inf:
        raise ConfigError(f"--baseline-wall must be positive and finite, got {baseline_wall}")
    problem = make_problem(cfg)
    rid = run_id(cfg)
    if args.with_baseline:
        _, baseline_wall, _ = _sequential_fine_run(problem, cfg, cfg.parareal.fine_tol)

    traj, report = run_parareal(
        problem, cfg.t_start, cfg.t_end, problem.initial_state(), cfg.parareal, cfg.workers
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_trajectory_csv(os.path.join(cfg.out_dir, "trajectory.csv"), problem, traj)
    _write_report_csv(os.path.join(cfg.out_dir, "report.csv"), report, rid)
    _write_summary_csv(os.path.join(cfg.out_dir, "summary.csv"), report, rid, baseline_wall)

    if report.converged:
        print(
            f"parareal: converged after K={report.k_converged} iterations, "
            f"err={1e3 * report.err_per_iter[-1]:.6g} mK, wall={report.total_wall:.3f} s"
        )
        return 0
    print(
        f"parareal: NOT converged within k_max={cfg.parareal.k_max} iterations "
        f"(last err={1e3 * report.err_per_iter[-1]:.6g} mK); outputs written",
        file=sys.stderr,
    )
    return 3


def _interp_abs_error_mk(traj: Trajectory, ref: Trajectory, problem: Problem) -> np.ndarray:
    t_max = np.array([problem.max_temperature(traj.state(i)) for i in range(traj.n_points)])
    ref_t_max = np.array([problem.max_temperature(ref.state(i)) for i in range(ref.n_points)])
    ref_on_grid = np.interp(traj.times, ref.times, ref_t_max)
    return 1e3 * np.abs(t_max - ref_on_grid)


def cmd_study(cfg: RunConfig, args) -> int:
    if not cfg.n_windows_list or not cfg.fine_tol_mk_list:
        raise ConfigError("study mode needs non-empty n_windows_list and fine_tol_mk_list")
    problem = make_problem(cfg)
    rid = run_id(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)

    # One sequential baseline per fine tolerance (reference and speedup denominator).
    baselines = {}
    for tol_mk in cfg.fine_tol_mk_list:
        tol = dataclasses.replace(
            cfg.parareal.fine_tol, tol_nr=1e-3 * tol_mk, tol_t=1e-3 * tol_mk
        )
        traj, wall, _ = _sequential_fine_run(problem, cfg, tol)
        baselines[tol_mk] = (tol, traj, wall)

    ref_traj = baselines[min(cfg.fine_tol_mk_list)][1]
    error_rows = []
    for tol_mk in cfg.fine_tol_mk_list:
        traj = baselines[tol_mk][1]
        errs = _interp_abs_error_mk(traj, ref_traj, problem)
        for t, err in zip(traj.times, errs):
            error_rows.append([rid, tol_mk, float(t), float(err)])
    _write_csv(
        os.path.join(cfg.out_dir, "study_errors.csv"),
        ["run_id", "fine_tol_mK", "time_s", "abs_err_mK"],
        error_rows,
    )

    table_rows = []
    for n_windows in cfg.n_windows_list:
        for tol_mk in cfg.fine_tol_mk_list:
            tol, _, baseline_wall = baselines[tol_mk]
            pr_cfg = dataclasses.replace(cfg.parareal, n_windows=n_windows, fine_tol=tol)
            row = [rid, n_windows, tol_mk, None, None, None, None]
            try:
                _, report = run_parareal(
                    problem, cfg.t_start, cfg.t_end, problem.initial_state(), pr_cfg, cfg.workers
                )
            except PartitionError:
                row.append("partition_error")
            except IntegrationFailed:
                row.append("integration_failed")
            else:
                row[4] = 1e3 * report.err_per_iter[-1]
                row[6] = speedup(report, baseline_wall)
                if report.converged:
                    row[3] = report.k_converged
                    row[5] = max_possible_speedup(n_windows, report.k_converged)
                    row.append("converged")
                else:
                    row.append("not_converged")
            table_rows.append(row)
    _write_csv(
        os.path.join(cfg.out_dir, "study_table.csv"),
        ["run_id", "N", "fine_tol_mK", "K", "err_K_mK", "max_speedup", "actual_speedup", "status"],
        table_rows,
    )
    print(f"study: wrote {len(table_rows)} cells to {cfg.out_dir}/study_table.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parcoil",
        description="Parallel-in-time integration with automatic time-window partitioning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "sequential": "run the adaptive fine propagator once over the whole interval",
        "parareal": "run the parallel-in-time iteration",
        "study": "sweep window counts and fine tolerances (Cartesian product)",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the run configuration file")
        cmd.add_argument("--out", help="output directory (overrides the config)")
        cmd.add_argument("--workers", type=int, help="worker count for the fine loop")
        if name == "parareal":
            cmd.add_argument(
                "--with-baseline",
                action="store_true",
                help="co-execute a sequential fine baseline to report the actual speedup",
            )
            cmd.add_argument(
                "--baseline-wall",
                type=float,
                help="externally measured sequential wall time (s) for the speedup column",
            )
    return parser


_COMMANDS = {"sequential": cmd_sequential, "parareal": cmd_parareal, "study": cmd_study}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out_dir=args.out)
        if args.workers is not None:
            if args.workers < 1:
                raise ConfigError("--workers must be >= 1")
            cfg = dataclasses.replace(cfg, workers=args.workers)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PartitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
