"""Command-line front end: sequential runs, Parareal runs, and studies.

Every command reads one configuration file and writes UTF-8 CSV files
into the output directory.  Floats are serialized with 12 significant
digits, so re-running a command with the same configuration and worker
count reproduces all non-wall-clock columns byte-identically.

Exit codes: 0 success (and convergence), 1 configuration, usage or output
error, 2 partitioning/integration failure, 3 Parareal did not converge within
the iteration cap (outputs are still written), 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import os
import sys
from functools import partial

from .config import ConfigError, RunConfig, load_run_config, make_problem, run_id
from .diagnostics import (
    PararealReport,
    load_balance,
    max_possible_speedup,
    max_temperature_deviation,
    speedup,
)
from .parareal import PartitionError, _propagate, run_parareal
from .problem import Problem, Trajectory
from .stepper import IntegrationFailed, StepperTolerances, adaptive_integrate

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return "" if value is None else str(value)


@contextlib.contextmanager
def _output(path: str):
    """``path`` opened for a UTF-8 CSV; an ``OSError`` becomes a :class:`ConfigError` (exit 1)."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def _write_csv(path: str, rows: list[dict]) -> None:
    """Write ``{column: value}`` rows under the first row's keys."""
    with _output(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(list(rows[0]))
        for row in rows:
            writer.writerow([_fmt(v) for v in row.values()])


def _trajectory_rows(problem: Problem, times, states) -> str:
    """The ``trajectory.csv`` rows of these points, built column by column, one ``%.12g`` format per row.

    Every cell must be a number: unlike :func:`_fmt`, the row format writes
    no empty cell for None and raises ``TypeError``.  Each row is formatted
    on its own, so the rows of consecutive slices join to those of the whole.
    """
    derived = problem.derived_columns()
    extra = ([fn(t, u) for t, u in zip(times, states)] for _, fn in derived)
    columns = zip(times, *zip(*states), map(problem.max_temperature, states), *extra)
    line = ",".join(["%.12g"] * (len(problem.component_names) + 2 + len(derived))) + "\r\n"
    return "".join([line % row for row in columns])


def _write_trajectory_csv(path: str, problem: Problem, rows: str) -> None:
    """Write the header and the ``rows`` text (:func:`_trajectory_rows`) of ``trajectory.csv``.

    The callers build the text before the file is opened, so a row that
    cannot be formatted writes no file.
    """
    names = (name for name, _ in problem.derived_columns())
    with _output(path) as handle:
        csv.writer(handle).writerow(["time_s", *problem.component_names, "T_max_K", *names])
        handle.write(rows)


def _sequential_fine_run(context: str, problem: Problem, cfg: RunConfig, tol: StepperTolerances):
    return _propagate(
        context, adaptive_integrate, problem, cfg.t_start, cfg.t_end, problem.initial_state(), tol
    )


def cmd_sequential(problem: Problem, cfg: RunConfig, rid: str, args) -> int:
    context = "sequential fine solve failed"
    traj, counters, wall = _sequential_fine_run(context, problem, cfg, cfg.parareal.fine_tol)
    rows = _trajectory_rows(problem, traj.times, traj.states)
    _write_trajectory_csv(os.path.join(cfg.out_dir, "trajectory.csv"), problem, rows)
    row = {
        "run_id": rid,
        "wall_s": wall,
        "steps": len(traj.times) - 1,
        "nr_iterations": counters.nr_iterations,
        "steps_rejected": counters.steps_rejected,
    }
    _write_csv(os.path.join(cfg.out_dir, "sequential_summary.csv"), [row])
    print(
        f"sequential: wall={wall:.3f} s, steps={len(traj.times) - 1}, "
        f"nr_iterations={counters.nr_iterations}, steps_rejected={counters.steps_rejected}"
    )
    return 0


def _report_rows(report: PararealReport, rid: str) -> list[dict]:
    """``report.csv``: one row per (iteration, window)."""
    rows = []
    bounds = report.boundaries
    for k in range(report.iterations_run):
        for j in range(report.n_windows):
            nr_fine = report.nr_f_per_window_per_iter[k][j]
            nr_coarse = report.nr_g_per_window_per_iter[k][j]
            rows.append(
                {
                    "run_id": rid,
                    "N": report.n_windows,
                    "k": k + 1,
                    "j": j + 1,
                    "t_start_s": bounds[j],
                    "t_end_s": bounds[j + 1],
                    "fine_wall_s": report.time_f_per_window_per_iter[k][j],
                    "coarse_wall_s": report.time_g_per_window_per_iter[k][j],
                    "nr_iters": nr_fine + nr_coarse,
                    "nr_fine": nr_fine,
                    "nr_coarse": nr_coarse,
                    "fine_tol_t_mK": 1e3 * report.fine_tol_t_per_iter[k],
                    "fine_steps_rejected": report.rejected_f_per_window_per_iter[k][j],
                    "fine_steps": report.accepted_f_per_window_per_iter[k][j],
                }
            )
    return rows


def _summary_rows(
    problem: Problem, traj: Trajectory, report: PararealReport, rid: str, baseline
) -> list[dict]:
    """``summary.csv``: one row per iteration.

    ``baseline`` is the sequential run's ``(trajectory, wall)``, or None;
    without it the four baseline columns are empty.  The deviations are
    the largest |ΔT_max| (mK) from the baseline, and at the window boundaries.
    """
    lb = load_balance(report)
    n_over_k = max_possible_speedup(report.n_windows, report.k_converged) if report.converged else None
    baseline_wall = speed = max_dev = boundary_dev = None
    if baseline is not None:
        baseline_traj, baseline_wall = baseline
        speed = speedup(report, baseline_wall)
        deviation, at_boundaries = max_temperature_deviation(
            traj, baseline_traj, problem, report.boundaries
        )
        max_dev, boundary_dev = 1e3 * max(deviation), 1e3 * at_boundaries
    return [
        {
            "run_id": rid,
            "N": report.n_windows,
            "K": report.k_converged,
            "k": k,
            "err_mK": 1e3 * err,
            "load_balance": lb,
            "n_over_k": n_over_k,
            "baseline_wall_s": baseline_wall,
            "speedup": speed,
            "nr_ghat": report.nr_ghat,
            "ghat_steps": report.m_coarse_steps,
            "ghat_steps_rejected": report.ghat_steps_rejected,
            "max_dev_mK": max_dev,
            "boundary_dev_mK": boundary_dev,
            "loop_open_wall_s": report.time_loop_open,
            "loop_close_wall_s": report.time_loop_close,
        }
        for k, err in enumerate(report.err_per_iter, start=1)
    ]


def cmd_parareal(problem: Problem, cfg: RunConfig, rid: str, args) -> int:
    baseline = None
    if args.with_baseline:
        context = "sequential baseline failed"
        traj, _, wall = _sequential_fine_run(context, problem, cfg, cfg.parareal.fine_tol)
        baseline = traj, wall

    # each fine-loop process formats the rows of the windows it last solved
    traj, report = run_parareal(
        problem,
        cfg.t_start,
        cfg.t_end,
        problem.initial_state(),
        cfg.parareal,
        cfg.workers,
        format_rows=partial(_trajectory_rows, problem),
    )
    path = os.path.join(cfg.out_dir, "trajectory.csv")
    _write_trajectory_csv(path, problem, report.trajectory_rows)
    _write_csv(os.path.join(cfg.out_dir, "report.csv"), _report_rows(report, rid))
    summary = _summary_rows(problem, traj, report, rid, baseline)
    _write_csv(os.path.join(cfg.out_dir, "summary.csv"), summary)

    if report.converged:
        print(
            f"parareal: converged after K={report.k_converged} iterations, "
            f"err={1e3 * report.err_per_iter[-1]:.6g} mK, nr_ghat={report.nr_ghat}, "
            f"processes={report.processes}, wall={report.total_wall:.3f} s"
        )
        return 0
    print(
        f"parareal: NOT converged within k_max={cfg.parareal.k_max} iterations "
        f"(last err={1e3 * report.err_per_iter[-1]:.6g} mK, nr_ghat={report.nr_ghat}); "
        "outputs written",
        file=sys.stderr,
    )
    return 3


# The summary.csv columns a study cell takes from its run's last row, and the
# three that study_table.csv names differently.
_STUDY_COLUMNS = ("K", "err_mK", "n_over_k", "speedup", "max_dev_mK", "boundary_dev_mK")
_STUDY_RENAMES = {"err_mK": "err_K_mK", "n_over_k": "max_speedup", "speedup": "actual_speedup"}


def _study_row(
    problem: Problem, cfg: RunConfig, rid: str, n_windows: int, tol_mk, baseline
) -> dict:
    """One ``study_table.csv`` cell; a cell whose run fails leaves its result columns empty."""
    tol, baseline_traj, baseline_wall = baseline
    pr_cfg = dataclasses.replace(cfg.parareal, n_windows=n_windows, fine_tol=tol)
    last = {}
    try:
        traj, report = run_parareal(
            problem, cfg.t_start, cfg.t_end, problem.initial_state(), pr_cfg, cfg.workers
        )
    except PartitionError:
        status = "partition_error"
    except IntegrationFailed:
        status = "integration_failed"
    else:
        status = "converged" if report.converged else "not_converged"
        last = _summary_rows(problem, traj, report, rid, (baseline_traj, baseline_wall))[-1]
    results = {_STUDY_RENAMES.get(c, c): last.get(c) for c in _STUDY_COLUMNS}
    return {"run_id": rid, "N": n_windows, "fine_tol_mK": tol_mk, **results, "status": status}


def cmd_study(problem: Problem, cfg: RunConfig, rid: str, args) -> int:
    # One sequential baseline per fine tolerance (reference and speedup denominator).
    baselines = {}
    for tol_mk in cfg.fine_tol_mk_list:
        tol = dataclasses.replace(
            cfg.parareal.fine_tol, tol_nr=1e-3 * tol_mk, tol_t=1e-3 * tol_mk
        )
        context = f"sequential baseline at fine tolerance {tol_mk:g} mK failed"
        traj, _, wall = _sequential_fine_run(context, problem, cfg, tol)
        baselines[tol_mk] = (tol, traj, wall)

    ref_traj = baselines[min(cfg.fine_tol_mk_list)][1]
    error_rows = []
    for tol_mk in cfg.fine_tol_mk_list:
        traj = baselines[tol_mk][1]
        # the reference interpolated onto this run's own times
        errs = max_temperature_deviation(ref_traj, traj, problem)[0]
        error_rows += [
            {"run_id": rid, "fine_tol_mK": tol_mk, "time_s": t, "abs_err_mK": 1e3 * err}
            for t, err in zip(traj.times, errs)
        ]
    _write_csv(os.path.join(cfg.out_dir, "study_errors.csv"), error_rows)

    table_rows = [
        _study_row(problem, cfg, rid, n_windows, tol_mk, baselines[tol_mk])
        for n_windows in cfg.n_windows_list
        for tol_mk in cfg.fine_tol_mk_list
    ]
    _write_csv(os.path.join(cfg.out_dir, "study_table.csv"), table_rows)
    print(f"study: wrote {len(table_rows)} cells to {cfg.out_dir}/study_table.csv")
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise :class:`ConfigError` (exit 1), not exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    return parser


_COMMANDS = {"sequential": cmd_sequential, "parareal": cmd_parareal, "study": cmd_study}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_run_config(args.config)
        if args.out is not None:
            if not args.out:
                raise ConfigError("--out must not be empty")
            cfg = dataclasses.replace(cfg, out_dir=args.out)
        if args.workers is not None:
            if args.workers < 1:
                raise ConfigError("--workers must be >= 1")
            cfg = dataclasses.replace(cfg, workers=args.workers)
        if args.command == "study" and not (cfg.n_windows_list and cfg.fine_tol_mk_list):
            raise ConfigError("study mode needs non-empty n_windows_list and fine_tol_mk_list")
        try:
            os.makedirs(cfg.out_dir, exist_ok=True)
        except OSError as exc:
            message = f"cannot create output directory {cfg.out_dir}: {exc.strerror}"
            raise ConfigError(message) from None
        return _COMMANDS[args.command](make_problem(cfg), cfg, run_id(cfg), args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PartitionError, IntegrationFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
