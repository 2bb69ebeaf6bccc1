import contextlib
import csv
import errno
import math
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parcoil import (
    CoilProblem,
    LinearTestProblem,
    StepperTolerances,
    Trajectory,
    adaptive_integrate,
    cli,
    load_run_config,
    make_problem,
    parareal,
    window_boundary_indices,
)
from parcoil.cli import main

from conftest import ALLOWED_CPUS, lowest_cpus

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_COIL_CFG = os.path.join(REPO_ROOT, "configs", "ni_coil.cfg")
SHIPPED_LINEAR_CFG = os.path.join(REPO_ROOT, "configs", "linear_test.cfg")
SRC = os.path.join(REPO_ROOT, "src")

LINEAR_CFG = textwrap.dedent(
    """
    [run]
    problem = linear_test
    t_start = 0.0
    t_end = 1.0

    [linear_test]
    rate = -1.0
    initial = 1.0

    [parareal]
    n_windows = 4
    tol_pr_mk = 0.001

    [fine]
    tol_nr_mk = 1e-5
    tol_t_mk = 0.1
    dt_init = 0.05
    dt_min = 1e-12
    dt_max = 0.25

    [coarse]
    tol_nr_mk = 1e-5
    tol_t_mk = 5
    dt_init = 0.1
    dt_min = 1e-12
    dt_max = 0.5
    """
)

LINEAR3_CFG = LINEAR_CFG.replace("initial = 1.0", "initial = 1.0, 2.0, 3.0")

# the shipped coil at the benchmark's quench-fine size: N 16, fine tolerances 0.01 mK
QUENCH_FINE_CFG = (
    pathlib.Path(SHIPPED_COIL_CFG)
    .read_text(encoding="utf-8")
    .replace("n_windows = 8", "n_windows = 16")
    .replace("tol_nr_mk = 0.1 ", "tol_nr_mk = 0.01 ")
    .replace("tol_t_mk = 0.1 ", "tol_t_mk = 0.01 ")
)

DEGENERATE_CFG = textwrap.dedent(
    """
    [run]
    problem = linear_test
    t_end = 1.0

    [linear_test]
    rate = 0.0
    initial = 1.0, 2.0

    [parareal]
    n_windows = 4
    tol_pr_mk = 1e-5

    [fine]
    tol_nr_mk = 1e-3
    tol_t_mk = 1e-3
    dt_init = 0.25
    dt_min = 1e-12
    dt_max = 0.25

    [coarse]
    tol_nr_mk = 1e-3
    tol_t_mk = 1e-3
    dt_init = 0.25
    dt_min = 1e-12
    dt_max = 0.25
    """
)


# the column lists of README's Outputs section
REPORT_COLUMNS = [
    "run_id",
    "N",
    "k",
    "j",
    "t_start_s",
    "t_end_s",
    "fine_wall_s",
    "coarse_wall_s",
    "nr_iters",
    "nr_fine",
    "nr_coarse",
    "fine_tol_t_mK",
    "fine_steps_rejected",
    "fine_steps",
]
SUMMARY_COLUMNS = [
    "run_id",
    "N",
    "K",
    "k",
    "err_mK",
    "load_balance",
    "n_over_k",
    "baseline_wall_s",
    "speedup",
    "nr_ghat",
    "ghat_steps",
    "ghat_steps_rejected",
    "max_dev_mK",
    "boundary_dev_mK",
    "loop_open_wall_s",
    "loop_close_wall_s",
]


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def log_fine_loop(monkeypatch):
    """Record, for the in-process runs after this call, each fine solve and each rows reply.

    Returns two lists that fill as they run: per F call, the process of
    each window's last solve (0 this one, i worker i) with the windows the
    call re-solved (True) or skipped; per worker asked for rows, the
    length of the text it sent.
    """
    solves, replies = [], []
    solve, read = parareal._FineLoop.solve, parareal._FineLoop._replies

    def logged_solve(self, *args):
        rows = solve(self, *args)
        solves.append((list(self.owners), [nr > 0 for nr in rows[0]]))
        return rows

    def logged_replies(self, asked, k=None):
        got = read(self, asked, k)
        if k is None:
            replies.extend(sum(len(text) for _, text in texts) for texts in got)
        return got

    monkeypatch.setattr(parareal._FineLoop, "solve", logged_solve)
    monkeypatch.setattr(parareal._FineLoop, "_replies", logged_replies)
    return solves, replies


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def assert_coil_rows(header, rows):
    """Full coil trajectory rows, whose T_max_K is the T_K component written by the same format."""
    assert rows and all(len(row) == len(header) for row in rows)
    t_k, t_max = header.index("T_K"), header.index("T_max_K")
    assert all(row[t_max] == row[t_k] for row in rows)


class Doubled(LinearTestProblem):
    """Linear decay with one derived output column."""

    def derived_columns(self):
        return (("twice_u_0", lambda t, u: 2.0 * u[0]),)


class NanAt(LinearTestProblem):
    """Linear decay whose rhs is NaN at one time and state, and nowhere else."""

    def __init__(self, t_bad, u_bad):
        super().__init__(-1.0, (1.0,))
        self.bad = (float(t_bad), tuple(map(float, u_bad)))

    def rhs(self, t, u):
        if (t, tuple(u)) == self.bad:
            return (math.nan,)
        return super().rhs(t, u)


class TestConfigErrors:
    @pytest.mark.parametrize(
        "is_dir, reason",
        [(False, "No such file or directory"), (True, "Is a directory")],
        ids=["missing", "directory"],
    )
    def test_config_that_cannot_be_opened_names_path(self, tmp_path, capsys, is_dir, reason):
        path = tmp_path / "run.cfg"
        if is_dir:
            path.mkdir()
        assert main(["sequential", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: cannot read {path}: {reason}"
        assert not (tmp_path / "o").exists()

    def test_config_that_is_not_utf8_names_path(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        with open(SHIPPED_LINEAR_CFG, "rb") as shipped:
            path.write_bytes(shipped.read() + b"# caf\xe9\n")
        assert main(["sequential", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xe9")
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(os.geteuid() == 0, reason="root reads a file without read permission")
    def test_unreadable_config_names_path(self, tmp_path, capsys):
        path = tmp_path / "unreadable.cfg"
        with open(SHIPPED_LINEAR_CFG, "rb") as shipped:
            path.write_bytes(shipped.read())
        path.chmod(0)
        assert main(["sequential", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: cannot read {path}: Permission denied"

    def test_unknown_problem(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[run]\nproblem = wat\nt_end = 1.0\n")
        assert main(["sequential", "--config", cfg]) == 1
        assert "wat" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "points, message",
        [
            ("5;3", "ramp point '5;3' is not 'time_s:current_A'"),
            ("50:140, 40:140, 200:0", "ramp breakpoint times must be strictly increasing and > 0"),
        ],
        ids=["not_a_pair", "times_not_increasing"],
    )
    def test_bad_ramp_point(self, tmp_path, capsys, points, message):
        text = f"[run]\nproblem = ni_coil\nt_end = 1.0\n[ramp]\npoints = {points}\n"
        assert main(["sequential", "--config", write_cfg(tmp_path, text)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: {message}"

    def test_unknown_coil_key(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "[run]\nproblem = ni_coil\nt_end = 1.0\n[coil]\nbogus = 1\n"
        )
        assert main(["sequential", "--config", cfg]) == 1


class TestUsageErrors:
    """Command-line mistakes are configuration errors: exit 1, never argparse's 2."""

    LINEAR = SHIPPED_LINEAR_CFG

    def assert_usage_error(self, argv, capsys, text):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and text in err

    def test_non_integer_workers(self, capsys):
        argv = ["parareal", "--config", self.LINEAR, "--workers", "abc"]
        self.assert_usage_error(argv, capsys, "invalid int value: 'abc'")

    def test_missing_config(self, capsys):
        self.assert_usage_error(["parareal"], capsys, "--config")

    def test_missing_subcommand(self, capsys):
        self.assert_usage_error([], capsys, "command")

    def test_unknown_flag(self, capsys):
        argv = ["sequential", "--config", self.LINEAR, "--bogus"]
        self.assert_usage_error(argv, capsys, "--bogus")

    def test_baseline_wall_is_an_unknown_flag(self, tmp_path, capsys):
        # the speedup's denominator is measured by --with-baseline, never typed in
        out = tmp_path / "out"
        argv = ["parareal", "--config", self.LINEAR, "--out", str(out), "--baseline-wall", "2.5"]
        self.assert_usage_error(argv, capsys, "unrecognized arguments: --baseline-wall 2.5")
        assert not out.exists()

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["parareal", "--help"])
        assert exit_info.value.code == 0
        assert "--with-baseline" in capsys.readouterr().out


def never_called(*args, **kwargs):
    raise AssertionError("a solve started before the output directory existed")


class TestOutputDirectory:
    """An output directory that cannot be created is a configuration error, before any solve."""

    @pytest.mark.parametrize("below_a_file", [False, True], ids=["file", "below_a_file"])
    @pytest.mark.parametrize("command", ["sequential", "parareal", "study"])
    def test_uncreatable_out_dir_exits_1(
        self, tmp_path, monkeypatch, capsys, command, below_a_file
    ):
        monkeypatch.setattr(cli, "adaptive_integrate", never_called)
        monkeypatch.setattr(cli, "run_parareal", never_called)
        taken = tmp_path / "taken"
        taken.write_text("a regular file\n")
        out = str(taken / "sub" if below_a_file else taken)
        assert main([command, "--config", SHIPPED_COIL_CFG, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {out}: ")
        assert "Traceback" not in err
        assert taken.read_text() == "a regular file\n"


class TestOutputFiles:
    """An output file that cannot be written is one error line and exit 1, not a traceback."""

    FIRST_OUTPUT = {
        "sequential": "trajectory.csv",
        "parareal": "trajectory.csv",
        "study": "study_errors.csv",
    }

    @pytest.mark.parametrize("command", list(FIRST_OUTPUT))
    def test_directory_in_place_of_the_first_output_exits_1(self, tmp_path, capsys, command):
        first = self.FIRST_OUTPUT[command]
        text = LINEAR_CFG + "\n[study]\nn_windows_list = 4\nfine_tol_mk_list = 0.1\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        (out / first).mkdir(parents=True)
        assert main([command, "--config", cfg, "--out", str(out), "--workers", "1"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: cannot write {out / first}: Is a directory"
        assert os.listdir(out) == [first]


class TestSequential:
    @pytest.mark.parametrize(
        "text, initial",
        [(LINEAR_CFG, (1.0,)), (LINEAR3_CFG, (1.0, 2.0, 3.0))],
        ids=["one_component", "three_components"],
    )
    def test_linear_terminal_value(self, tmp_path, text, initial):
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["sequential", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "trajectory.csv"))
        assert header == ["time_s", *(f"u_{i}" for i in range(len(initial))), "T_max_K"]
        assert float(rows[-1][0]) == 1.0
        for u_0, cell in zip(initial, rows[-1][1:]):
            assert abs(float(cell) - u_0 * math.exp(-1.0)) < 5e-3 * u_0

    def test_summary_file_and_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        out = str(tmp_path / "out")
        assert main(["sequential", "--config", cfg, "--out", out]) == 0
        assert "sequential:" in capsys.readouterr().out
        header, rows = read_csv(os.path.join(out, "sequential_summary.csv"))
        assert header == ["run_id", "wall_s", "steps", "nr_iterations", "steps_rejected"]
        assert int(rows[0][2]) > 0
        assert int(rows[0][4]) >= 0
        # one trajectory row per accepted step, plus the start
        _, trajectory = read_csv(os.path.join(out, "trajectory.csv"))
        assert len(trajectory) == int(rows[0][2]) + 1

    def test_coil_trajectory_contains_ramp_breakpoints(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["sequential", "--config", SHIPPED_COIL_CFG, "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "trajectory.csv"))
        assert header == ["time_s", "I_theta_A", "T_K", "T_max_K", "B_z_T", "I_source_A"]
        times = [float(r[0]) for r in rows]
        assert 50.0 in times and 150.0 in times and times[-1] == 200.0
        assert_coil_rows(header, rows)
        _, (summary,) = read_csv(os.path.join(out, "sequential_summary.csv"))
        assert len(rows) == int(summary[2]) + 1

    def test_coil_rests_before_the_ramp(self, tmp_path):
        # the source current is 0 A before 0 s, and the ramp's start is a forced event
        with open(SHIPPED_COIL_CFG, encoding="utf-8") as handle:
            text = handle.read().replace("t_start = 0.0", "t_start = -20.0")
        out = str(tmp_path / "out")
        assert main(["sequential", "--config", write_cfg(tmp_path, text), "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "trajectory.csv"))
        columns = [header.index(name) for name in ("time_s", "I_theta_A", "T_K", "I_source_A")]
        rest = [[float(row[i]) for i in columns] for row in rows if float(row[0]) <= 0.0]
        assert rest[0][0] == -20.0 and rest[-1][0] == 0.0 and len(rest) > 2
        assert all(values[1:] == [0.0, 77.0, 0.0] for values in rest)

    def test_derived_column_reaches_trajectory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "make_problem", lambda cfg: Doubled(-1.0, (1.0,)))
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        out = str(tmp_path / "out")
        assert main(["sequential", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "trajectory.csv"))
        assert header == ["time_s", "u_0", "T_max_K", "twice_u_0"]
        assert all(float(r[3]) == pytest.approx(2.0 * float(r[1]), rel=1e-11) for r in rows)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["sequential", "--config", cfg, "--out", out_a]) == 0
        assert main(["sequential", "--config", cfg, "--out", out_b]) == 0
        bytes_a = pathlib.Path(out_a, "trajectory.csv").read_bytes()
        bytes_b = pathlib.Path(out_b, "trajectory.csv").read_bytes()
        assert bytes_a == bytes_b

    def test_integration_failure_exit_code(self, tmp_path, capsys):
        # fast decay against an unattainable step tolerance with a high
        # step floor: rejection shrinks the step straight through dt_min
        text = textwrap.dedent(
            """
            [run]
            problem = linear_test
            t_end = 1.0

            [linear_test]
            rate = -1000.0

            [fine]
            tol_nr_mk = 1e-5
            tol_t_mk = 1e-7
            dt_init = 0.1
            dt_min = 0.05
            dt_max = 0.25
            """
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["sequential", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: sequential fine solve failed: step size underflow at t=")

    def test_non_finite_rhs_at_the_start_fails_at_once(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "make_problem", lambda cfg: NanAt(0.0, (1.0,)))
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        assert main(["sequential", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: sequential fine solve failed: non-finite rhs at the start state, t=0\n"
        )


# `python -c` this with `raises|dies|dies_replying` and the CLI's arguments: the linear
# problem, with G = 0 as the forks_at_any_work fixture sets it, and with a derived
# column that raises, or kills the process, in a forked worker only; or a worker that
# dies half-way through writing its rows.
ROWS_FAIL_IN_WORKER = textwrap.dedent(
    """
    import os, pickle, sys
    from parcoil import LinearTestProblem, cli, parareal

    parareal._MIN_WORK_PER_PROCESS = 0.0
    CALLER, HOW = os.getpid(), sys.argv.pop(1)


    class FailsInWorker(LinearTestProblem):
        def derived_columns(self):
            return (("twice_u_0", self.twice),)

        def twice(self, t, u):
            if os.getpid() != CALLER and HOW == "raises":
                raise ValueError("not here")
            if os.getpid() != CALLER and HOW == "dies":
                os._exit(3)
            return 2.0 * u[0]


    def half_the_rows_then_death(pipe, message, send=parareal._send):
        # a rows reply is a list of (window, text) pairs
        if os.getpid() != CALLER and isinstance(message, list) and isinstance(message[0][1], str):
            data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            pipe.write(data[: len(data) // 2])
            pipe.flush()
            os._exit(3)
        send(pipe, message)


    if HOW == "dies_replying":
        parareal._send = half_the_rows_then_death
    cli.make_problem = lambda cfg: FailsInWorker(-1.0, (1.0,))
    sys.exit(cli.main(sys.argv[1:]))
    """
)


def refused_fork():
    """``os.fork`` under a process limit: it fails with EAGAIN."""
    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))


class TestParareal:
    def test_degenerate_config_converges_immediately(self, tmp_path):
        cfg = write_cfg(tmp_path, DEGENERATE_CFG)
        out = str(tmp_path / "out")
        assert main(["parareal", "--config", cfg, "--out", out, "--workers", "1"]) == 0
        header, rows = read_csv(os.path.join(out, "summary.csv"))
        assert header[:5] == ["run_id", "N", "K", "k", "err_mK"]
        assert len(rows) == 1
        assert rows[0][2] == "1"  # K
        assert float(rows[0][4]) == 0.0  # err_mK

    def test_shipped_default_with_baseline(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(
            [
                "parareal",
                "--config",
                SHIPPED_COIL_CFG,
                "--out",
                out,
                "--workers",
                "2",
                "--with-baseline",
            ]
        )
        assert code == 0
        assert_coil_rows(*read_csv(os.path.join(out, "trajectory.csv")))
        header, rows = read_csv(os.path.join(out, "summary.csv"))
        assert header == SUMMARY_COLUMNS
        k_final = int(rows[-1][2])
        assert 1 <= k_final <= 8
        assert float(rows[-1][4]) < 10.0  # err_mK below tol_pr
        speedup_col = header.index("speedup")
        assert rows[-1][speedup_col] != ""
        # the adaptive coarse pass's work, and the distance from the baseline trajectory
        assert {row[header.index("nr_ghat")] for row in rows} == {"129"}
        assert "nr_ghat=129" in capsys.readouterr().out
        for name in ("max_dev_mK", "boundary_dev_mK"):
            assert 0.0 < float(rows[-1][header.index(name)]) < math.inf
        # report.csv holds one row per (iteration, window)
        r_header, r_rows = read_csv(os.path.join(out, "report.csv"))
        assert r_header == REPORT_COLUMNS
        assert len(r_rows) == k_final * 8
        # Newton work per window, split into fine and coarse; iteration 1 sweeps nothing
        total, fine, coarse = (r_header.index(c) for c in ("nr_iters", "nr_fine", "nr_coarse"))
        for row in r_rows:
            assert int(row[total]) == int(row[fine]) + int(row[coarse])
            assert row[2] != "1" or row[coarse] == "0"
            # fine 0.1 mK is not below tol_pr / 100, so iteration 1 is not loosened
            assert row[r_header.index("fine_tol_t_mK")] == "0.1"

    def test_non_finite_rhs_at_a_window_start_names_window_and_iteration(
        self, tmp_path, monkeypatch, capsys
    ):
        # NaN only where window 3's first fine solve starts: Ĝ's state at that time
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        problem = LinearTestProblem(-1.0, (1.0,))
        coarse_tol = load_run_config(cfg).parareal.coarse_tol
        ghat = adaptive_integrate(
            problem, 0.0, 1.0, problem.initial_state(), coarse_tol, linearized=True
        )
        i = window_boundary_indices(len(ghat.times) - 1, 4)[2]
        bad = NanAt(ghat.times[i], ghat.states[i])
        monkeypatch.setattr(cli, "make_problem", lambda cfg: bad)
        argv = ["parareal", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: fine propagator failed in window 3 during iteration 1: "
            f"non-finite rhs at the start state, t={ghat.times[i]:.6g}\n"
        )

    @pytest.mark.parametrize(
        "cfg, processes", [(SHIPPED_LINEAR_CFG, 1), (SHIPPED_COIL_CFG, 2)], ids=["linear", "coil"]
    )
    def test_prints_how_many_processes_ran(self, tmp_path, capsys, cfg, processes):
        # --workers is an upper bound: Ĝ predicts too little fine work on the linear config
        out = str(tmp_path / "out")
        assert main(["parareal", "--config", cfg, "--out", out, "--workers", "2"]) == 0
        assert f", processes={processes}, wall=" in capsys.readouterr().out
        for name in ("summary.csv", "report.csv"):
            assert "processes" not in read_csv(os.path.join(out, name))[0]

    def test_worker_that_cannot_start_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(os, "fork", refused_fork)
        argv = ["parareal", "--config", SHIPPED_COIL_CFG, "--out", str(tmp_path / "o")]
        assert main([*argv, "--workers", "2"]) == 2
        reason = f"[Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}"
        assert capsys.readouterr().err == f"error: cannot start fine worker 1: {reason}\n"

    @pytest.mark.parametrize(
        "how, message",
        [
            ("raises", "cannot format the rows of windows [2, 3]: ValueError: not here"),
            ("dies", "a fine worker process died before the rows of windows [2, 3] came"),
            ("dies_replying", "a fine worker process died before the rows of windows [2, 3] came"),
        ],
    )
    def test_worker_that_cannot_send_its_rows_exits_2(self, tmp_path, how, message):
        # at 2 workers the worker last solved windows 2 and 3; in a subprocess, so a hang fails
        out = tmp_path / "o"
        argv = ["parareal", "--config", write_cfg(tmp_path, LINEAR_CFG), "--out", str(out)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", ROWS_FAIL_IN_WORKER, how, *argv, "--workers", "2"],
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr.decode()) == (2, f"error: {message}\n")
        assert list(out.iterdir()) == []  # no trajectory.csv, nor any other file

    def test_non_finite_rhs_at_the_start_fails_the_baseline(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "make_problem", lambda cfg: NanAt(0.0, (1.0,)))
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        argv = ["parareal", "--config", cfg, "--out", str(tmp_path / "o"), "--with-baseline"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: sequential baseline failed: non-finite rhs at the start state, t=0\n"
        )

    @pytest.mark.usefixtures("forks_at_any_work")
    @pytest.mark.parametrize("config", ["coil", "linear"])
    def test_fine_steps_add_up_to_the_trajectory(self, tmp_path, config):
        # each window's last fine solve is the one stitched into the trajectory
        cfg = SHIPPED_COIL_CFG if config == "coil" else write_cfg(tmp_path, LINEAR_CFG)
        out = str(tmp_path / "out")
        assert main(["parareal", "--config", cfg, "--out", out, "--workers", "2"]) == 0
        header, rows = read_csv(os.path.join(out, "report.csv"))
        last = {}
        for row in rows:
            k, j, steps = (int(row[header.index(c)]) for c in ("k", "j", "fine_steps"))
            assert (steps > 0) == (int(row[header.index("nr_fine")]) > 0)
            if k == 1:
                assert steps > 0
            if steps:
                last[j] = steps
        _, traj_rows = read_csv(os.path.join(out, "trajectory.csv"))
        assert len(traj_rows) - 1 == sum(last.values())

    def test_rejected_step_columns(self, tmp_path):
        outs = [str(tmp_path / name) for name in ("w1", "w2")]
        for out, workers in zip(outs, ("1", "2")):
            argv = ["parareal", "--config", SHIPPED_COIL_CFG, "--out", out, "--workers", workers]
            assert main(argv) == 0
        new_columns = {
            "report.csv": ["nr_fine", "fine_steps_rejected"],
            "summary.csv": ["ghat_steps", "ghat_steps_rejected"],
        }
        picked = {}
        for name, columns in new_columns.items():
            values = []
            for out in outs:
                header, rows = read_csv(os.path.join(out, name))
                values.append([[int(row[header.index(c)]) for c in columns] for row in rows])
            # deterministic: the same at one and two workers
            assert values[0] == values[1]
            assert all(v >= 0 for row in values[0] for v in row)
            picked[name] = values[0]
        # window 1 is not re-solved in iteration 2, so it rejected no step there
        skipped = [rejected for nr_fine, rejected in picked["report.csv"] if nr_fine == 0]
        assert skipped == [0]
        assert all(steps > 0 for steps, _ in picked["summary.csv"])

    def test_not_converged_exit_code(self, tmp_path, capsys):
        text = LINEAR_CFG.replace("tol_pr_mk = 0.001", "tol_pr_mk = 1e-9\nk_max = 1")
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["parareal", "--config", cfg, "--out", out, "--workers", "1"]) == 3
        assert "NOT converged" in capsys.readouterr().err
        _, rows = read_csv(os.path.join(out, "summary.csv"))
        assert len(rows) == 1  # one iteration executed
        assert rows[0][2] == ""  # K absent

    def test_no_baseline_columns_without_with_baseline(self, tmp_path):
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        out = str(tmp_path / "out")
        assert main(["parareal", "--config", cfg, "--out", out, "--workers", "1"]) == 0
        header, rows = read_csv(os.path.join(out, "summary.csv"))
        columns = ("baseline_wall_s", "speedup", "max_dev_mK", "boundary_dev_mK")
        baseline = [header.index(c) for c in columns]
        assert rows and all(row[i] == "" for row in rows for i in baseline)

    def test_partition_error_exit_and_hint(self, tmp_path, capsys):
        text = DEGENERATE_CFG.replace("dt_init = 0.25", "dt_init = 1.0").replace(
            "dt_max = 0.25", "dt_max = 1.0"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["parareal", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "reduce n_windows" in err

    @pytest.mark.parametrize(
        "cfg, workers, cpus, balance, shows",
        [
            (LINEAR_CFG, 2, None, None, ("kept",)),
            # 119 / 409 fine Newton iterations
            (SHIPPED_COIL_CFG, 2, None, "0.290953545232", ()),
            # one allowed CPU pins nothing; exactly two pin the worker to the second
            (SHIPPED_COIL_CFG, 2, 1, "0.290953545232", ()),
            (SHIPPED_COIL_CFG, 2, 2, "0.290953545232", ()),
            # 42 / 170; at K 3 window 2's final solve stays in worker 1 from iteration 2
            (SHIPPED_LINEAR_CFG, 2, None, "0.247058823529", ("kept",)),
            (SHIPPED_LINEAR_CFG, 6, None, "0.247058823529", ("kept",)),
            # a three-component state: the tuple prediction and step end to end
            (LINEAR3_CFG, 3, None, None, ()),
            # 3355 rows: each worker's text is more than a pipe holds
            (QUENCH_FINE_CFG, 3, None, None, ("over_a_pipe",)),
        ],
        ids=[
            "linear",
            "ni_coil.cfg",
            "ni_coil.cfg-one_cpu",
            "ni_coil.cfg-two_cpus",
            "linear_test.cfg",
            "linear_test.cfg-6_workers",
            "linear-three_components",
            "quench_fine-3_workers",
        ],
    )
    @pytest.mark.usefixtures("forks_at_any_work")
    def test_deterministic_across_runs_and_workers(
        self, tmp_path, monkeypatch, cfg, workers, cpus, balance, shows
    ):
        if cpus and ALLOWED_CPUS < cpus:
            pytest.skip(f"needs {cpus} allowed CPUs")
        if cfg in (LINEAR_CFG, LINEAR3_CFG, QUENCH_FINE_CFG):
            cfg = write_cfg(tmp_path, cfg)
        outs = [str(tmp_path / name) for name in ("w1", "many")]
        assert main(["parareal", "--config", cfg, "--out", outs[0], "--workers", "1"]) == 0
        solves, replies = log_fine_loop(monkeypatch)
        with lowest_cpus(cpus) if cpus else contextlib.nullcontext():
            argv = ["parareal", "--config", cfg, "--out", outs[1], "--workers", str(workers)]
            assert main(argv) == 0
        t1 = pathlib.Path(outs[0], "trajectory.csv").read_bytes()
        t2 = pathlib.Path(outs[1], "trajectory.csv").read_bytes()
        assert t1 == t2
        # the workers formatted the rows of their windows: one text per worker that owns one
        owners, solved = solves[-1]
        assert len(replies) == len(set(owners) - {0}) >= 1
        # a window whose final solve stayed in a worker that the last iteration skipped
        kept = any(owner and not again for owner, again in zip(owners, solved))
        assert kept == ("kept" in shows)
        assert (max(replies) > 64 * 1024) == ("over_a_pipe" in shows)
        # everything except wall-clock-derived columns must match byte for byte
        for name in ("summary.csv", "report.csv"):
            h1, rows1 = read_csv(os.path.join(outs[0], name))
            h2, rows2 = read_csv(os.path.join(outs[1], name))
            wall_cols = [i for i, c in enumerate(h1) if "wall" in c or c == "speedup"]
            strip = lambda rows: [
                [v for i, v in enumerate(r) if i not in wall_cols] for r in rows
            ]
            assert h1 == h2
            assert strip(rows1) == strip(rows2)
        if balance is not None:
            header, rows = read_csv(os.path.join(outs[1], "summary.csv"))
            assert {row[header.index("load_balance")] for row in rows} == {balance}


class TestStudy:
    def test_single_cell(self, tmp_path):
        text = LINEAR_CFG + "\n[study]\nn_windows_list = 4\nfine_tol_mk_list = 0.1\n"
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["study", "--config", cfg, "--out", out, "--workers", "1"]) == 0
        header, rows = read_csv(os.path.join(out, "study_table.csv"))
        assert header == [
            "run_id",
            "N",
            "fine_tol_mK",
            "K",
            "err_K_mK",
            "max_speedup",
            "actual_speedup",
            "max_dev_mK",
            "boundary_dev_mK",
            "status",
        ]
        assert len(rows) == 1
        assert rows[0][-1] == "converged"
        assert float(rows[0][header.index("max_dev_mK")]) >= 0.0
        e_header, e_rows = read_csv(os.path.join(out, "study_errors.csv"))
        assert e_header == ["run_id", "fine_tol_mK", "time_s", "abs_err_mK"]
        assert e_rows, "error curve must have rows"

    def test_cell_is_its_runs_last_summary_row(self, tmp_path):
        # the study's one cell has the parareal run's own window count and fine tolerances
        text = LINEAR_CFG.replace("[fine]\ntol_nr_mk = 1e-5", "[fine]\ntol_nr_mk = 0.1")
        text += "\n[study]\nn_windows_list = 4\nfine_tol_mk_list = 0.1\n"
        cfg = write_cfg(tmp_path, text)
        par, study = str(tmp_path / "par"), str(tmp_path / "study")
        argv = ["parareal", "--config", cfg, "--out", par, "--workers", "1", "--with-baseline"]
        assert main(argv) == 0
        assert main(["study", "--config", cfg, "--out", study, "--workers", "1"]) == 0
        header, rows = read_csv(os.path.join(par, "summary.csv"))
        last = dict(zip(header, rows[-1]))
        header, rows = read_csv(os.path.join(study, "study_table.csv"))
        (cell,) = (dict(zip(header, row)) for row in rows)
        # study_table.csv name -> summary.csv column
        names = {
            "run_id": "run_id",
            "N": "N",
            "K": "K",
            "err_K_mK": "err_mK",
            "max_speedup": "n_over_k",
            "max_dev_mK": "max_dev_mK",
            "boundary_dev_mK": "boundary_dev_mK",
        }
        assert {name: cell[name] for name in names} == {n: last[c] for n, c in names.items()}
        assert [cell[name] for name in list(names)[2:]] == [
            "3",
            "0.000590307815074",
            "1.33333333333",
            "0.0124160359887",
            "0.0222744449877",
        ]
        assert cell["status"] == "converged"

    def test_grid_shape(self, tmp_path):
        text = LINEAR_CFG + "\n[study]\nn_windows_list = 2, 4\nfine_tol_mk_list = 0.1, 0.01\n"
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["study", "--config", cfg, "--out", out, "--workers", "1"]) == 0
        _, rows = read_csv(os.path.join(out, "study_table.csv"))
        assert len(rows) == 4

    @pytest.mark.usefixtures("forks_at_any_work")
    def test_deterministic_across_workers(self, tmp_path):
        text = LINEAR_CFG + "\n[study]\nn_windows_list = 2, 4\nfine_tol_mk_list = 0.1, 0.01\n"
        cfg = write_cfg(tmp_path, text)
        outs = [str(tmp_path / name) for name in ("w1", "w2")]
        assert main(["study", "--config", cfg, "--out", outs[0], "--workers", "1"]) == 0
        assert main(["study", "--config", cfg, "--out", outs[1], "--workers", "2"]) == 0
        errors = [pathlib.Path(out, "study_errors.csv").read_bytes() for out in outs]
        assert errors[0] == errors[1]
        # every column but the wall-clock one matches byte for byte
        (h1, rows1), (h2, rows2) = [read_csv(os.path.join(out, "study_table.csv")) for out in outs]
        timed = h1.index("actual_speedup")
        assert h1 == h2 and len(rows1) == 4
        assert [r[:timed] + r[timed + 1 :] for r in rows1] == [
            r[:timed] + r[timed + 1 :] for r in rows2
        ]

    def test_empty_study_list_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        assert main(["study", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    def test_failed_cell_recorded_not_fatal(self, tmp_path):
        # second window count exceeds the coarse step count -> partition_error status
        text = DEGENERATE_CFG + "\n[study]\nn_windows_list = 2, 64\nfine_tol_mk_list = 1e-3\n"
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["study", "--config", cfg, "--out", out, "--workers", "1"]) == 0
        header, rows = read_csv(os.path.join(out, "study_table.csv"))
        statuses = {r[1]: r[-1] for r in rows}
        assert statuses["2"] == "converged"
        assert statuses["64"] == "partition_error"
        # a failed cell has no result: every column from K through boundary_dev_mK is empty
        failed = next(r for r in rows if r[1] == "64")
        results = slice(header.index("K"), header.index("boundary_dev_mK") + 1)
        assert failed[results] == [""] * 6

    def test_integration_failed_cell_recorded_not_fatal(self, tmp_path):
        # the adaptive coarse pass cannot meet tol_t above its step floor; the fine baseline can
        with open(SHIPPED_LINEAR_CFG, encoding="utf-8") as shipped:
            head, coarse = shipped.read().split("[coarse]")
        coarse = coarse.replace("tol_t_mk = 5", "tol_t_mk = 1e-9").replace(
            "dt_min = 1e-12", "dt_min = 0.05"
        )
        text = f"{head}[coarse]{coarse}\n[study]\nn_windows_list = 2\nfine_tol_mk_list = 0.1\n"
        out = str(tmp_path / "out")
        assert main(["study", "--config", write_cfg(tmp_path, text), "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "study_table.csv"))
        (row,) = (dict(zip(header, r)) for r in rows)
        assert row["status"] == "integration_failed"
        assert [row[c] for c in header[header.index("K") : header.index("status")]] == [""] * 6

    def test_cell_whose_worker_cannot_start_reads_integration_failed(self, tmp_path, monkeypatch):
        # at 2 workers Ĝ's prediction forks a worker at 0.1 mK (W 1725) and none at 10 mK (W 172)
        with open(SHIPPED_COIL_CFG, encoding="utf-8") as shipped:
            head = shipped.read().rsplit("\n[study]", 1)[0]
        text = head + "\n[study]\nn_windows_list = 8\nfine_tol_mk_list = 10, 0.1\n"
        monkeypatch.setattr(os, "fork", refused_fork)
        out = str(tmp_path / "out")
        argv = ["study", "--config", write_cfg(tmp_path, text), "--out", out, "--workers", "2"]
        assert main(argv) == 0
        header, rows = read_csv(os.path.join(out, "study_table.csv"))
        statuses = {row[header.index("fine_tol_mK")]: row[-1] for row in rows}
        assert statuses == {"10": "converged", "0.1": "integration_failed"}

    def test_non_finite_rhs_at_the_start_fails_the_baseline(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "make_problem", lambda cfg: NanAt(0.0, (1.0,)))
        text = LINEAR_CFG + "\n[study]\nn_windows_list = 4\nfine_tol_mk_list = 0.1\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["study", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: sequential baseline at fine tolerance 0.1 mK failed: "
            "non-finite rhs at the start state, t=0\n"
        )

    def test_not_converged_cell(self, tmp_path):
        # k_max = 1 with tol_pr far below iteration 1's jump at the boundaries
        text = LINEAR_CFG.replace("tol_pr_mk = 0.001", "tol_pr_mk = 1e-9\nk_max = 1")
        text += "\n[study]\nn_windows_list = 4\nfine_tol_mk_list = 0.1\n"
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["study", "--config", cfg, "--out", out, "--workers", "1"]) == 0
        header, rows = read_csv(os.path.join(out, "study_table.csv"))
        (row,) = (dict(zip(header, r)) for r in rows)
        assert row["status"] == "not_converged"
        assert row["K"] == "" and row["max_speedup"] == ""
        for name in ("err_K_mK", "actual_speedup", "max_dev_mK", "boundary_dev_mK"):
            assert 0.0 < float(row[name]) < math.inf

    def test_shipped_coil_study_grid(self, tmp_path):
        # the full window-count x tolerance grid of the shipped configuration
        out = str(tmp_path / "out")
        assert main(["study", "--config", SHIPPED_COIL_CFG, "--out", out, "--workers", "2"]) == 0
        _, rows = read_csv(os.path.join(out, "study_table.csv"))
        assert len(rows) == 9
        assert all(r[-1] == "converged" for r in rows)
        assert all(int(r[3]) <= 4 for r in rows)
        assert all(float(r[4]) < 10.0 for r in rows)  # err_K below tol_pr in mK


class TestInterrupt:
    """Ctrl-C ends a command with exit 130 and one line on stderr, not a traceback."""

    @staticmethod
    def _interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    def test_sequential(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "adaptive_integrate", self._interrupt)
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        assert main(["sequential", "--config", cfg, "--out", str(tmp_path / "o")]) == 130
        assert capsys.readouterr().err == "interrupted\n"

    def test_parareal(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_parareal", self._interrupt)
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        assert main(["parareal", "--config", cfg, "--out", str(tmp_path / "o")]) == 130
        assert capsys.readouterr().err == "interrupted\n"

    def test_study(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_parareal", self._interrupt)
        text = LINEAR_CFG + "\n[study]\nn_windows_list = 4\nfine_tol_mk_list = 0.1\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["study", "--config", cfg, "--out", str(tmp_path / "o")]) == 130
        assert capsys.readouterr().err == "interrupted\n"

    @pytest.mark.parametrize("to_group", [False, True], ids=["process", "process_group"])
    def test_sigint_stops_parareal_and_its_workers(self, tmp_path, to_group):
        # the shipped coil with the fine step capped at 0.1 ms runs for minutes
        with open(SHIPPED_COIL_CFG) as f:
            shipped = f.read()
        head, rest = shipped.split("[fine]")
        coarse = rest.split("[coarse]")[1]
        fine = "\n".join(
            ["[fine]", "tol_nr_mk = 5e-6", "tol_t_mk = 5e-6", "dt_init = 1e-4", "dt_max = 1e-4", ""]
        )
        cfg = write_cfg(tmp_path, head + fine + "[coarse]" + coarse)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        argv = ["parareal", "--config", cfg, "--workers", "2", "--out", str(tmp_path / "o")]
        proc = subprocess.Popen(
            [sys.executable, "-m", "parcoil.cli", *argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            start_new_session=True,  # its own process group, holding it and its workers
        )
        try:
            time.sleep(1.0)
            assert proc.poll() is None
            start = time.monotonic()
            if to_group:
                os.killpg(proc.pid, signal.SIGINT)
            else:
                os.kill(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=30)
            elapsed = time.monotonic() - start
            try:
                os.killpg(proc.pid, 0)
                left_running = True
            except ProcessLookupError:
                left_running = False
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert proc.returncode == 130
        assert err == b"interrupted\n"
        assert not left_running
        assert elapsed < 5.0

    def test_successful_parareal_leaves_its_process_group_empty(self, tmp_path):
        # the workers, signalled at close, are reaped at the latest at interpreter exit
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        argv = ["parareal", "--config", cfg, "--workers", "2", "--out", str(tmp_path / "o")]
        proc = subprocess.Popen(
            [sys.executable, "-m", "parcoil.cli", *argv],
            stdout=subprocess.DEVNULL,
            env=env,
            start_new_session=True,  # its own process group, holding it and its workers
        )
        try:
            assert proc.wait(timeout=60) == 0
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


class TestCsvFormatting:
    def test_twelve_significant_digits(self, tmp_path):
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        out = str(tmp_path / "out")
        assert main(["sequential", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(os.path.join(out, "trajectory.csv"))
        for row in rows:
            for cell in row[1:]:
                assert len(cell.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 13

    @staticmethod
    def _csv_writer_reference(path, problem, traj):
        # the trajectory writer before it formatted one row per call: csv.writer and _fmt
        derived = problem.derived_columns()
        header = ["time_s", *problem.component_names, "T_max_K", *(name for name, _ in derived)]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for t, state in zip(traj.times, traj.states):
                row = [t, *state, problem.max_temperature(state), *(fn(t, state) for _, fn in derived)]
                writer.writerow([cli._fmt(v) for v in row])

    @pytest.mark.parametrize("case", ["coil", "linear_three_components"])
    def test_trajectory_bytes_match_the_csv_writer(self, tmp_path, case):
        if case == "coil":
            cfg = load_run_config(SHIPPED_COIL_CFG)
            problem, t_end, tol = make_problem(cfg), cfg.t_end, cfg.parareal.fine_tol
        else:
            problem, t_end = LinearTestProblem(-1.0, (1.0, 2.0, 3.0)), 1.0
            tol = StepperTolerances(tol_nr=1e-8, tol_t=1e-5, dt_init=0.05, dt_min=1e-12, dt_max=0.25)
        traj = adaptive_integrate(problem, 0.0, t_end, problem.initial_state(), tol)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        rows = cli._trajectory_rows(problem, traj.times, traj.states)
        cli._write_trajectory_csv(str(got), problem, rows)
        self._csv_writer_reference(str(want), problem, traj)
        assert len(traj.times) > 100
        assert got.read_bytes() == want.read_bytes()


def row_format_reference(path, problem, traj):
    """The trajectory writer before it built columns: one ``{:.12g}`` format call per row."""
    derived = problem.derived_columns()
    header = ["time_s", *problem.component_names, "T_max_K", *(name for name, _ in derived)]
    line = ",".join(["{:.12g}"] * len(header)) + "\r\n"
    rows = [
        line.format(t, *state, problem.max_temperature(state), *(fn(t, state) for _, fn in derived))
        for t, state in zip(traj.times, traj.states)
    ]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(header)
        handle.write("".join(rows))


class Tabled(LinearTestProblem):
    """A linear problem whose derived columns read their values from per-time tables."""

    def __init__(self, n, tables):
        super().__init__(-1.0, (1.0,) * n)
        self.tables = tables

    def derived_columns(self):
        return tuple(
            (f"d_{i}", lambda t, u, table=table: table[t]) for i, table in enumerate(self.tables)
        )


# signed zeros, subnormals, the ends of the float range and integer-valued floats
CELL = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, 1.7976931348623157e308]),
    st.integers(-(10**15), 10**15).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
DERIVED = st.one_of(
    CELL,
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.integers(-(10**20), 10**20),
    st.booleans(),
)


@st.composite
def trajectories(draw, n_components):
    times = sorted(draw(st.sets(st.floats(-1e6, 1e6), min_size=1, max_size=12)))
    states = [tuple(draw(CELL) for _ in range(n_components)) for _ in times]
    return Trajectory(tuple(times), tuple(states))


# tmp_path is shared by a test's examples: each example overwrites the same two files
DRAWN = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestTrajectoryWriter:
    """The column-wise ``%.12g`` writer against the row-wise ``{:.12g}`` one, byte for byte."""

    @staticmethod
    def assert_same_bytes(tmp_path, problem, traj):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        rows = cli._trajectory_rows(problem, traj.times, traj.states)
        cli._write_trajectory_csv(str(got), problem, rows)
        row_format_reference(str(want), problem, traj)
        assert got.read_bytes() == want.read_bytes()

    @settings(DRAWN, max_examples=150)
    @given(data=st.data(), n=st.integers(1, 4), n_derived=st.integers(0, 3))
    def test_drawn_cells(self, tmp_path, data, n, n_derived):
        traj = data.draw(trajectories(n), label="trajectory")
        tables = [{t: data.draw(DERIVED) for t in traj.times} for _ in range(n_derived)]
        self.assert_same_bytes(tmp_path, Tabled(n, tables), traj)

    @settings(DRAWN, max_examples=100)
    @given(data=st.data(), n=st.integers(1, 4))
    def test_linear_problem(self, tmp_path, data, n):
        traj = data.draw(trajectories(n), label="trajectory")
        self.assert_same_bytes(tmp_path, LinearTestProblem(-1.0, (1.0,) * n), traj)

    @settings(DRAWN, max_examples=100)
    @given(data=st.data())
    def test_coil_problem(self, tmp_path, data):
        # the coil's own derived columns: the axial field and the source current
        traj = data.draw(trajectories(2), label="trajectory")
        self.assert_same_bytes(tmp_path, CoilProblem(), traj)

    @pytest.mark.parametrize("bad", [None, "1.0"], ids=["None", "str"])
    def test_a_cell_that_is_not_a_number_writes_no_file(self, tmp_path, bad):
        traj = Trajectory((0.0, 1.0, 2.0), ((1.0,), (0.5,), (0.25,)))
        problem = Tabled(1, [{0.0: 1.0, 1.0: bad, 2.0: 3.0}])
        path = tmp_path / "trajectory.csv"
        with pytest.raises(TypeError):
            cli._write_trajectory_csv(
                str(path), problem, cli._trajectory_rows(problem, traj.times, traj.states)
            )
        assert not path.exists()
