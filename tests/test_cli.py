import contextlib
import csv
import math
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from parcoil import LinearTestProblem, cli
from parcoil.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_COIL_CFG = os.path.join(REPO_ROOT, "configs", "ni_coil.cfg")
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


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class Doubled(LinearTestProblem):
    """Linear decay with one derived output column."""

    def derived_columns(self):
        return (("twice_u_0", lambda t, u: 2.0 * u[0]),)


class TestConfigErrors:
    def test_missing_file_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        assert main(["sequential", "--config", missing]) == 1
        assert missing in capsys.readouterr().err

    def test_unknown_problem(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[run]\nproblem = wat\nt_end = 1.0\n")
        assert main(["sequential", "--config", cfg]) == 1
        assert "wat" in capsys.readouterr().err

    def test_bad_ramp_point(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "[run]\nproblem = ni_coil\nt_end = 1.0\n[ramp]\npoints = 5;3\n"
        )
        assert main(["sequential", "--config", cfg]) == 1

    def test_unknown_coil_key(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "[run]\nproblem = ni_coil\nt_end = 1.0\n[coil]\nbogus = 1\n"
        )
        assert main(["sequential", "--config", cfg]) == 1


class TestSequential:
    def test_linear_terminal_value(self, tmp_path):
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        out = str(tmp_path / "out")
        assert main(["sequential", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "trajectory.csv"))
        assert header == ["time_s", "u_0", "T_max_K"]
        assert float(rows[-1][0]) == 1.0
        assert abs(float(rows[-1][1]) - math.exp(-1.0)) < 5e-3

    def test_summary_file_and_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        out = str(tmp_path / "out")
        assert main(["sequential", "--config", cfg, "--out", out]) == 0
        assert "sequential:" in capsys.readouterr().out
        header, rows = read_csv(os.path.join(out, "sequential_summary.csv"))
        assert header == ["run_id", "wall_s", "steps", "nr_iterations"]
        assert int(rows[0][2]) > 0

    def test_coil_trajectory_contains_ramp_breakpoints(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["sequential", "--config", SHIPPED_COIL_CFG, "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "trajectory.csv"))
        assert header == ["time_s", "I_theta_A", "T_K", "T_max_K", "B_z_T", "I_source_A"]
        times = [float(r[0]) for r in rows]
        assert 50.0 in times and 150.0 in times and times[-1] == 200.0

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
        bytes_a = open(os.path.join(out_a, "trajectory.csv"), "rb").read()
        bytes_b = open(os.path.join(out_b, "trajectory.csv"), "rb").read()
        assert bytes_a == bytes_b

    def test_integration_failure_exit_code(self, tmp_path, capsys):
        # fast decay against an unattainable step tolerance with a high
        # step floor: rejection halves straight through dt_min
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
        assert "error:" in capsys.readouterr().err


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

    def test_shipped_default_with_baseline(self, tmp_path):
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
        header, rows = read_csv(os.path.join(out, "summary.csv"))
        k_final = int(rows[-1][2])
        assert 1 <= k_final <= 8
        assert float(rows[-1][4]) < 10.0  # err_mK below tol_pr
        speedup_col = header.index("speedup")
        assert rows[-1][speedup_col] != ""
        # report.csv holds one row per (iteration, window)
        r_header, r_rows = read_csv(os.path.join(out, "report.csv"))
        assert r_header[:4] == ["run_id", "N", "k", "j"]
        assert len(r_rows) == k_final * 8

    def test_not_converged_exit_code(self, tmp_path, capsys):
        text = LINEAR_CFG.replace("tol_pr_mk = 0.001", "tol_pr_mk = 1e-9\nk_max = 1")
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["parareal", "--config", cfg, "--out", out, "--workers", "1"]) == 3
        assert "NOT converged" in capsys.readouterr().err
        _, rows = read_csv(os.path.join(out, "summary.csv"))
        assert len(rows) == 1  # one iteration executed
        assert rows[0][2] == ""  # K absent

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_baseline_wall_must_be_positive_and_finite(self, tmp_path, capsys, value):
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        out = tmp_path / "out"
        argv = ["parareal", "--config", cfg, "--out", str(out), "--baseline-wall", value]
        assert main(argv) == 1
        assert "--baseline-wall must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_baseline_wall_sets_speedup(self, tmp_path):
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        out = str(tmp_path / "out")
        argv = ["parareal", "--config", cfg, "--out", out, "--workers", "1", "--baseline-wall", "2.5"]
        assert main(argv) == 0
        header, rows = read_csv(os.path.join(out, "summary.csv"))
        assert rows[-1][header.index("baseline_wall_s")] == "2.5"
        assert float(rows[-1][header.index("speedup")]) > 0.0

    def test_partition_error_exit_and_hint(self, tmp_path, capsys):
        text = DEGENERATE_CFG.replace("dt_init = 0.25", "dt_init = 1.0").replace(
            "dt_max = 0.25", "dt_max = 1.0"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["parareal", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "reduce n_windows" in err

    def test_deterministic_across_runs_and_workers(self, tmp_path):
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        outs = [str(tmp_path / name) for name in ("w1", "w2")]
        assert main(["parareal", "--config", cfg, "--out", outs[0], "--workers", "1"]) == 0
        assert main(["parareal", "--config", cfg, "--out", outs[1], "--workers", "2"]) == 0
        t1 = open(os.path.join(outs[0], "trajectory.csv"), "rb").read()
        t2 = open(os.path.join(outs[1], "trajectory.csv"), "rb").read()
        assert t1 == t2
        # everything except wall-clock-derived columns must match byte for byte
        timing = {"speedup", "load_balance"}
        for name in ("summary.csv", "report.csv"):
            h1, rows1 = read_csv(os.path.join(outs[0], name))
            h2, rows2 = read_csv(os.path.join(outs[1], name))
            wall_cols = [i for i, c in enumerate(h1) if "wall" in c or c in timing]
            strip = lambda rows: [
                [v for i, v in enumerate(r) if i not in wall_cols] for r in rows
            ]
            assert h1 == h2
            assert strip(rows1) == strip(rows2)


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
            "status",
        ]
        assert len(rows) == 1
        assert rows[0][-1] == "converged"
        e_header, e_rows = read_csv(os.path.join(out, "study_errors.csv"))
        assert e_header == ["run_id", "fine_tol_mK", "time_s", "abs_err_mK"]
        assert e_rows, "error curve must have rows"

    def test_grid_shape(self, tmp_path):
        text = LINEAR_CFG + "\n[study]\nn_windows_list = 2, 4\nfine_tol_mk_list = 0.1, 0.01\n"
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["study", "--config", cfg, "--out", out, "--workers", "1"]) == 0
        _, rows = read_csv(os.path.join(out, "study_table.csv"))
        assert len(rows) == 4

    def test_empty_study_list_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        assert main(["study", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_failed_cell_recorded_not_fatal(self, tmp_path):
        # second window count exceeds the coarse step count -> partition_error status
        text = DEGENERATE_CFG + "\n[study]\nn_windows_list = 2, 64\nfine_tol_mk_list = 1e-3\n"
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["study", "--config", cfg, "--out", out, "--workers", "1"]) == 0
        _, rows = read_csv(os.path.join(out, "study_table.csv"))
        statuses = {r[1]: r[-1] for r in rows}
        assert statuses["2"] == "converged"
        assert statuses["64"] == "partition_error"

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


class TestCsvFormatting:
    def test_twelve_significant_digits(self, tmp_path):
        cfg = write_cfg(tmp_path, LINEAR_CFG)
        out = str(tmp_path / "out")
        assert main(["sequential", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(os.path.join(out, "trajectory.csv"))
        for row in rows:
            for cell in row[1:]:
                assert len(cell.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 13
