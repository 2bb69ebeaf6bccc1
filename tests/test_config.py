import os
import re

import pytest

from parcoil.cli import main
from parcoil.config import ConfigError, load_run_config, run_id

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
MINIMAL = "[run]\nproblem = ni_coil\nt_end = 200.0\n"


def write_cfg(tmp_path, text: str, name: str = "run.cfg") -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def assert_config_error(path: str, *names: str):
    """Loading fails with every one of ``names`` in the message, and the CLI exits 1."""
    with pytest.raises(ConfigError) as info:
        load_run_config(path)
    for name in names:
        assert name in str(info.value)
    assert main(["sequential", "--config", path]) == 1


class TestUnknownNames:
    @pytest.mark.parametrize(
        "section",
        ["run", "coil", "ramp", "linear_test", "parareal", "fine", "coarse", "study"],
    )
    def test_unknown_key_in_each_section(self, tmp_path, section):
        text = MINIMAL + ("" if section == "run" else f"[{section}]\n") + "bogus_key = 1\n"
        assert_config_error(write_cfg(tmp_path, text), f"[{section}]", "bogus_key")

    @pytest.mark.parametrize("section", ["corse", "DEFAULT"])
    def test_unknown_section(self, tmp_path, section):
        text = MINIMAL + f"[{section}]\ntol_t_mk = 20\n"
        assert_config_error(write_cfg(tmp_path, text), f"[{section}]")

    @pytest.mark.parametrize(
        "section, line, key",
        [
            ("fine", "tol_t = 0.01", "tol_t"),
            ("parareal", "tol_pr = 1", "tol_pr"),
            ("run", "worker = 4", "worker"),
        ],
    )
    def test_typo_is_not_ignored(self, tmp_path, section, line, key):
        text = MINIMAL + ("" if section == "run" else f"[{section}]\n") + line + "\n"
        assert_config_error(write_cfg(tmp_path, text), f"[{section}]", key)


class TestEmptyOutputDirectory:
    def test_empty_out_dir_key(self, tmp_path):
        assert_config_error(write_cfg(tmp_path, MINIMAL + "out_dir =\n"), "[run]", "'out_dir'")

    def test_empty_out_flag(self, tmp_path, capsys):
        assert main(["sequential", "--config", write_cfg(tmp_path, MINIMAL), "--out", ""]) == 1
        assert "--out" in capsys.readouterr().err


class TestNonFiniteNumbers:
    @pytest.mark.parametrize(
        "section, line, key",
        [
            ("run", "t_end = inf", "t_end"),
            ("run", "workers = inf", "workers"),
            ("fine", "nr_max_iters = inf", "nr_max_iters"),
            ("linear_test", "rate = nan", "rate"),
            ("coil", "n = inf", "n"),
            ("ramp", "points = nan:140", "points"),
        ],
    )
    def test_non_finite_is_config_error(self, tmp_path, section, line, key):
        run = "[run]\nproblem = ni_coil\n" + ("" if key == "t_end" else "t_end = 200.0\n")
        text = run + ("" if section == "run" else f"[{section}]\n") + line + "\n"
        assert_config_error(write_cfg(tmp_path, text), f"[{section}]", f"'{key}'")

    @pytest.mark.parametrize(
        "section, line, key",
        [
            ("linear_test", "initial = 1.0, -inf", "initial"),
            ("study", "fine_tol_mk_list = 1, nan", "fine_tol_mk_list"),
            ("study", "n_windows_list = 8, inf", "n_windows_list"),
        ],
    )
    def test_non_finite_list_entry(self, tmp_path, section, line, key):
        text = MINIMAL + f"[{section}]\n{line}\n"
        assert_config_error(write_cfg(tmp_path, text), f"[{section}]", f"'{key}'")


class TestRejectedBeforeOutput:
    RUN = "[run]\nproblem = linear_test\nt_end = 1.0\n"

    @pytest.mark.parametrize(
        "text, flags, names",
        [
            ("[run]\nproblem = linear_test\nt_end = abc\n", [], ["[run]", "'t_end'"]),
            (RUN + "workers = 2.5\n", [], ["[run]", "'workers'"]),
            (RUN + "[fine]\ndt_min = 1.0\n", [], ["[fine]", "dt_min"]),
            (RUN + "[fine]\ntol_t_mk = 0\n", [], ["[fine]", "tol_t must be positive"]),
            (RUN + "[parareal]\ntol_pr_mk = 0\n", [], ["[parareal]", "tol_pr must be positive"]),
            (RUN + "no_equals_sign\n", [], ["cannot parse", "no_equals_sign"]),
            ("[fine]\ndt_min = 1e-9\n", [], ["[run]"]),
            ("[run]\nproblem = linear_test\n", [], ["[run]", "'t_end'"]),
            (RUN + "t_start = 2\n", [], ["[run]", "'t_start'", "'t_end'"]),
            (RUN + "workers = 0\n", [], ["[run]", "'workers'"]),
            (RUN, ["--workers", "0"], ["--workers"]),
            (RUN + "[linear_test]\ninitial = ,\n", [], ["[linear_test]", "initial"]),
            (RUN + "[study]\nn_windows_list = 0\n", [], ["[study]", "'n_windows_list'"]),
            (RUN + "[study]\nfine_tol_mk_list = 0\n", [], ["[study]", "'fine_tol_mk_list'"]),
            (
                RUN + "[study]\nn_windows_list = 4, 4\n",
                [],
                ["'n_windows_list' in [study] repeats 4"],
            ),
            (
                RUN + "[study]\nfine_tol_mk_list = 0.1, 1e-1\n",
                [],
                ["'fine_tol_mk_list' in [study] repeats 0.1"],
            ),
        ],
        ids=[
            "t_end_not_a_number",
            "workers_not_an_integer",
            "invalid_fine_settings",
            "fine_tol_t_0",
            "tol_pr_0",
            "line_without_equals",
            "no_run_section",
            "no_t_end",
            "t_start_after_t_end",
            "workers_0",
            "workers_flag_0",
            "empty_initial",
            "n_windows_list_0",
            "fine_tol_mk_list_0",
            "n_windows_list_repeat",
            "fine_tol_mk_list_repeat",
        ],
    )
    def test_exit_1_names_the_key_and_creates_nothing(self, tmp_path, capsys, text, flags, names):
        out = tmp_path / "out"
        argv = ["parareal", "--config", write_cfg(tmp_path, text), "--out", str(out), *flags]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for name in names:
            assert name in err
        assert not out.exists()


class TestRampPoints:
    def test_an_empty_entry_is_skipped(self, tmp_path):
        # a trailing comma leaves an empty entry: the same ramp, the same run
        outputs = []
        for name, points in (("plain", "0.5:20, 1:0"), ("comma", "0.5:20, 1:0,")):
            text = f"[run]\nproblem = ni_coil\nt_end = 1.0\n[ramp]\npoints = {points}\n"
            path = write_cfg(tmp_path, text, f"{name}.cfg")
            out = tmp_path / name
            assert main(["sequential", "--config", path, "--out", str(out)]) == 0
            outputs.append((load_run_config(path), (out / "trajectory.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].ramp.segments == ((0.5, 20.0), (1.0, 0.0))


class TestShippedConfigs:
    def test_coil_config_shows_every_default(self, tmp_path):
        # Without [study], the shipped file holds only defaults besides the
        # problem and end time, as its header says.
        with open(os.path.join(CONFIGS, "ni_coil.cfg"), encoding="utf-8") as handle:
            shipped, _ = re.split(r"^\[study\]", handle.read(), flags=re.MULTILINE)
        shipped_cfg = load_run_config(write_cfg(tmp_path, shipped, "shipped.cfg"))
        assert shipped_cfg == load_run_config(write_cfg(tmp_path, MINIMAL, "minimal.cfg"))

    @pytest.mark.parametrize(
        "name, digest", [("ni_coil.cfg", "d6afa1adce0e"), ("linear_test.cfg", "3c4eaee3f310")]
    )
    def test_run_id_is_pinned(self, name, digest):
        assert run_id(load_run_config(os.path.join(CONFIGS, name))) == digest
