"""Tests of the benchmark's own arithmetic and correctness gate.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import json
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from parcoil import PararealReport, load_run_config  # noqa: E402
from parcoil.cli import main as cli_main  # noqa: E402

import run  # noqa: E402
from costmodel import critical_path_newton, load_balance_newton, modelled_speedup, tol_margin  # noqa: E402
from gate import Gate, output_digests  # noqa: E402
from scenarios import WORKLOADS, config_text  # noqa: E402


def _report(nr_ghat, nr_g, nr_f, errs):
    n = len(nr_f[0])
    return PararealReport(
        n_windows=n,
        m_coarse_steps=10,
        boundaries=np.linspace(0.0, 1.0, n + 1),
        converged=True,
        k_converged=len(errs),
        err_per_iter=errs,
        time_ghat=0.0,
        time_g_per_window_per_iter=[[0.0] * n for _ in errs],
        time_f_per_window_per_iter=[[1.0] * n for _ in errs],
        total_wall=1.0,
        nr_ghat=nr_ghat,
        nr_g_per_window_per_iter=nr_g,
        nr_f_per_window_per_iter=nr_f,
    )


def test_modelled_speedup_arithmetic():
    # Ĝ 10; iteration 1: no sweep, slowest fine window 7;
    # iteration 2: sweep 3 + 4, slowest fine window 6.  Path = 10 + 7 + 13 = 30.
    report = _report(10, [[0, 0], [3, 4]], [[5, 7], [6, 2]], [0.5, 0.01])
    assert critical_path_newton(report) == 30
    assert modelled_speedup(report, 45) == 1.5
    assert load_balance_newton(report) == 9 / 11
    assert tol_margin(report, 0.02) == pytest.approx(0.5)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One sequential and one parareal command on the quench-coarse scenario."""
    base = tmp_path_factory.mktemp("gate")
    config = base / "config.cfg"
    config.write_text(config_text("quench-coarse", 0, 2))
    for kind in ("sequential", "parareal"):
        assert cli_main([kind, "--config", str(config), "--out", str(base / kind)]) == 0
    return base, load_run_config(str(config)).parareal.tol_pr


def _copy(base, kind, dest):
    shutil.copytree(base / kind, dest)
    return dest


def test_gate_accepts_rerun_and_rejects_tampered_trajectory(outputs, tmp_path):
    base, tol_pr = outputs
    gate = Gate(tol_pr)
    assert gate.check("sequential", 0, str(base / "sequential")) == []
    assert gate.check("parareal", 0, str(base / "parareal")) == []
    assert gate.check("parareal", 0, str(base / "parareal")) == []

    # Raise the max temperature at the last (shared) grid time by twice tol_pr.
    tampered = _copy(base, "parareal", tmp_path / "tampered")
    path = tampered / "trajectory.csv"
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    col = lines[0].split(",").index("T_max_K")
    fields[col] = repr(float(fields[col]) + 2 * tol_pr)
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    reasons = gate.check("parareal", 0, str(tampered))
    assert any("differ from the first run" in r for r in reasons)
    assert any("max temperature differs" in r for r in reasons)

    # Same trajectory against a fresh gate: only the tolerance check can catch it.
    fresh = Gate(tol_pr)
    fresh.check("sequential", 0, str(base / "sequential"))
    (reason,) = fresh.check("parareal", 0, str(tampered))
    assert "max temperature differs" in reason


def test_gate_ignores_wall_clock_columns_only(outputs, tmp_path):
    base, tol_pr = outputs
    reference = output_digests(str(base / "sequential"))
    edited = _copy(base, "sequential", tmp_path / "edited")
    path = edited / "sequential_summary.csv"
    header, row = path.read_text().splitlines()
    names = header.split(",")
    values = row.split(",")
    values[names.index("wall_s")] = "123.456"
    path.write_text(f"{header}\n{','.join(values)}\n")
    assert output_digests(str(edited)) == reference
    values[names.index("nr_iterations")] = "1"
    path.write_text(f"{header}\n{','.join(values)}\n")
    assert output_digests(str(edited)) != reference

    gate = Gate(tol_pr)
    assert gate.check("sequential", 3, str(edited)) == ["sequential: exit status 3"]


def test_seed_zero_reproduces_shipped_ramp(tmp_path):
    shipped = load_run_config(os.path.join(ROOT, "configs", "ni_coil.cfg"))
    for workload in ("quench-fine", "quench-coarse"):
        path = tmp_path / f"{workload}.cfg"
        path.write_text(config_text(workload, 0, 2))
        cfg = load_run_config(str(path))
        assert cfg.ramp == shipped.ramp
        assert cfg.coil_params == shipped.coil_params
        assert (cfg.t_start, cfg.t_end) == (shipped.t_start, shipped.t_end)


def test_scenarios_are_seeded():
    for workload in WORKLOADS:
        assert config_text(workload, 7, 2) == config_text(workload, 7, 2)
        assert config_text(workload, 7, 2) != config_text(workload, 8, 2)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
