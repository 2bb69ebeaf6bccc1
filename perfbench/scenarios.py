"""Seeded scenario generator: one parcoil config file per (workload, seed).

The program under test receives nothing but the generated file.  Seed 0
reproduces the shipped 140 A ramp (``configs/ni_coil.cfg``) exactly and the
three-component linear test problem at rate -1/s.  Other seeds jitter the
inputs in a narrow band: the Newton work of the quench grows by about 17 %
per ampere of plateau current, so a wide jitter would turn the spread of
the timings across seeds into a spread of the inputs.  NOTES.md gives the
reason for each workload.
"""

from __future__ import annotations

import random

WORKLOADS = ("quench-fine", "quench-coarse", "linear-serial")

# Plateau current jitter (A) and breakpoint shift (s) for seeds other than 0.
PLATEAU_A = 140.0
PLATEAU_JITTER_A = 0.1
BREAKPOINT_JITTER_S = 2.0
# Linear test problem: rate jitter (1/s) and relative jitter of the initial values.
RATE_JITTER = 0.03
INITIAL_JITTER_REL = 0.01

_COARSE = """[coarse]
tol_nr_mk = {coarse_tol_nr_mk}
tol_t_mk = {coarse_tol_t_mk}
dt_init = {coarse_dt_init}
dt_min = {dt_min}
dt_max = {coarse_dt_max}
nr_max_iters = 50
"""

_TEMPLATE = """# Generated by perfbench/scenarios.py: workload {workload}, seed {seed}.
[run]
problem = {problem}
t_start = 0.0
t_end = {t_end}
out_dir = out
workers = {workers}

{problem_section}
[parareal]
n_windows = {n_windows}
tol_pr_mk = {tol_pr_mk}
k_max = 20

[fine]
tol_nr_mk = {fine_tol_nr_mk}
tol_t_mk = {fine_tol_t_mk}
dt_init = {fine_dt_init}
dt_min = {dt_min}
dt_max = {fine_dt_max}
nr_max_iters = 50

""" + _COARSE


def _coil(workload: str, seed: int, rng: random.Random, nproc: int) -> dict:
    if seed == 0:
        plateau, t_up, t_down = PLATEAU_A, 50.0, 150.0
    else:
        plateau = round(PLATEAU_A + rng.uniform(-PLATEAU_JITTER_A, PLATEAU_JITTER_A), 4)
        t_up = round(50.0 + rng.uniform(-BREAKPOINT_JITTER_S, BREAKPOINT_JITTER_S), 3)
        t_down = round(150.0 + rng.uniform(-BREAKPOINT_JITTER_S, BREAKPOINT_JITTER_S), 3)
    t_end = t_down + 50.0
    fine_mk = 0.01 if workload == "quench-fine" else 3.0
    n_windows = 16 if workload == "quench-fine" else 32
    return {
        "problem": "ni_coil",
        "t_end": repr(t_end),
        "workers": min(nproc, n_windows),
        "problem_section": (
            f"[ramp]\npoints = {t_up!r}:{plateau!r}, {t_down!r}:{plateau!r}, {t_end!r}:0\n"
        ),
        "n_windows": n_windows,
        "tol_pr_mk": 10,
        "fine_tol_nr_mk": fine_mk,
        "fine_tol_t_mk": fine_mk,
        "fine_dt_init": 0.1,
        "fine_dt_max": 2.0,
        "dt_min": 1e-9,
        "coarse_tol_nr_mk": 10,
        "coarse_tol_t_mk": 20,
        "coarse_dt_init": 0.5,
        "coarse_dt_max": 2.0,
    }


def _linear(seed: int, rng: random.Random) -> dict:
    rate, initial = -1.0, [1.0, 2.0, 3.0]
    if seed != 0:
        rate = round(rate + rng.uniform(-RATE_JITTER, RATE_JITTER), 5)
        initial = [
            round(u * (1.0 + rng.uniform(-INITIAL_JITTER_REL, INITIAL_JITTER_REL)), 5)
            for u in initial
        ]
    return {
        "problem": "linear_test",
        "t_end": "1.0",
        "workers": 1,
        "problem_section": (
            f"[linear_test]\nrate = {rate!r}\ninitial = {', '.join(map(repr, initial))}\n"
        ),
        "n_windows": 8,
        # tol_pr equals the fine tol_t.  At 0.001 mK the windowed fine solves,
        # each restarting the step-size controller, end 0.0019 mK away from
        # the sequential fine solve (seed 0), so no run could pass the gate;
        # at 0.01 mK K stays 3 and the Newton work is unchanged.
        "tol_pr_mk": 0.01,
        "fine_tol_nr_mk": 1e-5,
        "fine_tol_t_mk": 0.01,
        "fine_dt_init": 0.05,
        "fine_dt_max": 0.25,
        "dt_min": 1e-12,
        "coarse_tol_nr_mk": 1e-5,
        "coarse_tol_t_mk": 5,
        "coarse_dt_init": 0.1,
        "coarse_dt_max": 0.5,
    }


def config_text(workload: str, seed: int, nproc: int) -> str:
    """Config file contents for ``workload`` at ``seed``; ``nproc`` caps the workers."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "linear-serial":
        fields = _linear(seed, rng)
    else:
        fields = _coil(workload, seed, rng, nproc)
    return _TEMPLATE.format(workload=workload, seed=seed, **fields)
