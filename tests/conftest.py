import contextlib
import dataclasses
import os

import pytest

from parcoil import CoilProblem, LinearTestProblem, StepperTolerances

ALLOWED_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1

# the PararealReport fields that hold wall-clock times
WALL_FIELDS = frozenset(
    {
        "time_ghat",
        "time_g_per_window_per_iter",
        "time_f_per_window_per_iter",
        "total_wall",
        "time_loop_open",
        "time_loop_close",
    }
)


@contextlib.contextmanager
def lowest_cpus(count):
    """Run the block on this process's ``count`` lowest allowed CPUs; restore its mask after."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(sorted(mask)[:count]))
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


def run_fingerprint(traj, report):
    """Every result of one run but its wall times: the trajectory and each other report field.

    ``repr`` writes every float exactly, so two fingerprints are equal only
    if the two runs agree bit for bit.
    """
    fields = {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if f.name not in WALL_FIELDS
    }
    return repr((traj.times, traj.states, fields))


@pytest.fixture(scope="session")
def coil_problem():
    return CoilProblem()


@pytest.fixture(scope="session")
def linear_problem():
    return LinearTestProblem(-1.0, (1.0,))


@pytest.fixture
def fine_tols():
    return StepperTolerances(tol_nr=1e-4, tol_t=1e-4, dt_init=0.1, dt_min=1e-9, dt_max=2.0)


@pytest.fixture
def coarse_tols():
    return StepperTolerances(tol_nr=1e-2, tol_t=2e-2, dt_init=0.5, dt_min=1e-9, dt_max=2.0)
