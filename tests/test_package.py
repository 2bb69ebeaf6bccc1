import os
import subprocess
import sys

import pytest

import parcoil
from parcoil import coil, config, diagnostics, parareal, problem, stepper

MODULES = (coil, config, diagnostics, parareal, problem, stepper)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Import, build the shipped problem and run a command, then report which
# of numpy and concurrent.futures were imported.
COMMAND_PATH = """
import sys
import parcoil
import parcoil.cli
parcoil.make_problem(parcoil.load_run_config(sys.argv[1]))
assert parcoil.cli.main(["sequential", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(sorted({"numpy", "concurrent.futures"} & set(sys.modules)))
"""


def test_package_all_is_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(parcoil.__all__) == sorted([*names, "__version__"])


def test_every_exported_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(parcoil, name) is getattr(module, name)
    assert parcoil.__version__ == "0.1.0"


def test_command_path_imports_no_numpy(tmp_path):
    cfg = os.path.join(REPO_ROOT, "configs", "ni_coil.cfg")
    src = os.path.join(REPO_ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", COMMAND_PATH, cfg, str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "trajectory.csv").exists()


def test_process_pool_executor_resolves_on_first_access():
    import concurrent.futures

    assert parareal.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor


def test_unknown_parareal_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        parareal.no_such_name
