import parcoil
from parcoil import coil, config, diagnostics, parareal, problem, stepper

MODULES = (coil, config, diagnostics, parareal, problem, stepper)


def test_package_all_is_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(parcoil.__all__) == sorted([*names, "__version__"])


def test_every_exported_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(parcoil, name) is getattr(module, name)
    assert parcoil.__version__ == "0.1.0"
