"""The lazy package exports: every public name still resolves.

Each package re-exports its submodules' names through
:func:`repro._lazy.lazy_exports`; these tests pin that the lazy path
gives exactly what eager ``from .sub import name`` imports gave.
"""

import importlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = (
    "analysis", "area", "axi", "baselines", "faults", "orchestrate", "sim",
    "soc", "telemetry", "tmu",
)


@pytest.fixture(params=PACKAGES)
def package(request):
    return importlib.import_module(f"repro.{request.param}")


def test_every_export_is_its_submodules_object(package):
    exported = set(itertools.chain.from_iterable(package._EXPORTS.values()))
    # Names outside the table (area's gf12 module) are bound eagerly.
    eager = set(package.__all__) - exported
    assert eager <= set(vars(package)), eager
    assert exported <= set(package.__all__), exported - set(package.__all__)
    for module, names in package._EXPORTS.items():
        submodule = importlib.import_module(f"{package.__name__}.{module}")
        for name in names:
            assert getattr(package, name) is getattr(submodule, name), name
            # Resolved once, then a plain module global.
            assert vars(package)[name] is getattr(submodule, name)


def test_star_import_binds_every_name(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    for name in package.__all__:
        assert namespace[name] is getattr(package, name), name


def test_dir_lists_every_name(package):
    assert set(package.__all__) <= set(dir(package))


def test_unknown_name_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


@pytest.mark.parametrize("name", PACKAGES)
def test_importing_a_package_runs_none_of_its_submodules(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(repro.__file__).resolve().parent.parent),
                      env.get("PYTHONPATH")])
    )
    probe = (
        f"import sys, repro.{name} as package\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(package.__name__ + '.')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    )
    # area binds its gf12 constants module (stdlib only) eagerly.
    expected = ["repro.area.gf12"] if name == "area" else []
    assert done.stdout.strip() == repr(expected)
