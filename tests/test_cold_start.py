"""Cold start: each command imports only what it runs.

Package ``__init__``s re-export lazily (:mod:`repro._lazy`) and NumPy /
SciPy load only in the modules that compute with arrays, so a fresh
``python -m repro table1`` never pays for the MPI compiler, the static
analyzer, the campaign layer or the array stack.  These tests run fresh
interpreters and read ``sys.modules`` to hold that budget, check that
every lazily exported name still resolves, and gate the one NumPy switch
(:mod:`repro.perf.batch`): a NumPy that is absent or broken takes the
scalar fallback instead of failing an import.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: Modules a model-only command must not load.
HEAVY = (
    "numpy",
    "scipy",
    "multiprocessing",
    "repro.mpi.compile",
    "repro.analyze",
    "repro.campaign",
)

PACKAGES = ["repro"] + sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
)

#: Packages whose re-exports include NumPy kernels (apps datasets,
#: the NPB random-number generator).
ARRAY_PACKAGES = ("repro.apps", "repro.npb")

# Runs ``python -m repro ARGS...`` in this interpreter (stdout swallowed),
# then prints the loaded module names as JSON.
_RUN_CLI = """
import contextlib, io, json, runpy, sys
sys.argv = ["repro", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert not exc.code, f"exit status {exc.code}"
print(json.dumps(sorted(sys.modules)))
"""


def _python(code: str, *args: str, pythonpath: str = SRC) -> str:
    env = dict(os.environ, PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(code: str, *args: str) -> set:
    return set(json.loads(_python(code, *args).splitlines()[-1]))


def _heavy(modules: set) -> list:
    return sorted(
        m for m in modules
        if any(m == h or m.startswith(h + ".") for h in HEAVY)
    )


# ------------------------------------------------------------ import budget


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_import_loads_nothing_heavy(module):
    modules = _loaded(
        f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    )
    assert module in modules
    assert _heavy(modules) == []


@pytest.mark.parametrize("argv", [["table1"], ["figure", "8"]])
def test_model_commands_load_nothing_heavy(argv):
    assert _heavy(_loaded(_RUN_CLI, *argv)) == []


def test_figure20_prices_npb_without_scipy():
    modules = _loaded(_RUN_CLI, "figure", "20")
    assert "repro.npb.suite" in modules
    assert not any(m == "scipy" or m.startswith("scipy.") for m in modules)


def test_cli_runs_without_numpy():
    """table1, modes and figures 4-20, 24-27 never touch the array stack
    (figures 21-23 run the OVERFLOW/Cart3D solvers, which need it)."""
    commands = [["table1"], ["modes"]] + [
        ["figure", str(n)] for n in (*range(4, 21), *range(24, 28))
    ]
    code = textwrap.dedent(
        """
        import contextlib, io, json, sys
        sys.modules["numpy"] = None  # "import numpy" now raises ImportError
        sys.modules["scipy"] = None
        from repro.cli import main
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        from repro.perf.batch import get_numpy
        assert get_numpy() is None
        print("ok")
        """
    )
    assert _python(code, json.dumps(commands)).split() == ["ok"]


# ------------------------------------------------------- lazy package exports


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    if package in ARRAY_PACKAGES:
        pytest.importorskip("numpy")
    mod = importlib.import_module(package)
    listed = dir(mod)
    for name in mod.__all__:
        assert name in listed, f"{package}.{name} missing from dir()"
        getattr(mod, name)  # a typo in the lazy table raises here


def test_exports_are_the_defining_objects():
    from repro.core.evaluator import Evaluator
    from repro.mpi.runtime import MpiJob
    from repro.perf.batch import get_numpy

    import repro.mpi
    import repro.perf

    assert repro.Evaluator is Evaluator
    assert repro.core.Evaluator is Evaluator
    assert repro.mpi.MpiJob is MpiJob
    assert repro.perf.get_numpy is get_numpy


def test_unknown_names_raise_attribute_error():
    import repro.mpi

    with pytest.raises(AttributeError, match="no attribute 'NoSuchThing'"):
        repro.mpi.NoSuchThing
    assert not hasattr(repro.mpi, "no_such_submodule")


def test_submodules_stay_reachable_as_attributes():
    code = "import repro; print(repro.machine.presets.maia_node().__class__.__name__)"
    assert _python(code).strip() == "MaiaNode"


# -------------------------------------------------------------- numpy gate


def test_broken_numpy_takes_the_scalar_fallback(tmp_path):
    """A NumPy that is found but fails to import counts as absent: batch
    pricing warns once and returns the scalar loop's numbers, and the
    collective schedules take their list recurrences."""
    fake = tmp_path / "numpy"
    fake.mkdir()
    (fake / "__init__.py").write_text(
        'raise ImportError("the numpy C-extensions failed to import")\n'
    )
    code = textwrap.dedent(
        """
        import warnings
        from repro.perf.batch import HAVE_NUMPY, get_numpy
        assert HAVE_NUMPY and get_numpy() is None

        from repro.execmodel.batch import kernel_time_batch
        from repro.execmodel.roofline import kernel_time
        from repro.machine.presets import xeon_phi_5110p
        from repro.machine.processor import Processor
        from repro.mpi.collectives import allreduce_schedule
        from repro.mpi.fabrics import host_fabric
        from repro.npb.characterization import class_c_kernel

        phi = Processor(xeon_phi_5110p())
        kern = class_c_kernel("CG")
        counts = [59, 118, 177]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = kernel_time_batch(kern, phi, counts, check_memory=False)
            kernel_time_batch(kern, phi, counts, check_memory=False)
        assert len(caught) == 1, [str(w.message) for w in caught]
        expect = [kernel_time(kern, phi, n, check_memory=False).total
                  for n in counts]
        assert batch.total == expect, (batch.total, expect)

        arrivals = [i * 1e-6 for i in range(256)]
        assert len(allreduce_schedule(host_fabric(), 256, 64, arrivals)) == 256
        print("ok")
        """
    )
    out = _python(code, pythonpath=os.pathsep.join((str(tmp_path), SRC)))
    assert out.split() == ["ok"]
