"""The names that perfbench/tracing.py wraps from outside the package.

The benchmark's tracer replaces functions and methods by name, and its
span counters read some arguments by position. A rename or a reordered
signature must fail here rather than in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evalign
from evalign import likelihood

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(evalign.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_traced_functions_resolve(tracing):
    for module, attr, _ in tracing._FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), \
            f"{module}.{attr}"


def test_traced_methods_resolve(tracing):
    for cls_name, attr, _ in tracing._METHODS:
        assert callable(getattr(getattr(likelihood, cls_name), attr)), \
            f"{cls_name}.{attr}"
    assert callable(likelihood.MagnitudeGrid.for_window)


def test_counted_arguments_keep_their_positions():
    from evalign import align

    def params(fn):
        return list(inspect.signature(fn).parameters)

    # _count_magnitude reads the grid as args[3]; _count_ray reads the
    # objective and the magnitudes as args[0] and args[2]
    assert params(align.estimate_magnitude)[3] == "grid"
    assert params(likelihood.WindowObjective.log_likelihood_ray) == \
        ["self", "phi", "m_values"]


def test_tracer_installs():
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from tracing import Tracer; Tracer().install()")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-B", "-c", script, str(BENCH)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
