"""What the benchmark in perfbench/ uses of the program.

The benchmark's tracer replaces functions and methods by name, and its
span counters read some arguments by position; its workloads call the CLI
with fixed flags. A rename, a reordered signature or a deleted flag must
fail here rather than in a benchmark run.
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


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load_bench_module("tracing")


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


def test_workload_flags_parse():
    from evalign.cli import _build_config, build_parser

    parser = build_parser()
    # the set-up call of run.py's write_inputs
    parser.parse_args(["synth", "--scene", "s", "--motion", "m",
                       "--out", "o", "--seed", "7"])
    for wl in _load_bench_module("workloads").WORKLOADS.values():
        # the timed call of run.py's timed_call
        args = parser.parse_args([wl.command, "--events", "e", "--out", "o",
                                  "--intrinsics", "1,1,0,0", *wl.cli_args])
        _build_config(args)
