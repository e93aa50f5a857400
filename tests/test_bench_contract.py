"""What the benchmark in perfbench/ uses of the program.

The benchmark's tracer replaces functions and methods by name, and its
span counters read some arguments by position; its workloads call the CLI
with fixed flags. A rename, a reordered signature or a deleted flag must
fail here rather than in a benchmark run.
"""

import importlib
import importlib.util
import inspect
import json
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


def test_traced_runs_complete(tmp_path):
    """A traced multi-window depth run and a traced one-window angvel run
    exit 0: the pool is handed only module-level functions, which pickle
    although the tracer has replaced the names they call."""
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from tracing import Tracer\n"
        "from evalign.cli import main\n"
        "Tracer().install()\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    assert main(argv) == 0, argv\n"
    )
    from evalign.cli import main

    scene = {"width": 96, "height": 64, "fx": 100.0, "fy": 100.0,
             "cx": 47.5, "cy": 31.5, "noise_rate": 0.0,
             "planes": [{"polygon": [[8, 8], [44, 8], [44, 56], [8, 56]],
                         "depth": 1.0, "edge_density": 24.0},
                        {"polygon": [[52, 8], [88, 8], [88, 56], [52, 56]],
                         "depth": 2.0, "edge_density": 24.0}]}
    motions = {"sway": {"v": [0.3, 0.0, 0.0], "duration": 0.15},
               "turn": {"omega": [0.05, 0.3, 0.05], "duration": 0.05}}
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    for name, motion in motions.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(motion))
        assert main(["synth", "--scene", str(tmp_path / "scene.json"),
                     "--motion", str(tmp_path / f"{name}.json"),
                     "--out", str(tmp_path / name), "--seed", "3"]) == 0
    common = ["--intrinsics", "100,100,47.5,31.5", "--phi-samples", "8",
              "--grid-n", "12", "--min-events", "30"]
    runs = [
        ["depth", "--events", str(tmp_path / "sway" / "events.evt"),
         "--mask", str(tmp_path / "sway" / "masks.msk"),
         "--out", str(tmp_path / "depth"), *common],
        ["angvel", "--events", str(tmp_path / "turn" / "events.evt"),
         "--imu-gt", str(tmp_path / "turn" / "imu.imu"),
         "--out", str(tmp_path / "angvel"), *common],
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-B", "-c", script, str(BENCH),
                           json.dumps(runs)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
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
