"""Shared fixtures: small synthetic scenes reused across test modules.

Scene generation is deterministic, so expensive fixtures are session-scoped.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from evalign import (
    CameraIntrinsics,
    MotionSpec,
    PlaneSpec,
    SceneSpec,
    generate,
    slice_windows,
)
from evalign import align, cli
from evalign.core import _taps
from evalign.likelihood import marginal_from_objective


@pytest.fixture(scope="session")
def intr():
    return CameraIntrinsics(fx=200.0, fy=200.0, cx=95.5, cy=59.5,
                            width=192, height=120)


def two_plane_scene(density=20.0):
    near = PlaneSpec(polygon=np.array([[44, 20], [114, 20],
                                       [114, 100], [44, 100]]),
                     depth=1.0, edge_density=density)
    far = PlaneSpec(polygon=np.array([[124, 8], [188, 8],
                                      [188, 112], [124, 112]]),
                    depth=2.0, edge_density=density)
    return SceneSpec(planes=(near, far))


def sway_motion(speed=0.5, duration=1.0, period=0.5):
    """Constant-speed x sway flipping sign every period/2 (keeps the scene
    in frame over long sequences while giving strong per-window flow)."""
    half = period / 2.0
    knots = np.arange(0.0, duration, half)
    rows = [[t, speed if k % 2 == 0 else -speed, 0.0, 0.0]
            for k, t in enumerate(knots)]
    return MotionSpec(v_profile=np.array(rows), duration=duration)


@pytest.fixture(scope="session")
def two_plane_run(intr):
    """One second of the standard two-plane sway scene plus its windows."""
    scene = two_plane_scene()
    motion = sway_motion()
    res = generate(scene, motion, intr, seed=7)
    windows = slice_windows(res.events, 0.05)
    return scene, motion, res, windows


@pytest.fixture(scope="session")
def rotation_run(intr):
    """Pure-rotation scene (pan + slight tilt), one plane, 0.3 s."""
    plane = PlaneSpec(polygon=np.array([[30, 16], [168, 16],
                                        [168, 104], [30, 104]]),
                      depth=1.5, edge_density=16.0)
    scene = SceneSpec(planes=(plane,))
    motion = MotionSpec(omega=np.array([0.05, 0.4, 0.0]), duration=0.3)
    res = generate(scene, motion, intr, seed=11)
    windows = slice_windows(res.events, 0.05)
    return scene, motion, res, windows


@pytest.fixture
def serial_scan(monkeypatch):
    """Calling the returned function swaps the pooled direction scan (the
    coarse scan and every refinement probe) for the plain loop that it must
    reproduce bit for bit."""
    def loop(obj, phis, grid):
        return np.array([marginal_from_objective(obj, p, grid) for p in phis])

    def enable():
        monkeypatch.setattr(align, "marginals_from_objective", loop)
    return enable


def _bincount_splat(positions, width, height):
    """The Gaussian splat as one weighted bincount over the tap-major
    flattened (batch, y, x) indices, dropping off-canvas taps. The tap
    weights are core._taps'; the indexing, masking and accumulation are
    this function's own."""
    b, n, _ = positions.shape
    x0, tx = _taps(positions[..., 0])
    y0, ty = _taps(positions[..., 1])
    idx, wts, ok = [], [], []
    for j in range(4):
        for i in range(4):
            xi, yi = x0 + (i - 1), y0 + (j - 1)
            idx.append((np.arange(b)[:, None] * height + yi.astype(np.int64))
                       * width + xi.astype(np.int64))
            wts.append(ty[j] * tx[i])
            ok.append((xi >= 0) & (xi < width) & (yi >= 0) & (yi < height))
    idx, wts, ok = np.stack(idx), np.stack(wts), np.stack(ok)
    flat = np.bincount(idx[ok], weights=wts[ok], minlength=b * height * width)
    return flat.reshape(b, height, width)


@pytest.fixture(scope="session")
def bincount_splat():
    """The fresh-canvas reference that core._splat, with or without out=,
    must equal bit for bit."""
    return _bincount_splat


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bench_workloads():
    """perfbench/workloads.py's WORKLOADS, loaded without writing bytecode
    into perfbench/."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.WORKLOADS


def bench_scenes(name):
    """(workload, scene seed) of every scene the benchmark renders for a
    workload at its default and its check seed: seed + 1000 * i, as
    perfbench/run.py derives them."""
    wl = _bench_workloads()[name]
    return [(name, seed + 1000 * i) for seed in (wl.seed, wl.check_seed)
            for i in range(wl.scenes)]


def _csv_row(path, t_start=None):
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    rows = [dict(zip(lines[0].split(","), ln.split(",")))
            for ln in lines[1:]]
    return rows[-1] if t_start is None else next(
        r for r in rows if r["t_start"] == t_start)


@pytest.fixture(scope="session")
def bench_scene(tmp_path_factory):
    """Runs one benchmark scene through the CLI as perfbench does (synth,
    then the workload's depth or angvel call) and returns its accuracy:
    ard, delta1 or rms, plus fallbacks, the direction searches that fell
    back to the coarse scan. Each scene runs once per session."""
    workloads = _bench_workloads()
    cache = {}

    def run(name, seed):
        if (name, seed) in cache:
            return cache[name, seed]
        wl = workloads[name]
        tmp = tmp_path_factory.mktemp(f"{name}-{seed}")
        (tmp / "scene.json").write_text(json.dumps(wl.scene_json()))
        (tmp / "motion.json").write_text(json.dumps(wl.motion))
        assert cli.main(["synth", "--scene", str(tmp / "scene.json"),
                         "--motion", str(tmp / "motion.json"),
                         "--out", str(tmp), "--seed", str(seed)]) == 0
        args = [str(tmp / a) if (tmp / a).is_file() else a
                for a in wl.cli_args]
        fallbacks = []
        coarse = align._coarse_direction

        def counted(*a, **kw):
            fallbacks.append(1)
            return coarse(*a, **kw)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(align, "_coarse_direction", counted)
            assert cli.main([
                wl.command, "--events", str(tmp / "events.evt"),
                "--out", str(tmp / "out"),
                "--intrinsics", ",".join(repr(v) for v in wl.intrinsics),
                *args]) == 0
        if wl.command == "depth":
            row = _csv_row(tmp / "out" / "depth_metrics.csv", "aggregate")
            acc = {"ard": float(row["ard"]), "delta1": float(row["delta1"])}
        else:
            row = _csv_row(tmp / "out" / "angvel_metrics.csv")
            acc = {"rms": float(row["rms"])}
        cache[name, seed] = dict(acc, fallbacks=len(fallbacks))
        return cache[name, seed]
    return run
