"""Shared fixtures: small synthetic scenes reused across test modules.

Scene generation is deterministic, so expensive fixtures are session-scoped.
"""

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
from evalign import align
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
    """The bilinear splat as one weighted bincount over the corner-major
    flattened (batch, y, x) indices, dropping off-canvas fragments."""
    b, n, _ = positions.shape
    x0 = np.floor(positions[..., 0])
    y0 = np.floor(positions[..., 1])
    fx = positions[..., 0] - x0
    fy = positions[..., 1] - y0
    base = (np.arange(b)[:, None] * height
            + y0.astype(np.int64)) * width + x0.astype(np.int64)
    idx = np.stack([base, base + 1, base + width, base + width + 1])
    wts = np.stack([(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy,
                    fx * fy])
    x_in = ((x0 >= 0) & (x0 < width), (x0 >= -1) & (x0 < width - 1))
    y_in = ((y0 >= 0) & (y0 < height), (y0 >= -1) & (y0 < height - 1))
    ok = np.stack([xi & yi for yi in y_in for xi in x_in])
    flat = np.bincount(idx[ok], weights=wts[ok], minlength=b * height * width)
    return flat.reshape(b, height, width)


@pytest.fixture(scope="session")
def bincount_splat():
    """The fresh-canvas reference that core._splat, with or without out=,
    must equal bit for bit."""
    return _bincount_splat
