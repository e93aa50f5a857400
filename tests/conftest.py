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
