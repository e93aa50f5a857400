"""Synthetic generator: crossing-time exactness, determinism, ground truth,
and the analytic compensation oracle."""

import math

import numpy as np
import pytest

from evalign import (
    AngularVelocity2,
    CameraIntrinsics,
    MotionSpec,
    PlaneSpec,
    SceneSpec,
    analytic_compensation,
    generate,
    slice_windows,
)
from evalign.errors import ValidationError
from evalign.synth import _backproject, _edge_events, _Pose, polygon_centroid


@pytest.fixture
def small_intr():
    return CameraIntrinsics(fx=150.0, fy=150.0, cx=79.5, cy=59.5,
                            width=160, height=120)


def plain_scene(density=8.0, depth=1.0):
    plane = PlaneSpec(polygon=np.array([[20, 20], [140, 20],
                                        [140, 100], [20, 100]]),
                      depth=depth, edge_density=density)
    return SceneSpec(planes=(plane,))


class TestMotionSpec:
    @pytest.mark.parametrize("kwargs", [
        {"omega_profile": [[0.0, np.nan, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]},
        {"omega_profile": [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, np.inf]]},
        {"omega": [np.inf, 0.0, 0.0]},
        {"omega": [0.0, np.nan, 0.0]},
    ])
    def test_non_finite_angular_velocity_rejected(self, kwargs):
        with pytest.raises(ValidationError, match="finite"):
            MotionSpec(**kwargs)


class TestGenerate:
    def test_zero_motion_zero_noise_is_silent(self, small_intr):
        res = generate(plain_scene(), MotionSpec(v=[0, 0, 0], duration=0.5),
                       small_intr, seed=1)
        assert len(res.events) == 0

    def test_determinism(self, small_intr):
        motion = MotionSpec(v=[0.3, 0.1, 0.0], duration=0.4)
        scene = plain_scene()
        a = generate(scene, motion, small_intr, seed=42)
        b = generate(scene, motion, small_intr, seed=42)
        assert np.array_equal(a.events.t, b.events.t)
        assert np.array_equal(a.events.x, b.events.x)
        assert np.array_equal(a.events.y, b.events.y)
        assert np.array_equal(a.events.p, b.events.p)

    def test_all_zero_omega_profile_is_no_rotation(self, small_intr):
        scene = plain_scene()
        still = MotionSpec(v=[0.3, 0.1, 0.0], duration=0.2)
        zero = MotionSpec(v=[0.3, 0.1, 0.0], duration=0.2,
                          omega_profile=[[0, 0, 0, 0], [1, 0, 0, 0]])
        a = generate(scene, still, small_intr, seed=4)
        b = generate(scene, zero, small_intr, seed=4)
        assert len(a.events) > 0
        for field in ("x", "y", "t", "p"):
            assert np.array_equal(getattr(a.events, field),
                                  getattr(b.events, field))

    def test_vertical_edge_crossing_spacing(self, small_intr):
        """Analytic oracle: a vertical edge under pure x translation crosses
        consecutive pixel centers on a row every z/(fx*vx) seconds."""
        z, vx = 1.25, 0.4
        motion = MotionSpec(v=[vx, 0.0, 0.0], duration=0.5)
        pose = _Pose(motion)
        pa = _backproject(np.array([[60.0, 30.0]]), z, 0.0, pose,
                          small_intr)[0]
        pb = _backproject(np.array([[60.0, 90.0]]), z, 0.0, pose,
                          small_intr)[0]
        ex, ey, et, ep = _edge_events(pa, pb, pose, small_intr, 0.5,
                                      np.empty(0))
        assert len(et) > 100
        expected_gap = z / (small_intr.fx * vx)
        row = ey == 50.0
        ts = np.sort(et[row])
        gaps = np.diff(ts)
        np.testing.assert_allclose(gaps, expected_gap, rtol=1e-9)
        # flow is -x, so edges sweep toward smaller x: one polarity per row
        assert len(set(ep[row])) == 1

    def test_events_lie_on_pixel_centers(self, small_intr):
        res = generate(plain_scene(), MotionSpec(v=[0.3, 0.0, 0.0],
                                                 duration=0.3),
                       small_intr, seed=2)
        assert np.all(res.events.x == np.rint(res.events.x))
        assert np.all(res.events.y == np.rint(res.events.y))

    def test_count_scales_with_speed(self, small_intr):
        scene = plain_scene(density=10.0)
        n1 = len(generate(scene, MotionSpec(v=[0.2, 0, 0], duration=0.4),
                          small_intr, seed=5).events)
        n2 = len(generate(scene, MotionSpec(v=[0.4, 0, 0], duration=0.4),
                          small_intr, seed=5).events)
        assert n2 / n1 == pytest.approx(2.0, rel=0.1)

    def test_count_scales_with_inverse_depth(self, small_intr):
        motion = MotionSpec(v=[0.25, 0, 0], duration=0.4)
        n1 = len(generate(plain_scene(density=10.0, depth=1.0), motion,
                          small_intr, seed=6).events)
        n2 = len(generate(plain_scene(density=10.0, depth=2.0), motion,
                          small_intr, seed=6).events)
        assert n1 / n2 == pytest.approx(2.0, rel=0.1)

    def test_count_scales_with_edge_density(self, small_intr):
        motion = MotionSpec(v=[0.25, 0, 0], duration=0.4)
        n1 = len(generate(plain_scene(density=30.0), motion, small_intr,
                          seed=7).events)
        n2 = len(generate(plain_scene(density=60.0), motion, small_intr,
                          seed=7).events)
        assert n2 / n1 == pytest.approx(2.0, rel=0.1)

    def test_noise_rate(self, small_intr):
        scene = SceneSpec(planes=plain_scene().planes, noise_rate=0.02)
        res = generate(scene, MotionSpec(v=[0, 0, 0], duration=0.5),
                       small_intr, seed=8)
        expected = 0.02 * 160 * 120 * 0.5
        assert len(res.events) == pytest.approx(expected, rel=0.25)
        assert np.all(res.event_region == 0)
        assert np.all(np.isnan(res.ref_xy))

    def test_hot_pixels_fire_independent_of_motion(self, small_intr):
        scene = SceneSpec(planes=plain_scene().planes,
                          hot_pixels=((40, 40, 200.0),))
        still = generate(scene, MotionSpec(v=[0, 0, 0], duration=0.5),
                         small_intr, seed=9)
        moving = generate(scene, MotionSpec(v=[0.3, 0, 0], duration=0.5),
                          small_intr, seed=9)

        def hot_count(res):
            return int(np.sum((res.events.x == 40) & (res.events.y == 40)
                              & (res.event_region == 0)))

        assert hot_count(still) == hot_count(moving) == 100

    def test_overlapping_planes_rejected(self, small_intr):
        a = PlaneSpec(polygon=np.array([[20, 20], [90, 20], [90, 90],
                                        [20, 90]]), depth=1.0,
                      edge_density=5.0)
        b = PlaneSpec(polygon=np.array([[80, 20], [150, 20], [150, 90],
                                        [80, 90]]), depth=2.0,
                      edge_density=5.0)
        with pytest.raises(ValidationError, match="overlap"):
            generate(SceneSpec(planes=(a, b)),
                     MotionSpec(v=[0, 0, 0], duration=0.1), small_intr,
                     seed=0)

    def test_gt_masks_and_depths(self, small_intr):
        res = generate(plain_scene(), MotionSpec(v=[0.2, 0, 0.1],
                                                 duration=0.3),
                       small_intr, seed=10)
        assert len(res.windows) == 6
        for k, gw in enumerate(res.windows):
            assert gw.t_start == pytest.approx(k * 0.05)
            assert gw.depths[1] == pytest.approx(1.0 - 0.1 * gw.t_start)
            assert gw.mask.size(1) > 0

    @pytest.mark.parametrize("duration", [0.22, 0.3, 1.0])
    def test_every_window_has_ground_truth(self, small_intr, duration):
        res = generate(plain_scene(), MotionSpec(v=[0.1, 0.05, 0],
                                                 duration=duration),
                       small_intr, seed=12)
        windows = slice_windows(res.events, 0.05)
        assert [w.t_start for w in windows] == \
            [gw.t_start for gw in res.windows]

    def test_ref_xy_matches_window_start_positions(self, small_intr):
        """Each edge event's recorded reference position must equal the
        event pixel displaced by the integrated flow, exactly for pure
        translation."""
        z, vx = 1.0, 0.3
        res = generate(plain_scene(), MotionSpec(v=[vx, 0, 0],
                                                 duration=0.25),
                       small_intr, seed=11)
        t = res.events.t
        k = np.minimum((t / 0.05).astype(int), len(res.windows) - 1)
        dt = t - k * 0.05
        u = -small_intr.fx * vx / z  # constant translational flow
        expected_x = res.events.x - u * dt
        np.testing.assert_allclose(res.ref_xy[:, 0], expected_x, atol=1e-9)
        np.testing.assert_allclose(res.ref_xy[:, 1], res.events.y,
                                   atol=1e-9)


class TestAnalyticCompensation:
    def test_zero_velocity(self, small_intr):
        om = analytic_compensation(plain_scene(),
                                   MotionSpec(v=[0, 0, 0], duration=1.0),
                                   1, small_intr)
        assert om.m == 0.0

    def test_principal_point_pan(self, small_intr):
        # at the principal point the 2x2 system reduces to wy = vx / z
        vx, z = 0.3, 1.5
        scene = SceneSpec(planes=(PlaneSpec(
            polygon=np.array([[59.5, 39.5], [99.5, 39.5], [99.5, 79.5],
                              [59.5, 79.5]]), depth=z, edge_density=5.0),))
        om = analytic_compensation(scene, MotionSpec(v=[vx, 0, 0],
                                                     duration=1.0),
                                   1, small_intr)
        assert om.wy == pytest.approx(vx / z, rel=1e-9)
        assert om.wx == pytest.approx(0.0, abs=1e-12)
        assert om.phi == pytest.approx(math.pi, rel=1e-9)

    def test_depth_doubling_halves_omega(self, small_intr):
        motion = MotionSpec(v=[0.2, -0.1, 0], duration=1.0)
        c = (70.0, 55.0)
        om1 = analytic_compensation(plain_scene(depth=1.0), motion, 1,
                                    small_intr, centroid=c)
        om2 = analytic_compensation(plain_scene(depth=2.0), motion, 1,
                                    small_intr, centroid=c)
        assert om1.m == pytest.approx(2.0 * om2.m, rel=1e-12)
        assert om1.phi == pytest.approx(om2.phi, abs=1e-12)

    def test_z_motion_rejected(self, small_intr):
        with pytest.raises(ValidationError, match="assumption"):
            analytic_compensation(plain_scene(),
                                  MotionSpec(v=[0.1, 0, 0.05],
                                             duration=1.0),
                                  1, small_intr)

    def test_flow_cancellation(self, small_intr):
        """The returned rotation's flow at the centroid equals the
        translational flow there (warp-cancellation form)."""
        from evalign import rot_flow

        scene = plain_scene(depth=1.3)
        motion = MotionSpec(v=[0.25, -0.15, 0.0], duration=1.0)
        om = analytic_compensation(scene, motion, 1, small_intr)
        c = polygon_centroid(scene.planes[0].polygon)
        f = rot_flow(om.as_3dof(), c, small_intr)
        assert f.u == pytest.approx(-small_intr.fx * 0.25 / 1.3, rel=1e-9)
        assert f.v == pytest.approx(-small_intr.fy * -0.15 / 1.3, rel=1e-9)
