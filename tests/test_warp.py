"""Rotational flow field, event warping, and IMU derotation."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from evalign import (
    AngularVelocity2,
    AngularVelocity3,
    CameraIntrinsics,
    Events,
    EventWindow,
    derotate,
    rot_flow,
)
from evalign.errors import ImuGapError, ValidationError
from evalign.warp import ImuTrace, warp_positions

INTR = CameraIntrinsics(fx=300.0, fy=300.0, cx=120.0, cy=120.0,
                        width=240, height=240)


def exact_rotation_flow(omega, px, intr, eps=1e-7):
    """Independent oracle: numeric time-derivative of the exact projection
    of a world point under camera rotation R(t) = exp([omega] t)."""
    x, y = px
    ray = np.array([(x - intr.cx) / intr.fx, (y - intr.cy) / intr.fy, 1.0])

    def project(t):
        R = Rotation.from_rotvec(np.asarray(omega) * t).as_matrix()
        pc = R.T @ ray
        return np.array([intr.fx * pc[0] / pc[2] + intr.cx,
                         intr.fy * pc[1] / pc[2] + intr.cy])

    return (project(eps) - project(-eps)) / (2 * eps)


class TestRotFlow:
    def test_zero_rotation(self):
        f = rot_flow(AngularVelocity3(0, 0, 0), (37.2, 190.0), INTR)
        assert f.u == 0.0 and f.v == 0.0

    def test_pan_at_principal_point(self):
        wy = 0.3
        f = rot_flow(AngularVelocity3(0.0, wy, 0.0), (INTR.cx, INTR.cy), INTR)
        assert f.u == pytest.approx(-INTR.fx * wy)
        assert f.v == pytest.approx(0.0)

    def test_general_omega_matches_exact_projection_derivative(self):
        omega = (0.1, -0.05, 0.02)
        f = rot_flow(AngularVelocity3(*omega), (200.0, 50.0), INTR)
        expected = exact_rotation_flow(omega, (200.0, 50.0), INTR)
        assert f.u == pytest.approx(expected[0], rel=1e-5)
        assert f.v == pytest.approx(expected[1], rel=1e-5)

    def test_linearity_in_omega(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w1 = rng.normal(size=3)
            w2 = rng.normal(size=3)
            a, b = rng.normal(size=2)
            px = tuple(rng.uniform(10, 230, 2))
            f1, f2, fc = (
                np.array(astuple(rot_flow(AngularVelocity3(*om), px, INTR)))
                for om in (w1, w2, a * w1 + b * w2))
            np.testing.assert_allclose(fc, a * f1 + b * f2, atol=1e-9)


class TestPolarForm:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            wx, wy = rng.normal(scale=2.0, size=2)
            om = AngularVelocity2.from_cartesian(wx, wy)
            assert om.wx == pytest.approx(wx, abs=1e-12)
            assert om.wy == pytest.approx(wy, abs=1e-12)
            again = AngularVelocity2.from_cartesian(om.wx, om.wy)
            assert again.m == pytest.approx(om.m, abs=1e-12)

    def test_phi_is_flow_direction_at_principal_point(self):
        # with fx = fy, the flow at the principal point points along phi
        for phi in np.linspace(0, 2 * math.pi, 13)[:-1]:
            om = AngularVelocity2(0.5, phi)
            f = rot_flow(om.as_3dof(), (INTR.cx, INTR.cy), INTR)
            angle = math.atan2(f.v, f.u) % (2 * math.pi)
            assert angle == pytest.approx(phi % (2 * math.pi), abs=1e-9)


def single_event_window(x, y, t, t_end=0.1):
    ev = Events(np.array([x]), np.array([y]), np.array([t]),
                np.array([1], dtype=np.int8))
    return EventWindow(ev, 0.0, t_end)


class TestWarpWindow:
    def test_zero_magnitude_is_identity(self):
        w = single_event_window(50.0, 60.0, 0.04)
        om = AngularVelocity2(0.0, 1.23)
        pos = warp_positions(w.events, om.as_3dof().as_array(), w.t_start,
                             INTR)
        np.testing.assert_allclose(pos, [[50.0, 60.0]])

    def test_event_at_t_ref_unmoved(self):
        w = single_event_window(50.0, 60.0, 0.0)
        om = AngularVelocity2(2.0, 0.7)
        pos = warp_positions(w.events, om.as_3dof().as_array(), w.t_start,
                             INTR)
        np.testing.assert_allclose(pos, [[50.0, 60.0]])

    def test_hand_computed_displacement(self):
        # event at the principal point, dt = 0.05, cartesian omega (0, 0.2):
        # flow u = -fx*wy = -60 px/s, warp displacement = -u*dt = +3 px
        w = single_event_window(INTR.cx, INTR.cy, 0.05)
        om = AngularVelocity2.from_cartesian(0.0, 0.2)
        pos = warp_positions(w.events, om.as_3dof().as_array(), w.t_start,
                             INTR)
        np.testing.assert_allclose(pos, [[INTR.cx + 3.0, INTR.cy]],
                                   atol=1e-12)

    def test_warp_then_inverse_returns_original(self):
        # displacement is linear in omega and evaluated at the original
        # pixel, so the omega and -omega displacements cancel exactly
        rng = np.random.default_rng(8)
        n = 200
        ev = Events(rng.uniform(20, 220, n), rng.uniform(20, 220, n),
                    np.sort(rng.uniform(0, 0.05, n)),
                    np.ones(n, dtype=np.int8))
        om = np.array([0.3, -0.2, 0.1])
        fwd = warp_positions(ev, om, 0.0, INTR)
        back = fwd + (warp_positions(ev, -om, 0.0, INTR) - ev.positions())
        np.testing.assert_allclose(back, ev.positions(), atol=1e-9)


class TestDerotate:
    def window(self, rng, n=300):
        ev = Events(rng.uniform(20, 220, n), rng.uniform(20, 220, n),
                    np.sort(rng.uniform(0, 0.05, n)),
                    np.ones(n, dtype=np.int8))
        return EventWindow(ev, 0.0, 0.05)

    def test_zero_imu_is_identity(self):
        rng = np.random.default_rng(9)
        w = self.window(rng)
        imu = ImuTrace(np.linspace(0, 0.05, 11), np.zeros((11, 3)))
        out = derotate(w, imu, INTR)
        np.testing.assert_allclose(out.events.positions(),
                                   w.events.positions())
        assert out.derotated

    def test_missing_imu_is_flagged_noop(self):
        rng = np.random.default_rng(10)
        w = self.window(rng)
        out = derotate(w, None, INTR)
        assert out is w
        assert not out.derotated

    def test_constant_imu_matches_warp_positions(self):
        rng = np.random.default_rng(11)
        w = self.window(rng)
        om = AngularVelocity2.from_cartesian(0.0, 0.2)
        imu = ImuTrace(np.linspace(0, 0.05, 11),
                       np.tile([om.wx, om.wy, 0.0], (11, 1)))
        out = derotate(w, imu, INTR)
        expected = warp_positions(w.events, om.as_3dof().as_array(),
                                  w.t_start, INTR)
        np.testing.assert_allclose(out.events.positions(), expected,
                                   atol=1e-9)

    @pytest.mark.parametrize("t, omega", [
        ([0.0, np.nan], np.zeros((2, 3))),
        ([0.0, 0.1], [[0.0, 0.0, 0.0], [0.0, np.inf, 0.0]]),
    ])
    def test_non_finite_trace_rejected(self, t, omega):
        with pytest.raises(ValidationError, match="finite"):
            ImuTrace(np.array(t), np.array(omega))

    def test_gap_larger_than_window_rejected(self):
        rng = np.random.default_rng(12)
        w = self.window(rng)
        imu = ImuTrace(np.array([-1.0, 2.0]), np.zeros((2, 3)))
        with pytest.raises(ImuGapError):
            derotate(w, imu, INTR)

    def test_pure_rotation_scene_collapses(self, intr, rotation_run):
        """Derotating with the exact trace must re-align events onto their
        window-start positions to within the linearization error."""
        _, _, res, windows = rotation_run
        w = windows[0]  # boundary-aligned with ref_xy frames
        out = derotate(w, res.imu, intr)
        n = len(w)
        ref = res.ref_xy[:n]
        valid = ~np.isnan(ref[:, 0])
        resid = np.linalg.norm(out.events.positions()[valid] - ref[valid],
                               axis=1)
        assert np.median(resid) < 0.3
        assert resid.max() < 1.0
