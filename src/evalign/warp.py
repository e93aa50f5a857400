"""Rotational flow field and event warping under a candidate angular velocity.

Conventions (camera frame: x right, y down, z forward):
  - rot_flow returns the image velocity induced by camera angular velocity
    omega, evaluated from the standard rotational flow field in normalized
    coordinates (depth never enters).
  - warp_positions displaces each event by -flow * (t - t_ref): a
    first-order warp back to the reference time. A rotation "compensates"
    a translation when its flow field equals the translational image flow,
    so the warp removes the drift.
  - The 2-DOF polar form (m, phi) parametrizes pan/tilt rotations by the
    image-plane direction phi of the flow they induce at the principal
    point: (wx, wy) = m * (sin phi, -cos phi). With fx = fy the flow at the
    principal point then points along (cos phi, sin phi) with magnitude
    f * m. This keeps "direction" synonymous with image-motion direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CameraIntrinsics, Events, EventWindow
from .errors import ImuGapError, ValidationError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AngularVelocity2:
    """Pan/tilt rotation in polar form: magnitude m (rad/s) and flow
    direction phi (radians in [0, 2pi))."""

    m: float
    phi: float

    def __post_init__(self):
        if self.m < 0:
            raise ValidationError("magnitude must be >= 0")
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)

    @property
    def wx(self) -> float:
        return self.m * math.sin(self.phi)

    @property
    def wy(self) -> float:
        return -self.m * math.cos(self.phi)

    @classmethod
    def from_cartesian(cls, wx: float, wy: float) -> "AngularVelocity2":
        m = math.hypot(wx, wy)
        phi = math.atan2(wx, -wy) % TWO_PI if m > 0 else 0.0
        return cls(m, phi)

    def as_3dof(self) -> "AngularVelocity3":
        return AngularVelocity3(self.wx, self.wy, 0.0)


@dataclass(frozen=True)
class AngularVelocity3:
    """Full 3-DOF angular velocity (rad/s) about the camera x, y, z axes."""

    wx: float
    wy: float
    wz: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.wx, self.wy, self.wz)):
            raise ValidationError("angular velocity must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.wx, self.wy, self.wz])


@dataclass(frozen=True)
class FlowVector:
    u: float
    v: float

    def magnitude(self) -> float:
        return math.hypot(self.u, self.v)


@dataclass(frozen=True)
class ImuTrace:
    """Angular-velocity samples (t strictly increasing, omega rows in rad/s)."""

    t: np.ndarray       # (n,)
    omega: np.ndarray   # (n, 3)

    def __post_init__(self):
        t = np.ascontiguousarray(self.t, dtype=np.float64)
        om = np.ascontiguousarray(self.omega, dtype=np.float64).reshape(-1, 3)
        if t.ndim != 1 or t.size != om.shape[0]:
            raise ValidationError("IMU sample arrays have inconsistent shapes")
        if not (np.isfinite(t).all() and np.isfinite(om).all()):
            raise ValidationError("IMU timestamps and rates must be finite")
        if t.size and np.any(np.diff(t) <= 0):
            raise ValidationError("IMU timestamps must be strictly increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "omega", om)

    def __len__(self):
        return self.t.size

    def integrate(self, t_from: float, t_to) -> np.ndarray:
        """Zero-order-hold integral of omega over [t_from, t_to] per target.

        Each sample's value holds until the next sample; the first sample
        extends backward and the last forward. Supports vector t_to and a
        scalar t_from (signed result when t_to < t_from).
        """
        t_to = np.atleast_1d(np.asarray(t_to, dtype=np.float64))
        if len(self) == 0:
            raise ImuGapError("empty IMU trace")
        # cumulative ZOH integral from self.t[0]
        knots = self.t
        seg = np.diff(knots)
        cum = np.zeros((len(self), 3))
        if len(self) > 1:
            cum[1:] = np.cumsum(seg[:, None] * self.omega[:-1], axis=0)

        def value_at(ts):
            i = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0, len(knots) - 1)
            return cum[i] + (ts - knots[i])[:, None] * self.omega[i]

        base = value_at(np.full(1, t_from))
        return value_at(t_to) - base


def flow_basis(x, y, intr: CameraIntrinsics) -> np.ndarray:
    """Per-pixel Jacobian J of the rotational flow: flow = J @ (wx, wy, wz).

    Returns an (..., 2, 3) array evaluated at pixel coordinates (x, y).
    """
    xb, yb = intr.normalized(x, y)
    xb = np.asarray(xb, dtype=np.float64)
    yb = np.asarray(yb, dtype=np.float64)
    J = np.empty(xb.shape + (2, 3))
    J[..., 0, 0] = intr.fx * xb * yb
    J[..., 0, 1] = -intr.fx * (1.0 + xb * xb)
    J[..., 0, 2] = intr.fx * yb
    J[..., 1, 0] = intr.fy * (1.0 + yb * yb)
    J[..., 1, 1] = -intr.fy * xb * yb
    J[..., 1, 2] = -intr.fy * xb
    return J


def rot_flow(omega: AngularVelocity3, px, intr: CameraIntrinsics) -> FlowVector:
    """Rotational image flow (pixels/second) at pixel px = (x, y).

    Depth-independent by construction: only normalized coordinates and the
    angular velocity enter.
    """
    x, y = px
    uv = flow_basis(x, y, intr) @ omega.as_array()
    return FlowVector(float(uv[0]), float(uv[1]))


def warp_positions(events: Events, omega3: np.ndarray, t_ref: float,
                   intr: CameraIntrinsics) -> np.ndarray:
    """First-order warp of event positions back to t_ref under constant omega3."""
    J = flow_basis(events.x, events.y, intr)
    flow = J @ np.asarray(omega3, dtype=np.float64)
    dt = (events.t - t_ref)[:, None]
    return events.positions() - flow * dt


def derotate(w: EventWindow, imu: ImuTrace | None,
             intr: CameraIntrinsics) -> EventWindow:
    """Remove the IMU-measured rotational motion from a window's events.

    Each event is displaced by -J(px) @ Theta where Theta is the
    zero-order-hold integral of the IMU angular velocity from t_start to the
    event time (the flow is linear in omega, so integrating the rate and
    applying the flow once are equivalent at first order).

    A missing trace is a no-op: the input window is returned with
    derotated=False so callers can see rotation was not removed. Sample
    gaps larger than the window span raise ImuGapError.
    """
    if imu is None or len(imu) == 0:
        return w
    span = w.span
    inside = imu.t[(imu.t >= w.t_start) & (imu.t <= w.t_end)]
    if len(inside):
        gap = np.max(np.diff(np.concatenate(([w.t_start], inside, [w.t_end]))))
    else:
        mid = 0.5 * (w.t_start + w.t_end)
        outside = max(float(np.min(np.abs(imu.t - mid))) - 0.5 * span, 0.0)
        gap = span + outside
    if gap > span + 1e-12:
        raise ImuGapError("IMU gap larger than the window span")
    ev = w.events
    if len(ev) == 0:
        return EventWindow(ev, w.t_start, w.t_end, derotated=True)
    theta = imu.integrate(w.t_start, ev.t)  # (n, 3) integrated rotation
    J = flow_basis(ev.x, ev.y, intr)
    disp = np.einsum("nij,nj->ni", J, theta)
    pos = ev.positions() - disp
    out = Events(pos[:, 0], pos[:, 1], ev.t, ev.p)
    return EventWindow(out, w.t_start, w.t_end, derotated=True)
