"""Synthetic event generator and analytic oracle.

Scenes are fronto-parallel textured planes at known depths, observed by a
camera under known motion. Texture is a set of straight edge segments
fixed on each plane; an event fires whenever a moving edge's image crosses
a pixel center (one event per crossing, polarity from the crossing
direction). Crossing times come from sign changes of the point-line
crossing function sampled on a fine time grid, refined by linear
interpolation; for rotation-free motion the crossing function is exactly
linear in time, so those timings are exact to float precision.

Randomness (edge placement, background noise) uses numpy's PCG64 generator
seeded explicitly: the same seed reproduces the identical event stream on
any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

from .core import CameraIntrinsics, Events, RegionMask
from .errors import ValidationError
from .warp import AngularVelocity2, ImuTrace

EDGE_LEN_RANGE = (12.0, 28.0)  # px
MAX_STEP_PX = 0.25             # max image motion per integration substep
IMU_RATE = 200.0               # Hz
MIN_CLEARANCE = 0.05           # m; camera may not get closer to a plane


@dataclass(frozen=True)
class PlaneSpec:
    """A fronto-parallel plane: image-space polygon at t=0, metric depth,
    and texture density in edge segments per 100x100 px of region area."""

    polygon: np.ndarray  # (n_v, 2) pixel coordinates, t=0
    depth: float
    edge_density: float

    def __post_init__(self):
        poly = np.ascontiguousarray(self.polygon, dtype=np.float64)
        if poly.ndim != 2 or poly.shape[0] < 3 or poly.shape[1] != 2:
            raise ValidationError("polygon must be (n>=3, 2)")
        if self.depth <= 0:
            raise ValidationError("plane depth must be positive")
        if self.edge_density <= 0:
            raise ValidationError("edge density must be positive")
        object.__setattr__(self, "polygon", poly)


@dataclass(frozen=True)
class SceneSpec:
    planes: tuple[PlaneSpec, ...]
    noise_rate: float = 0.0  # events / pixel / second
    hot_pixels: tuple[tuple[int, int, float], ...] = ()  # (x, y, rate)

    def __post_init__(self):
        object.__setattr__(self, "planes", tuple(self.planes))
        object.__setattr__(self, "hot_pixels", tuple(
            (int(x), int(y), float(r)) for x, y, r in self.hot_pixels))
        if self.noise_rate < 0:
            raise ValidationError("noise rate must be >= 0")


@dataclass(frozen=True)
class MotionSpec:
    """Camera motion over [0, duration].

    Linear velocity: constant `v` (m/s, world frame) or a zero-order-hold
    `v_profile` of rows (t, vx, vy, vz) so sequences can sway back and
    forth without drifting out of frame. Angular velocity (rad/s, body
    frame): constant `omega` or a piecewise-linear `omega_profile` of rows
    (t, wx, wy, wz).
    """

    v: np.ndarray | None = None
    omega: np.ndarray | None = None
    v_profile: np.ndarray | None = None
    omega_profile: np.ndarray | None = None
    duration: float = 1.0

    def __post_init__(self):
        if self.duration <= 0:
            raise ValidationError("duration must be positive")
        if self.v_profile is not None:
            prof = np.ascontiguousarray(self.v_profile, dtype=np.float64)
            if prof.ndim != 2 or prof.shape[1] != 4:
                raise ValidationError("v_profile rows must be (t, vx, vy, vz)")
            if np.any(np.diff(prof[:, 0]) <= 0):
                raise ValidationError("v_profile times must increase")
            if not np.all(np.isfinite(prof)):
                raise ValidationError("velocity must be finite")
            if prof[0, 0] != 0.0:
                raise ValidationError("v_profile must start at t=0")
            object.__setattr__(self, "v_profile", prof)
            object.__setattr__(self, "v", None)
        else:
            v = np.zeros(3) if self.v is None else (
                np.ascontiguousarray(self.v, dtype=np.float64).reshape(3))
            if not np.all(np.isfinite(v)):
                raise ValidationError("velocity must be finite")
            object.__setattr__(self, "v", v)
        if self.omega_profile is not None:
            prof = np.ascontiguousarray(self.omega_profile, dtype=np.float64)
            if prof.ndim != 2 or prof.shape[1] != 4:
                raise ValidationError("omega_profile rows must be (t, wx, wy, wz)")
            if np.any(np.diff(prof[:, 0]) <= 0):
                raise ValidationError("omega_profile times must increase")
            if not np.all(np.isfinite(prof)):
                raise ValidationError("angular velocity must be finite")
            if prof[0, 0] != 0.0:
                raise ValidationError("omega_profile must start at t=0")
            object.__setattr__(self, "omega_profile", prof)
            object.__setattr__(self, "omega", None)
        else:
            om = np.zeros(3) if self.omega is None else (
                np.ascontiguousarray(self.omega, dtype=np.float64).reshape(3))
            if not np.all(np.isfinite(om)):
                raise ValidationError("angular velocity must be finite")
            object.__setattr__(self, "omega", om)

    def omega_at(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if self.omega_profile is None:
            return np.broadcast_to(self.omega, (t.size, 3)).copy()
        prof = self.omega_profile
        out = np.empty((t.size, 3))
        for a in range(3):
            out[:, a] = np.interp(t, prof[:, 0], prof[:, a + 1])
        return out

    def v_at(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if self.v_profile is None:
            return np.broadcast_to(self.v, (t.size, 3)).copy()
        prof = self.v_profile
        i = np.clip(np.searchsorted(prof[:, 0], t, side="right") - 1,
                    0, prof.shape[0] - 1)
        return prof[i, 1:]

    @property
    def knot_times(self) -> np.ndarray:
        knots = []
        if self.v_profile is not None:
            knots.append(self.v_profile[:, 0])
        if self.omega_profile is not None:
            knots.append(self.omega_profile[:, 0])
        if not knots:
            return np.empty(0)
        k = np.unique(np.concatenate(knots))
        return k[(k > 0) & (k < self.duration)]

    @property
    def has_z_motion(self) -> bool:
        if self.v_profile is not None:
            return bool(np.any(self.v_profile[:, 3] != 0))
        return bool(self.v[2] != 0)

    @property
    def rotating(self) -> bool:
        if self.omega_profile is not None:
            return bool(np.any(self.omega_profile[:, 1:] != 0))
        return bool(np.any(self.omega != 0))


@dataclass(frozen=True)
class GtWindow:
    t_start: float
    mask: RegionMask
    depths: dict[int, float]  # region id -> camera-frame depth (m)


@dataclass(frozen=True)
class SynthResult:
    events: Events
    imu: ImuTrace
    windows: tuple[GtWindow, ...]
    event_region: np.ndarray  # plane label per event, 0 for noise/hot pixels
    ref_xy: np.ndarray        # (n, 2) exact window-start position; NaN for noise


class _Pose:
    """Closed-form camera pose: position integrates the (zero-order-hold)
    velocity profile exactly; orientation integrates the angular-velocity
    profile (exact for constant omega)."""

    def __init__(self, motion: MotionSpec):
        self.motion = motion
        self._pos_knots = None
        if motion.v_profile is not None:
            prof = motion.v_profile
            t_k = prof[:, 0]
            seg = np.diff(t_k)
            cum = np.zeros((t_k.size, 3))
            cum[1:] = np.cumsum(seg[:, None] * prof[:-1, 1:], axis=0)
            self._pos_knots = (t_k, cum)
        self._grid_t = None
        if motion.omega_profile is not None and motion.rotating:
            n = max(int(math.ceil(motion.duration / 1e-3)), 2)
            self._grid_t = np.linspace(0.0, motion.duration, n + 1)
            om = motion.omega_at(self._grid_t)
            dt = np.diff(self._grid_t)
            mid = 0.5 * (om[:-1] + om[1:])
            mats = np.empty((n + 1, 3, 3))
            mats[0] = np.eye(3)
            increments = Rotation.from_rotvec(mid * dt[:, None]).as_matrix()
            for k in range(n):
                mats[k + 1] = mats[k] @ increments[k]
            self._grid_R = mats

    def rotation(self, t) -> np.ndarray:
        """(n, 3, 3) world-from-camera orientation matrices at times t."""
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if not self.motion.rotating:  # includes an all-zero omega_profile
            return np.broadcast_to(np.eye(3), (t.size, 3, 3)).copy()
        if self._grid_t is None:
            rotvec = np.outer(t, self.motion.omega)
            return Rotation.from_rotvec(rotvec).as_matrix()
        i = np.clip(np.searchsorted(self._grid_t, t, side="right") - 1,
                    0, self._grid_t.size - 2)
        om = self.motion.omega_at(self._grid_t[i])
        rem = Rotation.from_rotvec(om * (t - self._grid_t[i])[:, None]).as_matrix()
        return self._grid_R[i] @ rem

    def position(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if self._pos_knots is None:
            return t[:, None] * self.motion.v[None, :]
        t_k, cum = self._pos_knots
        prof = self.motion.v_profile
        i = np.clip(np.searchsorted(t_k, t, side="right") - 1,
                    0, t_k.size - 1)
        return cum[i] + (t - t_k[i])[:, None] * prof[i, 1:]


def _project(points_w: np.ndarray, t, pose: _Pose,
             intr: CameraIntrinsics) -> np.ndarray:
    """Project world points at per-point times; returns (n, 2) pixels."""
    points_w = np.asarray(points_w, dtype=np.float64).reshape(-1, 3)
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if t.size == 1:
        t = np.broadcast_to(t, (points_w.shape[0],))
    R = pose.rotation(t)
    rel = points_w - pose.position(t)
    pc = np.einsum("nji,nj->ni", R, rel)  # R^T (P - c)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = intr.fx * pc[:, 0] / pc[:, 2] + intr.cx
        y = intr.fy * pc[:, 1] / pc[:, 2] + intr.cy
    return np.column_stack((x, y))


def _backproject(px: np.ndarray, z_world: float, t, pose: _Pose,
                 intr: CameraIntrinsics) -> np.ndarray:
    """Intersect pixel rays (at per-point times) with the world plane Z = z."""
    px = np.asarray(px, dtype=np.float64).reshape(-1, 2)
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if t.size == 1:
        t = np.broadcast_to(t, (px.shape[0],))
    d_cam = np.column_stack((
        (px[:, 0] - intr.cx) / intr.fx,
        (px[:, 1] - intr.cy) / intr.fy,
        np.ones(px.shape[0]),
    ))
    R = pose.rotation(t)
    d_w = np.einsum("nij,nj->ni", R, d_cam)
    c = pose.position(t)
    lam = (z_world - c[:, 2]) / d_w[:, 2]
    return c + lam[:, None] * d_w


def polygon_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def polygon_centroid(poly: np.ndarray) -> tuple[float, float]:
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * float(cross.sum())
    if abs(a) < 1e-12:
        return float(x.mean()), float(y.mean())
    cx = float(((x + xn) * cross).sum() / (6.0 * a))
    cy = float(((y + yn) * cross).sum() / (6.0 * a))
    return cx, cy


def points_in_polygon(px, py, poly: np.ndarray) -> np.ndarray:
    """Vectorized even-odd (ray casting) point-in-polygon test."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    inside = np.zeros(px.shape, dtype=bool)
    n = poly.shape[0]
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        crosses = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = (x2 - x1) * (py - y1) / (y2 - y1) + x1
        inside ^= crosses & (px < x_at)
    return inside


def _sample_edges(plane: PlaneSpec, rng: np.random.Generator) -> np.ndarray:
    """Random edge segments inside the plane polygon; returns (n, 2, 2)."""
    poly = plane.polygon
    n_edges = max(1, int(round(plane.edge_density * polygon_area(poly) / 1e4)))
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    edges = []
    for _ in range(n_edges):
        while True:
            c = rng.uniform(lo, hi)
            if points_in_polygon(c[0], c[1], poly):
                break
        ang = rng.uniform(0.0, math.pi)
        length = rng.uniform(*EDGE_LEN_RANGE)
        d = 0.5 * np.array([math.cos(ang), math.sin(ang)])
        # shrink until both endpoints stay inside the polygon
        for _ in range(24):
            a, b = c - length * d, c + length * d
            if (points_in_polygon(a[0], a[1], poly)
                    and points_in_polygon(b[0], b[1], poly)):
                break
            length *= 0.6
        edges.append((c - length * d, c + length * d))
    return np.asarray(edges)


def _edge_events(pa_w, pb_w, pose, intr, duration, knots):
    """Pixel-center crossings of one moving edge image.

    Returns arrays (x, y, t, p). Sign changes of the cross product between
    the edge direction and the pixel offset mark crossings; the crossing
    time interpolates linearly inside the substep, and the polarity is the
    direction the edge sweeps past the pixel. The substep grid includes the
    motion profile's knot times so the crossing function stays piecewise
    linear (and the interpolated timings exact) for rotation-free motion.
    """
    coarse_t = np.linspace(0.0, duration, 65)
    pa_c = _project(np.tile(pa_w, (65, 1)), coarse_t, pose, intr)
    pb_c = _project(np.tile(pb_w, (65, 1)), coarse_t, pose, intr)
    step = np.diff(coarse_t[0:2])[0]
    vmax = max(
        float(np.max(np.linalg.norm(np.diff(pa_c, axis=0), axis=1))),
        float(np.max(np.linalg.norm(np.diff(pb_c, axis=0), axis=1))),
    ) / step
    n_sub = max(8, int(math.ceil(duration * vmax / MAX_STEP_PX)))
    ts = np.linspace(0.0, duration, n_sub + 1)
    if knots.size:
        ts = np.unique(np.concatenate((ts, knots)))
    n_sub = ts.size - 1
    A = _project(np.tile(pa_w, (n_sub + 1, 1)), ts, pose, intr)
    B = _project(np.tile(pb_w, (n_sub + 1, 1)), ts, pose, intr)

    both = np.concatenate((A, B))
    x_lo = max(int(math.floor(both[:, 0].min())), 0)
    x_hi = min(int(math.ceil(both[:, 0].max())), intr.width - 1)
    y_lo = max(int(math.floor(both[:, 1].min())), 0)
    y_hi = min(int(math.ceil(both[:, 1].max())), intr.height - 1)
    if x_hi < x_lo or y_hi < y_lo:
        return (np.empty(0),) * 4
    gx, gy = np.meshgrid(np.arange(x_lo, x_hi + 1), np.arange(y_lo, y_hi + 1))
    pxs = gx.ravel().astype(np.float64)
    pys = gy.ravel().astype(np.float64)

    ex_all, ey_all, et_all, ep_all = [], [], [], []
    block = 256
    for k0 in range(0, n_sub, block):
        k1 = min(k0 + block, n_sub)
        rows = slice(k0, k1 + 1)
        a = A[rows]
        e = B[rows] - a
        dxp = pxs[None, :] - a[:, 0:1]
        dyp = pys[None, :] - a[:, 1:2]
        g = e[:, 0:1] * dyp - e[:, 1:2] * dxp
        len_sq = np.maximum((e * e).sum(axis=1, keepdims=True), 1e-12)
        s = (dxp * e[:, 0:1] + dyp * e[:, 1:2]) / len_sq
        neg = g < 0
        flip = neg[:-1] != neg[1:]
        if not flip.any():
            continue
        kk, pp = np.nonzero(flip)
        g0 = g[kk, pp]
        g1 = g[kk + 1, pp]
        tau = g0 / (g0 - g1)
        s_star = s[kk, pp] + tau * (s[kk + 1, pp] - s[kk, pp])
        ok = (s_star >= 0.0) & (s_star <= 1.0)
        if not ok.any():
            continue
        kk, pp, tau = kk[ok], pp[ok], tau[ok]
        t_star = ts[k0 + kk] + tau * (ts[k0 + kk + 1] - ts[k0 + kk])
        ex_all.append(pxs[pp])
        ey_all.append(pys[pp])
        et_all.append(t_star)
        ep_all.append(np.where(g1[ok] > g0[ok], 1, -1).astype(np.int8))
    if not ex_all:
        return (np.empty(0),) * 4
    return (np.concatenate(ex_all), np.concatenate(ey_all),
            np.concatenate(et_all), np.concatenate(ep_all))


def _rasterize_windows(scene, pose, intr, dt, n_win):
    windows = []
    ys, xs = np.mgrid[0:intr.height, 0:intr.width]
    for k in range(n_win):
        t_s = k * dt
        labels = np.zeros((intr.height, intr.width), dtype=np.int32)
        depths = {}
        for idx, plane in enumerate(scene.planes):
            rid = idx + 1
            z_cam = plane.depth - pose.position(t_s)[0, 2]
            if z_cam <= MIN_CLEARANCE:
                raise ValidationError(
                    f"camera reaches plane {rid} at t={t_s:.3f}s")
            world = _backproject(plane.polygon, plane.depth, 0.0, pose, intr)
            img_poly_pts = _project(world, t_s, pose, intr)
            inside = points_in_polygon(xs, ys, img_poly_pts)
            if np.any(labels[inside] != 0):
                raise ValidationError(
                    "regions overlap" if t_s == 0.0 else
                    f"regions overlap during motion at t={t_s:.3f}s")
            labels[inside] = rid
            depths[rid] = float(z_cam)
        windows.append(GtWindow(t_s, RegionMask(labels), depths))
    return windows


def generate(scene: SceneSpec, motion: MotionSpec, intr: CameraIntrinsics,
             seed: int, dt: float = 0.05) -> SynthResult:
    """Render a scene under camera motion into an event stream plus ground
    truth (per-window region masks, per-region depths, IMU trace, and each
    event's exact window-start position for warp oracles)."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValidationError("dt must be positive and finite")
    pose = _Pose(motion)
    duration = motion.duration
    # windows [k*dt, (k+1)*dt), the last closed: core.slice_windows's rule
    n_win = max(1, math.ceil(duration / dt - 1e-9))
    rng = np.random.default_rng(seed)

    knots = motion.knot_times
    xs, ys, ts_, ps, region = [], [], [], [], []
    for idx, plane in enumerate(scene.planes):
        edges_img = _sample_edges(plane, rng)
        for a_img, b_img in edges_img:
            pa_w = _backproject(a_img[None, :], plane.depth, 0.0, pose, intr)[0]
            pb_w = _backproject(b_img[None, :], plane.depth, 0.0, pose, intr)[0]
            ex, ey, et, ep = _edge_events(pa_w, pb_w, pose, intr, duration,
                                          knots)
            xs.append(ex)
            ys.append(ey)
            ts_.append(et)
            ps.append(ep)
            region.append(np.full(ex.shape, idx + 1, dtype=np.int32))

    # uniform Poisson background noise in space-time
    if scene.noise_rate > 0:
        n_noise = rng.poisson(scene.noise_rate * intr.width * intr.height
                              * duration)
        xs.append(rng.integers(0, intr.width, n_noise).astype(np.float64))
        ys.append(rng.integers(0, intr.height, n_noise).astype(np.float64))
        ts_.append(rng.uniform(0.0, duration, n_noise))
        ps.append(rng.choice(np.array([-1, 1], dtype=np.int8), n_noise))
        region.append(np.zeros(n_noise, dtype=np.int32))

    # hot pixels fire at a fixed rate regardless of motion
    for hx, hy, rate in scene.hot_pixels:
        if rate <= 0:
            continue
        phase = rng.uniform(0.0, 1.0 / rate)
        times = np.arange(phase, duration, 1.0 / rate)
        xs.append(np.full(times.size, float(hx)))
        ys.append(np.full(times.size, float(hy)))
        ts_.append(times)
        ps.append(rng.choice(np.array([-1, 1], dtype=np.int8), times.size))
        region.append(np.zeros(times.size, dtype=np.int32))

    if xs:
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        t = np.concatenate(ts_)
        p = np.concatenate(ps).astype(np.int8)
        reg = np.concatenate(region)
    else:
        x = y = t = np.empty(0)
        p = np.empty(0, dtype=np.int8)
        reg = np.empty(0, dtype=np.int32)

    order = np.lexsort((p, y, x, t))
    x, y, t, p, reg = x[order], y[order], t[order], p[order], reg[order]
    events = Events(x, y, t, p)

    # exact window-start position of each edge event's world point
    ref_xy = np.full((len(events), 2), np.nan)
    if len(events):
        win_idx = np.minimum((t / dt).astype(np.intp), n_win - 1)
        is_edge = reg > 0
        for k in np.unique(win_idx[is_edge]):
            sel = is_edge & (win_idx == k)
            for rid in np.unique(reg[sel]):
                sub = sel & (reg == rid)
                z = scene.planes[rid - 1].depth
                world = _backproject(np.column_stack((x[sub], y[sub])), z,
                                     t[sub], pose, intr)
                ref_xy[sub] = _project(world, float(k * dt), pose, intr)

    imu_t = np.arange(0.0, duration + 0.5 / IMU_RATE, 1.0 / IMU_RATE)
    imu = ImuTrace(imu_t, motion.omega_at(imu_t))
    windows = tuple(_rasterize_windows(scene, pose, intr, dt, n_win))
    return SynthResult(events=events, imu=imu, windows=windows,
                       event_region=reg, ref_xy=ref_xy)


def analytic_compensation(scene: SceneSpec, motion: MotionSpec,
                          region_id: int, intr: CameraIntrinsics,
                          centroid: tuple[float, float] | None = None,
                          t: float = 0.0) -> AngularVelocity2:
    """The pan/tilt rotation whose flow field reproduces the region's
    translational image flow at its centroid, i.e. the rotation the warp
    needs to map the region's events back to their reference positions.

    Solves the 2x2 linear relation from the rotational flow field; requires
    zero motion along the depth axis (otherwise the translational flow is
    not constant over the region and no single rotation matches it). With a
    velocity profile, t selects the moment whose velocity is compensated.
    """
    if motion.has_z_motion:
        raise ValidationError("assumption ii violated: v.z must be 0")
    plane = scene.planes[region_id - 1]
    z = plane.depth
    if centroid is None:
        centroid = polygon_centroid(plane.polygon)
    v_now = motion.v_at(t)[0]
    u_t = -intr.fx * v_now[0] / z
    v_t = -intr.fy * v_now[1] / z
    xb, yb = intr.normalized(centroid[0], centroid[1])
    mat = np.array([
        [xb * yb, -(1.0 + xb * xb)],
        [1.0 + yb * yb, -xb * yb],
    ])
    wxy = np.linalg.solve(mat, np.array([u_t / intr.fx, v_t / intr.fy]))
    return AngularVelocity2.from_cartesian(float(wxy[0]), float(wxy[1]))
