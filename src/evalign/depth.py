"""Relative distance from compensatory rotational flow, and its temporal
tracking with a 1-D Kalman filter.

Once a region is aligned, the rotational flow evaluated at its event-mass
centroid stands in for the translational flow the virtual rotation
compensates. That flow scales with 1/depth, so contracting a region's flow
against the reference region's flow with the 2-vector pseudo-inverse gives
the depth ratio d = z / z_ref directly. The reference is the largest
converged region and its track is pinned at d = 1 so the gauge cannot
drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .align import AlignmentResult
from .core import CameraIntrinsics, RegionMask
from .errors import DegenerateFlowError, EvalignError
from .warp import AngularVelocity2, FlowVector, rot_flow

EPS_FLOW = 1e-3       # px/s; below this the pseudo-inverse is unusable
REFERENCE_VAR = 1e-4  # variance floor that pins the reference track
SIGMA_PROC = 0.1      # process noise std of every track's predict step


@dataclass(frozen=True)
class DistanceTrack:
    region_id: int
    d: float
    var: float

    def __post_init__(self):
        if self.var <= 0:
            raise EvalignError("track variance must be positive")


@dataclass(frozen=True)
class DepthRow:
    """One region in one window: its alignment and its tracked distance."""

    t_start: float
    region_id: int
    phi: float        # the window's shared direction; nan if alignment failed
    m: float          # nan if alignment failed
    d_meas: float     # nan when no usable measurement this window
    d_track: float    # nan while the region has no track
    var: float
    converged: bool   # True when a measurement was applied
    is_reference: bool


def select_reference(mask: RegionMask, result: AlignmentResult) -> int:
    """Largest converged region by mask pixel count; ties break to smaller id."""
    candidates = [
        (mask.size(rid), -rid)
        for rid, est in result.per_region.items()
        if est.converged
    ]
    if not candidates:
        raise EvalignError("no converged region to serve as reference")
    size, neg_rid = max(candidates)
    return -neg_rid


def relative_distance(v_r: FlowVector, v_r_ref: FlowVector) -> float:
    """d = (v_r_ref . v_r) / |v_r|^2, the pseudo-inverse contraction.

    Twice the flow means half the distance. A negative value signals
    opposing flows (assumption violation or object motion); callers report
    it but exclude it from tracking.
    """
    norm_sq = v_r.u * v_r.u + v_r.v * v_r.v
    if math.sqrt(norm_sq) <= EPS_FLOW:
        raise DegenerateFlowError("compensatory flow magnitude below threshold")
    return (v_r_ref.u * v_r.u + v_r_ref.v * v_r.v) / norm_sq


def track_predict(track: DistanceTrack, sigma_proc: float) -> DistanceTrack:
    """Constant-distance process model: mean unchanged, var += sigma_proc^2."""
    return DistanceTrack(track.region_id, track.d,
                         track.var + sigma_proc * sigma_proc)


def track_update(track: DistanceTrack, z: float, v_r: FlowVector) -> DistanceTrack:
    """Measurement update with variance R = 1 / |v_r|^2.

    A non-positive measurement (opposing flows) is skipped: the track is
    returned unchanged, so the window's predict step is the only effect and
    the belief coasts with inflated variance.
    """
    mag = v_r.magnitude()
    if mag <= EPS_FLOW:
        raise DegenerateFlowError("compensatory flow magnitude below threshold")
    r_meas = 1.0 / (mag * mag)
    if z <= 0:
        return track
    gain = track.var / (track.var + r_meas)
    d = track.d + gain * (z - track.d)
    var = (1.0 - gain) * track.var
    return DistanceTrack(track.region_id, d, var)


def region_flows(result: AlignmentResult, intr: CameraIntrinsics) -> dict[int, FlowVector]:
    """Rotational flow at each converged region's event-mass centroid."""
    flows = {}
    for rid, est in result.per_region.items():
        if not est.converged or est.centroid is None:
            continue
        omega = AngularVelocity2(est.m, result.phi_global).as_3dof()
        flows[rid] = rot_flow(omega, est.centroid, intr)
    return flows


def estimate_window_depth(result: AlignmentResult, mask: RegionMask,
                          intr: CameraIntrinsics,
                          tracks: dict[int, DistanceTrack],
                          t: float = 0.0) -> list[DepthRow]:
    """One tracking step: flows, reference selection, measurement, filtering.

    Mutates the track map in place and returns one row per region of the
    result, stamped with window start t. Regions without a usable
    measurement coast on prediction; when no region converged at all,
    every existing track coasts.
    """
    flows = region_flows(result, intr)
    try:
        ref_id = select_reference(mask, result)
        v_ref = flows[ref_id]
        if v_ref.magnitude() <= EPS_FLOW:
            ref_id = None
    except (EvalignError, KeyError):
        ref_id = None

    phi, nan = result.phi_global, float("nan")
    rows = []
    for rid in sorted(result.per_region):
        m = result.per_region[rid].m
        if rid == ref_id:
            tracks[rid] = DistanceTrack(rid, 1.0, REFERENCE_VAR)
            rows.append(DepthRow(t, rid, phi, m, 1.0, 1.0, REFERENCE_VAR,
                                 True, True))
            continue
        d_meas = nan
        if ref_id is not None:
            try:
                d_meas = relative_distance(flows[rid], v_ref)
            except (DegenerateFlowError, KeyError):
                pass

        track = tracks.get(rid)
        if track is not None:
            track = track_predict(track, SIGMA_PROC)
        applied = d_meas > 0  # False for nan
        if applied and track is None:
            mag = flows[rid].magnitude()
            track = DistanceTrack(rid, d_meas, 1.0 / (mag * mag))
        elif applied:
            track = track_update(track, d_meas, flows[rid])
        if track is None:
            rows.append(DepthRow(t, rid, phi, m, d_meas, nan, nan, False,
                                 False))
            continue
        tracks[rid] = track
        rows.append(DepthRow(t, rid, phi, m, d_meas, track.d, track.var,
                             applied, False))
    return rows


def coast_tracks(tracks: dict[int, DistanceTrack], t: float) -> list[DepthRow]:
    """Rows of a window whose alignment failed: every track takes a predict
    step (in place) and is reported without a measurement."""
    nan = float("nan")
    rows = []
    for rid in sorted(tracks):
        tracks[rid] = track = track_predict(tracks[rid], SIGMA_PROC)
        rows.append(DepthRow(t, rid, nan, nan, nan, track.d, track.var,
                             False, False))
    return rows
