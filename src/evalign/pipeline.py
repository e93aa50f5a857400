"""End-to-end runs over a full event stream: window slicing, per-window
alignment, distance tracking, and metric evaluation against ground truth.
The CLI is a thin file-handling layer over these functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .align import align_window, align_window_3dof
from .core import (
    CameraIntrinsics,
    Events,
    RegionMask,
    slice_windows,
    slice_windows_count,
)
from .depth import estimate_window_depth, track_predict
from .errors import InsufficientEventsError, ValidationError
from .likelihood import DEFAULT_NB_R, NBParams, NBSpec
from .metrics import DepthMetrics, depth_metrics, pool_depth_metrics
from .warp import AngularVelocity3, ImuTrace


@dataclass(frozen=True)
class RunConfig:
    """Pipeline parameters with their documented defaults."""

    dt: float = 0.05
    sigma_proc: float = 0.1
    nb_r: float = DEFAULT_NB_R
    nb_q: float | None = None      # None = per-window moment matching
    m_max: float | None = None     # None = displacement-based auto rule
    grid_n: int = 50
    phi_samples: int = 36
    min_events: int = 50
    hot_threshold: float | None = None  # None = hot-pixel filter off
    seed: int = 0

    def nb_params(self) -> NBParams | NBSpec:
        if self.nb_q is not None:
            return NBParams(self.nb_r, self.nb_q)
        return NBSpec(self.nb_r)


@dataclass(frozen=True)
class DepthRow:
    t_start: float
    region_id: int
    phi: float
    m: float
    d_meas: float
    d_track: float
    var: float
    converged: bool
    is_reference: bool


@dataclass
class DepthRunResult:
    rows: list[DepthRow] = field(default_factory=list)
    n_windows: int = 0
    n_converged_windows: int = 0


def run_depth(events: Events, intr: CameraIntrinsics, cfg: RunConfig,
              mask_provider, imu: ImuTrace | None = None) -> DepthRunResult:
    """Window loop of the distance pipeline.

    mask_provider maps (window_index, t_start) -> RegionMask. Windows whose
    alignment fails entirely produce coasting rows (prediction only) for
    every tracked region.
    """
    windows = slice_windows(events, cfg.dt)
    tracks = {}
    out = DepthRunResult(n_windows=len(windows))
    params = cfg.nb_params()
    for k, w in enumerate(windows):
        mask = mask_provider(k, w.t_start)
        try:
            result = align_window(
                w, mask, imu, None, params, intr,
                phi_samples=cfg.phi_samples, min_events=cfg.min_events,
                grid_n=cfg.grid_n, m_max=cfg.m_max)
        except InsufficientEventsError:
            for rid in sorted(tracks):
                tracks[rid] = track_predict(tracks[rid], cfg.sigma_proc)
                tr = tracks[rid]
                out.rows.append(DepthRow(w.t_start, rid, float("nan"),
                                         float("nan"), float("nan"),
                                         tr.d, tr.var, False, False))
            continue
        reports = estimate_window_depth(result, mask, intr, tracks,
                                        cfg.sigma_proc, t=w.t_start)
        if any(r.converged for r in reports):
            out.n_converged_windows += 1
        for rep in reports:
            est = result.per_region[rep.region_id]
            out.rows.append(DepthRow(
                w.t_start, rep.region_id, result.phi_global, est.m,
                rep.d_meas, rep.d_track, rep.var, rep.converged,
                rep.is_reference))
    return out


def remap_gt_regions(gt_mask: RegionMask, gt_depth: dict[int, float],
                     est_mask: RegionMask,
                     min_cover: float = 0.5) -> dict[int, float]:
    """Ground-truth depth per estimation region by majority pixel vote.

    Used when estimation regions (e.g. a honeycomb grid) differ from the
    ground-truth object regions: each estimation region inherits the depth
    of the ground-truth region covering most of its pixels. Regions that
    are mostly background are skipped.
    """
    gt_flat = gt_mask.labels.ravel()
    out = {}
    for rid, idx in est_mask.region_index.items():
        labels = gt_flat[idx]
        labeled = labels[labels > 0]
        if labeled.size < min_cover * labels.size:
            continue
        maj = int(np.bincount(labeled).argmax())
        if maj in gt_depth:
            out[rid] = gt_depth[maj]
    return out


def evaluate_depth_run(result: DepthRunResult,
                       gt_depths: list[tuple[float, dict[int, float]]],
                       gt_masks: list[tuple[float, RegionMask]] | None = None,
                       est_masks: list[tuple[float, RegionMask]] | None = None,
                       ) -> tuple[list[tuple[float, DepthMetrics]], DepthMetrics]:
    """Per-window and pooled metrics of tracked relative distances.

    Ground-truth relative distance is z / z_ref with the reference region
    chosen by the run in that window. When gt_masks and est_masks are
    given, ground-truth depths are first remapped onto the estimation
    regions by majority vote.
    """
    by_window: dict[float, list[DepthRow]] = {}
    for row in result.rows:
        by_window.setdefault(row.t_start, []).append(row)

    gt_t = np.array([t for t, _ in gt_depths])
    per_window = []
    pooled = []
    for t_start in sorted(by_window):
        rows = by_window[t_start]
        gi = int(np.argmin(np.abs(gt_t - t_start)))
        gt_z = gt_depths[gi][1]
        if gt_masks is not None and est_masks is not None:
            gt_z = remap_gt_regions(gt_masks[gi][1], gt_z,
                                    est_masks[min(gi, len(est_masks) - 1)][1])
        ref = next((r for r in rows if r.is_reference), None)
        if ref is None or ref.region_id not in gt_z:
            continue
        z_ref = gt_z[ref.region_id]
        pred, gt_d = {}, {}
        for r in rows:
            # the reference is pinned at d=1 by construction; scoring it
            # would only dilute the metrics
            if r.is_reference:
                continue
            if r.region_id in gt_z and not math.isnan(r.d_track):
                pred[r.region_id] = r.d_track
                gt_d[r.region_id] = gt_z[r.region_id] / z_ref
        if pred:
            per_window.append((t_start, depth_metrics(pred, gt_d)))
            pooled.extend((pred[k], gt_d[k]) for k in pred)
    if not pooled:
        raise ValidationError("no overlapping regions between run and gt")
    return per_window, pool_depth_metrics(pooled)


@dataclass(frozen=True)
class AngVelRow:
    t_start: float
    t_end: float
    omega: AngularVelocity3


def run_angvel(events: Events, intr: CameraIntrinsics, cfg: RunConfig,
               fixed_count: int | None = None) -> list[AngVelRow]:
    """Per-window full-frame 3-DOF rotation estimates.

    fixed_count switches from fixed-dt windowing to fixed-event-count
    windowing (the ablation comparison); windows whose estimation fails are
    skipped.
    """
    if fixed_count is not None:
        windows = slice_windows_count(events, fixed_count)
    else:
        windows = slice_windows(events, cfg.dt)
    params = cfg.nb_params()
    rows = []
    for w in windows:
        try:
            om = align_window_3dof(
                w, intr, params=params, phi_samples=cfg.phi_samples,
                min_events=cfg.min_events, grid_n=cfg.grid_n,
                m_max=cfg.m_max)
        except InsufficientEventsError:
            continue
        rows.append(AngVelRow(w.t_start, w.t_end, om))
    return rows


def window_average_omega(imu: ImuTrace, t_start: float,
                         t_end: float) -> AngularVelocity3:
    """Ground-truth rotation for a window: the trace's mean over its span."""
    span = max(t_end - t_start, 1e-12)
    avg = imu.integrate(t_start, np.array([t_end]))[0] / span
    return AngularVelocity3(float(avg[0]), float(avg[1]), float(avg[2]))
