"""End-to-end runs over a full event stream: window slicing, per-window
alignment, distance tracking, and metric evaluation against ground truth.
The CLI is a thin file-handling layer over these functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .align import (
    DEFAULT_MIN_EVENTS,
    DEFAULT_PHI_SAMPLES,
    AlignmentResult,
    align_window,
    align_window_3dof,
)
from .core import (
    CameraIntrinsics,
    Events,
    RegionMask,
    slice_windows,
    slice_windows_count,
)
from .depth import DepthRow, coast_tracks, estimate_window_depth
from .errors import InsufficientEventsError, ValidationError
from .likelihood import DEFAULT_GRID_N, pool_map
from .metrics import DepthMetrics, pool_depth_metrics
from .warp import AngularVelocity3, ImuTrace


@dataclass(frozen=True)
class RunConfig:
    """Pipeline parameters with their documented defaults."""

    dt: float = 0.05
    grid_n: int = DEFAULT_GRID_N
    phi_samples: int = DEFAULT_PHI_SAMPLES
    min_events: int = DEFAULT_MIN_EVENTS
    hot_threshold: float | None = None  # None = hot-pixel filter off

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError("dt must be positive and finite")
        if self.phi_samples < 1:
            raise ValidationError("phi_samples must be at least 1")
        if self.min_events < 0:
            raise ValidationError("min_events must be non-negative")
        hot = self.hot_threshold
        if hot is not None and not (math.isfinite(hot) and hot >= 0):
            raise ValidationError("hot_threshold must be finite and >= 0")


def run_depth(events: Events, intr: CameraIntrinsics, cfg: RunConfig,
              mask_provider, imu: ImuTrace | None = None) -> list[DepthRow]:
    """Window loop of the distance pipeline.

    mask_provider maps a window's t_start to its RegionMask. The windows
    are aligned independently across the usable CPUs (pool_map), the
    largest first so that no long one starts last, then tracked in window
    order in this process. Windows whose alignment fails entirely produce
    coasting rows (prediction only) for every tracked region.
    """
    windows = slice_windows(events, cfg.dt)
    masks = [mask_provider(w.t_start) for w in windows]
    order = sorted(range(len(windows)), key=lambda k: -len(windows[k]))
    results = dict(zip(order, pool_map(
        _align, [(windows[k], masks[k], imu, intr, cfg) for k in order])))
    tracks = {}
    rows = []
    for k, w in enumerate(windows):
        if results[k] is None:
            rows.extend(coast_tracks(tracks, w.t_start))
        else:
            rows.extend(estimate_window_depth(results[k], masks[k], intr,
                                              tracks, t=w.t_start))
    return rows


def _align(job) -> AlignmentResult | None:
    """align_window on one (window, mask, imu, intr, cfg) job of run_depth,
    or None when the window has too few events. align_window is looked up
    when called, so this module-level function is what the pool sends."""
    w, mask, imu, intr, cfg = job
    try:
        return align_window(w, mask, imu, intr, phi_samples=cfg.phi_samples,
                            min_events=cfg.min_events, grid_n=cfg.grid_n)
    except InsufficientEventsError:
        return None


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


def evaluate_depth_run(run_rows: list[DepthRow],
                       gt_depths: list[tuple[float, dict[int, float]]],
                       gt_masks: list[tuple[float, RegionMask]] | None = None,
                       est_mask: RegionMask | None = None,
                       ) -> tuple[list[tuple[float, DepthMetrics]], DepthMetrics]:
    """Per-window and pooled metrics of tracked relative distances.

    Ground-truth relative distance is z / z_ref with the reference region
    chosen by the run in that window. When gt_masks and est_mask (the one
    estimation mask of every window) are given, ground-truth depths are
    first remapped onto the estimation regions by majority vote.
    """
    by_window: dict[float, list[DepthRow]] = {}
    for row in run_rows:
        by_window.setdefault(row.t_start, []).append(row)

    gt_t = np.array([t for t, _ in gt_depths])
    per_window = []
    pooled = []
    for t_start in sorted(by_window):
        rows = by_window[t_start]
        gi = int(np.argmin(np.abs(gt_t - t_start)))
        gt_z = gt_depths[gi][1]
        if gt_masks is not None and est_mask is not None:
            gt_z = remap_gt_regions(gt_masks[gi][1], gt_z, est_mask)
        ref = next((r for r in rows if r.is_reference), None)
        if ref is None or ref.region_id not in gt_z:
            continue
        z_ref = gt_z[ref.region_id]
        # the reference is pinned at d=1 by construction; scoring it would
        # only dilute the metrics. Rows are in region order.
        pairs = [(r.d_track, gt_z[r.region_id] / z_ref) for r in rows
                 if not r.is_reference and r.region_id in gt_z
                 and not math.isnan(r.d_track)]
        if pairs:
            per_window.append((t_start, pool_depth_metrics(pairs)))
            pooled.extend(pairs)
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
    skipped. Windows run one after another here, and each shares out its
    own wz candidates (align_window_3dof), so a pool worker never needs
    the pool.
    """
    if fixed_count is not None:
        windows = slice_windows_count(events, fixed_count)
    else:
        windows = slice_windows(events, cfg.dt)
    rows = []
    for w in windows:
        try:
            om = align_window_3dof(
                w, intr, phi_samples=cfg.phi_samples,
                min_events=cfg.min_events, grid_n=cfg.grid_n)
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
