"""Two-step object-wise alignment: a global flow direction shared by the
whole frame, then a per-region rotation magnitude along that direction.

Estimating the direction over all pixels keeps it identifiable regardless
of depth structure (direction is depth-independent for translational
motion); depth discontinuities only change the per-region speed. Both 1-D
searches are derivative-free golden sections on objective values. The
Gaussian splat makes the score smooth in the rotation, so a search that
starts in the right basin converges to its maximum. The direction score
is still multimodal over the full circle (events moving in different
directions each make a basin), so the direction search starts in the
basin that the window's FFT drift points at and scans every direction
only when that drift is missing or the optimum leaves its bracket.

Windows are aligned independently, so they are the unit of parallel work
(pipeline.run_depth maps align_window over them); align_window_3dof maps
its wz grid candidates. Every search inside runs serially in its process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .core import CameraIntrinsics, Events, EventWindow, RegionMask
from .errors import InsufficientEventsError
from .likelihood import (
    DEFAULT_GRID_N,
    MagnitudeGrid,
    WindowObjective,
    marginal_from_objective,
    pool_map,
    window_drift,
)
from .warp import (
    AngularVelocity2,
    AngularVelocity3,
    ImuTrace,
    derotate,
    warp_positions,
)

DEFAULT_MIN_EVENTS = 50
DEFAULT_PHI_SAMPLES = 12
PHI_TOL = math.radians(0.2)
# half-width of the direction bracket around the FFT drift's angle: the
# spacing of the default coarse scan
DRIFT_BRACKET = 2.0 * math.pi / DEFAULT_PHI_SAMPLES
MAX_REFINE_EVALS = 50
INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RegionEstimate:
    """One region's magnitude along the window's shared direction
    (AlignmentResult.phi_global); m is 0 when the region did not converge."""

    m: float
    n_events: int
    converged: bool
    centroid: tuple[float, float] | None = None


@dataclass(frozen=True)
class AlignmentResult:
    phi_global: float
    per_region: dict[int, RegionEstimate]
    derotated: bool = False


def _golden_max(f, lo: float, hi: float, tol: float, max_evals: int):
    """Golden-section maximization of f on [lo, hi].

    Stops when the bracket shrinks below tol or max_evals objective
    evaluations have been spent. Returns (x_best, f_best, evals).
    """
    x1 = hi - INV_GOLDEN * (hi - lo)
    x2 = lo + INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    evals = 2
    while (hi - lo) > tol and evals < max_evals:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - INV_GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + INV_GOLDEN * (hi - lo)
            f2 = f(x2)
        evals += 1
    return (x1, f1, evals) if f1 >= f2 else (x2, f2, evals)


def estimate_direction(w: EventWindow, grid: MagnitudeGrid,
                       intr: CameraIntrinsics,
                       phi_samples: int = DEFAULT_PHI_SAMPLES,
                       min_events: int = DEFAULT_MIN_EVENTS) -> float:
    """Global flow direction by maximizing the magnitude-marginal likelihood.

    Golden section (tolerance 0.2 degrees, at most MAX_REFINE_EVALS
    objective evaluations) on angle +- DRIFT_BRACKET, where angle is the
    direction of grid.drift, the window's FFT drift. It falls back to the
    coarse-scan search (_coarse_direction) when the grid has no drift, the
    drift is zero, or the optimum ends within 2 * PHI_TOL of a bracket
    edge, which means the maximum lies outside the bracket.
    """
    if len(w) < min_events:
        raise InsufficientEventsError(
            f"insufficient events: {len(w)} < {min_events}")
    obj = WindowObjective(w, intr)
    drift = grid.drift
    if drift is not None and (drift.dx or drift.dy):
        angle = math.atan2(drift.dy, drift.dx)
        lo, hi = angle - DRIFT_BRACKET, angle + DRIFT_BRACKET
        phi_hat = _refine_direction(obj, grid, lo, hi)
        if lo + 2.0 * PHI_TOL < phi_hat < hi - 2.0 * PHI_TOL:
            return phi_hat % (2.0 * math.pi)
    return _coarse_direction(obj, grid, phi_samples)


def _refine_direction(obj: WindowObjective, grid: MagnitudeGrid,
                      lo: float, hi: float) -> float:
    """Golden-section maximum of the direction marginal on [lo, hi]."""
    phi_hat, _, _ = _golden_max(
        lambda p: marginal_from_objective(obj, p, grid),
        lo, hi, tol=PHI_TOL, max_evals=MAX_REFINE_EVALS)
    return float(phi_hat)


def _coarse_direction(obj: WindowObjective, grid: MagnitudeGrid,
                      phi_samples: int) -> float:
    """The search without a drift: a coarse scan over phi_samples evenly
    spaced directions in [0, 2pi), ties broken toward the smaller angle,
    then golden section inside the interval around the best one."""
    phis = np.arange(phi_samples) * (2.0 * math.pi / phi_samples)
    coarse = [marginal_from_objective(obj, p, grid) for p in phis]
    best = int(np.argmax(coarse))  # first occurrence = smaller angle on ties
    step = 2.0 * math.pi / phi_samples
    phi_hat = _refine_direction(obj, grid, phis[best] - step,
                                phis[best] + step)
    return phi_hat % (2.0 * math.pi)


def estimate_magnitude(w: EventWindow, phi: float, region: np.ndarray | None,
                       grid: MagnitudeGrid, intr: CameraIntrinsics,
                       min_events: int = DEFAULT_MIN_EVENTS):
    """Rotation magnitude for one region along a fixed direction.

    Coarse scan over the magnitude grid, then golden-section refinement in
    the bracketing interval (tolerance grid.m_max/5000, at most
    MAX_REFINE_EVALS evaluations). Returns (m, log_likelihood).
    """
    obj = WindowObjective(w, intr, region=region)
    if obj.n_events_in_region < min_events:
        raise InsufficientEventsError(
            f"insufficient events in region: "
            f"{obj.n_events_in_region} < {min_events}")
    values = grid.values
    coarse = obj.log_likelihood_ray(phi, values)
    best = int(np.argmax(coarse))
    lo = values[max(best - 1, 0)]
    hi = values[min(best + 1, grid.n - 1)]
    m_hat, ll, _ = _golden_max(
        lambda m: obj.log_likelihood(AngularVelocity2(m, phi)),
        lo, hi, tol=grid.m_max / 5000.0, max_evals=MAX_REFINE_EVALS)
    if coarse[best] > ll:  # coarse maximum can beat the refined interior
        return float(values[best]), float(coarse[best])
    return float(m_hat), float(ll)


def align_window(w: EventWindow, mask: RegionMask, imu: ImuTrace | None,
                 intr: CameraIntrinsics,
                 phi_samples: int = DEFAULT_PHI_SAMPLES,
                 min_events: int = DEFAULT_MIN_EVENTS,
                 grid_n: int = DEFAULT_GRID_N) -> AlignmentResult:
    """Object-wise alignment of one window.

    Derotates when an IMU trace is given, estimates the shared direction on
    the full frame, bracketed by the window's FFT drift, then the magnitude
    per mask region, both over grid_n magnitudes up to the window's
    auto_m_max bound; the one FFT of the window serves both. A region holds
    the events whose rounded positions are its pixels (core.pixel_lookup),
    for its count and centroid as for its objective. Regions that fail (too
    few events) become unconverged entries; they never abort the window.
    Every region present in the mask gets an entry. Everything runs in
    the calling process: the window is the unit of parallel work.
    """
    if (mask.height, mask.width) != (intr.height, intr.width):
        raise ValueError("mask dimensions do not match sensor dimensions")
    w = derotate(w, imu, intr)
    grid = MagnitudeGrid.for_window(w, intr, n=grid_n)
    phi = estimate_direction(w, grid, intr,
                             phi_samples=phi_samples, min_events=min_events)
    ev = w.events
    labels_at_events = mask.label_at(ev.x, ev.y)

    def solve_region(rid: int) -> RegionEstimate:
        in_region = labels_at_events == rid
        n_ev = int(np.count_nonzero(in_region))
        centroid = None
        if n_ev:
            centroid = (float(ev.x[in_region].mean()),
                        float(ev.y[in_region].mean()))
        try:
            m, _ = estimate_magnitude(w, phi, mask.bool_mask(rid), grid,
                                      intr, min_events=min_events)
        except InsufficientEventsError:
            return RegionEstimate(m=0.0, n_events=n_ev, converged=False,
                                  centroid=centroid)
        return RegionEstimate(m=m, n_events=n_ev, converged=True,
                              centroid=centroid)

    per_region = {rid: solve_region(rid) for rid in mask.region_ids}
    return AlignmentResult(phi_global=phi, per_region=per_region,
                           derotated=w.derotated)


def align_window_3dof(w: EventWindow, intr: CameraIntrinsics,
                      phi_samples: int = DEFAULT_PHI_SAMPLES,
                      min_events: int = DEFAULT_MIN_EVENTS,
                      grid_n: int = DEFAULT_GRID_N,
                      wz_samples: int = 11) -> AngularVelocity3:
    """Full-frame 3-DOF rotation estimate for rotation-dominant data.

    Extends the 2-DOF search with a nested wz scan over [-m_max, m_max],
    m_max being the window's auto_m_max bound, as in its magnitude grid:
    each wz candidate is removed from the window by warping, the 2-DOF
    machinery scores the remainder (its direction search bracketed by the
    warped window's own drift, one FFT per candidate), and the best wz is
    refined by golden section. Uses the same likelihood throughout. The wz
    grid candidates are solved across the usable CPUs (pool_map), the
    golden section in this process.
    """
    if len(w) < min_events:
        raise InsufficientEventsError(
            f"insufficient events: {len(w)} < {min_events}")
    grid = MagnitudeGrid.for_window(w, intr, n=grid_n)
    solve = partial(_solve_2dof, w, grid, intr, phi_samples, min_events)
    wz_grid = np.linspace(-grid.m_max, grid.m_max, wz_samples).tolist()
    cache = dict(zip(wz_grid, pool_map(solve, wz_grid)))

    def solve_2dof(wz: float):
        if wz not in cache:
            cache[wz] = solve(wz)
        return cache[wz]

    scores = np.array([cache[wz][0] for wz in wz_grid])
    best = int(np.argmax(scores))
    lo = wz_grid[max(best - 1, 0)]
    hi = wz_grid[min(best + 1, wz_samples - 1)]
    wz_hat, ll_ref, _ = _golden_max(lambda z: solve_2dof(z)[0], lo, hi,
                                    tol=2.0 * grid.m_max / 5000.0,
                                    max_evals=12)
    if scores[best] > ll_ref:
        wz_hat = wz_grid[best]
    _, phi, m = solve_2dof(wz_hat)
    two = AngularVelocity2(m, phi)
    return AngularVelocity3(two.wx, two.wy, float(wz_hat))


def _solve_2dof(w: EventWindow, grid: MagnitudeGrid, intr: CameraIntrinsics,
                phi_samples: int, min_events: int,
                wz: float) -> tuple[float, float, float]:
    """(log_likelihood, phi, m) of the 2-DOF search on the window with the
    rotation wz about the optical axis warped out of it."""
    pos = warp_positions(w.events, np.array([0.0, 0.0, wz]), w.t_start, intr)
    ev = Events(pos[:, 0], pos[:, 1], w.events.t, w.events.p)
    wd = EventWindow(ev, w.t_start, w.t_end, derotated=w.derotated)
    grid_wz = replace(grid, drift=window_drift(wd, intr))
    phi = estimate_direction(wd, grid_wz, intr, phi_samples=phi_samples,
                             min_events=min_events)
    m, ll = estimate_magnitude(wd, phi, None, grid_wz, intr,
                               min_events=min_events)
    return ll, phi, m
