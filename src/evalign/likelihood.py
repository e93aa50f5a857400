"""The alignment objective: negative-binomial log-likelihood of the count
image, and its marginalization over rotation magnitude.

A candidate rotation is scored by warping a region's events, splatting them
into a count image, and summing the NB log-pmf over pixels. Three details
make the objective usable as an optimization target:

  - Dispersion r < 1 (log-convex pmf): merging two single-count pixels into
    one double-count pixel then increases the likelihood, which is the
    alignment reward. r >= 1 would prefer spreading.
  - Mass conservation across pixels: warped events are scored wherever they
    land, on a canvas that tightly covers the warped extent, with untouched
    pixels contributing nothing beyond the |region| * logpmf(0) base term.
    Summing only over the region's own pixels would let large warps push
    events off the domain and be rewarded for deleting them.
  - Smooth fractional counts: every event is splatted as a small Gaussian
    (core._splat), and the fractional counts are scored with the
    gamma-function continuation of the NB log-pmf rather than being
    rounded. The score is then smooth in omega, mass-neutral (the
    linear-in-k term sums to a constant) and keeps the concentration
    reward, which holds exactly when r < 1. A kernel that keeps an event
    whole only on a pixel centre, as a bilinear one does, would reward
    warps for parking events on the pixel lattice.

A region enters through which events are scored (those whose rounded raw
positions are its pixels) and through the base term, not by clipping the
pixel sum.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, logsumexp

from .core import CameraIntrinsics, EventWindow, _splat, pixel_lookup
from .errors import ValidationError
from .warp import AngularVelocity2, flow_basis

# Default NB dispersion; must stay below 1 (see module docstring). q is
# moment-matched per window unless given explicitly.
DEFAULT_NB_R = 0.25

DEFAULT_GRID_N = 32

# Auto magnitude-grid rule (auto_m_max): m_max = MMAX_FACTOR * |shift| /
# (f * dt), the image speed of the window's drift (window_drift) in rad/s,
# clamped to [MMAX_FLOOR, MMAX_CAP] rad/s. No estimate on the benchmark
# scenes reaches the bound.
MMAX_FACTOR = 2.5
MMAX_FLOOR = 0.5
MMAX_CAP = 10.0

# Rows of a batch that _score_positions splats onto one canvas, sized
# for the rows' own warped extent.
SCORE_CHUNK = 4

# The workers of pool_map, one per usable CPU; created on first use, kept
# for the life of the process.
_scan_pool: ProcessPoolExecutor | None = None

# Each thread's zeroed flat canvas for _score_positions, grown to the
# largest chunk seen. Module state, not a WindowObjective attribute, so
# the many objectives of a window share one canvas.
_workspace = threading.local()


@dataclass(frozen=True)
class NBParams:
    """Negative binomial parameters: dispersion r > 0, success prob q in (0,1).

    pmf(k) = Gamma(k+r) / (k! Gamma(r)) * q^r * (1-q)^k, mean r(1-q)/q.
    q=None asks for per-window moment matching: WindowObjective replaces
    it by moment_match of the window's mean in-region count per pixel.
    """

    r: float = DEFAULT_NB_R
    q: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValidationError(
                "NB dispersion r must be positive and finite")
        if self.q is not None and not (0.0 < self.q < 1.0):
            raise ValidationError("NB success probability q must be in (0, 1)")

    @classmethod
    def moment_match(cls, mean_count: float, r: float = DEFAULT_NB_R) -> "NBParams":
        """Choose q so the NB mean equals the observed mean count per pixel."""
        mean_count = max(float(mean_count), 0.0)
        q = min(max(r / (r + mean_count), 1e-9), 1.0 - 1e-9)
        return cls(r, q)


def nb_log_pmf(k, params: NBParams):
    """log pmf of the negative binomial at integer count(s) k >= 0.

    Computed via log-gamma; accepts scalars or arrays. params must carry
    a resolved q (not None).
    """
    if params.q is None:
        raise ValidationError("NB success probability q is not resolved")
    k_arr = np.asarray(k)
    if np.any(k_arr < 0) or not np.all(np.equal(np.mod(k_arr, 1), 0)):
        raise ValidationError("k must be a non-negative integer")
    out = _nb_log_density(k_arr, params)
    return float(out) if np.isscalar(k) else out


@dataclass(frozen=True)
class MagnitudeGrid:
    """Evenly spaced magnitudes over [0, m_max] (uniform prior support).

    drift is the window's Drift when the grid comes from for_window; the
    direction search centres its bracket on it. A grid without one has
    the search scan every direction.
    """

    m_max: float
    n: int = DEFAULT_GRID_N
    drift: Drift | None = None

    def __post_init__(self):
        if not (math.isfinite(self.m_max) and self.m_max > 0):
            raise ValidationError("m_max must be positive and finite")
        if self.n < 2:
            raise ValidationError("grid needs at least 2 points")

    @cached_property
    def values(self) -> np.ndarray:
        return np.linspace(0.0, self.m_max, self.n)

    @classmethod
    def for_window(cls, w: EventWindow, intr: CameraIntrinsics,
                   n: int = DEFAULT_GRID_N) -> "MagnitudeGrid":
        """The window's grid, bounded by auto_m_max, carrying its drift."""
        drift = window_drift(w, intr)
        m_max = MMAX_FLOOR
        if drift is not None:
            f = 0.5 * (intr.fx + intr.fy)
            speed = math.hypot(drift.dx, drift.dy) / (f * drift.dt)  # rad/s
            m_max = min(max(MMAX_FACTOR * speed, MMAX_FLOOR), MMAX_CAP)
        return cls(m_max, n, drift)


class Drift(NamedTuple):
    """The dominant image shift between a window's two halves.

    (dx, dy) is the peak of their count images' cross-correlation in whole
    pixels, from the first half to the second; dt is the time between the
    halves' mean timestamps. Its angle atan2(dy, dx) is the direction of
    image motion, which at the principal point is the phi of the
    compensating rotation (flow_basis there maps phi to f (cos, sin)).
    """

    dx: int
    dy: int
    dt: float


def window_drift(w: EventWindow, intr: CameraIntrinsics) -> Drift | None:
    """The window's Drift by FFT cross-correlation of the Gaussian count
    images of its first and second halves (phase correlation without its
    normalisation); None when the window has fewer than 16 events, a half
    has fewer than 8 or the halves' mean times coincide."""
    ev = w.events
    if len(ev) < 16:
        return None
    t_mid = 0.5 * (float(ev.t[0]) + float(ev.t[-1]))
    first = ev.t <= t_mid
    second = ~first
    if first.sum() < 8 or second.sum() < 8:
        return None
    dt = float(np.mean(ev.t[second]) - np.mean(ev.t[first]))
    if dt <= 1e-9:
        return None
    h, wd = intr.height, intr.width
    img1 = _splat(np.column_stack((ev.x[first], ev.y[first]))[None], wd, h)[0]
    img2 = _splat(np.column_stack((ev.x[second], ev.y[second]))[None], wd, h)[0]
    corr = np.fft.irfft2(np.fft.rfft2(img2) * np.conj(np.fft.rfft2(img1)),
                         s=(h, wd))
    dy, dx = np.unravel_index(int(np.argmax(corr)), corr.shape)
    if dx > wd // 2:
        dx -= wd
    if dy > h // 2:
        dy -= h
    return Drift(int(dx), int(dy), dt)


def auto_m_max(w: EventWindow, intr: CameraIntrinsics) -> float:
    """Upper magnitude bound from the window's apparent image motion:
    MMAX_FACTOR times the speed of its window_drift, converted to rad/s
    by the mean focal length. Windows without a drift get the floor."""
    return MagnitudeGrid.for_window(w, intr).m_max


def _nb_log_density(k: np.ndarray, params: NBParams) -> np.ndarray:
    """NB log-pmf continued to real k >= 0 via log-gamma.

    Matches nb_log_pmf at integers; used to score fractional splat counts
    without the mass-destroying rounding step.
    """
    r, q = params.r, params.q
    return (gammaln(k + r) - gammaln(k + 1) - gammaln(r)
            + r * math.log(q) + k * math.log1p(-q))


class WindowObjective:
    """Precomputed per-window state for repeated likelihood evaluations.

    Warping is linear in omega, so for a fixed direction the warped
    positions along a magnitude ray are base - m * step; a whole ray is
    splatted and scored in one batched pass. params None means NBParams();
    a q of None is moment-matched against the window's mean in-region
    count per pixel, computed from the raw (unwarped) positions so the
    parameters are identical for every candidate omega.
    """

    def __init__(self, w: EventWindow, intr: CameraIntrinsics,
                 region: np.ndarray | None = None,
                 params: NBParams | None = None):
        ev = w.events
        self.width, self.height = intr.width, intr.height
        if region is None:
            self.n_region_px = self.width * self.height
            member = np.ones(len(ev), dtype=bool)
        else:
            region = np.asarray(region, dtype=bool)
            if region.shape != (self.height, self.width):
                raise ValidationError("region mask shape mismatch")
            self.n_region_px = int(np.count_nonzero(region))
            if self.n_region_px == 0:
                raise ValidationError("empty region")
            member = pixel_lookup(region, ev.x, ev.y)
        sub = ev.select(member)
        self.n_events_in_region = len(sub)
        self.base = sub.positions()
        self.dt = (sub.t - w.t_start)[:, None]
        self.jac = flow_basis(sub.x, sub.y, intr)[:, :, :2]  # pan/tilt columns
        if params is None:
            params = NBParams()
        if params.q is None:
            params = NBParams.moment_match(
                self.n_events_in_region / self.n_region_px, r=params.r)
        self.params = params
        self._log_pmf0 = nb_log_pmf(0, params)
        self._base_term = self.n_region_px * self._log_pmf0

    def _score_positions(self, pos: np.ndarray) -> np.ndarray:
        """Likelihood of a (B, N, 2) warped-position batch.

        Splats onto a canvas that covers every splat tap of the batch, with
        one more column and row that absorb the rounding of the shift onto
        it, so no mass is dropped and _splat can skip its bounds check;
        untouched pixels contribute zero on top of the base term.
        Batches are scored in chunks so rows with small warped extents do
        not pay for the canvas of the largest one. Every chunk is splatted
        into the front of this thread's reused zeroed canvas, and only the
        pixels it made non-zero are reset, since a chunk touches about a
        tenth of its canvas; on an error the whole used slice is reset.
        """
        b = pos.shape[0]
        if pos.shape[1] == 0:
            return np.full(b, self._base_term)
        scores = np.full(b, self._base_term)
        for lo in range(0, b, SCORE_CHUNK):
            part = pos[lo:lo + SCORE_CHUNK]
            nb = part.shape[0]
            x_lo = math.floor(float(part[..., 0].min())) - 1
            y_lo = math.floor(float(part[..., 1].min())) - 1
            w_c = math.floor(float(part[..., 0].max())) + 4 - x_lo
            h_c = math.floor(float(part[..., 1].max())) + 4 - y_lo
            shifted = part - np.array([x_lo, y_lo], dtype=np.float64)
            flat = _canvas(nb * h_c * w_c)
            try:
                _splat(shifted, w_c, h_c, on_canvas=True, out=flat)
                nz = np.flatnonzero(flat != 0)  # numpy scans bools fastest
                counts = flat[nz]
                flat[nz] = 0
            except BaseException:
                flat.fill(0)
                raise
            if nz.size:
                diff = _nb_log_density(counts, self.params) - self._log_pmf0
                scores[lo:lo + SCORE_CHUNK] += np.bincount(
                    nz // (h_c * w_c), weights=diff, minlength=nb)
        return scores

    def positions_for(self, omega: AngularVelocity2) -> np.ndarray:
        vec = np.array([omega.wx, omega.wy])
        return self.base - (self.jac @ vec) * self.dt

    def log_likelihood(self, omega: AngularVelocity2) -> float:
        return float(self._score_positions(self.positions_for(omega)[None])[0])

    def log_likelihood_ray(self, phi: float, m_values: np.ndarray) -> np.ndarray:
        """Inner log-likelihood at each magnitude along direction phi."""
        unit = np.array([math.sin(phi), -math.cos(phi)])
        step = (self.jac @ unit) * self.dt  # displacement per unit magnitude
        m_values = np.asarray(m_values, dtype=np.float64)
        pos = self.base[None] - m_values[:, None, None] * step[None]
        return self._score_positions(pos)


def _canvas(size: int) -> np.ndarray:
    """The first size values of this thread's zeroed canvas, which is
    replaced by a larger one when it is too small."""
    buf = getattr(_workspace, "canvas", None)
    if buf is None or buf.size < size:
        buf = _workspace.canvas = np.zeros(size)
    return buf[:size]


def marginal_from_objective(obj: WindowObjective, phi: float,
                            grid: MagnitudeGrid) -> float:
    """log integral over magnitude of the window likelihood along phi.

    The trapezoid rule over the grid, combined in log space; the constant
    uniform-prior density 1/m_max is dropped.
    """
    inner = obj.log_likelihood_ray(phi, grid.values)
    h = grid.m_max / (grid.n - 1)
    log_w = np.full(grid.n, math.log(h))
    log_w[0] = log_w[-1] = math.log(h / 2.0)
    return float(logsumexp(inner + log_w))


def pool_map(fn, items: list) -> list:
    """[fn(item) for item in items], shared out among the usable CPUs.

    fn must be a module-level function, which the pool sends by name, and
    the items and results must pickle. Each item goes to a worker of the
    fork-started process pool (_scan_workers) while this process waits;
    the results come back in order, computed by the same code on the same
    inputs as the list comprehension, which runs instead when there is one
    usable CPU, one item or no safe way to fork. A worker's exception is
    re-raised here with the worker's traceback as its cause. When the wait
    ends in an exception, the items not yet started are cancelled; on
    KeyboardInterrupt the workers are also terminated and the pool
    dropped, so Ctrl-C does not wait for queued work and the next call
    forks a fresh pool.
    """
    n_cpu = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else 1)
    pool = _scan_workers(n_cpu) if n_cpu > 1 and len(items) > 1 else None
    if pool is None:
        return [fn(item) for item in items]
    futures = []
    try:
        for item in items:
            futures.append(pool.submit(fn, item))
        return [fut.result() for fut in futures]
    except BaseException as exc:
        for fut in futures:
            fut.cancel()
        if isinstance(exc, KeyboardInterrupt):
            _drop_pool()
        raise


def _scan_workers(n_cpu: int) -> ProcessPoolExecutor | None:
    """The process pool of pool_map, created with n_cpu workers on first
    use; None when it does not exist and cannot be forked safely.

    Forking copies only the calling thread, so a lock held by any other
    thread stays locked in the child: the pool is only created while this
    is the process's sole thread (the package starts none of its own).
    Workers ignore SIGINT, so Ctrl-C interrupts this process alone.
    """
    global _scan_pool
    if _scan_pool is None:
        if ("fork" not in multiprocessing.get_all_start_methods()
                or threading.active_count() > 1):
            return None
        _scan_pool = ProcessPoolExecutor(
            n_cpu, mp_context=multiprocessing.get_context("fork"),
            initializer=signal.signal,
            initargs=(signal.SIGINT, signal.SIG_IGN))
    return _scan_pool


def _drop_pool() -> None:
    """Terminate the pool's workers and forget the pool. Joining its
    manager thread leaves this the sole thread again, so a later call may
    fork a new pool."""
    global _scan_pool
    pool, _scan_pool = _scan_pool, None
    for proc in pool._processes.values():  # no public way before 3.14
        proc.terminate()
    pool.shutdown(wait=True, cancel_futures=True)
