"""Fundamental data types: events, camera intrinsics, time windows and
region masks, plus window slicing and the splat kernel that turns event
positions into a count image.

Events are stored struct-of-arrays (parallel numpy vectors) rather than as
per-event objects; all operations are pure functions over those arrays.
Image-shaped arrays (count images, label grids) use numpy's [row, col] =
[y, x] convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Events:
    """A batch of events as parallel arrays.

    x, y : pixel coordinates (real-valued after undistortion)
    t    : timestamps in seconds, non-decreasing
    p    : polarity, +1 or -1
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        t = np.ascontiguousarray(self.t, dtype=np.float64)
        p = np.ascontiguousarray(self.p, dtype=np.int8)
        if not (x.shape == y.shape == t.shape == p.shape) or x.ndim != 1:
            raise ValidationError("event arrays must be 1-D and equal length")
        if not (np.isfinite(x).all() and np.isfinite(y).all()
                and np.isfinite(t).all()):
            raise ValidationError("event coordinates and timestamps must be "
                                  "finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "p", p)

    def __len__(self):
        return self.x.size

    def validate(self) -> None:
        """Check stream invariants: non-negative, sorted times; +-1 polarity."""
        if np.any(self.t < 0):
            raise ValidationError("timestamps must be >= 0")
        if np.any(np.diff(self.t) < 0):
            raise ValidationError("event stream not sorted by timestamp")
        if not np.all(np.abs(self.p) == 1):
            raise ValidationError("polarity must be -1 or 1")

    def select(self, idx) -> "Events":
        return Events(self.x[idx], self.y[idx], self.t[idx], self.p[idx])

    def positions(self) -> np.ndarray:
        """(n, 2) array of (x, y) positions."""
        return np.column_stack((self.x, self.y))


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.fx, self.fy, self.cx, self.cy))):
            raise ValidationError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValidationError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValidationError("sensor dimensions must be positive")

    def normalized(self, x, y):
        """Pixel coordinates -> normalized image coordinates (x_bar, y_bar)."""
        return (np.asarray(x) - self.cx) / self.fx, (np.asarray(y) - self.cy) / self.fy


@dataclass(frozen=True)
class EventWindow:
    """All events in one time slice.

    Events are warped back to t_start, so a correctly compensating rotation
    maps every event to its t_start position. The last window of a stream
    is closed at t_end; all others are half-open.
    """

    events: Events
    t_start: float
    t_end: float
    derotated: bool = field(default=False, kw_only=True)

    def __post_init__(self):
        if self.t_end < self.t_start:
            raise ValidationError("t_end must be >= t_start")
        ev = self.events
        # one-ulp slop: boundaries are computed in floating point
        eps = 1e-9 * max(1.0, abs(self.t_end))
        if len(ev) and (ev.t[0] < self.t_start - eps
                        or ev.t[-1] > self.t_end + eps):
            raise ValidationError("window contains events outside its span")

    def __len__(self):
        return len(self.events)

    @property
    def span(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class RegionMask:
    """Per-pixel region labels; 0 means unlabeled/background."""

    labels: np.ndarray  # (height, width) non-negative ints

    def __post_init__(self):
        lab = np.ascontiguousarray(self.labels)
        if lab.ndim != 2:
            raise ValidationError("label grid must be 2-D")
        if not np.issubdtype(lab.dtype, np.integer):
            lab = lab.astype(np.int32)
        if lab.min(initial=0) < 0:
            raise ValidationError("labels must be non-negative")
        object.__setattr__(self, "labels", lab)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @cached_property
    def region_ids(self) -> tuple[int, ...]:
        ids = np.unique(self.labels)
        return tuple(int(i) for i in ids if i != 0)

    @cached_property
    def region_index(self) -> dict[int, np.ndarray]:
        """Map region id -> flat pixel indices (row-major)."""
        flat = self.labels.ravel()
        return {rid: np.flatnonzero(flat == rid) for rid in self.region_ids}

    def size(self, region_id: int) -> int:
        return len(self.region_index.get(region_id, ()))

    def bool_mask(self, region_id: int) -> np.ndarray:
        return self.labels == region_id

    def label_at(self, x, y) -> np.ndarray:
        """Region label at rounded positions (pixel_lookup)."""
        return pixel_lookup(self.labels, x, y)


def pixel_lookup(grid: np.ndarray, x, y) -> np.ndarray:
    """Values of a (height, width) grid at the rounded positions (x, y).

    A position that rounds off the grid belongs to no pixel and gets 0
    (False for a bool grid): the one rule for which events a region holds,
    shared by RegionMask.label_at and the likelihood's region objective.
    """
    xi = np.rint(np.asarray(x)).astype(np.intp)
    yi = np.rint(np.asarray(y)).astype(np.intp)
    h, w = grid.shape
    ok = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
    out = np.zeros(xi.shape, dtype=grid.dtype)
    out[ok] = grid[yi[ok], xi[ok]]
    return out


def slice_windows(stream: Events, dt: float) -> list[EventWindow]:
    """Partition a sorted stream into windows [k*dt, (k+1)*dt), from the
    one holding the first event to the one holding the last.

    t_start = k * dt is computed as synth computes its ground-truth window
    starts, so the two match bit for bit. The last window is closed (with a
    tiny tolerance): a last event on a multiple of dt opens no extra window.
    """
    if dt <= 0:
        raise ValidationError("dt must be positive")
    stream.validate()
    if len(stream) == 0:
        return []
    k0 = math.floor(stream.t[0] / dt)
    k1 = max(k0, math.ceil(stream.t[-1] / dt - 1e-9) - 1)
    idx = np.minimum(np.floor(stream.t / dt).astype(np.intp), k1)
    bounds = np.searchsorted(idx, np.arange(k0, k1 + 2))
    windows = []
    for i, k in enumerate(range(k0, k1 + 1)):
        ev = stream.select(slice(bounds[i], bounds[i + 1]))
        t_start = k * dt
        windows.append(EventWindow(ev, t_start, (k + 1) * dt))
    return windows


def slice_windows_count(stream: Events, n_events: int) -> list[EventWindow]:
    """Fixed-count slicing: consecutive chunks of n_events events.

    Window spans vary with event rate; t_start/t_end are the first/last
    event times of the chunk. The comparison partner of
    fixed-dt slicing in the windowing ablation.
    """
    if n_events <= 0:
        raise ValidationError("n_events must be positive")
    stream.validate()
    windows = []
    for lo in range(0, len(stream), n_events):
        ev = stream.select(slice(lo, lo + n_events))
        if len(ev) == 0:
            break
        t_start, t_end = float(ev.t[0]), float(ev.t[-1])
        windows.append(EventWindow(ev, t_start, t_end))
    return windows


# The splat kernel: a Gaussian of SPLAT_SIGMA pixels sampled on 4 taps per
# axis, floor(x) - 1 ... floor(x) + 2, with e^(-(k - f)^2 / 2 sigma^2) for
# tap k at fraction f = x - floor(x). Dividing every tap by the k = 0 one
# leaves g * _C1, 1, _C1 / g and _C4 / g^2 with g = e^(-f / sigma^2): one
# exp per axis.
SPLAT_SIGMA = 0.7
_C1 = math.exp(-1.0 / (2.0 * SPLAT_SIGMA ** 2))
_C4 = math.exp(-2.0 / SPLAT_SIGMA ** 2)


def _taps(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(u) and the (4, ...) normalised Gaussian tap weights of u."""
    u0 = np.floor(u)
    g = np.exp((u0 - u) * (1.0 / SPLAT_SIGMA ** 2))
    ig = 1.0 / g
    taps = np.empty((4,) + u.shape)
    np.multiply(g, _C1, out=taps[0])
    taps[1] = 1.0
    np.multiply(ig, _C1, out=taps[2])
    np.multiply(ig * ig, _C4, out=taps[3])
    taps *= 1.0 / taps.sum(axis=0)
    return u0, taps


def _splat(positions: np.ndarray, width: int, height: int,
           on_canvas: bool = False, out: np.ndarray | None = None
           ) -> np.ndarray:
    """Gaussian splat of a (B, N, 2) position batch into (B, height, width).

    Each event spreads unit mass over the 4 x 4 pixels around it: the
    separable product of its x and y taps (see SPLAT_SIGMA), normalised per
    event, so the splat and the score built on it are smooth in the
    positions and nearly indifferent to where an event sits on the pixel
    lattice.
    One unbuffered scatter-add (np.add.at) over flattened (batch, y, x)
    indices, laid out tap-major (all (-1, -1) fragments, then (-1, 0), ...,
    (y, x) row-major), so every pixel sums its fragments in a fixed order,
    the order a weighted bincount would use. The in-bounds mask runs only
    when some floored position puts a tap off the canvas (x0 < 1,
    x0 > width - 3, or likewise in y); those fragments are dropped.
    In-bounds mass is conserved. on_canvas=True skips that check: the
    caller guarantees every tap lands on the canvas, as the likelihood
    scorer's canvas, sized from the batch's own extent, does.

    out, if given, is a zeroed flat float64 buffer of B * height * width
    values that receives the counts (a reused canvas); otherwise zeros are
    allocated. The result is a (B, height, width) view of that buffer.
    """
    b, n, _ = positions.shape
    size = b * height * width
    if out is None:
        out = np.zeros(size)
    elif out.shape != (size,) or out.dtype != np.float64:
        raise ValueError(f"out must be a flat float64 buffer of {size} "
                         f"values")
    x0, tx = _taps(positions[..., 0])
    y0, ty = _taps(positions[..., 1])
    # int32 indices scatter faster and take half the memory; every kept
    # tap's index, and its base before the (-1, -1) offset, must fit
    itype = np.int32 if size < 2**31 - 3 * width - 3 else np.int64
    base = ((np.arange(b, dtype=itype)[:, None] * height
             + y0.astype(itype)) * width + x0.astype(itype))
    offsets = (np.arange(-1, 3)[:, None] * width
               + np.arange(-1, 3)).astype(itype).reshape(16, 1, 1)
    idx = (base + offsets).ravel()
    wts = (ty[:, None] * tx[None]).ravel()
    if n and not on_canvas and (x0.min() < 1 or x0.max() > width - 3
              or y0.min() < 1 or y0.max() > height - 3):
        x_in = [(x0 >= -k) & (x0 < width - k) for k in range(-1, 3)]
        y_in = [(y0 >= -k) & (y0 < height - k) for k in range(-1, 3)]
        ok = np.stack([yi & xi for yi in y_in for xi in x_in]).ravel()
        idx, wts = idx[ok], wts[ok]
    np.add.at(out, idx, wts)
    return out.reshape(b, height, width)
