"""File formats and ingestion.

Four plain-text formats with magic headers, all UTF-8 with LF endings:

  events   "evt1 <width> <height>" then one "t x y p" line per event
  masks    "msk1 <width> <height> <n_windows>" then per window a
           "win <t_start>" line followed by <height> rows of <width>
           space-separated integer labels (0 = background)
  imu      "imu1" then "t wx wy wz" lines, t strictly increasing
  gt depth "gtd1 <n_windows>" then per window "win <t_start>" followed by
           "region_id z_meters" lines

Floats are written with repr (shortest round-trip form), so
write -> read -> write reproduces files byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Events, RegionMask
from .errors import ParseError, ValidationError
from .warp import ImuTrace

HOT_PIXEL_MEDIAN_FACTOR = 20.0


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse(kind, text: str, line: int):
    """kind(text), with a malformed number reported at its line."""
    try:
        return kind(text)
    except ValueError:
        raise ParseError(f"malformed number {text!r}", line=line) from None


# ---------------------------------------------------------------- events

def write_events(path, events: Events, width: int, height: int) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"evt1 {width} {height}\n")
        for x, y, t, p in zip(events.x, events.y, events.t, events.p):
            fh.write(f"{_fmt(t)} {_fmt(x)} {_fmt(y)} {int(p)}\n")


def read_events(path) -> tuple[Events, int, int]:
    """Parse an event file; returns (events, width, height).

    Validation failures (non-finite numbers, bad polarity, non-monotone
    timestamps, out-of-bounds coordinates) report the offending line number.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "evt1":
            raise ParseError("expected header 'evt1 <width> <height>'", line=1)
        try:
            width, height = int(header[1]), int(header[2])
        except ValueError:
            raise ParseError("bad dimensions in header", line=1) from None
        if width <= 0 or height <= 0:
            raise ParseError("dimensions must be positive", line=1)
        ts, xs, ys, ps = [], [], [], []
        prev_t = -math.inf
        for ln, raw in enumerate(fh, start=2):
            parts = raw.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ParseError("expected 't x y p'", line=ln)
            try:
                t, x, y = float(parts[0]), float(parts[1]), float(parts[2])
                p = int(parts[3])
            except ValueError:
                raise ParseError("malformed number", line=ln) from None
            if not (math.isfinite(t) and math.isfinite(x)
                    and math.isfinite(y)):
                raise ParseError("t, x and y must be finite", line=ln)
            if p not in (-1, 1):
                raise ParseError("polarity must be -1 or 1", line=ln)
            if t < 0:
                raise ParseError("timestamp must be >= 0", line=ln)
            if t < prev_t:
                raise ParseError("timestamps must be non-decreasing", line=ln)
            if not (0 <= x <= width - 1) or not (0 <= y <= height - 1):
                raise ParseError("position outside sensor bounds", line=ln)
            prev_t = t
            ts.append(t)
            xs.append(x)
            ys.append(y)
            ps.append(p)
    events = Events(np.array(xs), np.array(ys), np.array(ts),
                    np.array(ps, dtype=np.int8))
    return events, width, height


# ---------------------------------------------------------------- masks

def write_masks(path, masks: list[tuple[float, RegionMask]],
                width: int, height: int) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"msk1 {width} {height} {len(masks)}\n")
        for t_start, mask in masks:
            if mask.labels.shape != (height, width):
                raise ValidationError("mask dimensions mismatch")
            fh.write(f"win {_fmt(t_start)}\n")
            for row in mask.labels:
                fh.write(" ".join(str(int(v)) for v in row) + "\n")


def read_masks(path) -> tuple[list[tuple[float, RegionMask]], int, int]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "msk1":
            raise ParseError("expected header 'msk1 <w> <h> <n_windows>'",
                             line=1)
        try:
            width, height, n_win = (int(v) for v in header[1:])
        except ValueError:
            raise ParseError("bad header fields", line=1) from None
        if width <= 0 or height <= 0 or n_win <= 0:
            raise ParseError("header fields must be positive", line=1)
        masks = []
        ln = 1
        for _ in range(n_win):
            ln += 1
            parts = fh.readline().split()
            if len(parts) != 2 or parts[0] != "win":
                raise ParseError("expected 'win <t_start>'", line=ln)
            t_start = _parse(float, parts[1], ln)
            if not math.isfinite(t_start):
                raise ParseError("window start must be finite", line=ln)
            rows = np.empty((height, width), dtype=np.int32)
            for r in range(height):
                ln += 1
                vals = fh.readline().split()
                if len(vals) != width:
                    raise ParseError(f"expected {width} labels", line=ln)
                try:
                    rows[r] = vals  # numpy applies int() to each token
                except (ValueError, OverflowError):
                    for v in vals:  # the first token at fault
                        if not -2**31 <= _parse(int, v, ln) < 2**31:
                            raise ParseError(f"label {v} out of range",
                                             line=ln) from None
                    raise
            if rows.min() < 0:
                raise ParseError("labels must be non-negative", line=ln)
            masks.append((t_start, RegionMask(rows)))
    return masks, width, height


# ---------------------------------------------------------------- imu

def write_imu(path, imu: ImuTrace) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("imu1\n")
        for t, (wx, wy, wz) in zip(imu.t, imu.omega):
            fh.write(f"{_fmt(t)} {_fmt(wx)} {_fmt(wy)} {_fmt(wz)}\n")


def read_imu(path) -> ImuTrace:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "imu1":
            raise ParseError("expected header 'imu1'", line=1)
        ts, oms = [], []
        prev_t = -math.inf
        for ln, raw in enumerate(fh, start=2):
            parts = raw.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ParseError("expected 't wx wy wz'", line=ln)
            try:
                vals = [float(v) for v in parts]
            except ValueError:
                raise ParseError("malformed number", line=ln) from None
            if not all(math.isfinite(v) for v in vals):
                raise ParseError("t, wx, wy and wz must be finite", line=ln)
            if vals[0] <= prev_t:
                raise ParseError("timestamps must be strictly increasing",
                                 line=ln)
            prev_t = vals[0]
            ts.append(vals[0])
            oms.append(vals[1:])
    return ImuTrace(np.array(ts), np.array(oms).reshape(-1, 3))


# ---------------------------------------------------------------- gt depth

def write_gt_depth(path, windows: list[tuple[float, dict[int, float]]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"gtd1 {len(windows)}\n")
        for t_start, depths in windows:
            fh.write(f"win {_fmt(t_start)}\n")
            for rid in sorted(depths):
                fh.write(f"{int(rid)} {_fmt(depths[rid])}\n")


def read_gt_depth(path) -> list[tuple[float, dict[int, float]]]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "gtd1":
            raise ParseError("expected header 'gtd1 <n_windows>'", line=1)
        n_win = _parse(int, header[1], 1)
        if n_win <= 0:
            raise ParseError("window count must be positive", line=1)
        out = []
        current = None
        for ln, raw in enumerate(fh, start=2):
            parts = raw.split()
            if not parts:
                continue
            if parts[0] == "win":
                if len(parts) != 2:
                    raise ParseError("expected 'win <t_start>'", line=ln)
                t_start = _parse(float, parts[1], ln)
                if not math.isfinite(t_start):
                    raise ParseError("window start must be finite", line=ln)
                current = {}
                out.append((t_start, current))
            else:
                if current is None:
                    raise ParseError("region line before any 'win'", line=ln)
                if len(parts) != 2:
                    raise ParseError("expected 'region_id z'", line=ln)
                rid, z = _parse(int, parts[0], ln), _parse(float, parts[1], ln)
                if not (math.isfinite(z) and z > 0):
                    raise ParseError("depth must be positive and finite",
                                     line=ln)
                current[rid] = z
    if len(out) != n_win:
        raise ParseError(f"expected {n_win} windows, found {len(out)}")
    return out


# ---------------------------------------------------------------- honeycomb

def honeycomb_mask(width: int, height: int, cell_radius: float) -> RegionMask:
    """Hexagonal tiling of the sensor, pointy-top orientation.

    Every pixel is assigned to exactly one cell by cube rounding in axial
    hex coordinates; labels start at 1 in row-major order of cell centers.
    """
    if not (math.isfinite(cell_radius) and cell_radius >= 4):
        raise ValidationError("cell radius must be finite and >= 4 px")
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    r = float(cell_radius)
    # axial coordinates for pointy-top hexagons of circumradius r
    q_f = (math.sqrt(3.0) / 3.0 * xs - ys / 3.0) / r
    r_f = (2.0 / 3.0 * ys) / r
    # cube rounding
    x_f, z_f = q_f, r_f
    y_f = -x_f - z_f
    rx, ry, rz = np.round(x_f), np.round(y_f), np.round(z_f)
    dx, dy, dz = np.abs(rx - x_f), np.abs(ry - y_f), np.abs(rz - z_f)
    fix_x = (dx > dy) & (dx > dz)
    fix_z = ~fix_x & (dz > dy)
    rx[fix_x] = -ry[fix_x] - rz[fix_x]
    rz[fix_z] = -rx[fix_z] - ry[fix_z]
    q_i, r_i = rx.astype(np.int64), rz.astype(np.int64)

    # cell centers back in pixel space, for row-major label ordering
    cells = np.stack((q_i.ravel(), r_i.ravel()), axis=1)
    uniq, inverse = np.unique(cells, axis=0, return_inverse=True)
    ucx = r * math.sqrt(3.0) * (uniq[:, 0] + uniq[:, 1] / 2.0)
    ucy = r * 1.5 * uniq[:, 1]
    order = np.lexsort((ucx, ucy))
    label_of = np.empty(uniq.shape[0], dtype=np.int32)
    label_of[order] = np.arange(1, uniq.shape[0] + 1, dtype=np.int32)
    labels = label_of[inverse].reshape(height, width)
    return RegionMask(labels)


# ---------------------------------------------------------------- filtering

def filter_hot_pixels(stream: Events, width: int, height: int,
                      rate_threshold: float,
                      median_factor: float = HOT_PIXEL_MEDIAN_FACTOR) -> Events:
    """Drop events from pixels firing faster than rate_threshold AND more
    than median_factor times the median count of active pixels.

    The double condition keeps legitimately busy texture pixels when the
    whole scene is active; idempotent because removing hot pixels barely
    moves the median.
    """
    if len(stream) == 0:
        return stream
    span = float(stream.t[-1]) - float(stream.t[0])
    span = max(span, 1e-9)
    xi = np.clip(np.rint(stream.x).astype(np.intp), 0, width - 1)
    yi = np.clip(np.rint(stream.y).astype(np.intp), 0, height - 1)
    flat = yi * width + xi
    counts = np.bincount(flat, minlength=width * height)
    active = counts[counts > 0]
    med = float(np.median(active))
    hot = (counts / span > rate_threshold) & (counts > median_factor * med)
    keep = ~hot[flat]
    return stream.select(keep)
