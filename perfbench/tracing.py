"""Span tracing from outside the program, and the per-layer metrics derived
from the spans.

`Tracer.install` wraps the public functions of each evalign module at the
place where its caller looks the name up (e.g. `evalign.align.
estimate_direction`, not the package re-export), so the program's own
files stay untouched. A span records its name, start, end, parent span,
window index and a few counts taken at the same boundary. Spans stay in
memory and are written as JSONL when the run ends.

`layer_metrics` turns a span list into the per-layer metrics. Self time is
a span's duration minus the durations of its direct children (calls are
nested on one thread, so children never overlap).
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time

# (module, attribute, span name) of every wrapped function
_FUNCTIONS = (
    ("evalign.cli", "main", "cli.main"),
    ("evalign.cli", "read_events", "dataio.read_events"),
    ("evalign.cli", "filter_hot_pixels", "dataio.filter_hot_pixels"),
    ("evalign.cli", "run_depth", "pipeline.run_depth"),
    ("evalign.cli", "run_angvel", "pipeline.run_angvel"),
    ("evalign.cli", "evaluate_depth_run", "pipeline.evaluate_depth_run"),
    ("evalign.pipeline", "slice_windows", "core.slice_windows"),
    ("evalign.pipeline", "slice_windows_count", "core.slice_windows"),
    ("evalign.pipeline", "align_window", "align.align_window"),
    ("evalign.pipeline", "align_window_3dof", "align.align_window_3dof"),
    ("evalign.pipeline", "estimate_window_depth", "depth.update"),
    ("evalign.align", "derotate", "warp.derotate"),
    ("evalign.align", "warp_positions", "warp.warp_positions"),
    ("evalign.align", "estimate_direction", "align.estimate_direction"),
    ("evalign.align", "estimate_magnitude", "align.estimate_magnitude"),
)

# (class in evalign.likelihood, method, span name)
_METHODS = (
    ("WindowObjective", "__init__", "likelihood.objective_init"),
    ("WindowObjective", "log_likelihood_ray", "likelihood.ray"),
    ("WindowObjective", "log_likelihood", "likelihood.point"),
)

WINDOW_SPANS = ("align.align_window", "align.align_window_3dof")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        # rows of [id, name, parent, window, start, end, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._window: int | None = None
        self._window_of: dict[int, int] = {}

    def _call(self, name, fn, args, kwargs, counts=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if name in WINDOW_SPANS:
            self._window = self._window_of.get(id(args[0]))
        row = [sid, name, parent, self._window, 0.0, 0.0, None]
        self.spans.append(row)
        self._stack.append(sid)
        row[4] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            row[5] = time.perf_counter()
            self._stack.pop()
            if name.startswith("pipeline.run_"):
                self._window = None
        if counts is not None:
            row[6] = counts(args, kwargs, out)
        return out

    def wrap(self, fn, name, counts=None):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, counts)
        return wrapper

    def install(self) -> None:
        from evalign import likelihood

        counts = {
            "dataio.read_events": _count_read_events,
            "dataio.filter_hot_pixels": _count_hot_pixels,
            "core.slice_windows": self._count_windows,
            "align.align_window": _count_regions,
            "align.estimate_magnitude": _count_magnitude,
            "depth.update": _count_depth_update,
            "likelihood.ray": _count_ray,
        }
        for module, attr, name in _FUNCTIONS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(getattr(mod, attr), name,
                                         counts.get(name)))
        for cls_name, attr, name in _METHODS:
            cls = getattr(likelihood, cls_name)
            setattr(cls, attr, self.wrap(getattr(cls, attr), name,
                                         counts.get(name)))
        # classmethod: wrap the bound method and expose it as a static one
        grid_cls = likelihood.MagnitudeGrid
        setattr(grid_cls, "for_window", staticmethod(self.wrap(
            grid_cls.for_window, "likelihood.grid",
            lambda a, k, out: {"m_max": out.m_max})))

    def _count_windows(self, args, kwargs, windows):
        self._window_of = {id(w): k for k, w in enumerate(windows)}
        return {"windows": len(windows),
                "events_per_window": [len(w) for w in windows]}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, window, t0, t1, attrs in self.spans:
                rec = {"id": sid, "name": name, "parent": parent,
                       "window": window, "start": t0, "end": t1}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


def _count_read_events(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _count_hot_pixels(args, kwargs, out):
    return {"n_in": len(args[0]), "n_out": len(out)}


def _count_regions(args, kwargs, result):
    ests = result.per_region.values()
    return {"regions": len(ests),
            "converged": sum(1 for e in ests if e.converged)}


def _count_magnitude(args, kwargs, out):
    grid = args[3]
    # pinned within two golden-section tolerances of either grid end
    tol = 2.0 * grid.m_max / 5000.0
    return {"at_bound": bool(out[0] <= tol or out[0] >= grid.m_max - tol)}


def _count_depth_update(args, kwargs, reports):
    return {"reports": len(reports),
            "applied": sum(1 for r in reports if r.converged)}


def _count_ray(args, kwargs, out):
    obj, rows = args[0], len(args[2])
    return {"rows": rows, "event_rows": rows * obj.n_events_in_region}


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was measured (JSON has no NaN)."""
    return num / den if den else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced call."""
    by_id = {s["id"]: s for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s):
        return dur(s) - child_time[s["id"]]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def ancestor(s, names):
        """Name of the nearest ancestor among names, or None."""
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] in names:
                return by_id[p]["name"]
            p = by_id[p]["parent"]
        return None

    search = ("align.estimate_direction", "align.estimate_magnitude")
    rays, points = named("likelihood.ray"), named("likelihood.point")
    ray_owner = [ancestor(s, search) for s in rays]
    point_owner = [ancestor(s, search) for s in points]
    ray_self = sum(self_time(s) for s in rays)
    event_rows = sum(s["event_rows"] for s in rays)
    directions = named("align.estimate_direction")
    magnitudes = named("align.estimate_magnitude")
    dof3 = named("align.align_window_3dof")
    windows = named("align.align_window")
    grids = named("likelihood.grid")
    reads = named("dataio.read_events")
    hots = named("dataio.filter_hot_pixels")
    slices = named("core.slice_windows")
    updates = named("depth.update")
    pipeline = [s for s in spans if s["name"].startswith("pipeline.")]

    dir_in_3dof = sum(1 for s in directions
                      if ancestor(s, ("align.align_window_3dof",)))
    mag_evals = (sum(1 for o in ray_owner if o == search[1])
                 + sum(1 for o in point_owner if o == search[1]))
    read_s = sum(dur(s) for s in reads)
    hot_in = sum(s["n_in"] for s in hots)
    per_window = [n for s in slices for n in s["events_per_window"]]
    reports = sum(s["reports"] for s in updates)
    regions = sum(s["regions"] for s in windows)

    return {
        "likelihood.ray_calls": (len(rays), "count"),
        "likelihood.ray_rows": (sum(s["rows"] for s in rays), "count"),
        "likelihood.event_rows": (event_rows, "count"),
        "likelihood.ray_self_s": (ray_self, "s"),
        "likelihood.ns_per_event_row": (_ratio(ray_self * 1e9, event_rows),
                                        "ns"),
        "likelihood.ray_self_s.direction": (
            sum(self_time(s) for s, o in zip(rays, ray_owner)
                if o == search[0]), "s"),
        "likelihood.ray_self_s.magnitude": (
            sum(self_time(s) for s, o in zip(rays, ray_owner)
                if o == search[1]), "s"),
        "likelihood.point_calls": (len(points), "count"),
        "likelihood.point_self_s": (sum(self_time(s) for s in points), "s"),
        "likelihood.objective_init_s": (
            sum(dur(s) for s in named("likelihood.objective_init")), "s"),
        "likelihood.grid_s": (sum(dur(s) for s in grids), "s"),
        "likelihood.m_max_p50": (_median([s["m_max"] for s in grids]),
                                 "rad/s"),
        "align.direction_calls": (len(directions), "count"),
        "align.direction_s": (sum(dur(s) for s in directions), "s"),
        "align.direction_evals_per_call": (
            _ratio(sum(1 for o in ray_owner if o == search[0]),
                   len(directions)), "count"),
        "align.dof3_s": (sum(dur(s) for s in dof3), "s"),
        "align.dof3_direction_calls_per_window": (
            _ratio(dir_in_3dof, len(dof3)), "count"),
        "align.magnitude_calls": (len(magnitudes), "count"),
        "align.magnitude_s": (sum(dur(s) for s in magnitudes), "s"),
        "align.magnitude_evals_per_call": (
            _ratio(mag_evals, len(magnitudes)), "count"),
        "align.region_converged_frac": (
            _ratio(sum(s["converged"] for s in windows), regions), "ratio"),
        "align.mag_at_bound_frac": (
            _ratio(sum(1 for s in magnitudes if s.get("at_bound")),
                   sum(1 for s in magnitudes if "at_bound" in s)), "ratio"),
        "align.window_ms_p50": (
            _median([dur(s) * 1e3 for s in windows + dof3]), "ms"),
        "warp.derotate_s": (sum(dur(s) for s in named("warp.derotate")),
                            "s"),
        "warp.warp_positions_calls": (len(named("warp.warp_positions")),
                                      "count"),
        "dataio.read_events_s": (read_s, "s"),
        "dataio.read_events_mb_per_s": (
            _ratio(sum(s["bytes"] for s in reads) / 1e6, read_s), "MB/s"),
        "dataio.filter_hot_pixels_s": (sum(dur(s) for s in hots), "s"),
        "dataio.hot_dropped_frac": (
            _ratio(hot_in - sum(s["n_out"] for s in hots), hot_in), "ratio"),
        "core.slice_windows_s": (sum(dur(s) for s in slices), "s"),
        "core.events_per_window_p50": (_median(per_window), "count"),
        "depth.update_s": (sum(dur(s) for s in updates), "s"),
        "depth.applied_frac": (
            _ratio(sum(s["applied"] for s in updates), reports), "ratio"),
        "pipeline.self_s": (sum(self_time(s) for s in pipeline), "s"),
        "cli.self_s": (sum(self_time(s) for s in named("cli.main")), "s"),
    }
