"""Output checks on the CSV files a timed CLI call writes.

A call counts only if it exited 0 and its files pass these checks. A call
that fails them counts every one of its windows as failed. The checks read
the files with plain Python, not through evalign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

DEPTH_AGGREGATE = ("rmse_lin", "rmse_log", "ard", "srd", "delta1", "delta2",
                   "delta3")


@dataclass
class CallCheck:
    windows: int                 # windows attempted by the call
    failed_windows: int
    problems: list[str] = field(default_factory=list)
    accuracy: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def read_csv(path: Path) -> list[dict[str, str]]:
    """Rows of a CLI CSV file, skipping its '#' header comments."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    if not lines:
        return []
    cols = lines[0].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[1:]]


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_depth(out: Path, exit_code: int, windows: int,
                regions: int) -> CallCheck:
    """depth.csv: one row per window x mask region, and a reference row at
    d_track = 1 in every window that converged; depth_metrics.csv: finite
    aggregate. A window fails when no region converged or it has no
    reference row."""
    return _check(out, exit_code, windows, _depth_files, regions)


def check_angvel(out: Path, exit_code: int, windows: int) -> CallCheck:
    """angvel.csv: at most one finite row per window; windows missing from
    it fail. angvel_metrics.csv: finite RMS."""
    return _check(out, exit_code, windows, _angvel_files)


def _check(out, exit_code, windows, check_files, *args) -> CallCheck:
    """Every window fails unless the call exited 0 and its files pass."""
    chk = CallCheck(windows, windows)
    if exit_code != 0:
        chk.problems.append(f"exit code {exit_code}")
        return chk
    try:
        ok_windows = check_files(chk, out, *args)
    except (OSError, KeyError, ValueError) as exc:
        chk.problems.append(f"unreadable output: {exc!r}")
        return chk
    if chk.ok:
        chk.failed_windows = windows - ok_windows
    return chk


def _depth_files(chk: CallCheck, out: Path, regions: int) -> int:
    rows = read_csv(out / "depth.csv")
    metrics = read_csv(out / "depth_metrics.csv")
    by_window: dict[str, list[dict[str, str]]] = {}
    for r in rows:
        by_window.setdefault(r["t_start"], []).append(r)
    if len(by_window) != chk.windows:
        chk.problems.append(f"depth.csv has {len(by_window)} windows, "
                            f"expected {chk.windows}")
    expected_ids = list(range(1, regions + 1))
    ok_windows = 0
    for t, wrows in by_window.items():
        ids = sorted(int(r["region_id"]) for r in wrows)
        if ids != expected_ids:
            chk.problems.append(f"window {t}: region rows {ids[:8]}...")
        converged = any(r["converged"] == "1" for r in wrows)
        reference = any(float(r["d_meas"]) == 1.0
                        and float(r["d_track"]) == 1.0 for r in wrows)
        ok_windows += converged and reference
    agg = [m for m in metrics if m.get("t_start") == "aggregate"]
    if len(agg) != 1 or not all(_finite(agg[0][k]) for k in DEPTH_AGGREGATE):
        chk.problems.append("depth_metrics.csv: no finite aggregate row")
    else:
        chk.accuracy = {"ard": float(agg[0]["ard"]),
                        "delta1": float(agg[0]["delta1"]),
                        "n": float(agg[0]["n"])}
    return ok_windows


def _angvel_files(chk: CallCheck, out: Path) -> int:
    rows = read_csv(out / "angvel.csv")
    metrics = read_csv(out / "angvel_metrics.csv")
    starts = {r["t_start"] for r in rows}
    if len(rows) > chk.windows or len(starts) != len(rows):
        chk.problems.append(
            f"angvel.csv has {len(rows)} rows for {chk.windows} windows")
    if not all(_finite(r[k]) for r in rows for k in ("wx", "wy", "wz")):
        chk.problems.append("angvel.csv: non-finite rate")
    if len(metrics) != 1 or not _finite(metrics[0]["rms"]):
        chk.problems.append("angvel_metrics.csv: no finite rms")
    else:
        chk.accuracy = {"angvel_rms_deg_s": float(metrics[0]["rms"])}
    return len(rows)
