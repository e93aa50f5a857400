"""Command-line surface: synth / depth / angvel subcommands.

depth and angvel are deterministic and cut windows [k*dt, (k+1)*dt) on
synth's ground-truth lattice (angvel --fixed-count cuts by event count).
All outputs are CSV with a reproducibility header (version, config echo)
as '#' comment lines. Exit codes: 0 success, 2 input error, 3 no usable
result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import CameraIntrinsics
from .dataio import (
    filter_hot_pixels,
    honeycomb_mask,
    read_events,
    read_gt_depth,
    read_imu,
    read_masks,
    write_events,
    write_gt_depth,
    write_imu,
    write_masks,
)
from .errors import EvalignError
from .metrics import angvel_metrics
from .pipeline import (
    RunConfig,
    evaluate_depth_run,
    run_angvel,
    run_depth,
    window_average_omega,
)
from .synth import MotionSpec, PlaneSpec, SceneSpec, generate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_RESULT = 3


def _config_flags(parser: argparse.ArgumentParser) -> None:
    # an absent --hot-thresh means the RunConfig default None
    d = RunConfig()
    parser.add_argument("--dt", type=float, default=d.dt,
                        help="window length in seconds (default %(default)s)")
    parser.add_argument("--grid-n", type=int, default=d.grid_n,
                        help="magnitude grid points (default %(default)s)")
    parser.add_argument("--phi-samples", type=int, default=d.phi_samples,
                        help="directions of the coarse scan that runs when "
                             "the FFT drift cannot bracket the direction "
                             "(default %(default)s)")
    parser.add_argument("--min-events", type=int, default=d.min_events,
                        help="minimum events per region "
                             "(default %(default)s)")
    parser.add_argument("--hot-thresh", type=float, default=d.hot_threshold,
                        help="hot-pixel rate threshold (events/s; off by "
                             "default)")
    parser.add_argument("--intrinsics", default=None,
                        help="fx,fy,cx,cy (default: fx=fy=1.2*max(w,h), "
                             "principal point at the sensor center)")


def _build_config(args) -> RunConfig:
    return RunConfig(dt=args.dt, grid_n=args.grid_n,
                     phi_samples=args.phi_samples, min_events=args.min_events,
                     hot_threshold=args.hot_thresh)


def _intrinsics(args, width: int, height: int) -> CameraIntrinsics:
    if args.intrinsics:
        try:
            fx, fy, cx, cy = (float(v) for v in args.intrinsics.split(","))
        except ValueError:
            raise EvalignError(
                "--intrinsics expects 'fx,fy,cx,cy'") from None
        return CameraIntrinsics(fx, fy, cx, cy, width, height)
    f = 1.2 * max(width, height)
    return CameraIntrinsics(f, f, (width - 1) / 2.0, (height - 1) / 2.0,
                            width, height)


def _header_lines(args, cfg: RunConfig) -> list[str]:
    echo = " ".join(f"{f.name}={getattr(cfg, f.name)}"
                    for f in dataclasses.fields(cfg))
    return [
        f"# evalign {__version__} {args.command}",
        f"# config: {echo}",
    ]


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return "nan" if math.isnan(x) else repr(x)
    return str(x)


def _write_csv(path, header_lines, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------- synth

def _load_scene(path) -> tuple[SceneSpec, CameraIntrinsics]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    intr = CameraIntrinsics(
        fx=float(data["fx"]), fy=float(data["fy"]),
        cx=float(data["cx"]), cy=float(data["cy"]),
        width=int(data["width"]), height=int(data["height"]))
    planes = tuple(
        PlaneSpec(polygon=np.asarray(p["polygon"], dtype=np.float64),
                  depth=float(p["depth"]),
                  edge_density=float(p["edge_density"]))
        for p in data["planes"])
    scene = SceneSpec(
        planes=planes,
        noise_rate=float(data.get("noise_rate", 0.0)),
        hot_pixels=tuple(tuple(h) for h in data.get("hot_pixels", [])))
    return scene, intr


def _load_motion(path) -> MotionSpec:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    kwargs = {"duration": float(data["duration"])}
    if "v_profile" in data:
        kwargs["v_profile"] = np.asarray(data["v_profile"], dtype=np.float64)
    elif "v" in data:
        kwargs["v"] = np.asarray(data["v"], dtype=np.float64)
    if "omega_profile" in data:
        kwargs["omega_profile"] = np.asarray(data["omega_profile"],
                                             dtype=np.float64)
    elif "omega" in data:
        kwargs["omega"] = np.asarray(data["omega"], dtype=np.float64)
    return MotionSpec(**kwargs)


def cmd_synth(args) -> int:
    scene, intr = _load_scene(args.scene)
    motion = _load_motion(args.motion)
    res = generate(scene, motion, intr, seed=args.seed, dt=args.dt)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_events(out / "events.evt", res.events, intr.width, intr.height)
    write_masks(out / "masks.msk",
                [(w.t_start, w.mask) for w in res.windows],
                intr.width, intr.height)
    write_imu(out / "imu.imu", res.imu)
    write_gt_depth(out / "gt_depth.gtd",
                   [(w.t_start, w.depths) for w in res.windows])
    print(f"wrote {len(res.events)} events over {len(res.windows)} windows "
          f"to {out}")
    return EXIT_OK


# ---------------------------------------------------------------- depth

def _mask_provider_from_arg(mask_arg, width, height):
    """Returns (provider, honeycomb_mask_or_None)."""
    if mask_arg.startswith("honeycomb:"):
        spec = mask_arg[len("honeycomb:"):]
        if not spec.startswith("r="):
            raise EvalignError("expected --mask honeycomb:r=<px>")
        radius = float(spec[2:])
        mask = honeycomb_mask(width, height, radius)

        def provider(_t):
            return mask

        return provider, mask
    masks, mw, mh = read_masks(mask_arg)
    if (mw, mh) != (width, height):
        raise EvalignError("mask dimensions do not match event dimensions")
    times = np.array([t for t, _ in masks])

    def provider(t_start):
        return masks[int(np.argmin(np.abs(times - t_start)))][1]

    return provider, None


def cmd_depth(args) -> int:
    events, width, height = read_events(args.events)
    cfg = _build_config(args)
    intr = _intrinsics(args, width, height)
    if cfg.hot_threshold is not None:
        events = filter_hot_pixels(events, width, height, cfg.hot_threshold)
    provider, honeycomb = _mask_provider_from_arg(args.mask, width, height)
    imu = read_imu(args.imu) if args.imu else None

    rows = run_depth(events, intr, cfg, provider, imu=imu)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = _header_lines(args, cfg)
    _write_csv(
        out / "depth.csv", header,
        ["t_start", "region_id", "phi", "m", "d_meas", "d_track", "var",
         "converged"],
        [(r.t_start, r.region_id, r.phi, r.m, r.d_meas, r.d_track, r.var,
          r.converged) for r in rows])

    if not any(r.converged for r in rows):
        print("no window converged", file=sys.stderr)
        return EXIT_NO_RESULT

    if args.gt:
        gt_depths = read_gt_depth(args.gt)
        gt_masks = None
        if honeycomb is not None:
            if args.gt_mask is None:
                raise EvalignError(
                    "--gt with a honeycomb mask needs --gt-mask for the "
                    "ground-truth regions")
            gt_masks, _, _ = read_masks(args.gt_mask)
        per_window, aggregate = evaluate_depth_run(
            rows, gt_depths, gt_masks=gt_masks, est_mask=honeycomb)
        metric_rows = [(t, *m.as_row(), m.n) for t, m in per_window]
        metric_rows.append(("aggregate", *aggregate.as_row(), aggregate.n))
        _write_csv(
            out / "depth_metrics.csv", header,
            ["t_start", "rmse_lin", "rmse_log", "ard", "srd", "delta1",
             "delta2", "delta3", "n"],
            metric_rows)
        print(f"aggregate ARD {aggregate.ard:.4f} over {aggregate.n} "
              f"region-windows")
    return EXIT_OK


# ---------------------------------------------------------------- angvel

def cmd_angvel(args) -> int:
    events, width, height = read_events(args.events)
    cfg = _build_config(args)
    intr = _intrinsics(args, width, height)
    if cfg.hot_threshold is not None:
        events = filter_hot_pixels(events, width, height, cfg.hot_threshold)
    imu_gt = read_imu(args.imu_gt)

    rows = run_angvel(events, intr, cfg, fixed_count=args.fixed_count)
    if not rows:
        print("no window produced an estimate", file=sys.stderr)
        return EXIT_NO_RESULT
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = _header_lines(args, cfg)
    _write_csv(
        out / "angvel.csv", header,
        ["t_start", "t_end", "wx", "wy", "wz"],
        [(r.t_start, r.t_end, r.omega.wx, r.omega.wy, r.omega.wz)
         for r in rows])

    gt = [window_average_omega(imu_gt, r.t_start, r.t_end) for r in rows]
    max_rate = float(np.max(np.abs(imu_gt.omega))) * 180.0 / math.pi
    m = angvel_metrics([r.omega for r in rows], gt, max_rate=max_rate)
    _write_csv(
        out / "angvel_metrics.csv", header,
        ["e_wx", "e_wy", "e_wz", "sigma_ew", "rms", "rms_pct"],
        [(m.e_wx, m.e_wy, m.e_wz, m.sigma_ew, m.rms, m.rms_pct)])
    print(f"RMS {m.rms:.3f} deg/s ({m.rms_pct:.2f}% of peak)")
    return EXIT_OK


# ---------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evalign",
        description="Relative distance from event-camera data via "
                    "compensatory rotational event alignment")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--scene", required=True, help="scene JSON file")
    p_synth.add_argument("--motion", required=True, help="motion JSON file")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--dt", type=float, default=RunConfig().dt)
    p_synth.set_defaults(func=cmd_synth)

    p_depth = sub.add_parser("depth", help="relative distance pipeline")
    p_depth.add_argument("--events", required=True)
    p_depth.add_argument("--mask", required=True,
                         help="mask file or honeycomb:r=<px>")
    p_depth.add_argument("--imu", default=None)
    p_depth.add_argument("--gt", default=None,
                         help="ground-truth depth file for metrics")
    p_depth.add_argument("--gt-mask", default=None,
                         help="ground-truth mask file (required with --gt "
                              "when --mask is a honeycomb)")
    p_depth.add_argument("--out", required=True)
    _config_flags(p_depth)
    p_depth.set_defaults(func=cmd_depth)

    p_ang = sub.add_parser("angvel", help="3-DOF angular velocity pipeline")
    p_ang.add_argument("--events", required=True)
    p_ang.add_argument("--imu-gt", required=True,
                       help="ground-truth angular velocity (imu format)")
    p_ang.add_argument("--fixed-count", type=int, default=None,
                       help="use fixed-event-count windows of this size "
                            "instead of fixed-dt windows")
    p_ang.add_argument("--out", required=True)
    _config_flags(p_ang)
    p_ang.set_defaults(func=cmd_angvel)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EvalignError, OSError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
