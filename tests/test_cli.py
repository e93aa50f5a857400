"""CLI plumbing: subcommands, files, exit codes, reproducibility."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evalign
from evalign import likelihood
from evalign.cli import _build_config, _config_flags, build_parser, main
from evalign.pipeline import RunConfig
from evalign.dataio import read_events, read_gt_depth, read_imu, read_masks

FAST = ["--phi-samples", "12", "--grid-n", "15", "--min-events", "30"]


def write_scene(path, planes=None, extra=None):
    scene = {
        "width": 160, "height": 120,
        "fx": 170.0, "fy": 170.0, "cx": 79.5, "cy": 59.5,
        "planes": planes or [
            {"polygon": [[30, 24], [92, 24], [92, 96], [30, 96]],
             "depth": 1.0, "edge_density": 24.0},
            {"polygon": [[102, 16], [156, 16], [156, 104], [102, 104]],
             "depth": 2.0, "edge_density": 24.0},
        ],
        "noise_rate": 0.0,
    }
    if extra:
        scene.update(extra)
    path.write_text(json.dumps(scene))
    return path


def write_motion(path, spec=None):
    motion = spec or {
        "v_profile": [[0.0, 0.45, 0.0, 0.0], [0.1, -0.45, 0.0, 0.0]],
        "duration": 0.15,
    }
    path.write_text(json.dumps(motion))
    return path


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_dataset")
    scene = write_scene(root / "scene.json")
    motion = write_motion(root / "motion.json")
    out = root / "data"
    code = main(["synth", "--scene", str(scene), "--motion", str(motion),
                 "--out", str(out), "--seed", "5"])
    assert code == 0
    return out


class TestSynthCommand:
    def test_outputs_readable_by_dataio(self, dataset):
        ev, w, h = read_events(dataset / "events.evt")
        assert (w, h) == (160, 120)
        assert len(ev) > 500
        masks, mw, mh = read_masks(dataset / "masks.msk")
        assert (mw, mh) == (160, 120) and len(masks) == 3
        imu = read_imu(dataset / "imu.imu")
        assert len(imu) > 10
        gt = read_gt_depth(dataset / "gt_depth.gtd")
        assert len(gt) == 3 and gt[0][1] == {1: 1.0, 2: 2.0}

    def test_same_seed_byte_identical(self, dataset, tmp_path):
        scene = write_scene(tmp_path / "scene.json")
        motion = write_motion(tmp_path / "motion.json")
        out = tmp_path / "again"
        assert main(["synth", "--scene", str(scene), "--motion", str(motion),
                     "--out", str(out), "--seed", "5"]) == 0
        for name in ("events.evt", "masks.msk", "imu.imu", "gt_depth.gtd"):
            assert (out / name).read_bytes() == \
                (dataset / name).read_bytes()

    def test_overlapping_planes_exit_2(self, tmp_path, capsys):
        planes = [
            {"polygon": [[30, 24], [92, 24], [92, 96], [30, 96]],
             "depth": 1.0, "edge_density": 10.0},
            {"polygon": [[80, 24], [150, 24], [150, 96], [80, 96]],
             "depth": 2.0, "edge_density": 10.0},
        ]
        scene = write_scene(tmp_path / "scene.json", planes=planes)
        motion = write_motion(tmp_path / "motion.json")
        code = main(["synth", "--scene", str(scene), "--motion", str(motion),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "overlap" in capsys.readouterr().err


    @pytest.mark.parametrize("dt", ["0", "nan", "-0.05"])
    def test_bad_dt_exit_2(self, tmp_path, capsys, dt):
        code = main(["synth", "--scene", str(write_scene(tmp_path / "s.json")),
                     "--motion", str(write_motion(tmp_path / "m.json")),
                     "--out", str(tmp_path / "out"), "--dt", dt])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dt" in err
        assert not (tmp_path / "out").exists()


class TestDepthCommand:
    def test_basic_run(self, dataset, tmp_path):
        out = tmp_path / "run"
        code = main(["depth", "--events", str(dataset / "events.evt"),
                     "--mask", str(dataset / "masks.msk"),
                     "--gt", str(dataset / "gt_depth.gtd"),
                     "--out", str(out),
                     "--intrinsics", "170,170,79.5,59.5", *FAST])
        assert code == 0
        lines = (out / "depth.csv").read_text().splitlines()
        assert lines[0].startswith("# evalign")
        assert any(l.startswith("# config:") for l in lines)
        header = next(l for l in lines if not l.startswith("#"))
        assert header.split(",") == ["t_start", "region_id", "phi", "m",
                                     "d_meas", "d_track", "var", "converged"]
        metrics_lines = (out / "depth_metrics.csv").read_text().splitlines()
        assert metrics_lines[-1].startswith("aggregate,")

    def test_no_imu_equals_zero_imu(self, dataset, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        zero_imu = tmp_path / "zero.imu"
        zero_imu.write_text(
            "imu1\n" + "".join(f"{0.01 * k} 0.0 0.0 0.0\n"
                               for k in range(16)))
        base = ["depth", "--events", str(dataset / "events.evt"),
                "--mask", str(dataset / "masks.msk"),
                "--intrinsics", "170,170,79.5,59.5", *FAST]
        assert main(base + ["--out", str(out_a)]) == 0
        assert main(base + ["--imu", str(zero_imu), "--out", str(out_b)]) == 0
        assert (out_a / "depth.csv").read_bytes() == \
            (out_b / "depth.csv").read_bytes()

    def test_honeycomb_mask_flag(self, dataset, tmp_path):
        out = tmp_path / "honey"
        code = main(["depth", "--events", str(dataset / "events.evt"),
                     "--mask", "honeycomb:r=24",
                     "--out", str(out),
                     "--intrinsics", "170,170,79.5,59.5", *FAST])
        assert code == 0
        body = [l for l in (out / "depth.csv").read_text().splitlines()
                if not l.startswith(("#", "t_start"))]
        regions = {int(l.split(",")[1]) for l in body}
        assert len(regions) > 4  # honeycomb cells, not the 2 file regions

    @pytest.mark.parametrize("radius", ["nan", "inf"])
    def test_non_finite_honeycomb_radius_exit_2(self, dataset, tmp_path,
                                                capsys, radius):
        code = main(["depth", "--events", str(dataset / "events.evt"),
                     "--mask", f"honeycomb:r={radius}",
                     "--out", str(tmp_path / "out"), *FAST])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cell radius must be finite")
        assert not (tmp_path / "out").exists()

    def test_sparse_events_exit_3(self, dataset, tmp_path):
        sparse = tmp_path / "sparse.evt"
        lines = ["evt1 160 120"]
        lines += [f"{0.001 * k} {10 + k} 40 1" for k in range(20)]
        sparse.write_text("\n".join(lines) + "\n")
        code = main(["depth", "--events", str(sparse),
                     "--mask", "honeycomb:r=24",
                     "--out", str(tmp_path / "out"), *FAST])
        assert code == 3

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["depth", "--events", str(tmp_path / "nope.evt"),
                     "--mask", "honeycomb:r=24",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan 80.0 60.0 1", "inf 80.0 60.0 1"])
    def test_non_finite_timestamp_exit_2(self, dataset, tmp_path, capsys,
                                         bad):
        lines = (dataset / "events.evt").read_text().splitlines()
        events = tmp_path / "bad.evt"
        events.write_text("\n".join(lines + [bad]) + "\n")
        code = main(["depth", "--events", str(events),
                     "--mask", "honeycomb:r=24",
                     "--out", str(tmp_path / "out"), *FAST])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {len(lines) + 1}: ")
        assert "finite" in err and "Traceback" not in err


    @pytest.mark.parametrize("flag, name, header, bad", [
        ("--imu", "bad.imu", "imu1", "0.05 nan 0.0 0.0"),
        ("--gt", "bad.gtd", "gtd1 1\nwin 0.0", "1 nan"),
    ])
    def test_non_finite_side_file_exit_2(self, dataset, tmp_path, capsys,
                                         flag, name, header, bad):
        # line 2 is good, the bad line follows it
        good = "0.0 0.0 0.0 0.0" if flag == "--imu" else "2 2.0"
        side = tmp_path / name
        side.write_text(f"{header}\n{good}\n{bad}\n")
        bad_line = header.count("\n") + 3
        code = main(["depth", "--events", str(dataset / "events.evt"),
                     "--mask", str(dataset / "masks.msk"), flag, str(side),
                     "--out", str(tmp_path / "out"),
                     "--intrinsics", "170,170,79.5,59.5", *FAST])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {bad_line}: ")
        assert "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, text, line", [
        ("--gt", "gtd1 1\nwin 0.0\n1 abc\n", 3),
        ("--gt", "gtd1 x\nwin 0.0\n1 1.0\n", 1),
        ("--mask", "msk1 2 1 1\nwin zz\n1 1\n", 2),
    ])
    def test_malformed_side_file_exit_2(self, dataset, tmp_path, capsys,
                                        flag, text, line):
        side = tmp_path / "bad.txt"
        side.write_text(text)
        files = {"--mask": str(dataset / "masks.msk"), flag: str(side)}
        code = main(["depth", "--events", str(dataset / "events.evt"),
                     *(a for item in files.items() for a in item),
                     "--out", str(tmp_path / "out"),
                     "--intrinsics", "170,170,79.5,59.5", *FAST])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: malformed number")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--phi-samples", "0"], "phi_samples"),
        (["--dt", "nan"], "dt"),
        (["--grid-n", "1"], "grid"),
        (["--dt", "0"], "dt"),
        (["--intrinsics", "200,200,inf,59.5"], "finite"),
        (["--intrinsics", "nan,200,95.5,59.5"], "finite"),
        (["--intrinsics", "200,200,95.5"], "intrinsics"),
        (["--hot-thresh", "nan"], "hot_threshold"),
        (["--hot-thresh", "-1"], "hot_threshold"),
        (["--min-events", "-5"], "min_events"),
    ])
    def test_bad_config_exit_2(self, dataset, tmp_path, capsys, flags,
                               message):
        code = main(["depth", "--events", str(dataset / "events.evt"),
                     "--mask", str(dataset / "masks.msk"),
                     "--out", str(tmp_path / "out"), *FAST, *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


# the commands that take the config flags, with their required arguments
CONFIG_COMMANDS = [
    ("depth", ["--events", "e", "--mask", "m", "--out", "o"]),
    ("angvel", ["--events", "e", "--imu-gt", "g", "--out", "o"]),
]


@pytest.mark.parametrize("command, required", CONFIG_COMMANDS)
def test_flag_defaults_are_run_config_defaults(command, required):
    args = build_parser().parse_args([command, *required])
    assert _build_config(args) == RunConfig()


# the flag of each RunConfig field; --intrinsics describes the camera and
# has no field
CONFIG_FLAGS = {"dt": "--dt", "grid_n": "--grid-n",
                "phi_samples": "--phi-samples", "min_events": "--min-events",
                "hot_threshold": "--hot-thresh"}


def test_config_flags_match_run_config_fields():
    parser = argparse.ArgumentParser()
    _config_flags(parser)
    options = [a.option_strings for a in parser._actions
               if a.option_strings not in (["-h", "--help"],
                                           ["--intrinsics"])]
    assert sorted(options) == sorted([f] for f in CONFIG_FLAGS.values())
    names = [f.name for f in dataclasses.fields(RunConfig)]
    assert sorted(names) == sorted(CONFIG_FLAGS)
    default = RunConfig()
    for name, flag in CONFIG_FLAGS.items():
        cfg = _build_config(parser.parse_args([flag, "7"]))
        assert [n for n in names
                if getattr(cfg, n) != getattr(default, n)] == [name]


@pytest.mark.parametrize("command, required", CONFIG_COMMANDS)
@pytest.mark.parametrize("flag", ["--sigma-proc", "--nb-r", "--nb-q",
                                  "--m-max"])
def test_removed_flags_are_usage_errors(command, required, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *required, flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestAngvelCommand:
    @pytest.fixture(scope="class")
    def rotation_dataset(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli_rot")
        scene = write_scene(root / "scene.json", planes=[
            {"polygon": [[20, 16], [150, 16], [150, 104], [20, 104]],
             "depth": 1.5, "edge_density": 14.0}])
        motion = write_motion(root / "motion.json",
                              {"omega": [0.0, 0.35, 0.0], "duration": 0.15})
        out = root / "data"
        assert main(["synth", "--scene", str(scene), "--motion", str(motion),
                     "--out", str(out), "--seed", "6"]) == 0
        return out

    def test_run_and_metrics(self, rotation_dataset, tmp_path):
        out = tmp_path / "run"
        code = main(["angvel", "--events",
                     str(rotation_dataset / "events.evt"),
                     "--imu-gt", str(rotation_dataset / "imu.imu"),
                     "--out", str(out),
                     "--intrinsics", "170,170,79.5,59.5", *FAST])
        assert code == 0
        assert (out / "angvel.csv").exists()
        assert (out / "angvel_metrics.csv").exists()

    def test_self_ground_truth_gives_zero_metrics(self, rotation_dataset,
                                                  tmp_path):
        out = tmp_path / "first"
        assert main(["angvel", "--events",
                     str(rotation_dataset / "events.evt"),
                     "--imu-gt", str(rotation_dataset / "imu.imu"),
                     "--out", str(out),
                     "--intrinsics", "170,170,79.5,59.5", *FAST]) == 0
        rows = [l.split(",") for l in
                (out / "angvel.csv").read_text().splitlines()
                if not l.startswith(("#", "t_start"))]
        # feed the estimates back as ground truth (held per window)
        self_gt = tmp_path / "self.imu"
        lines = ["imu1"]
        for t_start, _t_end, wx, wy, wz in rows:
            lines.append(f"{t_start} {wx} {wy} {wz}")
        self_gt.write_text("\n".join(lines) + "\n")
        out2 = tmp_path / "second"
        assert main(["angvel", "--events",
                     str(rotation_dataset / "events.evt"),
                     "--imu-gt", str(self_gt),
                     "--out", str(out2),
                     "--intrinsics", "170,170,79.5,59.5", *FAST]) == 0
        metric_row = [l for l in
                      (out2 / "angvel_metrics.csv").read_text().splitlines()
                      if not l.startswith(("#", "e_wx"))][0]
        rms = float(metric_row.split(",")[4])
        assert rms == pytest.approx(0.0, abs=1e-9)

    def test_missing_gt_exit_2(self, rotation_dataset, tmp_path):
        code = main(["angvel", "--events",
                     str(rotation_dataset / "events.evt"),
                     "--imu-gt", str(tmp_path / "missing.imu"),
                     "--out", str(tmp_path / "out")])
        assert code == 2


def test_pool_starts_with_first_direction_search(dataset, tmp_path):
    """`evalign synth` leaves no scan pool, worker or thread behind; the
    first direction search creates the pool when there are CPUs to share."""
    script = (
        "import json, multiprocessing, os, sys, threading\n"
        "from evalign import likelihood\n"
        "from evalign.cli import main\n"
        "synth, depth = json.loads(sys.argv[1])\n"
        "assert main(synth) == 0\n"
        "assert likelihood._scan_pool is None\n"
        "assert not multiprocessing.active_children()\n"
        "assert threading.active_count() == 1\n"
        "assert main(depth) == 0\n"
        "pooled = len(os.sched_getaffinity(0)) > 1\n"
        "assert (likelihood._scan_pool is not None) == pooled\n"
    )
    root = tmp_path / "scene"
    synth = ["synth", "--scene", str(write_scene(tmp_path / "scene.json")),
             "--motion", str(write_motion(tmp_path / "motion.json")),
             "--out", str(root), "--seed", "5"]
    depth = ["depth", "--events", str(dataset / "events.evt"),
             "--mask", str(dataset / "masks.msk"),
             "--out", str(tmp_path / "run"),
             "--intrinsics", "170,170,79.5,59.5", *FAST]
    src = str(Path(evalign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script,
                           json.dumps([synth, depth])],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_pooled_and_serial_runs_write_identical_csvs(dataset, tmp_path,
                                                     monkeypatch):
    """`evalign depth` and `evalign angvel` write the same bytes whether
    the direction scans are shared out to the process pool or not."""
    rot = tmp_path / "rotation"
    scene = write_scene(tmp_path / "rotation.json", planes=[
        {"polygon": [[20, 16], [150, 16], [150, 104], [20, 104]],
         "depth": 1.5, "edge_density": 14.0}])
    motion = write_motion(tmp_path / "rotation_motion.json",
                          {"omega": [0.0, 0.35, 0.0], "duration": 0.05})
    assert main(["synth", "--scene", str(scene), "--motion", str(motion),
                 "--out", str(rot), "--seed", "6"]) == 0
    calls = {
        "depth": ["depth", "--events", str(dataset / "events.evt"),
                  "--mask", str(dataset / "masks.msk"),
                  "--gt", str(dataset / "gt_depth.gtd"), *FAST],
        # one window; a 12-row grid still cuts every probe inside its ray
        "angvel": ["angvel", "--events", str(rot / "events.evt"),
                   "--imu-gt", str(rot / "imu.imu"), "--phi-samples", "8",
                   "--grid-n", "12", "--min-events", "30"],
    }

    def run_all(tag):
        csvs = {}
        for name, argv in calls.items():
            out = tmp_path / tag / name
            assert main([*argv, "--out", str(out),
                         "--intrinsics", "170,170,79.5,59.5"]) == 0
            csvs.update((f"{name}/{p.name}", p.read_bytes())
                        for p in out.glob("*.csv"))
        return csvs

    pooled = run_all("pooled")
    assert sorted(pooled) == ["angvel/angvel.csv", "angvel/angvel_metrics.csv",
                              "depth/depth.csv", "depth/depth_metrics.csv"]
    monkeypatch.setattr(likelihood, "_scan_workers", lambda n_cpu: None)
    assert run_all("serial") == pooled
