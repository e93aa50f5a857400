"""Workload definitions: the synthetic scene, the camera motion and the CLI
call of each benchmark workload.

Every workload is a seeded synthetic scene that `evalign synth` renders into
the files the timed `evalign depth` / `evalign angvel` call reads. The
program under test only ever sees those generated files. Intrinsics are
always passed with `--intrinsics`, because the CLI's default intrinsics
(fx = 1.2 * max(w, h)) differ from the scene's.

`seed` is the default seed; `check_seed` is kept aside for confirming a
later performance claim on a scene that was not used while writing it.
A run renders `scenes` scenes of the workload from seeds derived from its
seed and times one call on each: the per-window cost depends on the
texture the seed draws, so more textures per run make the run-to-run
spread smaller than repeating one input would.
"""

from __future__ import annotations

from dataclasses import dataclass

DT = 0.05  # window length of every workload (the CLI default)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed: int
    check_seed: int
    width: int
    height: int
    fx: float
    scene_planes: tuple  # (polygon, depth_m, edge_density) per plane
    motion: dict         # MotionSpec fields as written to motion.json
    command: str         # "depth" or "angvel"
    cli_args: tuple      # flags after --events/--out/--intrinsics
    scenes: int          # scenes rendered and timed per run
    regions: int = 0     # mask regions per window (depth workloads)
    noise_rate: float = 0.0
    hot_pixels: tuple = ()

    @property
    def duration(self) -> float:
        return float(self.motion["duration"])

    @property
    def windows(self) -> int:
        """Windows attempted per call: dt-windows covering the scene."""
        return max(1, round(self.duration / DT))

    @property
    def intrinsics(self) -> tuple[float, float, float, float]:
        return (self.fx, self.fx, (self.width - 1) / 2.0,
                (self.height - 1) / 2.0)

    def scene_json(self) -> dict:
        fx, fy, cx, cy = self.intrinsics
        return {
            "fx": fx, "fy": fy, "cx": cx, "cy": cy,
            "width": self.width, "height": self.height,
            "planes": [{"polygon": [list(v) for v in poly], "depth": depth,
                        "edge_density": density}
                       for poly, depth, density in self.scene_planes],
            "noise_rate": self.noise_rate,
            "hot_pixels": [list(h) for h in self.hot_pixels],
        }


def _sway(speed: float, duration: float, period: float) -> list:
    """Zero-order-hold x sway flipping sign every period / 2 (the test-suite
    two-plane motion)."""
    half = period / 2.0
    n = int(round(duration / half))
    return [[k * half, speed if k % 2 == 0 else -speed, 0.0, 0.0]
            for k in range(n)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sway-2plane",
        # The ROADMAP baseline scene: nearly all time is the
        # magnitude-marginalised direction search over two large regions,
        # and the flow reverses every 5 windows, which is where a
        # warm-started phi search would miss. The 3-DOF path is idle.
        why="test-suite two-plane x sway, 192x120, ground-truth masks: "
            "time is the marginalised direction search over 2 large "
            "regions; flow reverses every 5 windows; 3-DOF path idle",
        seed=7,
        check_seed=8,
        width=192, height=120, fx=200.0,
        scene_planes=(
            (((44, 20), (114, 20), (114, 100), (44, 100)), 1.0, 20.0),
            (((124, 8), (188, 8), (188, 112), (124, 112)), 2.0, 20.0),
        ),
        motion={"duration": 1.0, "v_profile": _sway(0.5, 1.0, 0.5)},
        command="depth",
        cli_args=("--mask", "masks.msk", "--gt", "gt_depth.gtd"),
        scenes=2,
        regions=2,
    ),
    Workload(
        name="honeycomb-davis",
        # The same likelihood/align code used differently: the canvas per
        # window is 4x larger and events are sparser, so canvas-scan cost
        # shows; 56 small regions, more than half failing min_events,
        # exercise the region-failure path and remap_gt_regions. Hot-pixel
        # filtering, IMU derotate and the auto_m_max FFT run at scale. The
        # slow rotation is there to exercise derotate.
        why="DAVIS346-sized 346x260, 3 planes, x/y sway, slow rotation, "
            "noise, hot pixels, 56 honeycomb regions: large sparse canvas, "
            "region failures, derotate, hot-pixel filter, auto m_max FFT",
        seed=3,
        check_seed=4,
        width=346, height=260, fx=260.0,
        scene_planes=(
            (((16, 28), (116, 28), (116, 232), (16, 232)), 1.0, 14.0),
            (((138, 16), (226, 16), (226, 244), (138, 244)), 2.0, 14.0),
            (((246, 28), (330, 28), (330, 232), (246, 232)), 3.0, 14.0),
        ),
        motion={
            "duration": 0.2,
            "v_profile": [[0.0, 0.5, 0.25, 0.0], [0.15, -0.5, 0.25, 0.0]],
            "omega_profile": [[0.0, 0.03, -0.02, 0.01],
                              [1.0, -0.02, 0.03, 0.0]],
        },
        command="depth",
        cli_args=("--mask", "honeycomb:r=30", "--imu", "imu.imu",
                  "--hot-thresh", "500", "--gt", "gt_depth.gtd",
                  "--gt-mask", "masks.msk"),
        scenes=2,
        regions=56,
        noise_rate=0.1,
        hot_pixels=((60, 200, 2000.0), (300, 50, 1500.0)),
    ),
    Workload(
        name="angvel-offaxis",
        # The nested wz scan runs about 23 full direction searches per
        # window; regions, tracking and derotation are idle. The motion
        # lies off every sensor axis, so the pixel-lattice bias shows in
        # accuracy.
        why="one plane at 1.5 m under pure off-axis rotation, 192x120: "
            "the nested wz scan runs ~23 direction searches per window; "
            "off-axis motion exposes the pixel-lattice bias",
        seed=11,
        check_seed=12,
        width=192, height=120, fx=200.0,
        scene_planes=(
            (((30, 16), (168, 16), (168, 104), (30, 104)), 1.5, 16.0),
        ),
        motion={"duration": 0.05, "omega": [0.15, 0.30, 0.08]},
        command="angvel",
        cli_args=("--imu-gt", "imu.imu"),
        scenes=3,
    ),
)}
