"""evalign benchmark: seeded synthetic inputs, timed CLI calls, output
checks, and an optional traced call for per-layer metrics.

    python3 perfbench/run.py --workload sway-2plane --seed 7 --seconds 20 \
        --trace 0

Run it from the root of a source checkout; it imports evalign from
`src/` of that checkout and exits 2 if there is none. Inputs and outputs
go to `.perfbench-work/` in the checkout. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

from checks import CallCheck, check_angvel, check_depth  # noqa: E402
from tracing import layer_metrics, read_spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 7
DEADLINE_S = 170.0  # the whole run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    """Single-threaded environment: BLAS/OpenMP pinned to one thread and
    EVALIGN_THREADS unset, so the region thread pool keeps its default."""
    env = dict(os.environ)
    env.pop("EVALIGN_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Runner:
    """Starts worker processes under one deadline for the whole run."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()

    def worker(self, tag: str, argv: list[str], repeat: int = 1,
               trace_path: Path | None = None) -> dict:
        """Run the CLI `repeat` times in one fresh worker process."""
        req_path = self.work / f"{tag}.request.json"
        res_path = self.work / f"{tag}.result.json"
        req_path.write_text(json.dumps({
            "src": str(SRC), "argv": argv, "repeat": repeat,
            "result_path": str(res_path),
            "trace_path": str(trace_path) if trace_path else None,
        }), encoding="utf-8")
        timeout = self.deadline - time.monotonic()
        if timeout <= 1.0:
            raise BenchError("out of time before a worker could start")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), str(req_path)],
                env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {tag} timed out") from None
        if proc.returncode != 0 or not res_path.is_file():
            raise BenchError(f"worker {tag} failed ({proc.returncode}): "
                             f"{proc.stderr[-2000:]}")
        return json.loads(res_path.read_text(encoding="utf-8"))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(
                encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **versions,
        "git_commit": git_commit(),
        "thread_vars": {v: "1" for v in THREAD_VARS},
        "EVALIGN_THREADS": "unset",
    }


def scene_seeds(seed: int, n: int) -> list[int]:
    """Synth seeds of a run's scenes: the run's seed, then seed + 1000 * i."""
    return [seed + 1000 * i for i in range(n)]


def write_inputs(wl: Workload, seeds: list[int],
                 runner: Runner) -> tuple[list[Path], float, dict]:
    """Scene and motion JSON, then `evalign synth` SETUP_REPEATS times per
    seed. Returns the input directories, the set-up time (sum over scenes
    of the median synth time) and the library versions."""
    inputs, setup_s = [], 0.0
    for i, seed in enumerate(seeds):
        inp = runner.work / f"input{i}"
        inp.mkdir()
        (inp / "scene.json").write_text(json.dumps(wl.scene_json()),
                                        encoding="utf-8")
        (inp / "motion.json").write_text(json.dumps(wl.motion),
                                         encoding="utf-8")
        argv = ["synth", "--scene", str(inp / "scene.json"),
                "--motion", str(inp / "motion.json"), "--out", str(inp),
                "--seed", str(seed)]
        res = runner.worker(f"setup{i}", argv, repeat=SETUP_REPEATS)
        if any(res["codes"]):
            raise BenchError(f"evalign synth failed: exit codes "
                             f"{res['codes']}")
        inputs.append(inp)
        setup_s += statistics.median(res["walls"])
    return inputs, setup_s, res["versions"]


def count_events(path: Path) -> int:
    """Event count of an events file (lines after the header)."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def timed_call(wl: Workload, runner: Runner, inp: Path, tag: str,
               trace_path: Path | None = None) -> tuple[dict, CallCheck]:
    """One `evalign depth|angvel` call in a fresh process, and its checks."""
    out = runner.work / tag
    args = [str(inp / a) if (inp / a).is_file() else a for a in wl.cli_args]
    argv = [wl.command, "--events", str(inp / "events.evt"),
            "--out", str(out),
            "--intrinsics", ",".join(repr(v) for v in wl.intrinsics), *args]
    res = runner.worker(tag, argv, trace_path=trace_path)
    if wl.command == "depth":
        chk = check_depth(out, res["codes"][0], wl.windows, wl.regions)
    else:
        chk = check_angvel(out, res["codes"][0], wl.windows)
    if chk.problems:
        print(f"{tag}: output check failed: {chk.problems}", file=sys.stderr)
    return res, chk


def result_line(checks: list[CallCheck], metrics: dict) -> dict:
    return {
        "correct": all(c.ok for c in checks),
        "attempted": sum(c.windows for c in checks),
        "failed": sum(c.failed_windows for c in checks),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def end_to_end(wl: Workload, runner: Runner, inputs: list[Path],
               seconds: float, setup_s: float) -> dict:
    """Timed calls, cycling through the scenes, until every scene ran once
    and `seconds` of call time have been measured."""
    calls: list[tuple[dict, CallCheck]] = []
    n_events = 0
    spent = 0.0
    while spent < seconds or len(calls) < len(inputs):
        inp = inputs[len(calls) % len(inputs)]
        res, chk = timed_call(wl, runner, inp, f"call{len(calls)}")
        calls.append((res, chk))
        n_events += count_events(inp / "events.evt")
        spent += res["walls"][0]
        if runner.deadline - time.monotonic() < 2.5 * res["walls"][0]:
            break
    checks = [chk for _, chk in calls]
    attempted = sum(c.windows for c in checks)
    failed = sum(c.failed_windows for c in checks)
    print(f"{wl.name}: {len(calls)} timed call(s) of {wl.windows} windows "
          f"over {len(inputs)} scene(s), {n_events / spent:.1f} events/s, "
          f"accuracy of the first scene {checks[0].accuracy}")
    return result_line(checks, {
        "setup_s": (setup_s, "s"),
        "ms_per_window": (spent * 1e3 / attempted, "ms"),
        "peak_rss_mb": (max(res["peak_rss_mb"] for res, _ in calls), "MB"),
        "ok_window_frac": ((attempted - failed) / attempted, "ratio"),
    })


def per_layer(wl: Workload, runner: Runner, inp: Path) -> dict:
    """One untraced and one traced call, each in its own process."""
    plain, chk_plain = timed_call(wl, runner, inp, "untraced")
    spans_path = runner.work / "spans.jsonl"
    traced, chk_traced = timed_call(wl, runner, inp, "traced",
                                    trace_path=spans_path)
    metrics = layer_metrics(read_spans(spans_path))
    metrics["trace.overhead_frac"] = (
        traced["walls"][0] / plain["walls"][0] - 1.0, "ratio")
    metrics["cli.events_per_s"] = (
        count_events(inp / "events.evt") / plain["walls"][0], "ev/s")
    # accuracy against the synthetic oracle, from the untraced call's CSVs;
    # 0 where the workload's command does not report it
    acc = chk_plain.accuracy
    metrics["accuracy.ard"] = (acc.get("ard", 0.0), "ratio")
    metrics["accuracy.delta1"] = (acc.get("delta1", 0.0), "%")
    metrics["accuracy.angvel_rms_deg_s"] = (
        acc.get("angvel_rms_deg_s", 0.0), "deg/s")
    print(f"{wl.name}: spans in {spans_path}")
    return result_line([chk_plain, chk_traced], metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="scene seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed call time to measure (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "evalign" / "cli.py").is_file():
        print(f"error: no evalign sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = wl.seed if args.seed is None else args.seed
    work = WORK / f"{wl.name}-seed{seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, started + DEADLINE_S)
    # the traced run needs only the first scene
    seeds = scene_seeds(seed, 1 if args.trace else wl.scenes)
    try:
        inputs, setup_s, versions = write_inputs(wl, seeds, runner)
        env = environment(versions)
        print("environment: " + json.dumps(env))
        if args.trace:
            result = per_layer(wl, runner, inputs[0])
        else:
            result = end_to_end(wl, runner, inputs, args.seconds, setup_s)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {"workload": wl.name, "scene_seeds": seeds,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "result": result}
    (work / "result.json").write_text(json.dumps(record, indent=1),
                                      encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
