"""Child process of the benchmark: runs `evalign.cli.main(argv)` in-process
and writes its timings to a JSON result file.

    python3 perfbench/worker.py <request.json>

The request holds the CLI argv, how many times to call it, the result path
and, for a traced call, where to write the spans. The parent starts one
worker per phase, so a traced call never shares a process with an
untraced one and peak RSS belongs to one call.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy


def main() -> int:
    req = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import evalign
    from evalign import cli

    src = Path(req["src"]).resolve()
    if src not in Path(evalign.__file__).resolve().parents:
        print(f"evalign imported from {evalign.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if req["trace_path"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    walls, codes = [], []
    for _ in range(req["repeat"]):
        t0 = time.perf_counter()
        codes.append(cli.main(req["argv"]))
        walls.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.write(req["trace_path"])

    result = {
        "walls": walls,
        "codes": codes,
        # Linux reports ru_maxrss in KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "evalign": evalign.__version__},
    }
    Path(req["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
