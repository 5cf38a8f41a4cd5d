"""One fresh workload process, started by run.py.

    python3 bench/worker.py RUN_DIR ROLE TRACE SECONDS TAG

Sets the workload up from RUN_DIR/inputs.json (import, inputs, one untimed
warm-up unit) and writes ``READY`` to stdout. With ROLE ``setup`` it exits
there. With ROLE ``timed`` it runs whole rounds of units in a closed loop
until SECONDS have passed, checks the outputs and writes RUN_DIR/result.json.
The program's own prints go to RUN_DIR/worker.log.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv) -> int:
    run_dir, role, trace, seconds, tag = Path(argv[1]), argv[2], argv[3] == "1", float(argv[4]), argv[5]
    spec = json.loads((run_dir / "inputs.json").read_text())
    ready = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = open(run_dir / "worker.log", "a")
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import spans
    import workloads
    import_ms = (time.perf_counter() - t0) * 1e3

    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.setup_ms["import"] = import_ms
    wl = workloads.make(spec)
    t0 = time.perf_counter()
    wl.warmup(tag)
    if tracer:
        tracer.setup_ms["warmup"] = (time.perf_counter() - t0) * 1e3
    ready.write("READY\n")
    ready.flush()
    if role == "setup":
        return 0

    if tracer:
        tracer.phase = 1
    latencies, failed, errors, i = [], 0, [], 0
    start = time.perf_counter()
    while True:
        for _ in range(wl.units_per_round):
            t0 = time.perf_counter()
            try:
                ok = wl.unit(i)
            except Exception:  # a failing unit is counted, the loop goes on
                errors.append(traceback.format_exc(limit=3))
                ok = False
            latencies.append(time.perf_counter() - t0)
            failed += not ok
            i += 1
            if tracer:
                tracer.end_unit()
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    result = {
        "units": i, "failed": failed, "wall_s": wall, "latencies_s": latencies,
        "clips": i * wl.clips_per_unit, "peak_rss_mb": peak_rss_mb,
        "failures": wl.check(), "errors": errors[:3],
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(i)
        tracer.write(run_dir / "spans.json")
    wl.cleanup()
    (run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
