"""Run one benchmark experiment in this process; print its record as JSON.

``run.py`` starts this script once per run, so every run pays its own
import and build, and its peak resident memory is not raised by an
earlier run in the same process.  Not meant to be run by hand.

    python3 simbench/runone.py --workload NAME --seed N --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import repro
    from repro import run_digest, run_experiment

    config = workload.build(args.seed, workload.sim_ms)
    import_s = time.perf_counter() - start
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {SRC}")

    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()

    result = run_experiment(config)
    counters = result.metrics.counters
    record = {
        "digest": run_digest(result),
        "horizon_ns": config.sim_time_ns,
        "now_ns": result.engine.now,
        "sim_ms": workload.sim_ms,
        "import_s": import_s,
        "build_s": result.profile["build"],
        "run_s": result.profile["run"],
        "finalize_s": result.profile["finalize"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "events": result.engine.events_executed,
        "flows": len(result.metrics.flows),
        "pkts_forwarded": counters.forwarded,
        "drops": counters.total_drops,
        "deflections": counters.deflections,
        "retransmissions": counters.retransmissions,
        "pause_events": (result.pfc or {}).get("pause_events", 0),
        "residency_permille": (result.fidelity or {}).get(
            "analytic_residency_permille", 0),
        "demotions": (result.fidelity or {}).get("demotions", 0),
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["entry_counts"] = tracer.entry_counts()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
