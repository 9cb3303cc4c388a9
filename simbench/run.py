"""The simulator benchmark: fixed-horizon runs of three workloads.

    python3 simbench/run.py --workload incast_vertigo --seed 1 \
        --seconds 35 --trace 0

``--seed`` picks a panel of simulation seeds (:func:`seed_panel`).
``--trace 0`` cycles through the panel, one run at a time, each in a
fresh process, for ``--seconds`` seconds, and reports each end-to-end
metric as the mean over the panel of each seed's median.  ``--trace 1``
makes a fixed set of runs instead (one untraced, two traced with the
same seed, one untraced with another seed) and reports per-layer counts
and self times.  ``--workload all`` (the default) runs every workload
in turn.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

from layers import ENTRY_POINTS, NAMED_COUNTS  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Simulation seeds per benchmark seed.  Peak memory and work per
#: simulated millisecond depend on the seed by several percent, so each
#: invocation averages over a panel instead of timing one seed.
PANEL = 3
#: Fewest untraced runs per invocation: every panel seed twice, so each
#: seed's digest is checked against a repeat.
MIN_RUNS = 2 * PANEL
#: Start no run that would end later than this after the start, so the
#: invocation exits well within three minutes.
HARD_LIMIT_S = 165.0

#: metric -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "sim_ms_per_s": ("sim-ms/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}


def seed_panel(seed: int) -> List[int]:
    """The simulation seeds of benchmark seed ``seed``; disjoint across
    benchmark seeds."""
    return [seed * PANEL + k for k in range(PANEL)]


def per_layer_specs() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric the traced run reports, in output order."""
    counts: Dict[str, str] = {"sim.events": "lower",
                              "net.pkts_forwarded": "higher"}
    for layer in ENTRY_POINTS:
        counts[f"{layer}.calls"] = "lower"
    for name in NAMED_COUNTS:
        counts[name] = "higher" if name == "workload.flows_started" \
            else "lower"
    counts["net.pfc.pause_events"] = "lower"
    counts["net.fidelity.demotions"] = "lower"
    specs: Dict[str, Tuple[str, str]] = {
        name: ("count", better) for name, better in counts.items()}
    specs.update({f"{name}_per_unit": ("count/unit", better)
                  for name, better in counts.items()})
    specs.update({f"{layer}.self_s": ("s", "lower")
                  for layer in ENTRY_POINTS})
    specs.update({
        "net.drop_ratio": ("ratio", "lower"),
        "forwarding.deflect_ratio": ("ratio", "lower"),
        "transport.retx_ratio": ("ratio", "lower"),
        "net.fidelity.residency_permille": ("permille", "higher"),
        "experiments.import_s": ("s", "lower"),
        "experiments.build_s": ("s", "lower"),
        "experiments.finalize_s": ("s", "lower"),
        "trace_overhead_pct": ("%", "lower"),
    })
    return specs


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_child(workload: Workload, seed: int, trace: bool,
              deadline: float) -> dict:
    """One run in a fresh interpreter; its record, or one with "error"."""
    cmd = [sys.executable, str(HERE / "runone.py"), "--workload",
           workload.name, "--seed", str(seed), "--trace", str(int(trace))]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        record = {"error": "timed out"}
    else:
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            record = {"error": f"exit {proc.returncode}: {tail[0]}"}
        else:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
            if record["now_ns"] < record["horizon_ns"]:
                record["error"] = (f"stopped at {record['now_ns']} ns, "
                                   f"short of {record['horizon_ns']} ns")
            else:
                problem = workload.check(record)
                if problem:
                    record["error"] = problem
    record["seed"] = seed
    record["wall_s"] = time.monotonic() - start
    return record


def fail_odd_digests(workload: Workload,
                     records: List[dict]) -> Dict[int, str]:
    """Per seed, fail the runs whose digest differs from the most common
    one; return each seed's digest."""
    digests: Dict[int, str] = {}
    for seed in dict.fromkeys(r["seed"] for r in records):
        same_seed = [r for r in records
                     if r["seed"] == seed and "error" not in r]
        if not same_seed:
            continue
        found = [r["digest"] for r in same_seed]
        common = digests[seed] = max(set(found), key=found.count)
        for record in same_seed:
            if record["digest"] != common:
                record["error"] = f"digest {record['digest'][:16]} " \
                                  f"differs from the seed's {common[:16]}"
                log(f"  {workload.name} seed {seed}: {record['error']}")
    return digests


def measure(workload: Workload, seed: int, seconds: int) -> dict:
    """Untraced runs for ``seconds``; the end-to-end metrics."""
    panel = seed_panel(seed)
    start = time.monotonic()
    records: List[dict] = []
    while True:
        elapsed = time.monotonic() - start
        walls = [r["wall_s"] for r in records]
        typical = statistics.median(walls) if walls else 0.0
        if len(records) >= MIN_RUNS and elapsed + typical > seconds:
            break
        if records and elapsed + typical > HARD_LIMIT_S:
            break
        record = run_child(workload, panel[len(records) % PANEL], False,
                           start + HARD_LIMIT_S)
        log(f"  {workload.name} seed {record['seed']}: "
            + (record.get("error") or f"run {record['run_s']:.3f} s"))
        records.append(record)
    digests = fail_odd_digests(workload, records)
    good = [r for r in records if "error" not in r]
    metrics, note = {}, ""
    if good:
        getters = {
            "sim_ms_per_s": lambda r: r["sim_ms"] / r["run_s"],
            "setup_s": lambda r: r["import_s"] + r["build_s"],
            "peak_rss_mb": lambda r: r["peak_rss_mb"],
        }
        seeds = sorted({r["seed"] for r in good})
        metrics = {
            name: {"value": statistics.fmean(
                       statistics.median(get(r) for r in good
                                         if r["seed"] == s)
                       for s in seeds),
                   "unit": END_TO_END[name][0]}
            for name, get in getters.items()}
        note = f"mean over {len(seeds)} seeds of each seed's median; " \
               f"{len(good)} runs"
    return summarize(workload, records, digests, metrics, note)


def measure_traced(workload: Workload, seed: int) -> dict:
    """Untraced reference, two traced runs, and a run of another seed."""
    main_seed, other_seed = seed_panel(seed)[:2]
    deadline = time.monotonic() + HARD_LIMIT_S
    plain = run_child(workload, main_seed, False, deadline)
    traced = [run_child(workload, main_seed, True, deadline)
              for _ in range(2)]
    other = run_child(workload, other_seed, False, deadline)
    records = [plain, *traced, other]
    digest = plain.get("digest")
    for record in traced:
        if "error" not in record and digest is not None \
                and record["digest"] != digest:
            record["error"] = f"traced digest {record['digest'][:16]} " \
                              f"differs from the untraced {digest[:16]}"
    first, second = traced
    if "error" not in first and "error" not in second \
            and first["entry_counts"] != second["entry_counts"]:
        second["error"] = "per-layer counts differ between two traced " \
                          "runs of the same seed"
    if "error" not in other and other["digest"] == digest:
        other["error"] = f"seed {other_seed} gave the digest of seed " \
                         f"{main_seed}"
    metrics = {}
    if "error" not in first and "error" not in plain:
        values = layer_values(workload, plain, [r for r in traced
                                                if "error" not in r])
        idle = [name for name in workload.heavy if not values[name]]
        if idle:
            first["error"] = "coverage guard: predicted heavy metrics " \
                             f"read zero: {', '.join(idle)}"
        specs = per_layer_specs()
        metrics = {name: {"value": values[name], "unit": specs[name][0]}
                   for name in specs}
    for record in records:
        if "error" in record:
            log(f"  {workload.name} seed {record['seed']}: "
                f"{record['error']}")
    digests = {r["seed"]: r["digest"] for r in (plain, other)
               if "digest" in r}
    return summarize(workload, records, digests, metrics,
                     "counts from the first traced run; self times the "
                     "mean of both")


def layer_values(workload: Workload, plain: dict,
                 traced: List[dict]) -> Dict[str, float]:
    """Per-layer metrics from the traced runs (counts from the first)."""
    first = traced[0]

    def traced_mean(key: str) -> float:
        return statistics.fmean(r[key] for r in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: Dict[str, float] = {
        "sim.events": first["events"],
        "net.pkts_forwarded": first["pkts_forwarded"],
        "net.pfc.pause_events": first["pause_events"],
        "net.fidelity.demotions": first["demotions"],
    }
    values.update({k: v for k, v in first["layers"].items()
                   if not k.endswith(".self_s")})
    unit = values["net.pkts_forwarded"] if workload.unit == "packet" \
        else values["workload.flows_started"]
    for name in list(values):
        values[f"{name}_per_unit"] = ratio(values[name], unit)
    for layer in ENTRY_POINTS:
        values[f"{layer}.self_s"] = statistics.fmean(
            r["layers"][f"{layer}.self_s"] for r in traced)
    values.update({
        "net.drop_ratio": ratio(first["drops"],
                                values["net.receive_calls"]),
        "forwarding.deflect_ratio": ratio(first["deflections"],
                                          values["forwarding.route_calls"]),
        "transport.retx_ratio": ratio(first["retransmissions"],
                                      values["host.send_calls"]),
        "net.fidelity.residency_permille": first["residency_permille"],
        "experiments.import_s": traced_mean("import_s"),
        "experiments.build_s": traced_mean("build_s"),
        "experiments.finalize_s": traced_mean("finalize_s"),
        "trace_overhead_pct":
            (traced_mean("run_s") / plain["run_s"] - 1.0) * 100.0,
    })
    return values


def summarize(workload: Workload, records: List[dict],
              digests: Dict[int, str], metrics: dict, note: str) -> dict:
    """Print the human-readable record of one workload; its result."""
    failed = sum(1 for r in records if "error" in r)
    print(f"{workload.name}: {len(records)} runs attempted, "
          f"{failed} failed")
    for seed in dict.fromkeys(r["seed"] for r in records):
        runs = [r for r in records if r["seed"] == seed]
        bad = sum(1 for r in runs if "error" in r)
        print(f"  seed {seed}: {len(runs)} runs, {bad} failed, "
              f"digest {digests.get(seed, '-')}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    if metrics:
        print(f"  ({note})")
    return {"correct": failed == 0 and bool(metrics),
            "attempted": len(records), "failed": failed,
            "metrics": metrics}


def check_declared() -> Optional[str]:
    """The metrics reported must be the ones BENCHMARK.json declares."""
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return f"cannot read BENCHMARK.json: {exc}"
    for key, reported in (("end_to_end", END_TO_END),
                          ("per_layer", per_layer_specs())):
        names = [m["name"] for m in declared.get(key, [])]
        if names != list(reported):
            return f"BENCHMARK.json {key} does not match the metrics " \
                   "this benchmark reports"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: no simulator source at {SRC / 'repro'}")
        return 2
    problem = check_declared()
    if problem:
        log(f"error: {problem}")
        return 2
    # Compile once up front so no timed import pays for bytecode.
    compileall.compile_dir(str(SRC), quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        workload = WORKLOADS[name]
        if args.trace:
            result = measure_traced(workload, args.seed)
        else:
            result = measure(workload, args.seed, args.seconds)
        results.append((name, result))
        if len(names) > 1:
            print(json.dumps({"workload": name, **result}))
    if len(names) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
