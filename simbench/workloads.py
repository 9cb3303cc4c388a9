"""The benchmark's three workloads, each a fixed-horizon batch job.

A workload maps a seed to one :class:`repro.ExperimentConfig`; the seed
goes only into ``ExperimentConfig.seed``.  Inside the simulation the
background traffic is open-loop Poisson in simulated time; in host time
each run is one batch job with no arrival process.  README.md explains
why each workload is here and which layers it loads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Simulated horizon of one run, in milliseconds.
    sim_ms: int
    #: What one "unit" of work is for the ``*_per_unit`` counts:
    #: ``"packet"`` (a forwarded packet) or ``"flow"`` (a started flow).
    unit: str
    #: Per-layer metrics that must read non-zero on a traced run (the
    #: layer-coverage guard): a renamed or moved entry point fails the
    #: run instead of silently reporting zero.
    heavy: tuple
    build: Callable[[int, int], object]
    #: The workload's output invariant: a run record -> the reason it
    #: is wrong, or None.
    check: Callable[[dict], Optional[str]]


def _incast_vertigo(seed: int, sim_ms: int):
    from repro import ExperimentConfig
    from repro.sim.units import MILLISECOND

    # Same configuration as repro.perf.reference_config(), spelled out so
    # the benchmark does not depend on the perf harness.
    return ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.5,
        incast_load=0.25, incast_scale=12,
        sim_time_ns=sim_ms * MILLISECOND, seed=seed)


def _incast_lossless(seed: int, sim_ms: int):
    from repro import ExperimentConfig
    from repro.net.pfc import PfcConfig
    from repro.sim.units import MILLISECOND

    config = ExperimentConfig.bench_profile(
        system="ecmp", transport="dcqcn", bg_load=0.5,
        incast_load=0.25, incast_scale=12,
        sim_time_ns=sim_ms * MILLISECOND, seed=seed)
    return dataclasses.replace(
        config, pfc=PfcConfig(enabled=True, num_classes=2,
                              priority_map=(0, 1)))


def _paper_hybrid(seed: int, sim_ms: int):
    from repro import ExperimentConfig
    from repro.net.fidelity import FidelityConfig
    from repro.sim.units import MILLISECOND

    # The configuration of benchmarks/test_paper_scale.py at a shorter
    # horizon: demote_shares is pinned to max(64, 5 x incast degree).
    config = ExperimentConfig.paper_profile(
        system="vertigo", transport="dctcp", bg_load=0.1,
        incast_qps=2000.0, incast_scale=12, incast_flow_bytes=40_000)
    return dataclasses.replace(
        config, sim_time_ns=sim_ms * MILLISECOND, seed=seed,
        fidelity=FidelityConfig(mode="hybrid", demote_shares=64))


def _deflects(record: dict) -> Optional[str]:
    if not record["deflections"]:
        return "vertigo deflected no packet"
    return None


def _lossless(record: dict) -> Optional[str]:
    if record["drops"]:
        return f"lossless fabric dropped {record['drops']} packets"
    if not record["pause_events"]:
        return "PFC sent no PAUSE"
    return None


def _analytic(record: dict) -> Optional[str]:
    if not record["flows"] or not record["residency_permille"]:
        return "no flow ran on an analytic link"
    return None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="incast_vertigo",
        why="32-host bench fabric, vertigo+dctcp, 50% background plus "
            "degree-12 incast: every packet takes the full hop path with "
            "ranked queues, deflection, marking and ordering",
        sim_ms=60, unit="packet",
        heavy=("core.calls", "core.self_s", "core.rankqueue_ops",
               "core.mark_calls", "core.ordering_calls",
               "forwarding.deflect_ratio"),
        build=_incast_vertigo, check=_deflects),
    Workload(
        name="incast_lossless",
        why="same fabric and traffic with ecmp+dcqcn and 2-class PFC: "
            "lane queues and PFC gates on every packet, no ranked queues "
            "or deflection",
        sim_ms=80, unit="packet",
        heavy=("net.pfc.calls", "net.pfc.self_s", "net.pfc.gate_calls",
               "net.pfc.pause_events"),
        build=_incast_lossless, check=_lossless),
    Workload(
        name="paper_hybrid",
        why="320-server 10/40 Gbps paper fabric under hybrid fidelity: "
            "per-flow work in flow generation, transport analytic rounds, "
            "the fidelity controller and metrics; per-hop paths idle",
        sim_ms=150, unit="flow",
        heavy=("net.fidelity.calls", "net.fidelity.self_s",
               "net.fidelity.round_calls"),
        build=_paper_hybrid, check=_analytic),
)}
