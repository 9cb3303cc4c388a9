"""Digest pins for the per-hop packet path and the per-flow path.

Each short run below drives one family of branches on the hop path —
``Port``/``Link`` transmit and delivery, the DropTail/Ranked/ClassLane
queues, ``RankQueue``, marking and Vertigo's power-of-n forwarding with
displacement and deflection — or on the flow path: flow open and close,
analytic rounds under hybrid and flow fidelity, path re-resolution after
a topology change, the Reno/Swift/DCQCN senders, delayed ACKs, and the
coflow and duty-cycle generators.  Its run digest is pinned to the value
the straightforward implementation produced, so any optimisation of
that path must keep every RNG draw, event and tie-break identical.

Each run also asserts that the branches it exists for really ran (a
counter read from the result, or a call-counting spy that changes no
behaviour), so a pin never goes vacuous when a config drifts.
"""

from dataclasses import replace

import pytest

from repro.experiments import run_digest, run_experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.config import WorkloadConfig
from repro.faults.spec import parse_fault
from repro.forwarding.base import ForwardingPolicy
from repro.forwarding.vertigo import VertigoSwitchParams
from repro.net.fidelity import FidelityConfig, FidelityController
from repro.net.pfc import PfcConfig
from repro.net.queues import ClassLaneQueue, RankedQueue, SharedBufferPool
from repro.sim.timers import Timer
from repro.sim.units import MILLISECOND
from repro.transport.reno import RenoSender
from repro.workload.spec import CoflowSpec, DutyCycleSpec


def _incast(system="vertigo", transport="dctcp", sim_ms=10, seed=3,
            **kwargs):
    return ExperimentConfig.bench_profile(
        system=system, transport=transport, bg_load=0.5, incast_load=0.25,
        incast_scale=12, sim_time_ns=sim_ms * MILLISECOND, seed=seed,
        **kwargs)


def _vertigo_dctcp():
    return _incast(sim_ms=15)


def _shared_buffer():
    config = _incast()
    config.network = replace(config.network, shared_buffer_alpha=1.0)
    return config


def _one_choice():
    return _incast(vertigo_switch=VertigoSwitchParams(fw_choices=1,
                                                      def_choices=1))


def _no_scheduling():
    return _incast(vertigo_switch=VertigoSwitchParams(scheduling=False))


def _lossless():
    config = _incast(system="ecmp", transport="dcqcn")
    return replace(config, pfc=PfcConfig(enabled=True, num_classes=2,
                                         priority_map=(0, 1)))


def _faults():
    return _incast(faults=(
        parse_fault("link:leaf0-spine1:down@2ms,up@6ms")
        + parse_fault("link:leaf1-spine2:loss=0.05@1ms")))


def _fat_tree():
    return ExperimentConfig.bench_fat_tree(
        system="vertigo", transport="dctcp", k=4, bg_load=0.5,
        incast_load=0.25, incast_scale=8, sim_time_ns=10 * MILLISECOND,
        seed=3)


def _paper_hybrid():
    # simbench's paper_hybrid workload at a 20 sim-ms horizon.
    config = ExperimentConfig.paper_profile(
        system="vertigo", transport="dctcp", bg_load=0.1,
        incast_qps=2000.0, incast_scale=12, incast_flow_bytes=40_000)
    return replace(config, sim_time_ns=20 * MILLISECOND, seed=3,
                   fidelity=FidelityConfig(mode="hybrid", demote_shares=64))


def _flow_mode_fault():
    config = _incast(faults=parse_fault("link:leaf0-spine1:down@2ms,up@6ms"))
    return replace(config, fidelity=FidelityConfig(mode="flow"))


def _reno():
    return _incast(transport="reno", sim_ms=40)


def _swift():
    return _incast(system="ecmp", transport="swift", sim_ms=20)


def _dcqcn_delayed_ack():
    config = _incast(transport="dcqcn")
    return replace(config, transport=replace(config.transport,
                                             delayed_ack=True))


def _coflow():
    config = _incast()
    config.workload = WorkloadConfig((
        CoflowSpec(width=6, stages=2, cps=2000, flow_bytes=5_000,
                   pattern="partition_aggregate"),))
    return config


def _duty_cycle():
    config = _incast(sim_ms=30)
    config.workload = WorkloadConfig(
        (DutyCycleSpec(load=0.5, duty=0.25, period_ns=MILLISECOND // 2),),
        warmup_ns=MILLISECOND, cooldown_ns=MILLISECOND)
    return config


#: name -> (config factory, run digest of the reference implementation)
PINS = {
    "vertigo_dctcp": (
        _vertigo_dctcp,
        "b5f4d9b0424d9a5c70adbd89f55b616722046a9f8c2f1b37f242164768a81606"),
    "shared_buffer": (
        _shared_buffer,
        "7016c51eb5e478500a8f78238e644473d7cc6b86527fd8b740db32424668a211"),
    "one_choice": (
        _one_choice,
        "6bd90ae1865864cdd09256eb946bae61a824366ec42460bd187d9cc0ae9c5d68"),
    "no_scheduling": (
        _no_scheduling,
        "4b943d3d70c8a7fe4249954833cc1df0a5082796c5a6d781cf918999f5dfadc1"),
    "lossless_pfc": (
        _lossless,
        "d97475746eab07c77a4a763a7b549e7f6c23debc40d9bbbe6f9a9d87eda7474c"),
    "faults": (
        _faults,
        "a102f6d6edf9b25692ca2ce47c967b44d346db71569214f578d2fa0b1dae60bc"),
    "fat_tree": (
        _fat_tree,
        "0b61fc3cf644618ad6f231ee4c500a163b3cbc1933f68d6e5ccaa8917eda5b2b"),
    "paper_hybrid": (
        _paper_hybrid,
        "7d7b9696564f1fbc22b239cb8632d3fe014e82dfd92f14c2e66990f3b9012ecb"),
    "flow_mode_fault": (
        _flow_mode_fault,
        "fe26df70f6908889cabf5a9af9400e325d4628ef851f4e4ddf9c5fa1365b1943"),
    "reno": (
        _reno,
        "21be029cc4e71834f6a8cda0ff0125da22a0849daabbb4d9d6d6abd5a002629e"),
    "swift": (
        _swift,
        "0913898f72f8267c16960f90025cb92d0a536ecf89c3076ba930ca5829fc5526"),
    "dcqcn_delayed_ack": (
        _dcqcn_delayed_ack,
        "bf365ecb14c390edeca62254aeb0772d5bb0b4246ae206767a84994336d1abc4"),
    "coflow": (
        _coflow,
        "6fd473461953f9f02fd6605af24abc894deb9f86f8b06fcae56ff7ff2c4b7ed6"),
    "duty_cycle": (
        _duty_cycle,
        "e9c767dd97be0e138c9cbedff9cef025adbf04e5f14b98493798daff0b306bae"),
}


@pytest.fixture
def spy(monkeypatch):
    """Count branch-selecting calls without changing what they do."""
    counts = {"pop_tail": 0, "pop_unpaused": 0, "pool_admits": 0,
              "choice_1": 0, "choice_2": 0, "path_refresh": 0,
              "fast_retransmit": 0,
              "fire:_flush_ack": 0, "fire:_maybe_send": 0,
              "fire:_on_rto": 0, "fire:_on_rate_timer": 0}

    def wrap(cls, name, key, when=lambda *args: True):
        original = getattr(cls, name)

        def counting(*args, **kwargs):
            if when(*args):
                counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counting)

    wrap(RankedQueue, "pop_tail", "pop_tail")
    wrap(ClassLaneQueue, "pop_unpaused", "pop_unpaused")
    wrap(SharedBufferPool, "admits", "pool_admits")
    wrap(ForwardingPolicy, "power_of_n_choice", "choice_1",
         lambda self, candidates, n: n <= 1 and len(candidates) > 1)
    wrap(ForwardingPolicy, "power_of_n_choice", "choice_2",
         lambda self, candidates, n: n == 2 and len(candidates) > 2)
    wrap(FidelityController, "_refresh_path", "path_refresh")
    wrap(RenoSender, "on_fast_retransmit_cc", "fast_retransmit")
    for callback in ("_flush_ack", "_maybe_send", "_on_rto",
                     "_on_rate_timer"):
        wrap(Timer, "_fire", f"fire:{callback}",
             lambda self, name=callback: self._callback.__name__ == name)
    return counts


def _run(name, spy):
    factory, digest = PINS[name]
    result = run_experiment(factory())
    return result, result.metrics.counters, run_digest(result), digest


def test_vertigo_displaces_deflects_and_force_inserts(spy):
    result, counters, got, want = _run("vertigo_dctcp", spy)
    assert spy["pop_tail"] > 0                      # displacement
    assert counters.deflections > 0
    assert counters.drops["congestion_displaced"] > 0   # _force_insert
    assert spy["choice_2"] > 0                      # power-of-two draws
    assert got == want


def test_vertigo_with_shared_buffer_pool(spy):
    result, counters, got, want = _run("shared_buffer", spy)
    assert spy["pool_admits"] > 0 and spy["pop_tail"] > 0
    assert counters.deflections > 0
    assert got == want


def test_one_choice_ablation_draws_uniformly(spy):
    result, counters, got, want = _run("one_choice", spy)
    assert spy["choice_1"] > 0 and spy["choice_2"] == 0
    assert counters.deflections > 0
    assert got == want


def test_no_scheduling_ablation_deflects_arrivals(spy):
    result, counters, got, want = _run("no_scheduling", spy)
    assert spy["pop_tail"] == 0
    assert counters.deflections > 0
    assert counters.drops["congestion_drop"] > 0
    assert got == want


def test_lossless_lanes_pause_and_skip(spy):
    result, counters, got, want = _run("lossless_pfc", spy)
    assert result.pfc["pause_events"] > 0
    assert spy["pop_unpaused"] > 0
    assert counters.total_drops == 0
    assert got == want


def test_link_down_and_lossy_link_take_the_slow_delivery(spy):
    result, counters, got, want = _run("faults", spy)
    assert counters.drops["link_down"] > 0
    assert counters.drops["link_loss"] > 0
    assert got == want


def test_fat_tree_hop_path(spy):
    result, counters, got, want = _run("fat_tree", spy)
    assert counters.forwarded > 0 and counters.deflections > 0
    assert got == want


def test_hybrid_paper_geometry_runs_analytic_rounds(spy):
    result, counters, got, want = _run("paper_hybrid", spy)
    assert result.fidelity["analytic_rounds"] > 0
    assert result.fidelity["analytic_flows_completed"] > 0
    assert got == want


def test_flow_mode_refreshes_paths_after_a_link_fault(spy):
    result, counters, got, want = _run("flow_mode_fault", spy)
    assert result.fidelity["analytic_rounds"] > 0
    assert result.fidelity["pinned_links"] > 0
    assert spy["path_refresh"] > 0
    assert got == want


def test_reno_fast_retransmits_and_times_out(spy):
    result, counters, got, want = _run("reno", spy)
    assert spy["fast_retransmit"] > 0
    assert spy["fire:_on_rto"] > 0
    assert got == want


def test_swift_paces_below_one_packet(spy):
    result, counters, got, want = _run("swift", spy)
    assert spy["fire:_on_rto"] > 0
    assert spy["fire:_maybe_send"] > 0
    assert got == want


def test_dcqcn_delayed_ack_timer_fires(spy):
    result, counters, got, want = _run("dcqcn_delayed_ack", spy)
    assert spy["fire:_flush_ack"] > 0
    assert spy["fire:_on_rate_timer"] > 0
    assert counters.retransmissions > 0
    assert got == want


def test_coflow_stages_release_on_barriers(spy):
    result, counters, got, want = _run("coflow", spy)
    assert result.coflows_launched > 0
    assert any(c.completed for c in result.metrics.coflows.values())
    assert got == want


def test_duty_cycle_bursts(spy):
    result, counters, got, want = _run("duty_cycle", spy)
    assert result.bg_flows_generated > 0
    assert got == want
