"""Digest pins for the per-hop packet path.

Each short run below drives one family of branches on the hop path —
``Port``/``Link`` transmit and delivery, the DropTail/Ranked/ClassLane
queues, ``RankQueue``, marking and Vertigo's power-of-n forwarding with
displacement and deflection.  Its run digest is pinned to the value the
straightforward implementation produced, so any optimisation of that
path must keep every RNG draw, event and tie-break identical.

Each run also asserts that the branches it exists for really ran (a
counter read from the result, or a call-counting spy that changes no
behaviour), so a pin never goes vacuous when a config drifts.
"""

from dataclasses import replace

import pytest

from repro.experiments import run_digest, run_experiment
from repro.experiments.config import ExperimentConfig
from repro.faults.spec import parse_fault
from repro.forwarding.base import ForwardingPolicy
from repro.forwarding.vertigo import VertigoSwitchParams
from repro.net.pfc import PfcConfig
from repro.net.queues import ClassLaneQueue, RankedQueue, SharedBufferPool
from repro.sim.units import MILLISECOND


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
}


@pytest.fixture
def spy(monkeypatch):
    """Count branch-selecting calls without changing what they do."""
    counts = {"pop_tail": 0, "pop_unpaused": 0, "pool_admits": 0,
              "choice_1": 0, "choice_2": 0}

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
