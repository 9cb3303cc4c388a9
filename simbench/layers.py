"""Outside-in per-layer tracing of a ``repro`` run.

The tracer wraps the entry points of each ``src/repro`` module (class
methods, patched on the class) before the world is built, so every
instance the runner creates calls through a wrapper.  Nothing under
``src/`` changes.  Per entry point it keeps a call count and a self
time: wall time inside the call minus the time inside nested wrapped
calls.  Aggregation is per entry point on a call stack; no span is
stored per call, since a run makes millions of calls.

Counts are exact and repeat run to run for a given config and seed;
self times are host wall time and do not.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Dict, List, Tuple

#: layer -> ((module, class, (method, ...)), ...).  The entry points are
#: the methods other layers, the event calendar or timers call into; a
#: helper called only from inside its own layer is left unwrapped, as
#: wrapping it would move no time between layers.  Every listed method
#: must be defined on that class itself; a rename or move fails
#: :meth:`LayerTracer.install` instead of reading zero.
ENTRY_POINTS: Dict[str, Tuple[Tuple[str, str, Tuple[str, ...]], ...]] = {
    # The event loop only: scheduling costs about as much as a wrapper,
    # so its cost stays with the layer that schedules.
    "sim": (("repro.sim.engine", "Engine", ("run",)),),
    "net": (
        ("repro.net.switch", "Switch",
         ("receive", "enqueue", "deflected", "drop")),
        ("repro.net.link", "Link", ("deliver",)),
        ("repro.net.link", "Port",
         ("enqueue", "kick", "pfc_hold", "_tx_done")),
    ),
    "net.queues": (
        ("repro.net.queues", "DropTailQueue", ("push", "pop")),
        ("repro.net.queues", "RankedQueue", ("push", "pop", "pop_tail")),
        ("repro.net.queues", "ClassLaneQueue",
         ("push", "pop", "pop_unpaused")),
    ),
    "core": (
        ("repro.core.scheduler", "RankQueue",
         ("push", "pop_min", "pop_max", "peek_min", "peek_max")),
        ("repro.core.marking", "MarkingComponent",
         ("register_flow", "flow_done", "mark")),
        ("repro.core.ordering", "OrderingComponent",
         ("on_packet", "flow_done", "_on_timeout")),
    ),
    "forwarding": (
        ("repro.forwarding.vertigo", "VertigoPolicy", ("route",)),
        ("repro.forwarding.ecmp", "EcmpPolicy", ("route",)),
        ("repro.forwarding.drill", "DrillPolicy", ("route",)),
        ("repro.forwarding.dibs", "DibsPolicy", ("route",)),
        ("repro.forwarding.letflow", "LetFlowPolicy", ("route",)),
        ("repro.forwarding.pabo", "PaboPolicy", ("route",)),
    ),
    "net.pfc": (
        ("repro.net.pfc", "PfcGate",
         ("admit", "charge", "release", "_pause", "_resume",
          "_hold_upstream")),
    ),
    "host": (
        ("repro.host.host", "Host",
         ("open_sender", "open_receiver", "sender_done", "send_packet",
          "receive", "nic_blocked", "_nic_drained", "_deliver_data")),
    ),
    "transport": (
        ("repro.transport.base", "FlowSender",
         ("__init__", "start", "on_ack", "_maybe_send", "_on_rto",
          "nic_unblocked", "_finish_analytic_round")),
        ("repro.transport.base", "FlowReceiver",
         ("__init__", "on_data", "on_analytic_bytes", "_flush_ack")),
        ("repro.transport.dctcp", "DctcpSender", ("__init__",)),
        ("repro.transport.dcqcn", "DcqcnSender",
         ("__init__", "start", "_on_rate_timer")),
        ("repro.transport.swift", "SwiftSender", ("__init__",)),
    ),
    "net.fidelity": (
        ("repro.net.fidelity", "FidelityController",
         ("adopt", "flow_stopped", "flow_analytic", "analytic_round_ns",
          "round_finished", "deliver_analytic", "on_enqueue",
          "on_deflection", "on_ecn_mark", "on_wire_drop", "on_pause",
          "_on_epoch")),
    ),
    "workload": (
        ("repro.experiments.runner", "FlowKernel",
         ("open_flow", "_rx_done", "_tx_done")),
        ("repro.workload.background", "BackgroundTraffic",
         ("_launch_flow",)),
        ("repro.workload.incast", "IncastApp", ("_issue_query",)),
        ("repro.workload.coflow", "CoflowApp", ("_launch_coflow", "_open")),
        ("repro.workload.dutycycle", "DutyCycleTraffic", ("_launch_flow",)),
    ),
    "metrics": (
        ("repro.metrics.collector", "MetricsCollector",
         ("flow_started", "flow_progress", "flow_completed",
          "query_started", "coflow_started", "count_wire_drop")),
    ),
}

#: Named per-layer counts: metric -> entry points ("Class.method")
#: whose calls it sums.
NAMED_COUNTS: Dict[str, Tuple[str, ...]] = {
    "net.receive_calls": ("Switch.receive",),
    "net.port_enqueue_calls": ("Port.enqueue",),
    "net.link_deliver_calls": ("Link.deliver",),
    "net.queues.push_calls": ("DropTailQueue.push", "RankedQueue.push",
                              "ClassLaneQueue.push"),
    "net.queues.pop_calls": ("DropTailQueue.pop", "RankedQueue.pop",
                             "ClassLaneQueue.pop",
                             "ClassLaneQueue.pop_unpaused"),
    "core.rankqueue_ops": ("RankQueue.push", "RankQueue.pop_min",
                           "RankQueue.pop_max", "RankQueue.peek_min",
                           "RankQueue.peek_max"),
    "core.mark_calls": ("MarkingComponent.mark",),
    "core.ordering_calls": ("OrderingComponent.on_packet",),
    "forwarding.route_calls": ("VertigoPolicy.route", "EcmpPolicy.route",
                               "DrillPolicy.route", "DibsPolicy.route",
                               "LetFlowPolicy.route", "PaboPolicy.route"),
    "net.pfc.gate_calls": ("PfcGate.admit", "PfcGate.charge",
                           "PfcGate.release"),
    "host.send_calls": ("Host.send_packet",),
    "host.receive_calls": ("Host.receive",),
    "transport.ack_calls": ("FlowSender.on_ack",),
    "transport.data_calls": ("FlowReceiver.on_data",),
    "net.fidelity.round_calls": ("FidelityController.analytic_round_ns",),
    "workload.flows_started": ("FlowKernel.open_flow",),
}


class LayerTracer:
    """Wraps :data:`ENTRY_POINTS` and aggregates calls and self time."""

    def __init__(self) -> None:
        #: "Class.method" -> [layer, calls, self seconds]
        self.stats: Dict[str, list] = {}
        # One child-time accumulator per active wrapped call; the bottom
        # slot collects the time of top-level wrapped calls.
        self._stack: List[float] = [0.0]

    def install(self) -> None:
        """Patch every entry point; raise if any does not resolve."""
        for layer, targets in ENTRY_POINTS.items():
            for module_name, class_name, methods in targets:
                cls = getattr(importlib.import_module(module_name),
                              class_name)
                for method in methods:
                    fn = cls.__dict__.get(method)
                    if not callable(fn):
                        raise LookupError(
                            f"entry point {module_name}.{class_name}."
                            f"{method} does not resolve")
                    stat = [layer, 0, 0.0]
                    self.stats[f"{class_name}.{method}"] = stat
                    setattr(cls, method, self._wrap(fn, stat))
        for keys in NAMED_COUNTS.values():
            missing = [k for k in keys if k not in self.stats]
            if missing:
                raise LookupError(f"named count over unwrapped {missing}")

    def _wrap(self, fn, stat):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[1] += 1
                stat[2] += elapsed - stack.pop()
                stack[-1] += elapsed

        return wrapper

    def layer_metrics(self) -> Dict[str, float]:
        """``<layer>.calls``, ``<layer>.self_s`` and the named counts."""
        out: Dict[str, float] = {}
        for layer in ENTRY_POINTS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for layer, calls, self_s in self.stats.values():
            out[f"{layer}.calls"] += calls
            out[f"{layer}.self_s"] += self_s
        for name, keys in NAMED_COUNTS.items():
            out[name] = sum(self.stats[k][1] for k in keys)
        return out

    def entry_counts(self) -> Dict[str, int]:
        """Calls per entry point, for the run-to-run repeat check."""
        return {key: stat[1] for key, stat in sorted(self.stats.items())}
