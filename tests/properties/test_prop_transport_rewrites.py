"""Property tests: the O(acked) ACK prune and the one-pass reorder drain
behave exactly like the straightforward scans they replaced.

Each test keeps the earlier implementation as a reference model and
drives it and the live code with the same random sequence, comparing
state after every step.
"""

from hypothesis import given, settings, strategies as st

from repro.metrics.collector import MetricsCollector
from repro.net.packet import ack_packet, data_packet
from repro.sim.engine import Engine
from repro.transport.base import FlowReceiver, TransportConfig
from repro.transport.dcqcn import DcqcnSender
from repro.transport.reno import RenoSender
from tests.unit.test_transport_base import StubHost

MSS = 1000
FLOW_BYTES = 200 * MSS


def _reference_class(sender_cls):
    """``sender_cls`` with the full-scan prune of acknowledged segments
    run first, so the prefix pop inside ``_on_new_ack`` finds nothing
    left to remove."""

    def _on_new_ack(self, packet):
        for seq in [s for s in self._segments
                    if s + self._segments[s].payload <= packet.ack_no]:
            del self._segments[seq]
        sender_cls._on_new_ack(self, packet)

    return type(f"Reference{sender_cls.__name__}", (sender_cls,),
                {"_on_new_ack": _on_new_ack})


def _sender(sender_cls):
    engine = Engine()
    metrics = MetricsCollector()
    metrics.flow_started(7, 1, 2, FLOW_BYTES, 0)
    config = TransportConfig(mss=MSS, init_cwnd=10.0, max_cwnd=64.0,
                             min_rto_ns=500_000, init_rto_ns=500_000)
    sender = sender_cls(engine, StubHost(engine, 1), 7, 2, FLOW_BYTES,
                        config, metrics)
    sender.start()
    return engine, sender


def _state(sender):
    segments = [(seg.seq, seg.payload, seg.last_tx_ns, seg.tx_count)
                for seg in sender._segments.values()]
    return (list(sender._segments), segments, sender.snd_una,
            sender.snd_nxt, sender.cwnd, sender.in_recovery,
            sender.completed, sender.failed)


def _ack_no(sender, op, arg):
    if op == "dup":
        return sender.snd_una
    if op == "segment":
        # The end of the arg-th outstanding segment (a receiver's
        # cumulative ACK always lands on one).
        ends = [seq + seg.payload for seq, seg in sender._segments.items()]
        return ends[min(arg, len(ends) - 1)] if ends else sender.snd_una
    # Any byte offset up to snd_nxt, mid-segment included.
    return min(sender.snd_una + arg, sender.snd_nxt)


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("segment"), st.integers(0, 12)),
        st.tuples(st.just("raw"), st.integers(0, 15 * MSS)),
        st.tuples(st.just("dup"), st.just(0)),
        st.tuples(st.just("rto"), st.just(0)),
        st.tuples(st.just("wait"), st.integers(1, 2_000_000)),
    ),
    max_size=60)


@given(OPS, st.sampled_from([RenoSender, DcqcnSender]))
@settings(max_examples=60, deadline=None)
def test_ack_prune_leaves_the_same_segments_as_a_full_scan(ops, sender_cls):
    live_engine, live = _sender(sender_cls)
    ref_engine, ref = _sender(_reference_class(sender_cls))
    assert _state(live) == _state(ref)
    for op, arg in ops:
        if op == "wait":
            # RTO and pacing timers fire here, retransmitting in place.
            live_engine.run(until=live_engine.now + arg)
            ref_engine.run(until=ref_engine.now + arg)
        elif op == "rto":
            live._on_rto()
            ref._on_rto()
        else:
            ack_no = _ack_no(live, op, arg)
            assert ack_no == _ack_no(ref, op, arg)
            ts_echo = live_engine.now
            live.on_ack(ack_packet(2, 1, 7, ack_no, ts_echo=ts_echo))
            ref.on_ack(ack_packet(2, 1, 7, ack_no, ts_echo=ts_echo))
        assert _state(live) == _state(ref)


def _reference_accept(rcv_nxt, ooo, seq, end_seq):
    """The receiver's original in-order/out-of-order bookkeeping: re-sort
    the buffer after every drained segment."""
    if end_seq > rcv_nxt:
        if seq > rcv_nxt:
            ooo[seq] = max(ooo.get(seq, 0), end_seq)
        else:
            rcv_nxt = end_seq
        advanced = True
        while advanced:
            advanced = False
            for start in sorted(ooo):
                if start > rcv_nxt:
                    break
                end = ooo.pop(start)
                if end > rcv_nxt:
                    rcv_nxt = end
                advanced = True
                break
    return rcv_nxt


#: (seq, payload) on a short half-MSS grid.  Grid-sized payloads make
#: buffered segments contiguous, so one arrival can drain several;
#: arbitrary ones leave gaps and overlaps.
ARRIVALS = st.lists(
    st.tuples(st.integers(0, 16).map(lambda half: half * MSS // 2),
              st.one_of(st.sampled_from([MSS // 2, MSS]),
                        st.integers(1, MSS))),
    max_size=80)


@given(ARRIVALS)
@settings(max_examples=200, deadline=None)
def test_reorder_drain_matches_the_resorting_loop(arrivals):
    engine = Engine()
    size = 8 * MSS
    receiver = FlowReceiver(engine, StubHost(engine, 2), 7, 1, size,
                            MetricsCollector())
    rcv_nxt, ooo = 0, {}
    for seq, payload in arrivals:
        receiver.on_data(data_packet(1, 2, 7, seq, payload, mss=MSS))
        rcv_nxt = _reference_accept(rcv_nxt, ooo, seq, seq + payload)
        assert receiver.rcv_nxt == rcv_nxt
        assert receiver._ooo == ooo
