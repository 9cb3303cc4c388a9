"""Property-based tests: RankQueue double-ended priority queue invariants."""

from hypothesis import given, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.scheduler import RankQueue

ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 1000)),
        st.tuples(st.just("pop_min"), st.just(0)),
        st.tuples(st.just("pop_max"), st.just(0)),
    ),
    max_size=200,
)


@given(ops)
def test_matches_reference_model(operations):
    queue = RankQueue()
    shadow = []
    for op, rank in operations:
        if op == "push":
            queue.push(rank, rank)
            shadow.append(rank)
        elif op == "pop_min" and shadow:
            got, _ = queue.pop_min()
            assert got == min(shadow)
            shadow.remove(got)
        elif op == "pop_max" and shadow:
            got, _ = queue.pop_max()
            assert got == max(shadow)
            shadow.remove(got)
        assert len(queue) == len(shadow)
    assert sorted(rank for rank, _ in queue.items()) == sorted(shadow)


@given(st.lists(st.integers(0, 100), min_size=1, max_size=100))
def test_drain_min_is_sorted(ranks):
    queue = RankQueue()
    for rank in ranks:
        queue.push(rank, rank)
    drained = [queue.pop_min()[0] for _ in range(len(ranks))]
    assert drained == sorted(ranks)


@given(st.lists(st.integers(0, 100), min_size=1, max_size=100))
def test_drain_max_is_reverse_sorted(ranks):
    queue = RankQueue()
    for rank in ranks:
        queue.push(rank, rank)
    drained = [queue.pop_max()[0] for _ in range(len(ranks))]
    assert drained == sorted(ranks, reverse=True)


class RankQueueMachine(RuleBasedStateMachine):
    """Stateful interleavings against a list model."""

    def __init__(self):
        super().__init__()
        self.queue = RankQueue()
        self.model = []
        self.counter = 0

    @rule(rank=st.integers(0, 50))
    def push(self, rank):
        self.counter += 1
        self.queue.push(rank, (rank, self.counter))
        self.model.append(rank)

    @precondition(lambda self: self.model)
    @rule()
    def pop_min(self):
        rank, _ = self.queue.pop_min()
        assert rank == min(self.model)
        self.model.remove(rank)

    @precondition(lambda self: self.model)
    @rule()
    def pop_max(self):
        rank, _ = self.queue.pop_max()
        assert rank == max(self.model)
        self.model.remove(rank)

    @invariant()
    def sizes_agree(self):
        assert len(self.queue) == len(self.model)
        assert bool(self.queue) == bool(self.model)


TestRankQueueMachine = RankQueueMachine.TestCase
