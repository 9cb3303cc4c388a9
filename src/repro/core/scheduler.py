"""PIEO-style rank queue (paper §4.4, appendix A.3).

Vertigo assumes switch output queues that dequeue in ascending rank order
(SRPT over the RFS field) *and* support two operations the paper adds to
PIEO [Shrivastav, SIGCOMM'19]:

1. extracting the current maximum-rank element ("extraction from the tail
   of the priority list") — used when an arriving packet with a smaller
   RFS displaces a buffered one, and
2. enqueueing a displaced packet to a different queue (deflection), which
   is an ordinary enqueue here plus the extra dequeue above.

``RankQueue`` implements this as one list of ``(rank, seq, item)``
entries kept sorted with :func:`bisect.insort`, which is PIEO's own
ordered-list shape: pop-min and pop-max take the two ends, and a push is
a binary search plus one memmove of the pointers behind the insertion
point.  A switch queue holds about ``buffer / MTU`` entries (20 on the
bench fabric, 200 at the paper's 300 KB; small ACKs pack more), so that
memmove is at most a few kilobytes and is cheaper in Python than a pair
of heaps with lazy deletion.
"""

from __future__ import annotations

from bisect import insort
from typing import Generic, List, Optional, Tuple, TypeVar

from repro.analysis import sanitize as _sanitize

_SANITIZE = _sanitize.register(__name__)

T = TypeVar("T")


class RankQueue(Generic[T]):
    """Double-ended priority queue keyed by an integer rank.

    Ties are broken FIFO (earlier insertions dequeue first from the min
    end, and are *kept* longest at the max end), matching a hardware
    priority list that appends equal-rank packets behind their peers.
    """

    def __init__(self) -> None:
        #: Live entries in ascending ``(rank, seq)`` order.  ``seq`` is
        #: unique, so comparisons never reach the item.
        self._entries: List[Tuple[int, int, T]] = []
        # Per-instance FIFO tie-break sequence; a process-global counter
        # would couple independent queues' state across runs.
        self._seq = 0

    def push(self, rank: int, item: T) -> None:
        seq = self._seq
        self._seq = seq + 1
        insort(self._entries, (rank, seq, item))
        if _SANITIZE:
            self._sanitize_check()

    def peek_min(self) -> Optional[Tuple[int, T]]:
        entries = self._entries
        if not entries:
            return None
        rank, _, item = entries[0]
        return rank, item

    def peek_max(self) -> Optional[Tuple[int, T]]:
        entries = self._entries
        if not entries:
            return None
        rank, _, item = entries[-1]
        return rank, item

    def pop_min(self) -> Tuple[int, T]:
        if not self._entries:
            raise IndexError("pop_min from empty RankQueue")
        rank, _, item = self._entries.pop(0)
        if _SANITIZE:
            self._sanitize_check()
        return rank, item

    def pop_max(self) -> Tuple[int, T]:
        if not self._entries:
            raise IndexError("pop_max from empty RankQueue")
        # Among equal ranks the latest arrival has the largest seq, so
        # the tail is the newest (FIFO survivors stay at the min end).
        rank, _, item = self._entries.pop()
        if _SANITIZE:
            self._sanitize_check()
        return rank, item

    def _sanitize_check(self) -> None:
        """Entries ascend strictly by (rank, seq) with unique issued seqs."""
        entries = self._entries
        for before, after in zip(entries, entries[1:]):
            _sanitize.check(before[:2] < after[:2],
                            "RankQueue order broken: (rank, seq) %r "
                            "before %r", before[:2], after[:2])
        seqs = {seq for _, seq, _ in entries}
        _sanitize.check(len(seqs) == len(entries),
                        "RankQueue holds %d entries but %d distinct seqs",
                        len(entries), len(seqs))
        _sanitize.check(not seqs or max(seqs) < self._seq,
                        "RankQueue entry seq %d was never issued (next "
                        "seq %d)", max(seqs, default=-1), self._seq)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def items(self) -> List[Tuple[int, T]]:
        """Snapshot of live (rank, item) pairs in ascending rank order."""
        return [(rank, item) for rank, _, item in self._entries]
