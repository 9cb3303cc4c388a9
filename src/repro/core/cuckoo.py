"""Cuckoo filter (Fan et al., CoNEXT 2014).

Vertigo's marking component uses a cuckoo filter over a CRC of the packet
header to detect re-transmissions in the dataplane (§3.1.2), and the
paper's host prototype uses DPDK cuckoo filters for flow identification
(§4.4).  This is a faithful software implementation: 4-slot buckets,
partial-key cuckoo hashing with fingerprint-derived alternate buckets,
bounded eviction chains, and deletion support.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

_MAX_KICKS = 500


def _hash64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class CuckooFilter:
    """Approximate set membership with deletion.

    ``contains`` may return false positives (rate controlled by the
    fingerprint width) but never false negatives for items that were
    inserted and not deleted.
    """

    def __init__(self, capacity: int = 4096, bucket_size: int = 4,
                 fingerprint_bits: int = 16, seed: int = 0) -> None:
        if capacity < bucket_size:
            raise ValueError("capacity must be at least one bucket")
        n_buckets = 1
        while n_buckets * bucket_size < capacity:
            n_buckets <<= 1
        self._n_buckets = n_buckets
        self._bucket_size = bucket_size
        self._fp_mask = (1 << fingerprint_bits) - 1
        self._seed = seed
        # Buckets materialize on first touch: a filter sized for the
        # worst case (tens of thousands of slots per host) would
        # otherwise dominate network build time with empty lists.
        self._buckets: Dict[int, List[int]] = {}
        # Victim stash: (index, fingerprint) pairs displaced by a failed
        # eviction chain, so a failed insert never loses *another* item
        # (no false negatives for previously inserted members).
        self._stash: List[tuple] = []
        self._evict_rng_state = seed or 0x9E3779B9
        self.size = 0

    # -- hashing -----------------------------------------------------------

    def locate(self, item: int) -> Tuple[int, int, int]:
        """``(fingerprint, bucket, alternate bucket)`` of ``item``.

        Callers that both test and insert one item (the marking
        component) hash it once and pass the result to
        :meth:`contains_located` and :meth:`insert_located`.
        """
        seed = self._seed
        fp = _hash64(f"fp:{seed}:{item}".encode()) & self._fp_mask
        fp = fp or 1  # fingerprint 0 is reserved
        i1 = _hash64(f"ix:{seed}:{item}".encode()) % self._n_buckets
        return fp, i1, self._alt_index(i1, fp)

    def _alt_index(self, index: int, fingerprint: int) -> int:
        # Partial-key cuckoo hashing: the alternate bucket depends only on
        # the current bucket and the fingerprint, so it is computable
        # during eviction without the original item.
        return (index ^ _hash64(f"alt:{self._seed}:{fingerprint}".encode())) \
            % self._n_buckets

    def _next_rand(self, bound: int) -> int:
        # xorshift64*: deterministic eviction choices without an RNG object.
        x = self._evict_rng_state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self._evict_rng_state = x
        return x % bound

    # -- operations --------------------------------------------------------

    def insert(self, item: int) -> bool:
        """Insert ``item``; returns False if the filter is too full."""
        return self.insert_located(self.locate(item))

    def insert_located(self, located: Tuple[int, int, int]) -> bool:
        """:meth:`insert` for an item already hashed by :meth:`locate`."""
        fp, i1, i2 = located
        for index in (i1, i2):
            bucket = self._buckets.get(index)
            if bucket is None:
                self._buckets[index] = [fp]
                self.size += 1
                return True
            if len(bucket) < self._bucket_size:
                bucket.append(fp)
                self.size += 1
                return True
        index = (i1, i2)[self._next_rand(2)]
        for _ in range(_MAX_KICKS):
            bucket = self._buckets[index]
            victim_slot = self._next_rand(len(bucket))
            fp, bucket[victim_slot] = bucket[victim_slot], fp
            index = self._alt_index(index, fp)
            bucket = self._buckets.get(index)
            if bucket is None:
                self._buckets[index] = [fp]
                self.size += 1
                return True
            if len(bucket) < self._bucket_size:
                bucket.append(fp)
                self.size += 1
                return True
        # Chain exhausted: park the displaced fingerprint in the stash so
        # the earlier insert it belonged to stays findable, and report
        # failure for the *new* item.
        self._stash.append((index, fp))
        return False

    def contains(self, item: int) -> bool:
        return self.contains_located(self.locate(item))

    def contains_located(self, located: Tuple[int, int, int]) -> bool:
        """:meth:`contains` for an item already hashed by :meth:`locate`."""
        fp, i1, i2 = located
        if fp in self._buckets.get(i1, ()) or fp in self._buckets.get(i2, ()):
            return True
        return any(f == fp and idx in (i1, i2) for idx, f in self._stash)

    def delete(self, item: int) -> bool:
        """Remove one copy of ``item``; returns False if absent."""
        fp, i1, i2 = self.locate(item)
        for index in (i1, i2):
            bucket = self._buckets.get(index)
            if bucket and fp in bucket:
                bucket.remove(fp)
                self.size -= 1
                return True
        for pos, (idx, f) in enumerate(self._stash):
            if f == fp and idx in (i1, i2):
                del self._stash[pos]
                self.size -= 1
                return True
        return False

    def load_factor(self) -> float:
        return self.size / (self._n_buckets * self._bucket_size)

    def __contains__(self, item: int) -> bool:
        return self.contains(item)

    def __len__(self) -> int:
        return self.size
