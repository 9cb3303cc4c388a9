"""Cuckoo filter."""

import pytest

from repro.core.cuckoo import CuckooFilter


def test_insert_then_contains():
    filt = CuckooFilter(capacity=64)
    assert filt.insert(12345)
    assert filt.contains(12345)
    assert 12345 in filt


def test_absent_items_usually_not_contained():
    filt = CuckooFilter(capacity=1024, seed=1)
    for item in range(100):
        filt.insert(item)
    false_positives = sum(filt.contains(item)
                          for item in range(10_000, 11_000))
    assert false_positives < 20  # 16-bit fingerprints -> ~0.05% expected


def test_delete_removes_membership():
    filt = CuckooFilter(capacity=64)
    filt.insert(42)
    assert filt.delete(42)
    assert not filt.contains(42)
    assert len(filt) == 0


def test_delete_absent_returns_false():
    filt = CuckooFilter(capacity=64)
    assert not filt.delete(7)


def test_no_false_negatives_under_load():
    filt = CuckooFilter(capacity=2048, seed=3)
    inserted = []
    for item in range(1500):  # ~73% load factor
        if filt.insert(item):
            inserted.append(item)
    assert len(inserted) == 1500
    missing = [item for item in inserted if not filt.contains(item)]
    assert missing == []


def test_insert_fails_gracefully_when_full():
    filt = CuckooFilter(capacity=8, bucket_size=2)
    results = [filt.insert(item) for item in range(100)]
    assert not all(results)          # eventually refuses
    assert any(results)              # but accepted plenty first
    # Every reported-inserted item is still findable.
    for item, accepted in enumerate(results):
        if accepted:
            assert filt.contains(item)


def test_duplicate_inserts_take_space():
    filt = CuckooFilter(capacity=64)
    filt.insert(5)
    filt.insert(5)
    assert len(filt) == 2
    filt.delete(5)
    assert filt.contains(5)  # one copy remains
    filt.delete(5)
    assert not filt.contains(5)


def test_load_factor():
    filt = CuckooFilter(capacity=64, bucket_size=4)
    assert filt.load_factor() == 0.0
    filt.insert(1)
    assert 0 < filt.load_factor() <= 1


def test_capacity_validation():
    with pytest.raises(ValueError):
        CuckooFilter(capacity=1, bucket_size=4)


def test_seeds_give_different_layouts():
    a = CuckooFilter(capacity=64, seed=1)
    b = CuckooFilter(capacity=64, seed=2)
    a.insert(99)
    b.insert(99)
    assert a.locate(99) != b.locate(99)
