"""The one bounded store under every in-memory cache.

LRU eviction by entry count, misses counted on ``get``, counters kept
across ``clear``, optional byte accounting, and thread safety.
"""

import sys
import threading

import pytest

from repro.core.projector import PLAN_STORE_CAPACITY, PlanStore
from repro.service.cache import KernelProjectionCache, ProjectionCache
from repro.surrogate.engine import PREPARED_CAPACITY
from repro.util.store import BoundedStore


def test_capacity_validated():
    for capacity in (0, -1):
        with pytest.raises(ValueError, match="capacity"):
            BoundedStore(capacity)


def test_every_serving_store_keeps_its_capacity():
    assert ProjectionCache().capacity == 256
    assert ProjectionCache(capacity=8).capacity == 8
    assert KernelProjectionCache().capacity == 512
    assert PlanStore().capacity == PLAN_STORE_CAPACITY == 1024
    assert PREPARED_CAPACITY == 256


def test_least_recently_used_entry_is_evicted_at_capacity():
    store = BoundedStore(3)
    for key in "abc":
        store.put(key, key.upper())
    assert store.get("a") == "A"  # refresh a; b is now the oldest
    store.put("d", "D")
    assert store.get("b") is None
    assert [store.get(key) for key in "acd"] == ["A", "C", "D"]
    stats = store.stats()
    assert stats["entries"] == 3
    assert stats["evictions"] == 1


def test_put_overwrites_without_eviction():
    store = BoundedStore(2)
    store.put("a", 1)
    store.put("b", 2)
    store.put("a", 3)  # refreshes a: b is now the oldest
    assert len(store) == 2
    assert store.stats()["evictions"] == 0
    store.put("c", 4)
    assert store.get("b") is None
    assert store.get("a") == 3


def test_misses_are_counted_on_get_and_kept_across_clear():
    store = BoundedStore(2)
    assert store.get("a") is None
    store.put("a", 1)
    assert store.get("a") == 1
    store.clear()
    assert len(store) == 0
    assert store.get("a") is None
    stats = store.stats()
    assert (stats["hits"], stats["misses"]) == (1, 2)
    assert stats["hit_rate"] == pytest.approx(1 / 3)


def test_stats_report_bytes_only_with_a_size_function():
    assert "bytes" not in BoundedStore(2).stats()
    assert BoundedStore(2).stats()["hit_rate"] is None
    store = BoundedStore(2, size=lambda key, value: len(value))
    store.put("a", "x" * 10)
    store.put("b", "x" * 20)
    assert store.stats()["bytes"] == 30
    store.put("a", "x" * 5)  # an overwrite recharges the entry
    assert store.stats()["bytes"] == 25
    store.put("c", "x" * 1)  # evicts b
    assert store.stats()["bytes"] == 6
    store.clear()
    assert store.stats()["bytes"] == 0


def run_threads(workers, target):
    """Run ``target(index)`` on ``workers`` threads released together,
    with a shortened switch interval; return the exceptions raised."""
    barrier = threading.Barrier(workers, timeout=30)
    failures: list = []

    def worker(index: int) -> None:
        try:
            barrier.wait()
            target(index)
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return failures


def test_concurrent_traffic_loses_no_update():
    store = BoundedStore(4, size=lambda key, value: 1)
    workers, calls = 16, 200

    def same_key(index):
        for call in range(calls):
            if store.get("k") is None:
                store.put("k", (index, call))
            else:
                store.put("k", (index, -call))

    assert run_threads(workers, same_key) == []
    stats = store.stats()
    assert stats["hits"] + stats["misses"] == workers * calls
    assert stats["misses"] >= 1
    assert (stats["entries"], stats["bytes"], stats["evictions"]) == (1, 1, 0)

    def distinct_keys(index):
        for call in range(calls):
            store.put((index, call), call)

    assert run_threads(workers, distinct_keys) == []
    stats = store.stats()
    # Every put of a new key past capacity evicts exactly one entry.
    assert stats["evictions"] == 1 + workers * calls - 4
    assert (stats["entries"], stats["bytes"]) == (4, 4)
