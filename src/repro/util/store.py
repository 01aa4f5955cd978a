"""One bounded, thread-safe store: the LRU under every in-memory cache.

The request cache's memory tier, the kernel-projection cache, the
transfer-plan store and the surrogate's prepared templates all keep
entries in a :class:`BoundedStore`, so they share one eviction policy,
one lock discipline and one set of counters:

- **LRU by entry count**: a hit refreshes an entry, and a put past
  ``capacity`` evicts the least recently used one.  Overwriting a key
  refreshes it and evicts nothing.
- **Misses are counted on** :meth:`BoundedStore.get`, the moment a
  lookup fails, whether or not the caller goes on to store a value.
- :meth:`BoundedStore.clear` **drops entries and keeps the counters**,
  so the counters stay monotonic, as the ``/metrics`` exposition needs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Generic, Hashable, TypeVar

_V = TypeVar("_V")


def hit_rate(hits: int, misses: int) -> float | None:
    """Hits over lookups, or None when nothing was ever looked up."""
    lookups = hits + misses
    if lookups <= 0:
        return None
    return hits / lookups


class BoundedStore(Generic[_V]):
    """Thread-safe LRU of at most ``capacity`` entries.

    ``size(key, value)``, when given, is the approximate number of bytes
    one entry keeps alive; :meth:`stats` then reports their sum as
    ``bytes``.  Values must not be ``None`` — :meth:`get` returns
    ``None`` for a miss.
    """

    def __init__(
        self,
        capacity: int,
        size: Callable[[Hashable, _V], int] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._size = size
        self._lock = threading.Lock()
        #: key -> (value, charged bytes), least recently used first.
        self._entries: OrderedDict[Hashable, tuple[_V, int]] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> _V | None:
        """The value under ``key`` (refreshed), or None on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def put(self, key: Hashable, value: _V) -> None:
        """Store ``value`` under ``key``, evicting past ``capacity``."""
        charge = self._size(key, value) if self._size is not None else 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, charge)
            self._bytes += charge
            while len(self._entries) > self._capacity:
                _key, (_value, evicted) = self._entries.popitem(last=False)
                self._bytes -= evicted
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry; the counters are kept."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> dict[str, Any]:
        """Counter snapshot, JSON-safe; ``bytes`` only with a ``size``."""
        with self._lock:
            stats: dict[str, Any] = {
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": hit_rate(self._hits, self._misses),
                "evictions": self._evictions,
                "entries": len(self._entries),
                "capacity": self._capacity,
            }
            if self._size is not None:
                stats["bytes"] = self._bytes
        return stats
