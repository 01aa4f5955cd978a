"""Content-addressed result cache for the projection service.

Results are stored under the request fingerprint (see
:meth:`repro.service.engine.ProjectionEngine.fingerprint`) as
:class:`~repro.core.serialize.ProjectionSummary` objects, whose dict form
round-trips exactly — a hit is provably equivalent to recomputation.

Two tiers:

- an in-memory **LRU** tier (always on) bounded by ``capacity`` entries,
  holding the immutable summaries themselves: a hit returns the stored
  object, with nothing to decode;
- an optional **on-disk JSON** tier (``disk_dir``) that persists across
  processes — one ``<fingerprint>.json`` file per entry holding the
  summary's dict form, written atomically so concurrent writers can never
  leave a torn file.

Disk hits are decoded once and promoted into the memory tier.  Corrupt,
unreadable or undecodable disk entries are treated as misses, never as
errors.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.core.serialize import ProjectionSummary

#: Schema version of on-disk entries; bump on incompatible change.
DISK_FORMAT = 1

_SUFFIX = ".json"


class ProjectionCache:
    """Two-tier (memory LRU + optional disk) cache of projection summaries."""

    def __init__(
        self,
        capacity: int = 256,
        disk_dir: str | Path | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, ProjectionSummary] = OrderedDict()
        self._hits_memory = 0
        self._hits_disk = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0
        if self._disk_dir is not None:
            self._disk_dir.mkdir(parents=True, exist_ok=True)

    # Properties ----------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def disk_dir(self) -> Path | None:
        return self._disk_dir

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    # Core API ------------------------------------------------------------
    def get(self, key: str) -> ProjectionSummary | None:
        """Look up ``key``: memory first, then disk (with promotion)."""
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self._hits_memory += 1
                return self._memory[key]
        entry = self._disk_get(key)
        if entry is not None:
            with self._lock:
                self._hits_disk += 1
                self._memory_put(key, entry)
            return entry
        with self._lock:
            self._misses += 1
        return None

    def put(self, key: str, summary: ProjectionSummary) -> None:
        """Store ``summary`` under ``key`` in both tiers."""
        with self._lock:
            self._puts += 1
            self._memory_put(key, summary)
        self._disk_put(key, summary)

    def clear(self) -> None:
        """Drop every entry from both tiers (counters are kept)."""
        with self._lock:
            self._memory.clear()
        if self._disk_dir is not None and self._disk_dir.is_dir():
            for path in self._disk_dir.glob(f"*{_SUFFIX}"):
                try:
                    path.unlink()
                except OSError:
                    pass

    def stats(self) -> dict[str, Any]:
        """Counter snapshot plus tier sizes, JSON-safe.

        ``hit_rate`` is hits over lookups in [0, 1], or ``None`` before
        the first lookup (never a zero-division).
        """
        with self._lock:
            hits = self._hits_memory + self._hits_disk
            stats: dict[str, Any] = {
                "hits": hits,
                "hits_memory": self._hits_memory,
                "hits_disk": self._hits_disk,
                "misses": self._misses,
                "hit_rate": hit_rate(hits, self._misses),
                "puts": self._puts,
                "evictions": self._evictions,
                "memory_entries": len(self._memory),
                "capacity": self._capacity,
            }
        if self._disk_dir is not None:
            stats["disk"] = disk_cache_stats(self._disk_dir)
        return stats

    # Memory tier (callers hold the lock) ---------------------------------
    def _memory_put(self, key: str, summary: ProjectionSummary) -> None:
        self._memory[key] = summary
        self._memory.move_to_end(key)
        while len(self._memory) > self._capacity:
            self._memory.popitem(last=False)
            self._evictions += 1

    # Disk tier -----------------------------------------------------------
    def _disk_path(self, key: str) -> Path:
        assert self._disk_dir is not None
        return self._disk_dir / f"{key}{_SUFFIX}"

    def _disk_get(self, key: str) -> ProjectionSummary | None:
        if self._disk_dir is None:
            return None
        try:
            with open(self._disk_path(key), encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(record, dict)
            or record.get("format") != DISK_FORMAT
            or record.get("key") != key
            or not isinstance(record.get("summary"), dict)
        ):
            return None
        try:
            return ProjectionSummary.from_dict(record["summary"])
        except (AttributeError, KeyError, TypeError, ValueError):
            return None

    def _disk_put(self, key: str, summary: ProjectionSummary) -> None:
        if self._disk_dir is None:
            return
        record = {
            "format": DISK_FORMAT,
            "key": key,
            "summary": summary.to_dict(),
        }
        path = self._disk_path(key)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(record, fh, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            # A read-only or full disk degrades to memory-only caching.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"cache: {stats['memory_entries']}/{stats['capacity']} in "
            f"memory, {stats['hits']} hits / {stats['misses']} misses"
        )


class KernelProjectionCache:
    """Thread-safe in-memory LRU of live kernel projections.

    The kernel side of a projection is bus-independent, so the engine
    keys entries by kernel content + architecture + space (see
    :meth:`repro.service.engine.ProjectionEngine._kernel_digest_key`) and
    entries stay valid across bus what-ifs — and across *programs* that
    share a kernel.  Values are the immutable
    :class:`~repro.transform.explorer.KernelProjection` dataclasses
    themselves: sharing them is safe, and a hit compares equal to the
    recomputation it replaces (the sweep-engine equivalence tests lean
    on exactly that dataclass equality).

    This tier is memory-only: entries hold live object graphs (every
    candidate's characteristics and timing breakdown), which the JSON
    disk tier of :class:`ProjectionCache` could not round-trip.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Any | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: str, projection: Any) -> None:
        with self._lock:
            self._entries[key] = projection
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": hit_rate(self._hits, self._misses),
                "evictions": self._evictions,
                "entries": len(self._entries),
                "capacity": self._capacity,
            }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"kernel cache: {stats['entries']}/{stats['capacity']} "
            f"entries, {stats['hits']} hits / {stats['misses']} misses"
        )


def hit_rate(hits: int, misses: int) -> float | None:
    """Hits over lookups, or None when nothing was ever looked up."""
    lookups = hits + misses
    if lookups <= 0:
        return None
    return hits / lookups


#: Sidecar accumulating hit/miss counters across batch runs.  Not
#: ``*.json`` on purpose: :func:`disk_cache_stats` globs ``*.json`` to
#: count cache entries, and the sidecar is bookkeeping, not an entry.
META_FILENAME = "stats.meta"


def record_run_meta(
    path: str | Path,
    projection_stats: dict[str, Any],
    kernel_stats: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Fold one run's hit/miss counters into the cache's ``stats.meta``.

    Keeps lifetime totals across processes so ``repro cache-stats`` can
    report hit rates for a directory, not just one run.  Returns the
    accumulated record.  A torn or missing sidecar restarts the totals;
    an unwritable directory degrades to returning the would-be record.
    """
    directory = Path(path)
    meta = read_run_meta(directory) or {
        "format": DISK_FORMAT,
        "runs": 0,
        "projection": {"hits": 0, "misses": 0},
        "kernel": {"hits": 0, "misses": 0},
    }
    meta["runs"] += 1
    meta["projection"]["hits"] += int(projection_stats.get("hits", 0))
    meta["projection"]["misses"] += int(projection_stats.get("misses", 0))
    if kernel_stats is not None:
        meta["kernel"]["hits"] += int(kernel_stats.get("hits", 0))
        meta["kernel"]["misses"] += int(kernel_stats.get("misses", 0))
    target = directory / META_FILENAME
    tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True)
        os.replace(tmp, target)
    except OSError:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
    return meta


def read_run_meta(path: str | Path) -> dict[str, Any] | None:
    """Load the accumulated ``stats.meta`` sidecar, or None if absent
    (never raises — a corrupt sidecar reads as absent)."""
    try:
        with open(Path(path) / META_FILENAME, encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if (
        not isinstance(meta, dict)
        or meta.get("format") != DISK_FORMAT
        or not isinstance(meta.get("projection"), dict)
        or not isinstance(meta.get("kernel"), dict)
    ):
        return None
    return meta


def disk_cache_stats(path: str | Path) -> dict[str, Any]:
    """Inspect an on-disk cache directory without opening every file.

    Returns entry count, total bytes, and the directory path; a missing
    directory reports zero entries rather than raising, so ``repro
    cache-stats`` is safe to run before any batch has populated it.
    """
    directory = Path(path)
    entries = 0
    total_bytes = 0
    if directory.is_dir():
        for file in directory.glob(f"*{_SUFFIX}"):
            try:
                total_bytes += file.stat().st_size
            except OSError:
                continue
            entries += 1
    return {
        "path": str(directory),
        "entries": entries,
        "total_bytes": total_bytes,
    }
