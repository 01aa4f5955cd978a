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
from pathlib import Path
from typing import Any

from repro.core.serialize import ProjectionSummary
from repro.util.store import BoundedStore, hit_rate

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
        #: The memory tier; its misses include lookups the disk served.
        self.memory: BoundedStore[ProjectionSummary] = BoundedStore(capacity)
        self._disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._lock = threading.Lock()
        self._hits_disk = 0
        self._puts = 0
        if self._disk_dir is not None:
            self._disk_dir.mkdir(parents=True, exist_ok=True)

    # Properties ----------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.memory.capacity

    @property
    def disk_dir(self) -> Path | None:
        return self._disk_dir

    def __len__(self) -> int:
        return len(self.memory)

    # Core API ------------------------------------------------------------
    def get(self, key: str) -> ProjectionSummary | None:
        """Look up ``key``: memory first, then disk (with promotion)."""
        entry = self.memory.get(key)
        if entry is not None:
            return entry
        entry = self._disk_get(key)
        if entry is not None:
            with self._lock:
                self._hits_disk += 1
            self.memory.put(key, entry)
        return entry

    def put(self, key: str, summary: ProjectionSummary) -> None:
        """Store ``summary`` under ``key`` in both tiers."""
        with self._lock:
            self._puts += 1
        self.memory.put(key, summary)
        self._disk_put(key, summary)

    def clear(self) -> None:
        """Drop every entry from both tiers (counters are kept)."""
        self.memory.clear()
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
        # Read the disk hits first: each one follows a memory miss, so
        # the memory snapshot taken after it never counts fewer misses.
        with self._lock:
            hits_disk, puts = self._hits_disk, self._puts
        memory = self.memory.stats()
        hits = memory["hits"] + hits_disk
        misses = memory["misses"] - hits_disk
        stats: dict[str, Any] = {
            "hits": hits,
            "hits_memory": memory["hits"],
            "hits_disk": hits_disk,
            "misses": misses,
            "hit_rate": hit_rate(hits, misses),
            "puts": puts,
            "evictions": memory["evictions"],
            "memory_entries": memory["entries"],
            "capacity": memory["capacity"],
        }
        if self._disk_dir is not None:
            stats["disk"] = disk_cache_stats(self._disk_dir)
        return stats

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


class KernelProjectionCache(BoundedStore):
    """Thread-safe in-memory LRU of live kernel projections.

    The kernel side of a projection is bus-independent, so the engine
    keys entries by kernel content + architecture + space (see
    :func:`repro.core.keys.kernel_key`) and entries stay valid across bus
    what-ifs — and across *programs* that share a kernel.  Values are the
    immutable :class:`~repro.transform.explorer.KernelProjection`
    dataclasses themselves: sharing them is safe, and a hit compares
    equal to the recomputation it replaces (the sweep-engine equivalence
    tests lean on exactly that dataclass equality).

    This tier is memory-only: entries hold live object graphs (every
    candidate's characteristics and timing breakdown), which the JSON
    disk tier of :class:`ProjectionCache` could not round-trip.
    """

    def __init__(self, capacity: int = 512) -> None:
        super().__init__(capacity)


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
