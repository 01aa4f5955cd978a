"""Tests for the two-tier projection cache."""

import json

import pytest

from repro.core.serialize import (
    KernelSummary,
    ProjectionSummary,
    TransferSummary,
)
from repro.service.cache import (
    DISK_FORMAT,
    ProjectionCache,
    disk_cache_stats,
)

SUMMARY = {"program": "p", "kernel_seconds": 1.0}

#: A real summary for the disk tier, which stores the dict form and
#: decodes it back on a read.
PROJECTION = ProjectionSummary(
    program="p",
    kernel_seconds=1.0,
    transfer_seconds=0.25,
    setup_seconds=0.0,
    kernels=(KernelSummary("k", 1.0, "b256", "memory", 48),),
    transfers=(TransferSummary("a", "H2D", 4096, 1024, 0.25, False),),
)


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = ProjectionCache(capacity=4)
        assert cache.get("k1") is None
        cache.put("k1", SUMMARY)
        assert cache.get("k1") == SUMMARY
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["hits_memory"] == 1
        assert stats["misses"] == 1
        assert stats["puts"] == 1

    def test_lru_eviction_order(self):
        cache = ProjectionCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.get("a")  # refresh a: b is now least recent
        cache.put("c", {"v": 3})
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}
        assert cache.stats()["evictions"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ProjectionCache(capacity=0)

    def test_len_and_clear(self):
        cache = ProjectionCache()
        cache.put("a", SUMMARY)
        cache.put("b", SUMMARY)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None


class TestDiskTier:
    def test_persists_across_instances(self, tmp_path):
        first = ProjectionCache(disk_dir=tmp_path / "cache")
        first.put("key1", PROJECTION)
        second = ProjectionCache(disk_dir=tmp_path / "cache")
        assert second.get("key1") == PROJECTION
        assert second.stats()["hits_disk"] == 1

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        ProjectionCache(disk_dir=tmp_path).put("k", PROJECTION)
        cache = ProjectionCache(disk_dir=tmp_path)
        cache.get("k")
        cache.get("k")
        stats = cache.stats()
        assert stats["hits_disk"] == 1
        assert stats["hits_memory"] == 1

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ProjectionCache(disk_dir=tmp_path)
        (tmp_path / "broken.json").write_text("{not json")
        assert cache.get("broken") is None

    def test_wrong_format_version_is_a_miss(self, tmp_path):
        cache = ProjectionCache(disk_dir=tmp_path)
        (tmp_path / "old.json").write_text(
            json.dumps(
                {"format": DISK_FORMAT + 1, "key": "old", "summary": SUMMARY}
            )
        )
        assert cache.get("old") is None

    def test_mismatched_key_is_a_miss(self, tmp_path):
        cache = ProjectionCache(disk_dir=tmp_path)
        (tmp_path / "k1.json").write_text(
            json.dumps(
                {"format": DISK_FORMAT, "key": "other", "summary": SUMMARY}
            )
        )
        assert cache.get("k1") is None

    def test_clear_removes_disk_entries(self, tmp_path):
        cache = ProjectionCache(disk_dir=tmp_path)
        cache.put("a", PROJECTION)
        cache.clear()
        assert not list(tmp_path.glob("*.json"))
        assert ProjectionCache(disk_dir=tmp_path).get("a") is None

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = ProjectionCache(disk_dir=tmp_path)
        cache.put("a", PROJECTION)
        assert not [p for p in tmp_path.iterdir() if "tmp" in p.name]


class TestDiskCacheStats:
    def test_missing_directory(self, tmp_path):
        stats = disk_cache_stats(tmp_path / "nope")
        assert stats["entries"] == 0
        assert stats["total_bytes"] == 0

    def test_counts_entries_and_bytes(self, tmp_path):
        cache = ProjectionCache(disk_dir=tmp_path)
        cache.put("a", PROJECTION)
        cache.put("b", PROJECTION)
        stats = disk_cache_stats(tmp_path)
        assert stats["entries"] == 2
        assert stats["total_bytes"] > 0
        assert stats["path"] == str(tmp_path)
