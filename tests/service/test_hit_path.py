"""The request-cache hit path: no re-parsing, re-hashing or re-decoding.

A what-if study asks about the same registry skeleton again and again.
Parsing the record returns the interned skeleton and hints, their
fingerprints are already stored on them, and the memory tier hands back
the summary object it holds — so a repeated request hashes only the small
key envelope and decodes nothing.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.service.cache import ProjectionCache
from repro.service.engine import ProjectionEngine
from repro.service.jobs import BadRequestError, parse_request
from repro.skeleton import program as program_module

BASE = Path(".")
RECORD = {"workload": "HotSpot", "dataset": "64 x 64", "pcie_gen": 2}


def count_kernel_payloads(monkeypatch) -> list:
    calls = []
    build = program_module._kernel_payload

    def counted(kernel):
        calls.append(kernel.name)
        return build(kernel)

    monkeypatch.setattr(program_module, "_kernel_payload", counted)
    return calls


class TestInternedRegistryInputs:
    def test_same_record_returns_the_same_objects(self):
        first = parse_request(dict(RECORD), 0, BASE)
        second = parse_request(dict(RECORD, iterations=7), 1, BASE)
        assert second.program is first.program
        assert second.hints is first.hints
        assert second.bus is first.bus

    def test_default_dataset_shares_the_largest_labels_objects(self):
        default = parse_request({"workload": "SRAD"}, 0, BASE)
        labelled = parse_request(
            {"workload": "srad", "dataset": "4096 x 4096"}, 1, BASE
        )
        assert labelled.program is default.program
        assert labelled.hints is default.hints

    def test_extra_hints_do_not_touch_the_interned_hints(self):
        plain = parse_request(dict(RECORD), 0, BASE)
        extended = parse_request(
            dict(RECORD, temporaries=["MatrixTemp"]), 1, BASE
        )
        assert extended.program is plain.program
        assert extended.hints is not plain.hints
        assert "MatrixTemp" not in plain.hints.extra_temporaries

    @pytest.mark.parametrize(
        "record, field",
        [
            ({"workload": "NoSuchApp"}, "workload"),
            ({"workload": "HotSpot", "dataset": "9 x 9"}, "dataset"),
        ],
    )
    def test_lookup_errors_are_not_interned(self, record, field):
        for index in range(2):
            with pytest.raises(BadRequestError) as info:
                parse_request(record, index, BASE)
            assert info.value.field == field


class TestHitPath:
    def test_second_project_builds_no_skeleton_payload(self, monkeypatch):
        engine = ProjectionEngine(cache=ProjectionCache())
        first = engine.project(parse_request(dict(RECORD), 0, BASE))
        assert not first.cached
        calls = count_kernel_payloads(monkeypatch)
        second = engine.project(
            parse_request(dict(RECORD, iterations=50), 1, BASE)
        )
        assert second.cached
        assert calls == []
        assert second.summary is first.summary
        assert second.fingerprint == first.fingerprint

    def test_memory_hit_returns_the_stored_object(self, tmp_path):
        engine = ProjectionEngine(
            cache=ProjectionCache(disk_dir=tmp_path)
        )
        stored = engine.project(parse_request(dict(RECORD), 0, BASE))
        hit = engine.cache.get(stored.fingerprint)
        assert hit is stored.summary
        # A fresh cache decodes the disk entry into an equal summary.
        decoded = ProjectionCache(disk_dir=tmp_path).get(stored.fingerprint)
        assert decoded is not stored.summary
        assert decoded == stored.summary
        assert decoded.to_json() == stored.summary.to_json()

    def test_undecodable_disk_entry_is_a_miss(self, tmp_path):
        engine = ProjectionEngine(
            cache=ProjectionCache(disk_dir=tmp_path)
        )
        stored = engine.project(parse_request(dict(RECORD), 0, BASE))
        path = tmp_path / f"{stored.fingerprint}.json"
        text = path.read_text(encoding="utf-8")
        path.write_text(
            text.replace('"kernels"', '"kernelz"'), encoding="utf-8"
        )
        fresh = ProjectionCache(disk_dir=tmp_path)
        assert fresh.get(stored.fingerprint) is None
        assert fresh.stats()["misses"] == 1
