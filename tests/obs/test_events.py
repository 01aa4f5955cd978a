"""The structured event log: ring semantics, follower protocol, rotation."""

import json

import pytest

from repro.obs.events import EVENT_TYPES, Event, EventLog


class TestEmit:
    def test_sequences_are_monotone_from_one(self):
        log = EventLog()
        seqs = [log.emit("submit").seq for _ in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert log.last_seq == 5

    def test_unknown_type_fails_loudly(self):
        log = EventLog()
        with pytest.raises(ValueError, match="unknown event type"):
            log.emit("definitely-not-a-type")

    def test_every_vocabulary_type_is_accepted(self):
        log = EventLog()
        for event_type in EVENT_TYPES:
            log.emit(event_type)
        assert log.last_seq == len(EVENT_TYPES)

    def test_identity_and_attrs_carried(self):
        log = EventLog()
        event = log.emit(
            "complete",
            job_id="j1",
            trace_id="t1",
            client="alice",
            run_seconds=0.25,
        )
        assert event.job_id == "j1"
        assert event.trace_id == "t1"
        assert event.client == "alice"
        assert event.attrs == {"run_seconds": 0.25}


class TestRing:
    def test_capacity_bounds_the_ring(self):
        log = EventLog(capacity=3)
        for _ in range(10):
            log.emit("submit")
        assert len(log) == 3
        # Sequence numbers keep counting past evicted events.
        assert [e.seq for e in log.tail()] == [8, 9, 10]

    def test_tail_after_is_the_follower_protocol(self):
        log = EventLog()
        for _ in range(6):
            log.emit("submit")
        first = log.tail(limit=3, after=0)
        assert [e.seq for e in first] == [4, 5, 6]
        # A follower passes the last seen seq back; nothing re-delivers.
        assert log.tail(after=6) == []
        log.emit("complete")
        (fresh,) = log.tail(after=6)
        assert fresh.type == "complete"

    def test_tail_filters_by_type(self):
        log = EventLog()
        log.emit("submit")
        log.emit("fail")
        log.emit("submit")
        failures = log.tail(types=("fail",))
        assert [e.type for e in failures] == ["fail"]

    def test_counts_by_type(self):
        log = EventLog()
        log.emit("submit")
        log.emit("submit")
        log.emit("fail")
        assert log.counts() == {"submit": 2, "fail": 1}


class TestRoundTrip:
    def test_event_dict_round_trip(self):
        log = EventLog()
        event = log.emit("audit", job_id="j", agreed=True)
        assert Event.from_dict(event.to_dict()) == event

    def test_sparse_fields_omitted(self):
        log = EventLog()
        record = log.emit("submit").to_dict()
        assert "job_id" not in record
        assert "client" not in record
        assert "attrs" not in record


class TestJsonlSink:
    def test_appends_one_json_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("submit", job_id="j1")
        log.emit("complete", job_id="j1")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        rows = [json.loads(line) for line in lines]
        assert [row["type"] for row in rows] == ["submit", "complete"]

    def test_size_rotation_shifts_files(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, max_bytes=1024, rotations=2)
        # Fat events so a handful of emits crosses the 1 KiB threshold
        # several times over.
        blob = "x" * 512
        for _ in range(12):
            log.emit("submit", note=blob)
        assert path.exists()
        assert path.with_name("events.jsonl.1").exists()
        assert path.with_name("events.jsonl.2").exists()
        # Bounded: nothing beyond the configured rotation count.
        assert not path.with_name("events.jsonl.3").exists()

    def test_reopens_existing_file_and_keeps_rotating(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventLog(path, max_bytes=1024).emit("submit", note="x" * 200)
        log = EventLog(path, max_bytes=1024, rotations=2)
        for _ in range(8):
            log.emit("submit", note="y" * 512)
        assert path.with_name("events.jsonl.1").exists()

    def test_close_then_emit_appends_to_the_same_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("submit", job_id="j1")
        log.close()
        log.close()  # idempotent
        log.emit("complete", job_id="j1")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(row["seq"], row["type"]) for row in rows] == [
            (1, "submit"),
            (2, "complete"),
        ]

    def test_rejects_degenerate_limits(self, tmp_path):
        with pytest.raises(ValueError):
            EventLog(capacity=0)
        with pytest.raises(ValueError):
            EventLog(tmp_path / "e.jsonl", max_bytes=10)
