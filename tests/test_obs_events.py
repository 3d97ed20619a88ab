"""repro.obs.events: ring semantics, correlation fields, JSONL replay."""

from __future__ import annotations

import json
import threading

from repro.obs import AppendLog, Event, EventLog, read_jsonl


def test_emit_stamps_monotonic_and_fields():
    log = EventLog()
    e1 = log.emit("a", step=3, rank=1, path="/x")
    e2 = log.emit("b", level="error")
    assert e2.t >= e1.t
    assert e1.step == 3 and e1.rank == 1 and e1.fields == {"path": "/x"}
    assert e2.level == "error"
    assert len(log) == 2


def test_ring_is_bounded_and_counts_drops():
    log = EventLog(capacity=4)
    for i in range(10):
        log.emit("tick", i=i)
    assert len(log) == 4
    assert log.emitted_total == 10
    assert log.dropped_total == 6
    # oldest aged out, newest retained
    assert [e.fields["i"] for e in log.snapshot()] == [6, 7, 8, 9]


def test_by_level_filters():
    log = EventLog()
    log.emit("ok")
    log.emit("bad", level="error")
    log.emit("bad2", level="error")
    assert [e.name for e in log.by_level("error")] == ["bad", "bad2"]


def test_event_dict_round_trip():
    log = EventLog()
    ev = log.emit("x", level="warn", run="r1", step=7, rank=2, nbytes=123)
    back = Event.from_dict(json.loads(json.dumps(ev.to_dict())))
    assert back == ev


def test_concurrent_emit_is_safe():
    log = EventLog(capacity=100_000)
    n, threads = 2000, 8

    def worker(tid):
        for i in range(n):
            log.emit("w", tid=tid, i=i)

    ts = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert log.emitted_total == n * threads
    assert len(log) == n * threads


def test_jsonl_sink_replay(tmp_path):
    path = str(tmp_path / "events.jsonl")
    log = EventLog()
    sink = AppendLog(path)
    for i in range(5):
        sink.append(log.emit("tick", i=i).to_dict())
    sink.append({"kind": "span", "name": "s", "t0": 0.0, "t1": 1.0, "span_id": 1})
    sink.append({"kind": "mystery"})  # unknown kinds are skipped
    sink.close()
    events, spans = read_jsonl(path)
    assert [e.fields["i"] for e in events] == [0, 1, 2, 3, 4]
    assert len(spans) == 1 and spans[0]["name"] == "s"


def test_jsonl_sink_tolerates_late_writes(tmp_path):
    sink = AppendLog(str(tmp_path / "x.jsonl"))
    sink.append({"kind": "event", "name": "a", "t": 0.0, "wall": 0.0})
    sink.close()
    assert sink.append({"kind": "event", "name": "late", "t": 1.0, "wall": 1.0}) == -1
    events, _ = read_jsonl(str(tmp_path / "x.jsonl"))
    assert [e.name for e in events] == ["a"]
