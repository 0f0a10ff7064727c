"""Span tracer: recording, nesting, fork shipping, export formats."""

import json
import threading

import pytest

from repro.obs import trace
from repro.obs.schemas import (
    TRACE_EVENT_SCHEMA,
    TRACE_SCHEMA,
    validate,
    validate_file,
    validate_jsonl_file,
)


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts and ends with tracing disabled."""
    trace.disable()
    yield
    trace.disable()


class TestDisabledTracer:
    def test_span_is_shared_noop(self):
        assert trace.active() is None
        first = trace.span("a", cat="x", anything=1)
        second = trace.span("b")
        assert first is second  # one shared null context, no allocation
        with first:
            pass

    def test_worker_helpers_are_noops(self):
        assert trace.mark() == 0
        assert trace.drain_new(0) == []
        trace.adopt([{"name": "ghost"}])  # silently dropped
        trace.instant("ghost")
        assert trace.active() is None


class TestRecording:
    def test_span_records_duration_event(self):
        tracer = trace.enable()
        with trace.span("work", cat="gather", targets=7):
            pass
        (event,) = tracer.events()
        assert event["name"] == "work"
        assert event["cat"] == "gather"
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["args"] == {"targets": 7}
        assert validate(event, TRACE_EVENT_SCHEMA) == []

    def test_nested_spans_are_contained(self):
        tracer = trace.enable()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        inner, outer = tracer.events()  # inner finishes (and appends) first
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]

    def test_instant_event(self):
        tracer = trace.enable()
        trace.instant("marker", cat="run", detail="x")
        (event,) = tracer.events()
        assert event["ph"] == "i"

    def test_exception_still_closes_span(self):
        tracer = trace.enable()
        with pytest.raises(RuntimeError):
            with trace.span("doomed"):
                raise RuntimeError("boom")
        assert [event["name"] for event in tracer.events()] == ["doomed"]

    def test_threaded_spans_all_recorded(self):
        tracer = trace.enable()
        # Every thread waits inside its span until all 8 are alive, so
        # the interpreter cannot recycle one finished thread's ident for
        # the next (a short-lived thread often exits before the next
        # starts, and then all 8 spans would share one tid).
        together = threading.Barrier(8)

        def work(index):
            with trace.span(f"shard{index}", cat="shard"):
                together.wait(timeout=10)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = tracer.events()
        assert len(events) == 8
        assert len({event["tid"] for event in events}) > 1


class TestWorkerShipping:
    def test_mark_drain_adopt(self):
        tracer = trace.enable()
        with trace.span("before"):
            pass
        mark = trace.mark()
        with trace.span("shipped"):
            pass
        events = trace.drain_new(mark)
        assert [event["name"] for event in events] == ["shipped"]
        # A fresh tracer (the "parent") adopts the shipped events.
        parent = trace.enable()
        trace.adopt(events)
        assert [event["name"] for event in parent.events()] == ["shipped"]


class TestExport:
    def test_chrome_file_validates(self, tmp_path):
        tracer = trace.enable()
        with trace.span("run", cat="run"):
            with trace.span("alexa[s8].gather", cat="snapshot"):
                pass
        path = tmp_path / "trace.json"
        tracer.write_chrome(path)
        assert validate_file(str(path), TRACE_SCHEMA) == []
        document = json.loads(path.read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert {"run", "alexa[s8].gather", "process_name"} <= names

    def test_jsonl_stream_written_live(self, tmp_path):
        stream = tmp_path / "trace.jsonl"
        trace.enable(stream_path=stream)
        with trace.span("one"):
            pass
        with trace.span("two"):
            pass
        assert validate_jsonl_file(str(stream), TRACE_EVENT_SCHEMA) == []
        lines = [json.loads(line) for line in stream.read_text().splitlines()]
        assert [line["name"] for line in lines] == ["one", "two"]

    def test_jsonl_path_pairing(self):
        assert trace.jsonl_path("trace.json") == "trace.jsonl"
        assert trace.jsonl_path("trace.jsonl") == "trace.jsonl"
        assert trace.jsonl_path("spans.out") == "spans.out.jsonl"


class TestEnv:
    def test_from_env_disabled(self, monkeypatch):
        monkeypatch.delenv(trace.TRACE_ENV, raising=False)
        assert trace.from_env() is None
        monkeypatch.setenv(trace.TRACE_ENV, "off")
        assert trace.from_env() is None

    def test_from_env_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(trace.TRACE_ENV, str(tmp_path / "trace.json"))
        tracer = trace.from_env()
        assert tracer is trace.active() is not None
