"""Tracer / NullTracer behavior."""

from repro.obs.events import ProbeEvent, events_to_jsonl
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, write_events_jsonl


class _Recorder:
    """Minimal TraceConsumer: remembers what it was told."""

    def __init__(self):
        self.etypes = []
        self.finished = []

    def on_event(self, event):
        self.etypes.append(event.etype)

    def finish(self, end_time):
        self.finished.append(end_time)


class TestNullTracer:
    def test_disabled_and_noop(self):
        t = NullTracer()
        assert t.enabled is False
        t.emit(ProbeEvent, u=1, s=2, cycle=0)  # must not raise, must not record

    def test_shared_singleton_is_disabled(self):
        assert NULL_TRACER.enabled is False


class TestTracer:
    def test_stamps_events_with_injected_clock(self):
        now = [0.0]
        t = Tracer(clock=lambda: now[0])
        t.emit(ProbeEvent, u=1, s=2, cycle=0)
        now[0] = 7.5
        t.emit(ProbeEvent, u=3, s=4, cycle=1)
        assert [ev.time for ev in t.events] == [0.0, 7.5]
        assert t.events[1] == ProbeEvent(time=7.5, u=3, s=4, cycle=1)

    def test_default_clock_is_zero(self):
        t = Tracer()
        t.emit(ProbeEvent, u=1, s=2, cycle=0)
        assert t.events[0].time == 0.0

    def test_len_counts_events(self):
        t = Tracer()
        assert len(t) == 0
        t.emit(ProbeEvent, u=1, s=2, cycle=0)
        assert len(t) == 1

    def test_write_jsonl_creates_parents(self, tmp_path):
        t = Tracer()
        t.emit(ProbeEvent, u=1, s=2, cycle=0)
        out = write_events_jsonl(t.events, tmp_path / "deep" / "nested" / "trace.jsonl")
        assert out.exists()
        assert out.read_text() == events_to_jsonl(t.events)

    def test_instrumentation_guard_pattern(self):
        """The site-level contract: guard on .enabled, emit only when on."""
        t = Tracer()
        if t.enabled:
            t.emit(ProbeEvent, u=9, s=9, cycle=9)
        assert len(t) == 1
        if NULL_TRACER.enabled:  # pragma: no cover - must not trigger
            raise AssertionError("NULL_TRACER must be disabled")


class TestStreamingTracer:
    def test_streaming_discards_events(self):
        recorder = _Recorder()
        tracer = Tracer(streaming=True, consumers=[recorder])
        tracer.emit(ProbeEvent, u=0, s=1, cycle=0)
        assert len(tracer.events) == 0
        assert len(tracer) == 0
        assert recorder.etypes == ["PROBE"]

    def test_close_flushes_consumers_and_is_idempotent(self):
        recorder = _Recorder()
        tracer = Tracer(streaming=True, consumers=[recorder])
        tracer.emit(ProbeEvent, u=0, s=1, cycle=0)
        assert recorder.finished == []
        tracer.close(10.0)
        tracer.close(10.0)
        assert recorder.finished == [10.0]

    def test_buffered_tracer_also_feeds_consumers(self):
        recorder = _Recorder()
        tracer = Tracer(consumers=[recorder])
        tracer.emit(ProbeEvent, u=0, s=1, cycle=0)
        assert len(tracer.events) == 1
        assert recorder.etypes == ["PROBE"]
