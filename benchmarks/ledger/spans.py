"""Benchmark-owned spans around the calls into each layer.

The traced repetition records one span per call into a layer — name,
start, end, parent, workload — in memory, and the caller writes them
out when the run ends.  Nothing under ``src/`` is instrumented: the
calls the harness makes *inside* ``build_world`` / ``Swarm.start``
(preset, oracle, overlay build, engine start) are reached by
:func:`interposed`, which wraps the public names the harness looks up
and restores them afterwards.

A span's **self time** is its duration minus the part its child spans
cover; per layer, self times partition the root span exactly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import repro.harness.experiment as experiment
from repro.core.protocol import PROPEngine
from repro.overlay.chord import ChordOverlay
from repro.overlay.gnutella import GnutellaOverlay


class SpanRecorder:
    """In-memory span log; ``enabled=False`` makes :meth:`span` a no-op
    so the untraced and traced repetitions share one code path."""

    def __init__(self, workload: str, *, enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._epoch = time.perf_counter()  # span times are seconds since here

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        record = {
            "id": sid, "name": name, "workload": self.workload,
            "parent": self._stack[-1] if self._stack else -1,
            "start": time.perf_counter() - self._epoch, "end": 0.0,
        }
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self._epoch
            self._stack.pop()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def _self_by_id(spans: list[dict[str, Any]]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def self_times(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Span name -> summed self seconds (duration minus children)."""
    out: dict[str, float] = {}
    for s, own in zip(spans, _self_by_id(spans)):
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def subtree_self_total(spans: list[dict[str, Any]], root_name: str) -> float:
    """Sum of self times over the subtree(s) rooted at ``root_name``."""
    inside: set[int] = set()
    for s in spans:  # parents always precede children in the log
        if s["name"] == root_name or s["parent"] in inside:
            inside.add(s["id"])
    own = _self_by_id(spans)
    return sum(own[i] for i in inside)


@contextmanager
def interposed(rec: SpanRecorder) -> Iterator[None]:
    """Record spans for the layer calls made inside the harness's own
    world construction, by wrapping the names it resolves at call time."""
    if not rec.enabled:
        yield
        return
    saved_fns = {n: getattr(experiment, n) for n in ("build_preset", "build_oracle")}
    saved_build = {cls: cls.__dict__["build"] for cls in (GnutellaOverlay, ChordOverlay)}
    saved_start = PROPEngine.start
    experiment.build_preset = rec.wrap("topology.preset_build", saved_fns["build_preset"])
    experiment.build_oracle = rec.wrap("topology.oracle_build", saved_fns["build_oracle"])
    for cls in saved_build:
        # the bound classmethod keeps ``cls``; a staticmethod passes the
        # harness's arguments through unchanged
        traced_build = rec.wrap("overlay.build", cls.build)
        cls.build = staticmethod(traced_build)  # type: ignore[method-assign]
    PROPEngine.start = rec.wrap("core.engine_start", saved_start)  # type: ignore[method-assign]
    try:
        yield
    finally:
        for name, fn in saved_fns.items():
            setattr(experiment, name, fn)
        for cls, build in saved_build.items():
            cls.build = build  # type: ignore[method-assign]
        PROPEngine.start = saved_start  # type: ignore[method-assign]
