"""repro.obs — structured event tracing, the metrics snapshot, span checking.

Import from the submodules; this package re-exports nothing.

* :mod:`repro.obs.events` / :mod:`repro.obs.trace` — the typed event
  schema (with the JSONL reader/writer and ``load_trace``) and the
  :class:`Tracer` event bus the engines and transports emit into
  (``NullTracer`` when off: one attribute check, zero cost;
  ``streaming=True`` dispatches to subscribers and discards raw events);
* :mod:`repro.obs.monitor` — the active half: the streaming
  convergence detectors behind the CLI's ``--monitor`` progress line;
* :mod:`repro.obs.registry` — :func:`metrics_snapshot`, the one flat
  metric namespace over ProtocolCounters / NetCounters /
  TransportStats (the run record, :mod:`repro.harness.persistence`,
  stores it);
* :mod:`repro.obs.spans` — the one trace checker behind
  ``python -m repro.obs spans`` / ``critpath`` (causal span trees,
  critical paths, and the exactly-once fold of every 2PC exchange);
* :mod:`repro.obs.telemetry` — the live deployment plane's periodic
  JSONL snapshot exporter;
* :mod:`repro.obs.prof` — the kernel profiling plane:
  :class:`KernelProfiler` attributes wall-clock nanoseconds to a closed
  category registry at the simulator's dispatch point (the one obs
  module sanctioned to read wall clocks).

Benchmarks are not measured here: the one ledger is
``benchmarks/ledger/`` (``BENCHMARK.json``); :mod:`repro.obs.bench_history`
keeps only the ``current_git_rev`` helper it imports.

This package never imports from the harness or the engines — they
import it.
"""
