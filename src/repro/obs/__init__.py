"""Observability: deterministic sim tracing and fleet metrics.

Three surfaces, all strictly zero-cost when disarmed: a disarmed run
executes the exact instruction stream of an uninstrumented one, so
kernel goldens and the chaos suite stay bit-identical and the
events/sec floor holds.

- :mod:`repro.obs.tracer` — the deterministic cycle-stamped simulation
  tracer: command issues (read from the command auditor), refresh-engine
  decisions, and stall reasons from the timing oracle in a bounded ring buffer, exported as Chrome trace-event
  JSON with exact aggregate summaries.  Armed traces are byte-identical
  across re-runs and across execution backends (timestamps are simulated
  cycles, never wall clock).
- :mod:`repro.obs.metrics` — labeled counters and gauges in the
  registry that fleet telemetry records into.
- :mod:`repro.obs.fleet` — fleet telemetry: job lifecycle counters,
  worker heartbeat ages, snapshotted atomically to the status file
  behind ``repro status``, which also renders each sweep's progress from
  the result store's manifests.
"""

from repro.obs.fleet import FleetStatus, load_status, render_status
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.tracer import (
    DECISION_KINDS,
    STALL_REASONS,
    SimTracer,
    attach_tracers,
    trace_json,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "DECISION_KINDS",
    "FleetStatus",
    "Gauge",
    "MetricsRegistry",
    "STALL_REASONS",
    "SimTracer",
    "attach_tracers",
    "load_status",
    "render_status",
    "trace_json",
    "validate_chrome_trace",
]
