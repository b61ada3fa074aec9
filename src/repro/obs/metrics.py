"""Labeled metrics: counters and gauges in a registry.

The registry is a process-local, dependency-free metrics surface.  Its
consumer is fleet telemetry: the orchestrator's job-lifecycle counters
and worker gauges (see :mod:`repro.obs.fleet`).

Snapshots are plain JSON-able dicts with deterministic key order, so a
snapshot can be embedded byte-stably in status files and ``--json-out``
payloads.
"""

from __future__ import annotations

_LABEL_SEP = ","


def _label_key(labels: dict) -> str:
    """Canonical string form of a label set (sorted, JSON-safe)."""
    if not labels:
        return ""
    return _LABEL_SEP.join(f"{k}={labels[k]}" for k in sorted(labels))


class _Metric:
    """A named value per label set, snapshotted in sorted label order."""

    kind = ""

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._values: dict[str, float] = {}

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "values": {k: self._values[k] for k in sorted(self._values)},
        }


class Counter(_Metric):
    """Monotonically increasing value, optionally split by labels."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0)


class Gauge(_Metric):
    """A value that can go up and down (e.g. heartbeat age)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(labels)] = value


class MetricsRegistry:
    """A named collection of metrics with idempotent registration."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _register(self, metric):
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric):
                raise ValueError(
                    f"metric {metric.name!r} re-registered as a different kind"
                )
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge(name, help))

    def snapshot(self) -> dict:
        """Plain JSON-able snapshot with deterministic key order."""
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}
