"""Labeled metrics: counters, gauges, histograms, and the stats export map.

The registry is a process-local, dependency-free metrics surface shared
by the two observability consumers:

- simulation results: every :class:`~repro.sim.controller.ControllerStats`
  and :class:`~repro.chip.chip_model.ChipStats` field is exported through
  an explicit field -> metric map (:data:`CONTROLLER_METRICS`,
  :data:`CHIP_METRICS`).  The maps are deliberately spelled out rather
  than derived from ``dataclasses.fields`` at runtime: the parity tests
  in ``tests/test_obs_metrics.py`` (``*_table_matches_dataclass_exactly``)
  assert exact key equality with the dataclass fields, so adding a stats
  counter without deciding its metric name (or leaving a stale key)
  fails tier-1.
- fleet telemetry: the orchestrator's job-lifecycle counters and worker
  gauges (see :mod:`repro.obs.fleet`).

Snapshots are plain JSON-able dicts with deterministic key order, so a
snapshot can be embedded byte-stably in status files and ``--json-out``
payloads.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields

_LABEL_SEP = ","


def _label_key(labels: dict) -> str:
    """Canonical string form of a label set (sorted, JSON-safe)."""
    if not labels:
        return ""
    return _LABEL_SEP.join(f"{k}={labels[k]}" for k in sorted(labels))


class Counter:
    """Monotonically increasing value, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._values: dict[str, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0)

    def total(self) -> float:
        return sum(self._values.values())

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "values": {k: self._values[k] for k in sorted(self._values)},
        }


class Gauge:
    """A value that can go up and down (e.g. heartbeat age, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._values: dict[str, float] = {}

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def clear(self, **labels) -> None:
        self._values.pop(_label_key(labels), None)

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0)

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "values": {k: self._values[k] for k in sorted(self._values)},
        }


class Histogram:
    """Cumulative-bucket histogram over explicit upper bounds."""

    kind = "histogram"

    def __init__(self, name: str, help: str, buckets: tuple[float, ...]) -> None:
        if tuple(sorted(buckets)) != tuple(buckets) or not buckets:
            raise ValueError(f"histogram {name} needs sorted, non-empty buckets")
        self.name = name
        self.help = help
        self.buckets = tuple(buckets)
        self._counts: dict[str, list[int]] = {}
        self._sums: dict[str, float] = {}
        self._totals: dict[str, int] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = [0] * len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
                break
        else:
            pass  # above the last bound: counted only in sum/total
        self._sums[key] = self._sums.get(key, 0) + value
        self._totals[key] = self._totals.get(key, 0) + 1

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "values": {
                k: {
                    "counts": list(self._counts[k]),
                    "sum": self._sums[k],
                    "total": self._totals[k],
                }
                for k in sorted(self._counts)
            },
        }


class MetricsRegistry:
    """A named collection of metrics with idempotent registration."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

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

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64)
    ) -> Histogram:
        return self._register(Histogram(name, help, buckets))

    def get(self, name: str):
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        """Plain JSON-able snapshot with deterministic key order."""
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}


# ----------------------------------------------------------------------
# Simulation stats export
# ----------------------------------------------------------------------
# Field -> (metric name, help) for every counter the simulator reports.
# KEEP COMPLETE: test_obs_metrics's *_table_matches_dataclass_exactly tests
# compare these keys against the dataclass fields of ControllerStats /
# ChipStats; a field missing here (a silently dropped counter) or a stale
# key here (a renamed field) fails them, and _record_fields raises on a
# missing field at runtime.

CONTROLLER_METRICS = {
    "reads_served": ("sim_reads_served_total", "Read column accesses served"),
    "writes_served": ("sim_writes_served_total", "Write column accesses served"),
    "row_hits": ("sim_row_hits_total", "Column accesses that hit the open row"),
    "row_misses": ("sim_row_misses_total", "Demand activations (row misses)"),
    "acts": ("sim_acts_total", "ACT commands issued (incl. HiRA/refresh ACTs)"),
    "pres": ("sim_pres_total", "PRE commands issued (incl. refresh closes)"),
    "refs": ("sim_refs_total", "Rank-level REF commands issued"),
    "refs_sb": ("sim_refs_sb_total", "Same-bank REFsb commands issued"),
    "solo_refreshes": ("sim_solo_refreshes_total", "Nominal ACT+PRE row refreshes"),
    "hira_access_parallelized": (
        "sim_hira_access_parallelized_total",
        "Refresh-access HiRA operations (refresh hidden behind a demand ACT)",
    ),
    "hira_refresh_parallelized": (
        "sim_hira_refresh_parallelized_total",
        "Refresh-refresh HiRA operations (two rows per bank-busy window)",
    ),
    "preventive_generated": (
        "sim_preventive_generated_total",
        "PARA preventive refreshes generated",
    ),
    "periodic_generated": (
        "sim_periodic_generated_total",
        "Periodic refresh requests generated",
    ),
    "deadline_misses": (
        "sim_deadline_misses_total",
        "Refresh requests serviced after their deadline",
    ),
    "queue_full_rejections": (
        "sim_queue_full_rejections_total",
        "Demand requests rejected on a full controller queue",
    ),
}

CHIP_METRICS = {
    "acts": ("chip_acts_total", "ACT commands observed by the chip model"),
    "pres": ("chip_pres_total", "PRE commands observed by the chip model"),
    "refs": ("chip_refs_total", "REF commands observed by the chip model"),
    "reads": ("chip_reads_total", "Read bursts observed by the chip model"),
    "writes": ("chip_writes_total", "Write bursts observed by the chip model"),
    "hira_attempts": ("chip_hira_attempts_total", "HiRA sequences attempted"),
    "hira_successes": (
        "chip_hira_successes_total",
        "HiRA sequences honoured by the chip (tRC interval permitted)",
    ),
    "ignored_pre": ("chip_ignored_pre_total", "PRE commands the chip ignored"),
    "ignored_act": ("chip_ignored_act_total", "ACT commands the chip ignored"),
    "corrupted_rows": ("chip_corrupted_rows_total", "Rows decayed past tREFW"),
    "bitflips_injected": (
        "chip_bitflips_injected_total",
        "RowHammer bitflips injected by the chip model",
    ),
}


def _record_fields(registry: MetricsRegistry, stats, table: dict, **labels) -> None:
    missing = [f.name for f in dataclass_fields(stats) if f.name not in table]
    if missing:
        raise KeyError(
            f"{type(stats).__name__} fields missing from the metrics map: {missing}"
        )
    for field_name, (metric_name, help_text) in table.items():
        value = getattr(stats, field_name)
        registry.counter(metric_name, help_text).inc(value, **labels)


def record_controller_stats(
    registry: MetricsRegistry, stats, *, channel: int, **labels
) -> None:
    """Export one ControllerStats into labeled counters (fails on drift)."""
    _record_fields(registry, stats, CONTROLLER_METRICS, channel=channel, **labels)


def record_chip_stats(registry: MetricsRegistry, stats, **labels) -> None:
    """Export one ChipStats into labeled counters (fails on drift)."""
    _record_fields(registry, stats, CHIP_METRICS, **labels)


def metrics_from_result(result) -> MetricsRegistry:
    """Fold a :class:`~repro.sim.system.SimResult`'s per-channel stats into
    a fresh registry (one labeled series per channel)."""
    registry = MetricsRegistry()
    for channel, stats in enumerate(result.controller_stats):
        record_controller_stats(registry, stats, channel=channel)
    return registry
