"""Fleet telemetry: live sweep/worker status snapshots for ``repro status``.

A :class:`FleetStatus` collects the orchestrator's job-lifecycle events
(queued → dispatched → retried/speculated/quarantined → done) and worker
heartbeats into a :class:`~repro.obs.metrics.MetricsRegistry`, and
snapshots the whole state to a JSON status file through
:func:`~repro.orchestrator.atomicio.atomic_write_text` — readers (the
``repro status`` subcommand, dashboards, other processes) never observe
a torn file.  Writes are rate-limited so heartbeat chatter cannot turn
the status file into an I/O hotspot; lifecycle edges force a write.

The producer side is wired in two places: :func:`run_sweep` drives the
sweep-level lifecycle and per-point completions for every backend, and
the socket :class:`~repro.orchestrator.backends.server.JobServer`
additionally reports per-worker events (dispatch, heartbeat, retry,
speculation, quarantine) when a status sink is attached.

This module runs on the orchestrator side only — wall-clock use here is
fine (heartbeat *ages* are inherently wall time); the deterministic
cycle-domain surface lives in :mod:`repro.obs.tracer`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.orchestrator.atomicio import atomic_write_text

#: Job lifecycle states tracked as labeled counters.
JOB_EVENTS = ("queued", "dispatched", "retried", "speculated", "quarantined", "done")


class FleetStatus:
    """Aggregates fleet events and snapshots them to a status file."""

    def __init__(
        self,
        path: str | Path | None,
        *,
        min_interval_s: float = 0.5,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.min_interval_s = min_interval_s
        self.registry = MetricsRegistry()
        self._jobs = self.registry.counter(
            "fleet_jobs_total", "Job lifecycle events by state"
        )
        self._heartbeat_age = self.registry.gauge(
            "fleet_worker_heartbeat_age_seconds",
            "Seconds since each worker's last heartbeat (at snapshot time)",
        )
        self.sweep: dict = {}
        self.backend: str | None = None
        #: worker label -> last heartbeat wall-clock timestamp.
        self._workers: dict[str, float] = {}
        self._done_labels: set[str] = set()
        self._quarantined: list[str] = []
        self._last_write = 0.0
        self._finished = False

    # ------------------------------------------------------------------
    # Sweep lifecycle (driven by run_sweep)
    # ------------------------------------------------------------------
    def sweep_started(
        self, name: str, points: int, reused: int, todo: int, workers: int
    ) -> None:
        self.sweep = {
            "name": name,
            "points": points,
            "reused": reused,
            "todo": todo,
            "done": 0,
            "workers": workers,
            "state": "running",
        }
        self._finished = False
        self._done_labels = set()
        self._jobs.inc(todo, state="queued")
        self.write(force=True)

    def point_done(self, label: str) -> None:
        """Record one computed point.

        Idempotent per label: a retried or speculated job can complete
        the same point twice (and store replay never reaches here at
        all), so ``done`` counts distinct points and can never exceed
        the ``todo`` reported by :meth:`sweep_started` — the rendered
        ``done/todo`` line stays truthful when a re-run replays points.
        """
        if label in self._done_labels:
            return
        self._done_labels.add(label)
        self._jobs.inc(state="done")
        if self.sweep:
            self.sweep["done"] = self.sweep.get("done", 0) + 1
        self.write()

    def sweep_finished(self, backend: str, elapsed_s: float) -> None:
        if self.sweep:
            self.sweep["state"] = "finished"
            self.sweep["elapsed_s"] = round(elapsed_s, 3)
        self.backend = backend
        self._finished = True
        self.write(force=True)

    # ------------------------------------------------------------------
    # Job/worker events (driven by the socket JobServer)
    # ------------------------------------------------------------------
    def job_dispatched(self, label: str, worker: str) -> None:
        self._jobs.inc(state="dispatched")
        self.write()

    def job_retried(self, label: str, attempts: int) -> None:
        self._jobs.inc(state="retried")
        self.write(force=True)

    def job_speculated(self, label: str) -> None:
        self._jobs.inc(state="speculated")
        self.write(force=True)

    def worker_seen(self, worker: str) -> None:
        self._workers.setdefault(worker, time.time())
        self.write()

    def worker_heartbeat(self, worker: str) -> None:
        self._workers[worker] = time.time()
        self.write()

    def worker_quarantined(self, worker: str) -> None:
        self._jobs.inc(state="quarantined")
        if worker not in self._quarantined:
            self._quarantined.append(worker)
        self.write(force=True)

    # ------------------------------------------------------------------
    # Snapshot + persistence
    # ------------------------------------------------------------------
    def job_counts(self) -> dict:
        return {state: int(self._jobs.value(state=state)) for state in JOB_EVENTS}

    def snapshot(self) -> dict:
        now = time.time()
        workers = {}
        for label in sorted(self._workers):
            last = self._workers[label]
            age = max(0.0, now - last)
            self._heartbeat_age.set(round(age, 3), worker=label)
            workers[label] = {
                "last_heartbeat": round(last, 3),
                "age_s": round(age, 3),
            }
        return {
            "kind": "repro-fleet-status",
            "updated_at": round(now, 3),
            "sweep": dict(self.sweep),
            "backend": self.backend,
            "jobs": self.job_counts(),
            "workers": workers,
            "quarantined": list(self._quarantined),
            "metrics": self.registry.snapshot(),
        }

    def write(self, force: bool = False) -> None:
        if self.path is None:
            return
        now = time.monotonic()
        if not force and now - self._last_write < self.min_interval_s:
            return
        self._last_write = now
        try:
            atomic_write_text(self.path, json.dumps(self.snapshot(), indent=2))
        except OSError:
            pass  # status snapshots are best-effort; never break the sweep


def load_status(path: str | Path) -> dict | None:
    """Read a status snapshot; None when absent or unreadable."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (FileNotFoundError, OSError, json.JSONDecodeError):
        return None


def render_status(status: dict | None, progress: list) -> str:
    """Human-readable sweep/fleet dashboard (the ``repro status`` view).

    ``progress`` is :meth:`ResultCache.progress
    <repro.orchestrator.cache.ResultCache.progress>`: ``(name, stored,
    planned)`` per sweep manifest in the store.
    """
    lines: list[str] = []
    if status is not None:
        sweep = status.get("sweep") or {}
        if sweep:
            name = sweep.get("name", "?")
            done = sweep.get("done", 0)
            todo = sweep.get("todo", 0)
            state = sweep.get("state", "?")
            lines.append(
                f"sweep {name}: {state}, {done}/{todo} computed "
                f"({sweep.get('reused', 0)} replayed from the store, "
                f"{sweep.get('points', 0)} points total)"
            )
        backend = status.get("backend")
        if backend:
            lines.append(f"backend: {backend}")
        jobs = status.get("jobs") or {}
        if jobs:
            parts = ", ".join(f"{state} {jobs.get(state, 0)}" for state in JOB_EVENTS)
            lines.append(f"jobs: {parts}")
        workers = status.get("workers") or {}
        if workers:
            lines.append(f"workers ({len(workers)}):")
            for label in sorted(workers):
                info = workers[label]
                lines.append(
                    f"  {label}: last heartbeat {info.get('age_s', '?')}s ago"
                )
        quarantined = status.get("quarantined") or []
        if quarantined:
            lines.append(f"quarantined: {', '.join(quarantined)}")
        updated = status.get("updated_at")
        if updated is not None:
            age = max(0.0, time.time() - updated)
            lines.append(f"snapshot age: {age:.1f}s")
    if progress:
        lines.append("store:")
        for name, stored, planned in progress:
            state = "complete" if stored == planned else "incomplete"
            lines.append(f"  {name}: {stored}/{planned} points stored, {state}")
    return "\n".join(lines)
