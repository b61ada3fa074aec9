"""Sweep execution: store diffing, backend dispatch, result assembly.

Each :class:`SweepPoint` is an independent simulation with its own
explicit seed, so execution can shard points across any
:class:`~repro.orchestrator.backends.ExecutionBackend` — in-process,
a local process pool, or ``repro worker`` daemons over TCP — and results
always come back in grid order: serial and distributed execution are
bit-identical by construction.

:func:`plan_sweep` diffs an expanded grid against the content-addressed
:class:`~repro.orchestrator.cache.ResultCache` (keys fold in the full
config *and* a fingerprint of the simulator source), which is what makes
cross-sweep dedup work: overlapping sweeps sharing a store compute each
point exactly once, and incremental re-runs dispatch only missing or
stale points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.orchestrator.backends import ExecutionBackend, make_backend
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.execute import execute_point  # noqa: F401  (re-export)
from repro.orchestrator.pool import default_workers
from repro.orchestrator.sweep import Sweep, SweepPoint
from repro.sim.system import SimResult

if TYPE_CHECKING:  # imported lazily at runtime: obs depends on orchestrator
    from repro.obs.fleet import FleetStatus


@dataclass
class SweepPlan:
    """The grid diffed against the result store: what runs, what replays.

    ``results`` holds the reused :class:`SimResult` for every store hit
    (already re-stamped with this sweep's telemetry) and ``None`` at the
    ``todo`` indices, which are the only points a backend will execute.
    """

    sweep: Sweep
    points: tuple[SweepPoint, ...]
    keys: tuple[str, ...]
    results: list[SimResult | None]
    todo: tuple[int, ...]

    @property
    def reused(self) -> int:
        return len(self.points) - len(self.todo)

    @property
    def computed(self) -> int:
        return len(self.todo)

    def describe(self) -> str:
        return (
            f"{len(self.points)} points: {self.reused} reused from the store, "
            f"{self.computed} to compute"
        )


def plan_sweep(sweep: Sweep, cache: ResultCache | str | Path | None) -> SweepPlan:
    """Expand the grid and diff it against the store (None: all points run).

    A store hit must be present *and* stamped with the current simulator
    source fingerprint — stale entries read as misses, so "incremental"
    can never replay results from changed code.
    """
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    points = sweep.expand()
    keys = tuple(point.key for point in points)
    results: list[SimResult | None] = [None] * len(points)
    todo: list[int] = []
    if cache is None:
        todo = list(range(len(points)))
    else:
        for i, point in enumerate(points):
            hit = cache.get(keys[i])
            if hit is not None:
                # Entries are content-addressed and may have been written by
                # a different sweep; restamp the telemetry for this one.
                hit.meta["sweep"] = point.sweep
                hit.meta["coords"] = dict(point.coords)
                hit.meta["seed"] = point.seed
                results[i] = hit
            else:
                todo.append(i)
    return SweepPlan(
        sweep=sweep, points=points, keys=keys, results=results, todo=tuple(todo)
    )


@dataclass
class SweepResult:
    """All results of one sweep run, in grid order, with run telemetry."""

    sweep: Sweep
    points: tuple[SweepPoint, ...]
    results: tuple[SimResult, ...]
    cache_hits: int
    cache_misses: int
    #: The executing backend's ``parallelism`` (1 for serial, the pool
    #: size for local); the requested count when nothing was executed.
    workers: int
    elapsed_s: float
    #: Which execution backend ran the missing points.
    backend: str = "serial"
    #: Store-dedup telemetry: grid points replayed from the shared store
    #: vs dispatched to the backend (reused + computed == len(points)).
    reused: int = 0
    computed: int = field(default=-1)
    #: Backend-reported counters (socket server: workers_seen, retries,
    #: speculated, quarantined, degraded).  Empty for serial/local runs.
    telemetry: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.computed < 0:
            self.computed = len(self.points) - self.reused

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[tuple[SweepPoint, SimResult]]:
        return iter(zip(self.points, self.results))

    def select(self, **coords) -> list[tuple[SweepPoint, SimResult]]:
        """Points whose coordinates match every given ``axis=value``."""
        return [(p, r) for p, r in self if p.matches(**coords)]

    def mean_ws(self, **coords) -> float:
        """Mean weighted speedup across matching points (usually a mix
        average for one grid cell)."""
        picked = self.select(**coords)
        if not picked:
            raise KeyError(f"no sweep points match {coords!r}")
        return sum(r.weighted_speedup for __, r in picked) / len(picked)


def run_sweep(
    sweep: Sweep,
    workers: int | None = None,
    cache: ResultCache | str | Path | None = None,
    backend: str | ExecutionBackend | None = None,
    plan: SweepPlan | None = None,
    status: "FleetStatus | None" = None,
) -> SweepResult:
    """Execute every point of ``sweep``, reusing the store when possible.

    ``backend`` selects execution: ``None``/``"local"`` shards store
    misses across a process pool of ``workers`` (≤ 1 runs in-process),
    ``"serial"`` forces in-process, ``"socket"`` dispatches to connected
    ``repro worker`` daemons, and any
    :class:`~repro.orchestrator.backends.ExecutionBackend` instance is
    used as-is (and not closed).  ``plan`` short-circuits the store diff
    when the caller already ran :func:`plan_sweep` (e.g. to report the
    plan before dispatching).

    Crash safety: every result is persisted to ``cache`` *the moment the
    backend yields it*, by an atomic write — an interrupted sweep keeps
    all completed points, and re-running it replays them from the store
    and computes only the remainder.

    ``status`` (a :class:`~repro.obs.fleet.FleetStatus`) mirrors the run
    to a live status file: the sweep lifecycle and per-point completions
    are reported here for every backend, and a socket backend's server
    additionally reports per-worker events through the same sink.
    """
    start = time.perf_counter()
    if workers is None:
        workers = default_workers()
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    # Snapshot the (possibly reused) cache's counters to report deltas.
    # A caller-provided plan already consumed its hits outside this call,
    # so the plan's own tally stands in for the delta there.
    caller_plan = plan is not None
    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0
    if plan is None:
        plan = plan_sweep(sweep, cache)
    results = plan.results
    todo = plan.todo

    if status is not None:
        status.sweep_started(
            sweep.name, len(plan.points), plan.reused, len(todo), workers
        )

    telemetry: dict = {}
    backend_name = backend if isinstance(backend, str) else None
    if todo:
        bk, owned = make_backend(backend, workers)
        backend_name = bk.name
        if status is not None:
            server = getattr(bk, "server", None)
            if server is not None:
                server.status = status
        try:
            jobs = [(i, plan.points[i]) for i in todo]
            for index, result in bk.run_jobs(jobs):
                results[index] = result
                # Persist immediately: a crash after this point cannot
                # lose this result, only in-flight ones.
                if cache is not None:
                    cache.put(
                        plan.keys[index],
                        result,
                        describe=dict(plan.points[index].coords),
                    )
                if status is not None:
                    status.point_done(plan.points[index].label)
        finally:
            if owned:
                bk.close()
        workers = bk.parallelism
        if getattr(bk, "degraded", False):
            backend_name = f"{bk.name}+local-fallback"
        report = getattr(bk, "telemetry", None)
        if report is not None:
            telemetry = report()
        missing = [i for i in todo if results[i] is None]
        if missing:
            raise RuntimeError(
                f"backend {backend_name!r} returned no result for "
                f"{len(missing)} points (first: {plan.points[missing[0]].label})"
            )
    elif backend_name is None:
        backend_name = (
            backend.name if isinstance(backend, ExecutionBackend) else "local"
        )

    if caller_plan:
        cache_hits, cache_misses = plan.reused, plan.computed
    elif cache is not None:
        cache_hits, cache_misses = cache.hits - hits_before, cache.misses - misses_before
    else:
        cache_hits, cache_misses = 0, len(todo)
    elapsed_s = time.perf_counter() - start
    if status is not None:
        status.sweep_finished(backend_name or "local", elapsed_s)
    return SweepResult(
        sweep=sweep,
        points=plan.points,
        results=tuple(results),
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        workers=workers,
        elapsed_s=elapsed_s,
        backend=backend_name,
        reused=plan.reused,
        computed=plan.computed,
        telemetry=telemetry,
    )
