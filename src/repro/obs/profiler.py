"""Kernel phase profiler: where the event loop's wall time actually goes.

``repro perf --profile`` runs each pinned kernel workload once with a
:class:`PhaseProfiler` installed and attributes wall time to the hot-path
phases the SoA-rewrite ROADMAP item needs a target list for:

- ``schedule`` — the per-cycle schedule pass (excluding the sub-phases)
- ``queue-scan`` — the FR-FCFS queue scans inside the pass
- ``refresh-engine`` — engine hooks (``urgent`` / ``on_act``) across
  whichever engines the workload instantiates
- ``trace-refill`` — synthetic trace generation (``TraceGenerator``),
  including the batch's address decode: requests arrive decoded, so the
  event loop pays no per-request ``AddressMapper.decode``

Phase times are *exclusive*: a nested timed call (e.g. ``queue-scan``
inside ``schedule``) is subtracted from its parent, so the shares sum to
at most the total and "other" is genuinely unattributed time (core
model, completion heap, Python interpreter overhead).

The profiler wraps methods at *class* level (several hot-path classes
use ``__slots__``, so per-instance monkeypatching is not possible) and
always restores the originals — including on error — so profiled and
unprofiled runs can share a process.  Timer overhead inflates absolute
times; the per-phase *shares* are the actionable output.  The default
``repro perf`` path never installs the profiler, keeping the CI
events/sec floor measurement untouched.
"""

from __future__ import annotations

import time
from collections import Counter

PHASES = (
    "schedule",
    "queue-scan",
    "refresh-engine",
    "trace-refill",
)


class PhaseProfiler:
    """Exclusive-time phase attribution via class-level method wrapping."""

    def __init__(self) -> None:
        self.exclusive_s: dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.calls: Counter = Counter()
        #: Timer stack entries: [phase, accumulated child time].
        self._stack: list[list] = []
        #: (cls, method name, original function) for restoration.
        self._patched: list[tuple] = []

    # ------------------------------------------------------------------
    def _wrap(self, phase: str, func):
        perf = time.perf_counter
        stack = self._stack
        exclusive = self.exclusive_s
        calls = self.calls

        def wrapper(*args, **kwargs):
            frame = [phase, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                exclusive[phase] += elapsed - frame[1]
                calls[phase] += 1
                if stack:
                    stack[-1][1] += elapsed

        wrapper.__name__ = getattr(func, "__name__", phase)
        wrapper.__profiled_phase__ = phase
        return wrapper

    def _patch(self, cls, name: str, phase: str) -> None:
        func = cls.__dict__.get(name)
        if func is None or hasattr(func, "__profiled_phase__"):
            return  # not defined on this class, or already wrapped
        self._patched.append((cls, name, func))
        setattr(cls, name, self._wrap(phase, func))

    def install(self) -> None:
        """Wrap the hot-path methods (idempotent per class/method)."""
        from repro.core.engine import HiraRefreshEngine
        from repro.sim.controller import (
            BaselineRefreshEngine,
            MemoryController,
            NoRefreshEngine,
            RefreshEngine,
        )
        from repro.sim.elastic import ElasticRefreshEngine
        from repro.sim.trace import TraceGenerator

        self._patch(MemoryController, "schedule", "schedule")
        self._patch(MemoryController, "_schedule_queues", "queue-scan")
        engines = (
            RefreshEngine,
            NoRefreshEngine,
            BaselineRefreshEngine,
            ElasticRefreshEngine,
            HiraRefreshEngine,
        )
        for cls in engines:
            for name in ("urgent", "on_act"):
                self._patch(cls, name, "refresh-engine")
        self._patch(TraceGenerator, "_refill", "trace-refill")

    def uninstall(self) -> None:
        while self._patched:
            cls, name, func = self._patched.pop()
            setattr(cls, name, func)

    def __enter__(self) -> "PhaseProfiler":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def report(self, wall_s: float) -> dict:
        """Phase breakdown for one profiled run of ``wall_s`` seconds."""
        tracked = sum(self.exclusive_s.values())
        phases = {
            phase: {
                "seconds": round(self.exclusive_s[phase], 4),
                "calls": int(self.calls[phase]),
                "share": round(self.exclusive_s[phase] / wall_s, 4) if wall_s else 0.0,
            }
            for phase in PHASES
        }
        other = max(0.0, wall_s - tracked)
        return {
            "wall_s": round(wall_s, 4),
            "tracked_s": round(tracked, 4),
            "other_s": round(other, 4),
            "other_share": round(other / wall_s, 4) if wall_s else 0.0,
            "phases": phases,
        }


def profile_workload(overrides: dict, instr_budget: int = 200_000) -> dict:
    """One profiled run of a pinned kernel workload (cf. ``measure_workload``).

    Timer overhead makes the absolute wall time slower than the unprofiled
    measurement — the breakdown's *shares* are the comparable signal.
    """
    from repro.sim.config import SystemConfig
    from repro.sim.system import System
    from repro.workloads.mixes import mix_for

    config = SystemConfig(**overrides)
    profiles = mix_for(0, cores=config.cores)
    system = System(config, profiles, seed=100, instr_budget=instr_budget)
    profiler = PhaseProfiler()
    start = time.perf_counter()
    with profiler:
        system.run()
    wall = time.perf_counter() - start
    return profiler.report(wall)
