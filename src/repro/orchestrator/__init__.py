"""Parallel experiment orchestration: declarative sweeps over configurations.

Every figure of the paper is a *sweep*: a parameter grid over
:class:`~repro.sim.config.SystemConfig` crossed with a set of workloads,
each point producing one :class:`~repro.sim.system.SimResult`.  This
package turns that shape into infrastructure:

- :mod:`repro.orchestrator.sweep` — the declarative :class:`Sweep` API
  (axes, variants, workloads) with stable per-point config hashing.
- :mod:`repro.orchestrator.backends` — pluggable execution backends:
  in-process serial, a local multiprocessing pool, and a TCP job server
  dispatching to ``repro worker`` daemons (this host or others), all
  bit-identical to serial by construction.
- :mod:`repro.orchestrator.runner` — :func:`run_sweep` dispatches store
  misses to a backend and assembles grid-order results;
  :func:`plan_sweep` diffs a grid against the store for incremental
  regeneration (only missing/stale points execute).
- :mod:`repro.orchestrator.cache` — the content-addressed result store,
  keyed by config hash + simulator source fingerprint; sweeps sharing a
  store directory compute each point exactly once across sweeps.  It is a
  sweep's only durable record: each run also leaves one atomic manifest
  (name, fingerprint, planned keys) that ``repro status`` reads progress
  from.
- :mod:`repro.orchestrator.pool` — :func:`parallel_map`, the generic
  order-preserving helper the chip-characterization experiments use.
- :mod:`repro.orchestrator.backends.dispatch` — the socket backend's
  dispatch policy as a pure state machine (retries, speculation,
  quarantine, deadlines) plus the shared :class:`Backoff` schedule; the
  chaos suite (``tests/test_chaos.py``) drives it in virtual time and
  replays every fault schedule from its seed.

Benchmarks and the ``repro sweep`` / ``repro worker`` CLI subcommands are
thin layers over these primitives.
"""

from repro.orchestrator import backends
from repro.orchestrator.atomicio import atomic_write_text
from repro.orchestrator.backends import (
    ExecutionBackend,
    LocalPoolBackend,
    SerialBackend,
    make_backend,
)
from repro.orchestrator.cache import ResultCache, result_from_dict, result_to_dict
from repro.orchestrator.hashing import config_hash
from repro.orchestrator.pool import parallel_map
from repro.orchestrator.runner import (
    SweepPlan,
    SweepResult,
    execute_point,
    plan_sweep,
    run_sweep,
)
from repro.orchestrator.sweep import (
    Sweep,
    SweepPoint,
    Variant,
    Workload,
    axis,
    mix_workloads,
    profile_workloads,
)


def __getattr__(name: str):
    # The socket backend's names resolve on first use, through
    # `backends`' own lazy names, so serial and local runs never compile it.
    if name == "Backoff":
        from repro.orchestrator.backends.dispatch import Backoff

        return Backoff
    if name in backends._SERVER_NAMES:
        return getattr(backends, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Backoff",
    "ExecutionBackend",
    "LocalPoolBackend",
    "NoWorkersRegistered",
    "ResultCache",
    "SerialBackend",
    "SocketBackend",
    "Sweep",
    "SweepPlan",
    "SweepPoint",
    "SweepResult",
    "Variant",
    "Workload",
    "WorkerPoolError",
    "atomic_write_text",
    "axis",
    "config_hash",
    "execute_point",
    "make_backend",
    "mix_workloads",
    "parallel_map",
    "plan_sweep",
    "profile_workloads",
    "result_from_dict",
    "result_to_dict",
    "run_sweep",
]
