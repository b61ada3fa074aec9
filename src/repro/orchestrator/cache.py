"""On-disk result cache keyed by sweep-point content hash.

Entries are small JSON files (``<root>/<key[:2]>/<key>.json``) holding a
serialized :class:`SimResult` plus the point's human-readable coordinates
for debuggability.  Writes are atomic (tmp + rename) so concurrent sweep
processes sharing a cache directory never observe torn entries.

Every entry is additionally stamped with the :func:`source_fingerprint`
of the simulator package at write time, and :meth:`ResultCache.get`
treats a stamp mismatch as a miss.  The sweep-point key already folds the
fingerprint in, but the stamp guards the cache *itself*: entries written
by older code (different key schema, hand-supplied keys, or a pre-stamp
layout) can never silently replay results produced by different
scheduler/engine behavior.

Beside the entries, each sweep run with a store leaves one manifest
(``<root>/manifests/<name>.json``: name, fingerprint, planned keys),
atomically replaced at every run.  It is the only record a sweep keeps
besides its entries: progress is the planned keys whose entry exists,
and a fingerprint differing from the live source means the previous
run's points will be recomputed, not replayed.  A crash loses at most the
in-flight points, because every :meth:`ResultCache.put` is atomic.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.orchestrator.atomicio import atomic_write_text
from repro.orchestrator.hashing import source_fingerprint
from repro.sim.controller import ControllerStats
from repro.sim.system import SimResult


def result_to_dict(result: SimResult) -> dict:
    """A JSON-safe representation that round-trips bit-exactly."""
    return {
        "cycles": result.cycles,
        "ipcs": result.ipcs,
        "alone_ipcs": result.alone_ipcs,
        "controller_stats": [asdict(s) for s in result.controller_stats],
        "instructions": result.instructions,
        "reads": result.reads,
        "writes": result.writes,
        "finished": result.finished,
        "meta": result.meta,
    }


def result_from_dict(data: dict) -> SimResult:
    return SimResult(
        cycles=data["cycles"],
        ipcs=list(data["ipcs"]),
        alone_ipcs=list(data["alone_ipcs"]),
        controller_stats=[ControllerStats(**s) for s in data["controller_stats"]],
        instructions=list(data["instructions"]),
        reads=data["reads"],
        writes=data["writes"],
        finished=data["finished"],
        meta=dict(data["meta"]),
    )


class ResultCache:
    """A directory of cached simulation results, keyed by content hash.

    ``fingerprint`` defaults to the live package's source fingerprint;
    entries carrying a different (or missing) stamp are treated as misses
    so behavior changes in the simulator can never replay stale results.
    """

    def __init__(self, root: str | Path, fingerprint: str | None = None):
        self.root = Path(root)
        self.fingerprint = (
            source_fingerprint() if fingerprint is None else fingerprint
        )
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> SimResult | None:
        path = self.path_for(key)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            # Truncated or corrupted on disk (e.g. a torn write from a
            # crashed process, disk corruption): a miss, and evict the
            # carcass so the slot heals on the next put.
            self._evict(path)
            self.misses += 1
            return None
        if not isinstance(data, dict) or data.get("code") != self.fingerprint:
            # Written by a different simulator source tree: stale.
            self.misses += 1
            return None
        try:
            return_value = result_from_dict(data["result"])
        except (KeyError, TypeError, ValueError):
            # Decodes as JSON but does not deserialize to a SimResult
            # (schema drift or partial corruption): same treatment.
            self._evict(path)
            self.misses += 1
            return None
        self.hits += 1
        return return_value

    @staticmethod
    def _evict(path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # already gone or unremovable; stays a miss
            pass

    def put(self, key: str, result: SimResult, describe: dict | None = None) -> None:
        body = {
            "key": key,
            "code": self.fingerprint,
            "describe": describe or {},
            "result": result_to_dict(result),
        }
        # Atomic tmp+fsync+rename: a crash mid-put leaves either no entry
        # or the whole entry, never a torn file for `get` to evict.
        atomic_write_text(self.path_for(key), json.dumps(body, separators=(",", ":")))

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        # Only the two-hex-character key shards: ``manifests/`` is not one.
        return sum(1 for __ in self.root.glob("[0-9a-f][0-9a-f]/*.json"))

    def manifest_path(self, name: str) -> Path:
        safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in name)
        return self.root / "manifests" / f"{safe}.json"

    def write_manifest(self, name: str, keys) -> str | None:
        """Record sweep ``name``'s planned keys under this store's
        fingerprint; return the fingerprint of the manifest replaced
        (``None`` when there was none)."""
        previous = self._read_manifest(self.manifest_path(name))
        body = {"name": name, "fingerprint": self.fingerprint, "keys": list(keys)}
        atomic_write_text(self.manifest_path(name), json.dumps(body))
        return previous.get("fingerprint") if previous else None

    @staticmethod
    def _read_manifest(path: Path) -> dict | None:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return data if isinstance(data, dict) else None

    def progress(self) -> list[tuple[str, int, int]]:
        """``(name, stored, planned)`` for every sweep manifest in the
        store: how many of its planned keys have an entry file."""
        rows = []
        for path in sorted(self.root.glob("manifests/*.json")):
            manifest = self._read_manifest(path)
            if manifest is None:
                continue
            keys = manifest.get("keys", [])
            stored = sum(1 for key in keys if self.path_for(key).exists())
            rows.append((manifest.get("name", path.stem), stored, len(keys)))
        return rows
