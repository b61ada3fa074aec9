"""Atomic file writes: no reader ever observes a torn file.

Every artifact the orchestrator persists — result-store entries, sweep
manifests, ``--json-out`` payloads, bench JSON — goes through
:func:`atomic_write_text`: write to a same-directory temp file, flush,
``fsync``, then ``os.replace`` onto the target.  A crash at any point
leaves either the old file or the new file, never a prefix of the new
one (the temp carcass is invisible to readers and overwritten by the
next attempt).
"""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomically replace ``path`` with ``text`` (crash-safe).

    The temp file lives in the target's directory (``os.replace`` must
    not cross filesystems) and is suffixed with the pid so concurrent
    writers — e.g. sweep processes sharing a result store — never clobber
    each other's in-flight temp.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path
