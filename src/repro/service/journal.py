"""Crash-safe request journal — the daemon's durability backbone.

A fold over :class:`repro.durable.Journal` (header pin, torn-tail
truncation, stale rotation, fsync before return; docs/internals.md,
"Durable files") with two operations::

    {"journal": "repro-service", "version": 1, "schema": 1}
    {"op": "accepted", "key": "<content key>", "request": {...}}
    {"op": "done", "key": "<content key>", "response": {...}}

``accepted`` is journaled *before* the client sees the accept — an
accepted request survives any SIGKILL.  ``done`` carries the full
response object, so a restarted daemon rebuilds its verdict index
without touching the result cache.  :meth:`RequestJournal.load` folds
the log: a key with ``done`` is completed (served from the index, zero
recomputation); ``accepted`` without ``done`` is in-flight and gets
re-run on restart (the drain).

Trace uploads are spooled to ``uploads/<key>.trc`` (the shared atomic
write: fsync, rename) *before* their ``accepted`` line — the journal
stores only the key, the payload survives next to it.  A spooled upload
lives exactly as long as its request is pending: the daemon drops it
once ``done`` is journaled (:meth:`RequestJournal.drop_upload`), and
:meth:`RequestJournal.load` removes every spool file whose key is not
pending plus any writer temp whose process is gone.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.durable import Journal, atomic_write, reclaim_temps, temp_path
from repro.service.schema import SCHEMA_VERSION

__all__ = ["RequestJournal"]

_HEADER_KIND = "repro-service"

#: bump on incompatible journal layout changes
JOURNAL_VERSION = 1


class RequestJournal:
    """Fsynced journal of request lifecycle events."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        header = {
            "journal": _HEADER_KIND,
            "version": JOURNAL_VERSION,
            "schema": SCHEMA_VERSION,
        }
        self._log = Journal(self.root / "requests.jsonl", header)
        self.path = self._log.path
        self.uploads = self.root / "uploads"

    def load(self) -> Tuple[Dict[str, dict], Dict[str, dict]]:
        """Fold the journal; returns ``(pending, completed)``.

        ``pending`` maps content key → the original request object for
        every ``accepted`` without a matching ``done`` (in insertion
        order — the restart drain re-runs them oldest first);
        ``completed`` maps key → the journaled response.  Spool files
        that no pending request needs are deleted here.
        """
        pending: Dict[str, dict] = {}
        completed: Dict[str, dict] = {}

        def fold(obj) -> bool:
            op, key = obj["op"], obj["key"]
            if op == "accepted":
                pending.setdefault(key, obj["request"])
            elif op == "done":
                completed[key] = obj["response"]
                pending.pop(key, None)
            else:
                return False  # unknown op: treat as torn
            return True

        self._log.load(fold)
        if self.uploads.exists():
            for path in self.uploads.glob("*.trc"):
                if path.stem not in pending:
                    path.unlink(missing_ok=True)
            reclaim_temps(self.uploads)
        return pending, completed

    def accepted(self, key: str, request: dict) -> None:
        """Durably journal an accepted request (fsync before return)."""
        self._log.append({"op": "accepted", "key": key, "request": request})

    def done(self, key: str, response: dict) -> None:
        """Durably journal a completed request with its full response."""
        self._log.append({"op": "done", "key": key, "response": response})

    # -- trace upload spool -------------------------------------------------

    def spool_upload(self, key: str, payload: bytes) -> Path:
        """Persist a trace upload durably (fsync + atomic rename).

        Spooled *before* the ``accepted`` journal line, so a journaled
        trace request always finds its payload after a restart.
        """
        self.uploads.mkdir(parents=True, exist_ok=True)
        dest = self.uploads / f"{key}.trc"
        if not dest.exists():
            atomic_write(temp_path(dest), dest, payload)
        return dest

    def drop_upload(self, key: str) -> None:
        """Delete the spooled payload of a completed request, if any."""
        (self.uploads / f"{key}.trc").unlink(missing_ok=True)

    def upload_path(self, key: str) -> Optional[Path]:
        path = self.uploads / f"{key}.trc"
        return path if path.exists() else None

    def spool_bytes(self) -> int:
        """Total bytes in the upload spool, writer temps included
        (disk-pressure metering)."""
        if not self.uploads.exists():
            return 0
        return sum(p.stat().st_size for p in self.uploads.iterdir() if p.is_file())

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "RequestJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
