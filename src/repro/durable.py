"""Durable files — the one crash-safety core under every on-disk artifact.

* :class:`Journal` — an append-only, fsynced JSONL log pinned by a
  header line, whose ``load`` checks each line's terminator *before*
  folding it and truncates the torn tail, so the state it returns is
  always the state of the file it leaves behind.
  :class:`~repro.harness.checkpoint.SweepJournal` and
  :class:`~repro.service.journal.RequestJournal` are folds over it.
* :class:`FramedStore` — a content-keyed directory of checksummed,
  atomically written frames with quarantine, LRU quota, an ``ENOSPC``
  off-switch and orphaned-temp reclaim.
  :class:`~repro.harness.parallel.ResultCache` and
  :class:`~repro.trace.store.TraceStore` are codecs over it.

The full contract is in docs/internals.md, "Durable files".
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import logging
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

log = logging.getLogger(__name__)

__all__ = [
    "Corruption",
    "DoctorReport",
    "FramedStore",
    "Journal",
    "Quarantine",
    "atomic_write",
    "temp_path",
]


def atomic_write(tmp: Path, path: Path, data: bytes) -> None:
    """Write ``data`` to ``tmp``, fsync it, and rename it over ``path``."""
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def temp_path(path: Path) -> Path:
    """The writer-private temp name for ``path``: ``<stem>.tmp.<pid>``."""
    return path.with_suffix(f".tmp.{os.getpid()}")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass  # exists, owned by someone else
    return True


# ---------------------------------------------------------------------------
# Journal


class Journal:
    """Append-only fsynced JSONL log whose first line is ``header``."""

    def __init__(self, path: Union[str, Path], header: dict) -> None:
        self.path = Path(path)
        self.header = header
        self._fh = None

    def load(self, fold: Callable[[object], Optional[bool]]) -> None:
        """Hand every complete entry to ``fold``; truncate the torn tail.

        ``fold`` returns ``False`` (or raises ``KeyError``/``TypeError``/
        ``AttributeError``) on a structurally torn entry, and must not
        change its state when it does.  A foreign header rotates the log
        to ``*.stale`` before anything is folded.
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return
        valid_end = 0
        header_ok = False
        while True:
            end = raw.find(b"\n", valid_end)
            if end < 0:
                break  # no terminator: the crash ate it, the line is torn
            line = raw[valid_end:end]
            if line.strip():
                try:
                    obj = json.loads(line.decode("utf-8"))
                except ValueError:  # includes UnicodeDecodeError
                    break
                if not header_ok:
                    if not isinstance(obj, dict) or any(
                        obj.get(k) != v for k, v in self.header.items()
                    ):
                        self._rotate_stale()
                        return
                    header_ok = True
                else:
                    try:
                        if fold(obj) is False:
                            break
                    except (KeyError, TypeError, AttributeError):
                        break
            valid_end = end + 1
        if valid_end < len(raw):
            with open(self.path, "r+b") as fh:
                fh.truncate(valid_end)

    def _rotate_stale(self) -> None:
        try:
            os.replace(self.path, self.path.with_suffix(".jsonl.stale"))
        except OSError:
            self.path.unlink(missing_ok=True)

    def append(self, obj: dict) -> None:
        """Durably append one entry (fsync before return)."""
        if self._fh is None:
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._fh = open(self.path, "ab")
            if fresh:
                self._write(self.header)
        self._write(obj)

    def _write(self, obj: dict) -> None:
        self._fh.write(json.dumps(obj, separators=(",", ":")).encode() + b"\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def reset(self) -> None:
        """Discard the log (a fresh run)."""
        self.close()
        self.path.unlink(missing_ok=True)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# FramedStore

#: frame header: magic, frame version, schema; then the payload's sha256
HEADER = struct.Struct("<4sBI")
DIGEST_LEN = 32
FRAME_VERSION = 1
_HEAD_LEN = HEADER.size + DIGEST_LEN


class Corruption(Exception):
    """A stored entry failed integrity validation; ``reason`` says how."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class Quarantine:
    """One entry moved aside instead of deserialized."""

    key: str
    reason: str
    path: str


@dataclass
class DoctorReport:
    """Outcome of a :meth:`FramedStore.doctor` scan."""

    scanned: int = 0
    ok: int = 0
    quarantined: List[Quarantine] = field(default_factory=list)
    #: entries sitting in ``corrupt/`` (including ones this scan moved)
    corrupt_entries: int = 0
    purged: int = 0


class FramedStore:
    """Checksummed, quarantining, quota-bounded directory of entries.

    Subclasses set the class parameters below and the codec, two static
    methods ``encode(obj) -> bytes`` and ``decode(payload) -> obj``.  A
    codec error becomes the quarantine reason
    ``"<undecodable>: <ExceptionType>"``.

    Frame: ``magic (4s) | frame version (B) | schema (<I) |
    sha256(payload) | payload``, written to ``<key>.tmp.<pid>``, fsynced
    and renamed into place.
    """

    #: entry file suffix (``<key><suffix>``)
    suffix = ""
    magic = b""
    schema = 0
    #: names the store in log lines and its ``<label>-off:`` note
    label = "store"
    #: quarantine-reason prefix for payloads the codec rejects
    undecodable = "undecodable"

    def __init__(
        self,
        root: Union[str, Path],
        quota_bytes: Optional[int] = None,
        io_attempts: int = 3,
        io_backoff_s: float = 0.01,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: byte quota for valid entries; oldest (LRU by mtime) entries
        #: are evicted after each ``put`` that pushes the store over
        self.quota_bytes = quota_bytes
        self.io_attempts = io_attempts
        self.io_backoff_s = io_backoff_s
        #: True once the store degraded to write-off after persistent
        #: I/O failure (ENOSPC after freeing, exhausted retries); reads
        #: keep working, further ``put`` calls are silent no-ops
        self.disabled = False
        #: structured degradation notes ("<label>-off: ..."), surfaced on
        #: the sweep result and by the CLI
        self.notes: List[str] = []
        self.evictions = 0
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined: List[Quarantine] = []

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    @property
    def corrupt_dir(self) -> Path:
        return self.root / "corrupt"

    # -- framing ------------------------------------------------------------

    @classmethod
    def _frame(cls, payload: bytes) -> bytes:
        header = HEADER.pack(cls.magic, FRAME_VERSION, cls.schema)
        return header + hashlib.sha256(payload).digest() + payload

    @classmethod
    def _check_header(cls, head: bytes) -> bytes:
        """Validate a frame's header; returns the payload digest."""
        if len(head) < _HEAD_LEN:
            raise Corruption("truncated")
        magic, version, schema = HEADER.unpack_from(head)
        if magic != cls.magic:
            raise Corruption("bad-magic")
        if version != FRAME_VERSION:
            raise Corruption(f"frame-version-{version}")
        if schema != cls.schema:
            raise Corruption(f"schema-{schema}")
        return head[HEADER.size : _HEAD_LEN]

    @classmethod
    def _unframe(cls, data: bytes) -> bytes:
        """Validate a framed entry in memory; returns the payload."""
        digest = cls._check_header(data)
        payload = data[_HEAD_LEN:]
        if hashlib.sha256(payload).digest() != digest:
            raise Corruption("checksum-mismatch")
        return payload

    @classmethod
    def _verify_frame_file(cls, path: Path) -> int:
        """Validate a framed file in constant memory; returns the payload
        offset.  Raises ``OSError`` on a miss, :class:`Corruption` on an
        invalid frame."""
        hasher = hashlib.sha256()
        with open(path, "rb") as fh:
            digest = cls._check_header(fh.read(_HEAD_LEN))
            while True:
                chunk = fh.read(1 << 20)
                if not chunk:
                    break
                hasher.update(chunk)
        if hasher.digest() != digest:
            raise Corruption("checksum-mismatch")
        return _HEAD_LEN

    def _decode(self, data: bytes):
        payload = self._unframe(data)
        try:
            return self.decode(payload)
        except Corruption:
            raise
        except Exception as exc:  # codec drift, truncated payload, ...
            raise Corruption(f"{self.undecodable}: {type(exc).__name__}") from exc

    def _quarantine(self, path: Path, key: str, reason: str) -> Optional[Quarantine]:
        """Move a bad entry to ``corrupt/`` with a note; never raises."""
        dest = self.corrupt_dir / path.name
        try:
            self.corrupt_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except FileNotFoundError:
            # A concurrent writer/gc removed the entry between our
            # listing and the move: nothing to quarantine after all.
            return None
        except OSError:
            pass
        try:
            dest.with_suffix(".note.json").write_text(
                json.dumps({"key": key, "reason": reason, "schema": self.schema})
            )
        except OSError:
            pass
        entry = Quarantine(key=key, reason=reason, path=str(dest))
        self.quarantined.append(entry)
        log.warning(
            "%s entry quarantined: key=%s reason=%s moved_to=%s",
            self.label,
            key[:16],
            reason,
            dest,
        )
        return entry

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh an entry's mtime — the LRU recency signal for quota."""
        try:
            os.utime(path)
        except OSError:
            pass

    # -- the store API ------------------------------------------------------

    def get(self, key: str):
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            obj = self._decode(data)
        except Corruption as exc:
            self._quarantine(path, key, exc.reason)
            self.misses += 1
            return None
        self.hits += 1
        self._touch(path)
        return obj

    #: the raw write step — the I/O-failure injection point for tests
    _atomic_write = staticmethod(atomic_write)

    def put(self, key: str, obj) -> None:
        if self.disabled:
            return
        data = self._frame(self.encode(obj))
        path = self._path(key)
        tmp = temp_path(path)
        from repro.harness.resources import retry_io  # lazy: package cycle

        def write() -> None:
            retry_io(
                lambda: self._atomic_write(tmp, path, data),
                attempts=self.io_attempts,
                base_delay_s=self.io_backoff_s,
                token=key,
            )

        try:
            try:
                write()
            except OSError as exc:
                if exc.errno != errno.ENOSPC:
                    raise
                # Full disk: reclaim what we can, then one more attempt.
                self._free_space()
                write()
        except OSError as exc:
            with contextlib.suppress(OSError):
                tmp.unlink()
            self.disabled = True
            note = (
                f"{self.label}-off: put failed after retries "
                f"({errno.errorcode.get(exc.errno, 'OSError')}): {exc}"
            )
            self.notes.append(note)
            log.warning("%s degraded: %s", self.label, note)
            return
        self.writes += 1
        self._enforce_quota(protect=key)

    def _entries(self) -> List[Path]:
        return sorted(self.root.glob(f"*{self.suffix}"))

    def _entry_stats(self) -> List[Tuple[float, int, Path]]:
        """``(mtime, size, path)`` per entry, oldest first; race-tolerant."""
        stats = []
        for path in self._entries():
            try:
                st = path.stat()
            except OSError:
                continue
            stats.append((st.st_mtime, st.st_size, path))
        stats.sort(key=lambda t: (t[0], t[2].name))
        return stats

    def total_bytes(self) -> int:
        """Bytes held by valid entries (quarantine debris excluded)."""
        return sum(size for _, size, _ in self._entry_stats())

    def _enforce_quota(self, protect: str = "") -> None:
        """Evict LRU entries until the store fits its quota.

        The just-written key is protected — a quota smaller than one
        entry degrades to keeping only the latest, never to evicting
        what the caller is about to read back.
        """
        if self.quota_bytes is None:
            return
        stats = self._entry_stats()
        total = sum(size for _, size, _ in stats)
        for _, size, path in stats:
            if total <= self.quota_bytes:
                break
            if path.stem == protect:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.evictions += 1

    def _purge_corrupt(self) -> int:
        """Empty ``corrupt/``; returns the number of entries purged."""
        purged = 0
        for path in self.corrupt_dir.glob("*"):
            try:
                path.unlink()
            except OSError:
                continue
            purged += path.suffix == self.suffix
        return purged

    def _reclaim_temps(self) -> None:
        """Delete ``<key>.tmp.<pid>`` files whose writer process is gone
        (killed between open and rename)."""
        for path in self.root.glob("*.tmp.*"):
            pid = path.suffix[1:]
            if pid.isdigit() and not _pid_alive(int(pid)):
                with contextlib.suppress(OSError):
                    path.unlink()

    def _free_space(self) -> None:
        """ENOSPC pressure valve: purge debris and orphans, enforce quota."""
        self._purge_corrupt()
        self._reclaim_temps()
        self._enforce_quota()

    def __len__(self) -> int:
        return len(self._entries())

    def clear(self) -> None:
        for path in self._entries():
            path.unlink(missing_ok=True)

    def doctor(self, purge: bool = False) -> DoctorReport:
        """Scan every entry, quarantine the bad ones, optionally purge.

        Validation is the same frame + checksum + decode path ``get``
        uses, so a clean doctor run guarantees every later probe of the
        current population is a clean hit or a clean miss.  ``purge``
        also reclaims orphaned writer temps.
        """
        report = DoctorReport()
        for path in self._entries():
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                continue  # raced away between listing and read
            except OSError:
                report.scanned += 1
                continue
            report.scanned += 1
            try:
                self._decode(data)
            except Corruption as exc:
                entry = self._quarantine(path, path.stem, exc.reason)
                if entry is not None:
                    report.quarantined.append(entry)
                continue
            report.ok += 1
        report.corrupt_entries = len(list(self.corrupt_dir.glob(f"*{self.suffix}")))
        if purge:
            report.purged = self._purge_corrupt()
            self._reclaim_temps()
        return report
