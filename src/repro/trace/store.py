"""Content-addressed on-disk store of recorded executions.

The offline-analysis counterpart of the sweep engine's result cache: a
:class:`TraceStore` persists each recording once, keyed by everything
that determines the event stream — the built program's fingerprint, the
scheduler policy, the seed, the instrumentation parameters, the step
budget, and any injected fault plan — and *nothing* that doesn't (the
tool configuration in particular), so one stored trace serves any
number of :func:`~repro.trace.trace.analyze_trace` calls.

Entries are :class:`repro.durable.FramedStore` frames (magic ``RPRT``,
trace schema; docs/internals.md, "Durable files").  The payload is
gzip-compressed JSONL — one metadata line followed by one line per
event — so a multi-hundred-thousand-event recording stays a few hundred
kilobytes on disk.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.durable import Corruption, FramedStore, reclaim_temps
from repro.trace.stream import TraceStream, read_meta_line
from repro.trace.trace import Trace, _decode_event, _encode_event, _loc_parse, _loc_str

#: bump when the trace payload layout changes incompatibly.  Deliberately
#: independent of the harness CACHE_SCHEMA: trace artifacts outlive
#: result-cache generations (a detector change invalidates outcomes but
#: not recordings — that is the whole point of the store).
TRACE_SCHEMA = 1


def trace_key(
    program_fingerprint: str,
    seed: int,
    max_steps: int,
    scheduler: Optional[str] = None,
    max_blocks: int = 8,
    inline_depth: int = 1,
    fault_plan=None,
    livelock_bound: Optional[int] = None,
) -> str:
    """Content digest of one recording — everything that shapes the
    event stream, nothing that merely interprets it (no tool config)."""
    from repro.harness.registry import canonical_scheduler  # lazy: cycle

    payload = "\n".join(
        [
            f"trace-schema={TRACE_SCHEMA}",
            f"program={program_fingerprint}",
            f"scheduler={canonical_scheduler(scheduler)}",
            f"seed={seed}",
            f"max_steps={max_steps}",
            f"max_blocks={max_blocks}",
            f"inline_depth={inline_depth}",
            f"fault_plan={fault_plan!r}",
            f"livelock_bound={livelock_bound!r}",
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def key_for_spec(spec) -> str:
    """The trace key a sweep cell records under.

    Instrumentation is widened to ``max(8, spin window)`` so every
    paper preset sharing the cell's ``(program, scheduler, seed,
    faults)`` coordinates — whatever its spin window — maps to the
    *same* recording; only a differing inline depth forces a separate
    one.
    """
    from repro.harness.registry import program_fingerprint  # lazy: cycle

    if isinstance(spec.workload, str):
        fingerprint = program_fingerprint(spec.workload)
    else:
        fingerprint = spec.resolve().fresh_program().fingerprint()
    tool = spec.tool()
    return trace_key(
        fingerprint,
        seed=spec.effective_seed(),
        max_steps=spec.effective_max_steps(),
        scheduler=getattr(spec, "scheduler", None),
        max_blocks=max(8, tool.spin_max_blocks),
        inline_depth=tool.inline_depth,
        fault_plan=spec.fault_plan,
        livelock_bound=spec.livelock_bound,
    )


# ---------------------------------------------------------------------------
# Payload codec: gzip-compressed JSONL (meta line, then one line/event)
# ---------------------------------------------------------------------------


def _trace_meta(trace: Trace) -> dict:
    return {
        "program": trace.program_name,
        "seed": trace.seed,
        "scheduler": trace.scheduler,
        "max_blocks": trace.max_blocks,
        "inline_depth": trace.inline_depth,
        "steps": trace.steps,
        "ok": trace.ok,
        "status": trace.status,
        "events": len(trace.events),
        "loop_sizes": trace.loop_sizes,
        "lock_sites": [_loc_str(l) for l in sorted(trace.lock_sites, key=str)],
        "symbols": trace.symbols,
    }


def _encode_payload(trace: Trace) -> bytes:
    lines = [json.dumps(_trace_meta(trace), separators=(",", ":"))]
    lines.extend(
        json.dumps(_encode_event(e), separators=(",", ":")) for e in trace.events
    )
    # mtime=0 keeps the compressed bytes deterministic for a given trace
    return gzip.compress("\n".join(lines).encode(), mtime=0)


def _decode_payload(payload: bytes) -> Trace:
    lines = gzip.decompress(payload).decode().split("\n")
    meta = json.loads(lines[0])
    events = [_decode_event(json.loads(line)) for line in lines[1:] if line]
    if len(events) != meta["events"]:
        raise Corruption(
            f"event-count-mismatch: meta says {meta['events']}, got {len(events)}"
        )
    return Trace(
        program_name=meta["program"],
        seed=meta["seed"],
        events=events,
        loop_sizes={int(k): v for k, v in meta["loop_sizes"].items()},
        lock_sites=frozenset(_loc_parse(l) for l in meta["lock_sites"]),
        symbols=[tuple(s) for s in meta["symbols"]],
        max_blocks=meta["max_blocks"],
        inline_depth=meta["inline_depth"],
        steps=meta["steps"],
        ok=meta["ok"],
        status=meta["status"],
        scheduler=meta.get("scheduler", "random"),
    )


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class TraceStore(FramedStore):
    """Checksummed, quarantining on-disk store of :class:`Trace` objects.

    Lives next to the sweep :class:`~repro.harness.parallel.ResultCache`
    (conventionally ``<cache>/traces/``) and shares its
    :class:`~repro.durable.FramedStore` contract: atomic writes,
    validation on every read, corruption quarantined into ``corrupt/``
    and reported — never raised.
    """

    suffix = ".trc"
    magic = b"RPRT"
    schema = TRACE_SCHEMA
    label = "store"
    encode = staticmethod(_encode_payload)
    decode = staticmethod(_decode_payload)

    def open_stream(self, key: str) -> Optional[TraceStream]:
        """Open an entry for per-event iteration, without materializing it.

        Verifies the frame (header + full sha256, streamed in chunks)
        and decodes only the metadata line, then hands back a
        :class:`~repro.trace.stream.TraceStream` positioned at the
        payload.  Misses and corruption behave exactly like :meth:`get`
        — quarantine, count, return ``None``.  Corruption that only
        manifests *mid-stream* (checksum-valid but malformed payload)
        raises :class:`~repro.trace.stream.TraceStreamCorruption` from
        the iterator; pass it to :meth:`quarantine_stream`.
        """
        path = self._path(key)
        try:
            offset = self._verify_frame_file(path)
        except OSError:
            self.misses += 1
            return None
        except Corruption as exc:
            self._quarantine(path, key, exc.reason)
            self.misses += 1
            return None
        try:
            meta = read_meta_line(path, offset)
        except (OSError, EOFError, ValueError, TypeError) as exc:
            self._quarantine(path, key, f"undecodable: {type(exc).__name__}")
            self.misses += 1
            return None
        self.hits += 1
        self._touch(path)
        return TraceStream(path=path, payload_offset=offset, meta=meta, key=key)

    def quarantine_stream(self, stream: TraceStream, reason: str) -> None:
        """Quarantine the entry behind a stream that corrupted mid-read."""
        path = Path(stream.path)
        self._quarantine(path, stream.key or path.stem, reason)
        self.misses += 1

    def has(self, key: str) -> bool:
        return self._path(key).exists()

    def keys(self) -> List[str]:
        return [path.stem for path in self._entries()]

    def entries(self) -> Iterator[Tuple[str, dict, int]]:
        """Yield ``(key, metadata, size_bytes)`` per valid entry.

        Reads only each entry's metadata line (events stay compressed on
        disk conceptually — the whole payload is decompressed but not
        event-decoded), so listing a large store stays cheap.  Invalid
        entries are quarantined as a side effect, exactly like ``get``.
        """
        for path in self._entries():
            key = path.stem
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                continue  # raced away between listing and read: not corrupt
            except OSError as exc:
                self._quarantine(path, key, f"unreadable: {type(exc).__name__}")
                continue
            try:
                payload = self._unframe(data)
                meta = json.loads(gzip.decompress(payload).decode().split("\n", 1)[0])
            except Corruption as exc:
                self._quarantine(path, key, exc.reason)
                continue
            except (OSError, ValueError) as exc:
                self._quarantine(path, key, f"unreadable: {type(exc).__name__}")
                continue
            yield key, meta, len(data)

    def gc(self, keep=None, purge_corrupt: bool = True) -> Dict[str, int]:
        """Reclaim space: drop entries outside ``keep``, purge corrupt/.

        ``keep=None`` keeps every valid entry (only the quarantine is
        emptied); with a collection of keys, entries not in it are
        deleted.  Orphaned writer temps are always reclaimed.  Returns
        ``{"removed": n, "purged": m, "kept": k}``.
        """
        removed = kept = 0
        keep_set = None if keep is None else set(keep)
        for path in self._entries():
            # Membership is re-checked at delete time (not against a
            # pre-computed doomed list); an entry a concurrent writer/gc
            # removed first is neither an error nor our removal.
            if keep_set is not None and path.stem not in keep_set:
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
            else:
                kept += 1
        purged = self._purge_corrupt() if purge_corrupt else 0
        reclaim_temps(self.root)
        return {"removed": removed, "purged": purged, "kept": kept}


def open_trace_file(path: Union[str, Path]) -> TraceStream:
    """Open a bare RPRT-framed trace file for streaming, outside any store.

    Validates the frame (header + full checksum, constant memory) and
    decodes the metadata line, exactly as
    :meth:`TraceStore.open_stream` does for store entries — but for a
    standalone file (e.g. one copied out of a store's directory), so
    there is no quarantine side channel: an invalid file raises
    :class:`~repro.trace.stream.TraceStreamCorruption` instead of
    returning ``None``.
    """
    from repro.trace.stream import TraceStreamCorruption

    path = Path(path)
    try:
        offset = TraceStore._verify_frame_file(path)
        meta = read_meta_line(path, offset)
    except Corruption as exc:
        raise TraceStreamCorruption(exc.reason) from exc
    except (EOFError, ValueError, TypeError) as exc:
        raise TraceStreamCorruption(
            f"undecodable metadata: {type(exc).__name__}"
        ) from exc
    return TraceStream(path=path, payload_offset=offset, meta=meta)
