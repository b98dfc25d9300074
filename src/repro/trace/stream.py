"""Streaming trace decode: analyze a stored recording in bounded memory.

:func:`repro.trace.analyze_trace` materializes a full :class:`Trace` —
every event object plus the flat batch lists — before the detector sees
a single event.  That is the right trade for repeated analyses of one
recording (the filter caches amortize), but it makes peak RSS scale
with trace length, which is exactly what a memory-governed worker
cannot afford.

This module is the constant-memory alternative.  A :class:`TraceStream`
(obtained from :meth:`repro.trace.store.TraceStore.open_stream`) walks
the RPRT-framed gzip JSONL payload line by line, decoding one event at
a time; :func:`analyze_trace_streaming` feeds those events through the
detector in bounded chunks — via ``consume_batch`` for batch-capable
configurations, per event otherwise — applying exactly the filters the
in-memory path applies, so the resulting ``report.fingerprint()`` is
bit-identical to :func:`analyze_trace` for every configuration,
partial/faulted recordings included.

The stream trusts the store's frame checksum (verified before a
:class:`TraceStream` is handed out), but still validates shape as it
goes: a payload that decompresses but is cut mid-JSONL-line, or whose
event count disagrees with its metadata line, raises
:class:`TraceStreamCorruption` mid-iteration — store-aware callers
quarantine the entry and fall back, exactly like a ``get`` miss.
"""

from __future__ import annotations

import gzip
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, Iterator, List, Optional, Tuple, Union

from repro.detectors import RaceDetector, Report, ToolConfig
from repro.trace.trace import (
    _LIB_ANNOT,
    _MARKED,
    _THREAD_SYNC,
    _decode_event,
    _loc_parse,
)
from repro.vm import events as ev
from repro.vm.machine import RunResult
from repro.vm.memory import SymbolMap

__all__ = [
    "StreamAnalysis",
    "TraceStream",
    "TraceStreamCorruption",
    "analyze_trace_streaming",
]


class TraceStreamCorruption(Exception):
    """A stored trace turned out malformed *mid-stream*.

    Raised while iterating events of an entry whose frame checksum
    validated — i.e. the payload is intact on disk but its content is
    not a well-formed recording (cut mid-line, undecodable event,
    event-count mismatch).  Callers holding the owning store should
    quarantine the entry and treat the analysis as a miss.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class TraceStream:
    """One stored recording, iterable per event without materialization.

    ``meta`` is the recording's metadata line (the same dict
    ``TraceStore.entries`` yields): program, seed, scheduler, status,
    steps, instrumentation parameters, loop sizes, lock sites, symbols,
    and the expected event count.  :meth:`events` may be called any
    number of times; each call re-opens the payload and decodes from
    the start, holding only one line in memory at a time.
    """

    path: Path
    #: byte offset of the gzip payload (past frame header + digest)
    payload_offset: int
    meta: dict
    #: store key the stream was opened under ("" for bare files)
    key: str = ""

    def events(self) -> Iterator[Tuple[int, ev.Event]]:
        """Yield ``(seq, event)`` in recorded order, decoding lazily.

        ``seq`` is the event's index in the full recorded stream — the
        same global counter a live machine's batches carry, so chunked
        ``consume_batch`` deliveries merge in the exact live order.
        """
        expected = self.meta.get("events")
        seq = 0
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self.payload_offset)
                gz = gzip.GzipFile(fileobj=fh, mode="rb")
                text = io.TextIOWrapper(gz, encoding="utf-8")
                lines = iter(text)
                next(lines)  # the metadata line, already parsed
                for line in lines:
                    if not line.strip():
                        continue
                    yield seq, _decode_event(json.loads(line))
                    seq += 1
        except TraceStreamCorruption:
            raise
        except (OSError, EOFError, ValueError, TypeError, IndexError, KeyError) as exc:
            # gzip truncation, JSON cut mid-line, codec drift — all the
            # ways a checksum-valid payload can still be malformed.
            raise TraceStreamCorruption(
                f"undecodable at event {seq}: {type(exc).__name__}"
            ) from exc
        if expected is not None and seq != expected:
            raise TraceStreamCorruption(
                f"event-count-mismatch: meta says {expected}, got {seq}"
            )

    # -- meta accessors mirroring Trace ------------------------------------

    @property
    def status(self) -> str:
        return self.meta.get("status", "ok")

    @property
    def steps(self) -> int:
        return self.meta.get("steps", 0)

    @property
    def seed(self) -> int:
        return self.meta.get("seed", 0)

    @property
    def program_name(self) -> str:
        return self.meta.get("program", "?")

    @property
    def max_blocks(self) -> int:
        return self.meta.get("max_blocks", 8)

    @property
    def inline_depth(self) -> int:
        return self.meta.get("inline_depth", 1)

    def loop_sizes(self) -> dict:
        return {int(k): v for k, v in self.meta.get("loop_sizes", {}).items()}

    def lock_sites(self) -> frozenset:
        return frozenset(_loc_parse(l) for l in self.meta.get("lock_sites", []))

    def symbol_map(self) -> SymbolMap:
        sm = SymbolMap()
        for name, base, size in self.meta.get("symbols", []):
            sm.add(name, base, size)
        return sm


def read_meta_line(path: Union[str, Path], payload_offset: int) -> dict:
    """Decode only the metadata line of a framed trace payload.

    Streams the gzip member just far enough for the first line — the
    events stay compressed on disk.  Raises the same shape errors
    :meth:`TraceStream.events` maps to corruption; callers (the store)
    translate them.
    """
    with open(path, "rb") as fh:
        fh.seek(payload_offset)
        gz = gzip.GzipFile(fileobj=fh, mode="rb")
        line = io.TextIOWrapper(gz, encoding="utf-8").readline()
    meta = json.loads(line)
    if not isinstance(meta, dict):
        raise ValueError("metadata line is not an object")
    return meta


# ---------------------------------------------------------------------------
# Streaming analysis
# ---------------------------------------------------------------------------


@dataclass
class StreamAnalysis:
    """Result of one bounded-memory analysis of a stored recording.

    The streaming twin of :class:`repro.trace.trace.TraceAnalysis`:
    same report/detector payload, but no :class:`Trace` — only the
    metadata dict survives the pass — plus a synthesized machine-level
    :class:`RunResult` (outputs and fault counts are collected during
    the single event pass instead of a post-hoc scan).
    """

    meta: dict
    config: ToolConfig
    report: Report
    detector: RaceDetector
    #: events the detector processed (post filtering)
    events: int
    #: wall-clock seconds spent streaming + finalization
    duration_s: float
    #: machine-level outcome synthesized from the recording
    result: RunResult
    #: structured degradation/provenance notes
    notes: Tuple[str, ...] = ()


def _validate_stream(stream: TraceStream, config: ToolConfig) -> None:
    """Meta-level twin of :func:`repro.trace.trace._validate_replay`."""
    if config.spin:
        if config.spin_max_blocks > stream.max_blocks:
            raise ValueError(
                f"trace recorded with max_blocks={stream.max_blocks}, "
                f"cannot replay spin({config.spin_max_blocks})"
            )
        if config.inline_depth != stream.inline_depth:
            raise ValueError(
                f"trace recorded with inline_depth={stream.inline_depth}, "
                f"cannot replay inline_depth={config.inline_depth}"
            )


def _wide_loops_meta(stream: TraceStream, config: ToolConfig) -> FrozenSet[int]:
    if not config.spin:
        return frozenset()
    k = config.spin_max_blocks
    return frozenset(i for i, size in stream.loop_sizes().items() if size > k)


#: default number of buffered events per ``consume_batch`` flush.  Small
#: enough that peak RSS stays a fixed few hundred kilobytes regardless
#: of trace length, large enough that merge-loop overhead is amortized.
DEFAULT_CHUNK_EVENTS = 2048


def analyze_trace_streaming(
    stream: TraceStream,
    config,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> StreamAnalysis:
    """Run a tool configuration over a stored trace in bounded memory.

    Delivers events straight off the decoder without ever materializing
    the recording: the detector gets chunks of at most ``chunk_events``
    filtered events per ``consume_batch`` call (chunk boundaries are
    invisible to the three-way seq merge — every seq in chunk *n*
    precedes every seq in chunk *n+1*).  Filtering mirrors the in-memory
    path exactly (``_filtered_batches``), and the
    report is finalized from the recording's termination status, so
    ``report.fingerprint()`` is bit-identical to
    :func:`repro.trace.analyze_trace` on the same entry — partial and
    faulted recordings included.

    Raises :class:`TraceStreamCorruption` if the payload turns out
    malformed mid-pass; the detector state is then abandoned.
    """
    from repro.harness.registry import resolve_tool  # lazy: import cycle

    config = resolve_tool(config)
    _validate_stream(stream, config)
    detector = RaceDetector(config, lock_sites=stream.lock_sites())
    detector.algorithm.symbolize = stream.symbol_map().resolve
    wide = _wide_loops_meta(stream, config)
    outputs: List[Tuple[int, int]] = []
    faults = 0

    t0 = time.perf_counter()
    skip_lib = config.intercept_lib
    spin = config.spin
    reads: list = []
    writes: list = []
    ctrl: list = []
    buffered = 0
    consume = detector.consume_batch
    for seq, e in stream.events():
        te = type(e)
        if te is ev.MemRead:
            if skip_lib and e.in_library:
                continue
            reads.append(
                (seq, e.tid, e.addr, e.value, e.loc, e.atomic, e.in_library)
            )
        elif te is ev.MemWrite:
            if skip_lib and e.in_library:
                continue
            writes.append(
                (seq, e.tid, e.addr, e.value, e.loc, e.atomic, e.in_library)
            )
        elif isinstance(e, _MARKED):
            if not spin or (skip_lib and e.in_library) or e.loop_id in wide:
                continue
            ctrl.append((seq, e))
        elif isinstance(e, _LIB_ANNOT):
            if not skip_lib or e.in_library:
                continue
            ctrl.append((seq, e))
        elif isinstance(e, _THREAD_SYNC):
            ctrl.append((seq, e))
        else:
            # Bookkeeping events are detector no-ops; fold them into
            # the synthesized machine result instead.
            if te is ev.PrintEvent:
                outputs.append((e.tid, e.value))
            elif isinstance(e, ev.FaultEvent):
                faults += 1
            continue
        buffered += 1
        if buffered >= chunk_events:
            consume(reads, writes, ctrl)
            reads, writes, ctrl = [], [], []
            buffered = 0
    if buffered:
        consume(reads, writes, ctrl)

    status = stream.status
    report = detector.finalize(partial=status != "ok")
    duration = time.perf_counter() - t0
    result = RunResult(
        steps=stream.steps,
        timed_out=status == "step-limit",
        deadlocked=status == "deadlock",
        outputs=outputs,
        livelocked=status == "livelock",
        faults_injected=faults,
    )
    return StreamAnalysis(
        meta=stream.meta,
        config=config,
        report=report,
        detector=detector,
        events=detector.events_processed,
        duration_s=duration,
        result=result,
        notes=("streaming-decode",),
    )
