"""The durability core: ``Journal`` and ``FramedStore``, once, byte by byte.

The journal half truncates a real journal at every byte offset and
checks the torn-tail contract on both journal kinds; the store half runs
the shared corruption cases over both framed stores.
"""

import hashlib
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.durable import DIGEST_LEN, HEADER, Journal
from repro.harness.checkpoint import CACHE_SCHEMA, SweepJournal
from repro.harness.parallel import ResultCache, RunRecord
from repro.service.journal import RequestJournal
from repro.trace import TraceStore, record_trace
from repro.trace.store import TRACE_SCHEMA

from tests.conftest import flag_handoff_program

# ---------------------------------------------------------------------------
# Journal


def _record(seed):
    return RunRecord(workload="wl", tool="t", seed=seed, status="ok", steps=seed)


class _Kind:
    """Adapter: build a journal kind in a directory, append entry ``i``,
    and the state a load of the first ``n`` entries must return."""

    def __init__(self, name, make, append, expect):
        self.name, self.make, self.append, self.expect = name, make, append, expect

    def __repr__(self):
        return self.name


class _Raw:
    """The bare primitive: its state is the list of folded entries."""

    def __init__(self, root):
        root.mkdir(parents=True, exist_ok=True)
        self.log = Journal(root / "raw.jsonl", {"journal": "raw", "version": 1})
        self.path = self.log.path

    def load(self):
        seen = []
        self.log.load(lambda obj: seen.append(obj["i"]))
        return seen

    def close(self):
        self.log.close()


KINDS = [
    _Kind("journal", _Raw, lambda j, i: j.log.append({"i": i}), lambda n: list(range(n))),
    _Kind(
        "sweep",
        lambda root: SweepJournal(root, "d" * 64),
        lambda j, i: j.append(f"k{i}", _record(i)),
        lambda n: {f"k{i}": _record(i) for i in range(n)},
    ),
    _Kind(
        "request",
        RequestJournal,
        # accepted k0, done k0, accepted k1, ... — a mixed fold
        lambda j, i: (
            j.done(f"k{i // 2}", {"r": i}) if i % 2 else j.accepted(f"k{i // 2}", {"q": i})
        ),
        lambda n: (
            {f"k{i // 2}": {"q": i} for i in range(0, n, 2) if i + 1 >= n},
            {f"k{i // 2}": {"r": i} for i in range(1, n, 2)},
        ),
    ),
]


@pytest.mark.parametrize("kind", KINDS, ids=repr)
def test_truncation_at_every_byte_offset(tmp_path, kind):
    """A crash can cut the file anywhere: the returned state must be
    the state on disk after truncation, i.e. whole entries only, and an
    append afterwards must leave a well-formed journal."""
    j = kind.make(tmp_path / "full")
    for i in range(3):
        kind.append(j, i)
    j.close()
    data = j.path.read_bytes()
    ends = [i + 1 for i, b in enumerate(data) if b == ord("\n")]
    assert len(ends) == 4  # header + three entries
    for cut in range(len(data) + 1):
        root = tmp_path / f"cut{cut}"
        root.mkdir()
        cut_j = kind.make(root)
        cut_j.path.write_bytes(data[:cut])
        whole = sum(1 for end in ends[1:] if end <= cut)
        state = cut_j.load()
        assert state == kind.expect(whole), cut
        assert cut_j.path.read_bytes() == data[: ends[whole] if cut >= ends[0] else 0]
        assert kind.make(root).load() == state, cut
        kind.append(cut_j, whole)
        cut_j.close()
        lines = cut_j.path.read_bytes().split(b"\n")
        assert lines[-1] == b"" and lines[0] + b"\n" == data[: ends[0]]
        assert [json.loads(line) for line in lines[1:-1]]
        assert kind.make(root).load() == kind.expect(whole + 1), cut


def test_sweep_journal_unterminated_entry_is_torn(tmp_path):
    """A valid JSON entry that lost its newline is not folded: the
    returned state matches the truncated file, so a resumed sweep reruns
    ``k2`` and the next resume still has it."""
    j = SweepJournal(tmp_path, "d" * 64)
    j.append("k1", _record(1))
    j.close()
    entry = {"key": "k2", "record": {"workload": "wl", "tool": "t", "seed": 2, "status": "ok"}}
    with open(j.path, "ab") as fh:
        fh.write(json.dumps(entry).encode())  # no terminator
    assert set(SweepJournal(tmp_path, "d" * 64).load()) == {"k1"}
    assert set(SweepJournal(tmp_path, "d" * 64).load()) == {"k1"}
    j2 = SweepJournal(tmp_path, "d" * 64)
    j2.append("k2", _record(2))
    j2.close()
    assert set(SweepJournal(tmp_path, "d" * 64).load()) == {"k1", "k2"}


def test_journal_bytes_are_pinned(tmp_path):
    """The on-disk lines are compact JSON in insertion order."""
    j = SweepJournal(tmp_path, "c" * 64)
    j.append("k1", _record(1))
    j.close()
    header, entry = j.path.read_bytes().split(b"\n")[:2]
    assert header == (
        b'{"journal":"repro-sweep","version":1,"schema":%d,"sweep":"%s"}'
        % (CACHE_SCHEMA, b"c" * 64)
    )
    assert entry.startswith(b'{"key":"k1","record":{"workload":"wl","tool":"t","seed":1,')
    with RequestJournal(tmp_path / "svc") as r:
        r.accepted("k", {"q": 1})
    assert (tmp_path / "svc" / "requests.jsonl").read_bytes() == (
        b'{"journal":"repro-service","version":1,"schema":1}\n'
        b'{"op":"accepted","key":"k","request":{"q":1}}\n'
    )


# ---------------------------------------------------------------------------
# FramedStore


@pytest.fixture(scope="module")
def trace():
    return record_trace(flag_handoff_program(), seed=3)


STORES = {
    "cache": (ResultCache, b"RPRC", CACHE_SCHEMA),
    "trace": (TraceStore, b"RPRT", TRACE_SCHEMA),
}

KEY = "a" * 64


@pytest.fixture(params=sorted(STORES))
def framed(request, tmp_path, trace):
    """``(store, value, magic, schema)`` with one entry under KEY."""
    cls, magic, schema = STORES[request.param]
    store = cls(tmp_path / request.param)
    value = trace if cls is TraceStore else {"outcome": list(range(50))}
    store.put(KEY, value)
    return store, value, magic, schema


def _rewrite(path, fn):
    path.write_bytes(bytes(fn(bytearray(path.read_bytes()))))


def _set_header(magic, version, schema):
    def fn(data):
        data[: HEADER.size] = HEADER.pack(magic, version, schema)
        return data

    return fn


def _flip_last(data):
    data[-1] ^= 0xFF
    return data


CORRUPTIONS = {
    "truncated": lambda magic, schema: (lambda d: d[:20], "truncated"),
    "bad-magic": lambda magic, schema: (_set_header(b"XXXX", 1, schema), "bad-magic"),
    "frame-version": lambda magic, schema: (
        _set_header(magic, 9, schema),
        "frame-version-9",
    ),
    "schema": lambda magic, schema: (
        _set_header(magic, 1, schema + 1),
        f"schema-{schema + 1}",
    ),
    "checksum-mismatch": lambda magic, schema: (_flip_last, "checksum-mismatch"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corruption_is_quarantined_as_a_miss(framed, case):
    store, _value, magic, schema = framed
    corrupt, reason = CORRUPTIONS[case](magic, schema)
    path = store._path(KEY)
    _rewrite(path, corrupt)
    assert store.get(KEY) is None  # a miss, never a raise
    assert store.misses == 1 and store.hits == 0
    assert not path.exists()  # moved aside, not left in place
    (q,) = store.quarantined
    assert (q.key, q.reason) == (KEY, reason)
    assert q.path == str(store.corrupt_dir / path.name)
    note = json.loads((store.corrupt_dir / f"{KEY}.note.json").read_text())
    assert note == {"key": KEY, "reason": reason, "schema": schema}


def test_frame_bytes_are_pinned(framed):
    store, value, magic, schema = framed
    data = store._path(KEY).read_bytes()
    head = HEADER.size + DIGEST_LEN
    assert data[: HEADER.size] == magic + bytes([1]) + schema.to_bytes(4, "little")
    assert data[HEADER.size : head] == hashlib.sha256(data[head:]).digest()
    assert data[head:] == store.encode(value)
    if isinstance(store, ResultCache):
        assert data[head:] == pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    assert store.get(KEY) == value


def _dead_pid():
    proc = subprocess.Popen([sys.executable, "-c", ""])
    proc.wait()
    return proc.pid


@pytest.mark.parametrize(
    "framed, reclaim",
    [(name, how) for name in sorted(STORES) for how in ("doctor-purge", "free-space")]
    + [("trace", "gc")],
    indirect=["framed"],
)
def test_orphaned_temps_of_dead_writers_are_reclaimed(framed, reclaim):
    store = framed[0]
    dead = store.root / f"{'b' * 64}.tmp.{_dead_pid()}"
    live = store.root / f"{'c' * 64}.tmp.{os.getpid()}"
    for path in (dead, live):
        path.write_bytes(b"x" * 1024)
    store.doctor()  # without purge, temps stay
    assert dead.exists() and live.exists()
    assert store.total_bytes() == store._path(KEY).stat().st_size
    {
        "doctor-purge": lambda: store.doctor(purge=True),
        "gc": lambda: store.gc(),
        "free-space": store._free_space,
    }[reclaim]()
    assert not dead.exists()
    assert live.exists()
    assert store._path(KEY).exists()
