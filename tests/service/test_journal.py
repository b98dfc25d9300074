"""Request journal: fsynced fold, torn-tail truncation, upload spool."""

import json
import os
import subprocess
import sys

import pytest

from repro.service.journal import RequestJournal

REQ = {"v": 1, "tenant": "t", "kind": "workload", "workload": "w"}
RESP = {"v": 1, "status": "ok", "verdict": {"fingerprint": "f" * 64}}


@pytest.fixture
def root(tmp_path):
    return tmp_path / "journal"


class TestFold:
    def test_empty(self, root):
        assert RequestJournal(root).load() == ({}, {})

    def test_accepted_without_done_is_pending(self, root):
        with RequestJournal(root) as j:
            j.accepted("k1", REQ)
        pending, completed = RequestJournal(root).load()
        assert pending == {"k1": REQ} and completed == {}

    def test_done_completes_and_clears_pending(self, root):
        with RequestJournal(root) as j:
            j.accepted("k1", REQ)
            j.done("k1", RESP)
        pending, completed = RequestJournal(root).load()
        assert pending == {} and completed == {"k1": RESP}

    def test_pending_preserves_acceptance_order(self, root):
        with RequestJournal(root) as j:
            for k in ("k3", "k1", "k2"):
                j.accepted(k, dict(REQ, id=k))
        pending, _ = RequestJournal(root).load()
        # The restart drain re-runs oldest-accepted first.
        assert list(pending) == ["k3", "k1", "k2"]

    def test_header_is_first_line(self, root):
        with RequestJournal(root) as j:
            j.accepted("k1", REQ)
        header = json.loads((root / "requests.jsonl").read_text().splitlines()[0])
        assert header["journal"] == "repro-service"


class TestCrashSafety:
    def _journal_with(self, root, tail_bytes):
        with RequestJournal(root) as j:
            j.accepted("k1", REQ)
            j.done("k1", RESP)
            j.accepted("k2", REQ)
        with open(root / "requests.jsonl", "ab") as fh:
            fh.write(tail_bytes)

    @pytest.mark.parametrize(
        "tail",
        [
            b'{"op": "accepted", "key": "k3", "requ',  # torn mid-line
            b'{"op": "accepted"}\n',                   # structurally torn
            b'{"op": "???", "key": "k3"}\n',           # unknown op
            b"\xff\xfe garbage\n",                     # not UTF-8 JSON
        ],
    )
    def test_torn_tail_is_truncated_not_fatal(self, root, tail):
        self._journal_with(root, tail)
        j = RequestJournal(root)
        pending, completed = j.load()
        assert pending == {"k2": REQ} and completed == {"k1": RESP}
        # Appending after the truncation keeps a well-formed journal.
        j.accepted("k3", REQ)
        j.close()
        pending, completed = RequestJournal(root).load()
        assert set(pending) == {"k2", "k3"}

    def test_unterminated_valid_json_is_torn(self, root):
        # Valid JSON but the crash ate the newline: fold must not trust it.
        self._journal_with(root, b'{"op": "done", "key": "k2", "response": {}}')
        pending, completed = RequestJournal(root).load()
        assert "k2" in pending and completed == {"k1": RESP}

    def test_foreign_header_rotates_stale(self, root):
        root.mkdir(parents=True)
        (root / "requests.jsonl").write_text(
            '{"journal": "repro-service", "version": 999, "schema": 1}\n'
            '{"op": "accepted", "key": "k1", "request": {}}\n'
        )
        assert RequestJournal(root).load() == ({}, {})
        assert (root / "requests.jsonl.stale").exists()


class TestUploadSpool:
    def test_spool_and_lookup(self, root):
        j = RequestJournal(root)
        dest = j.spool_upload("k1", b"RPRT-payload")
        assert dest.read_bytes() == b"RPRT-payload"
        assert j.upload_path("k1") == dest
        assert j.upload_path("k2") is None
        assert j.spool_bytes() == len(b"RPRT-payload")

    def test_spool_is_idempotent(self, root):
        j = RequestJournal(root)
        j.spool_upload("k1", b"first")
        j.spool_upload("k1", b"second would differ")
        # Content-keyed: identical key means identical payload, the
        # first durable copy wins.
        assert j.upload_path("k1").read_bytes() == b"first"

    def test_no_tmp_droppings(self, root):
        j = RequestJournal(root)
        j.spool_upload("k1", b"RPRT")
        assert list(j.uploads.glob("*.tmp*")) == []

    def test_load_reclaims_spool_files_no_pending_request_needs(self, root):
        with RequestJournal(root) as j:
            for key in ("done", "pending", "orphan"):
                j.spool_upload(key, b"RPRT")
            j.accepted("done", REQ)
            j.done("done", RESP)
            j.accepted("pending", REQ)
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        dead_tmp = root / "uploads" / f"pending.tmp.{proc.pid}"
        live_tmp = root / "uploads" / f"pending.tmp.{os.getpid()}"
        dead_tmp.write_bytes(b"torn")
        live_tmp.write_bytes(b"writing")
        j = RequestJournal(root)
        assert j.spool_bytes() == 3 * 4 + 4 + 7
        pending, _ = j.load()
        assert set(pending) == {"pending"}
        assert sorted(p.name for p in j.uploads.iterdir()) == sorted(
            ["pending.trc", live_tmp.name]
        )
        assert j.spool_bytes() == 4 + 7

    def test_drop_upload(self, root):
        j = RequestJournal(root)
        j.spool_upload("k1", b"RPRT")
        j.drop_upload("k1")
        j.drop_upload("k1")  # idempotent
        assert j.upload_path("k1") is None and j.spool_bytes() == 0
