"""Every run must reproduce the committed golden report table.

``tests/data/report_fingerprints.json`` pins, per (case, preset), the
sha256 of :meth:`Report.fingerprint` plus the live run's status, step
count and delivered event count (see :mod:`repro.harness.golden`).  The
120 suite cases and the 8 chaos cases re-run live under each *distinct*
pinned config — the presets plus ``nolib`` (aliases such as
``lockset``/``eraser`` resolve to one config and share a run) — and
must match every field.  The 13 PARSEC models are recorded once each
and analysed under every pinned config, which
checks fingerprint, status and steps at a fraction of the live cost; a
replay delivers fewer bookkeeping events than a live run, so their event
counts are checked by ``python scripts/golden_fingerprints.py`` (which
also regenerates the table, with ``--write``) and by the F3 benchmark.
"""

import hashlib

import pytest

from repro.harness.golden import (
    compute_golden,
    config_groups,
    diff_entries,
    golden_cases,
    golden_key,
    load_golden,
)
from repro.trace import analyze_trace, record_trace

CASES = golden_cases()
LIVE = [c for c in CASES if c.family != "parsec"]
PARSEC = [c for c in CASES if c.family == "parsec"]


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def test_table_covers_every_case_and_config(golden):
    names = [n for group in config_groups().values() for n in group]
    expected = {golden_key(c.family, c.name, n, c.seed) for c in CASES for n in names}
    assert set(golden) == expected
    assert len(golden) == 141 * 9


def test_aliases_pin_one_entry(golden):
    for case in CASES:
        for names in config_groups().values():
            entries = [golden[golden_key(case.family, case.name, n, case.seed)] for n in names]
            assert all(e == entries[0] for e in entries), (case.name, names)


@pytest.mark.parametrize("case", LIVE, ids=lambda c: f"{c.family}-{c.name}")
def test_live_runs_match_golden(case, golden):
    problems = [
        f"{key}: " + "; ".join(diffs)
        for key, entry in compute_golden([case]).items()
        for diffs in [diff_entries(golden[key], entry)]
        if diffs
    ]
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("case", PARSEC, ids=lambda c: f"{c.family}-{c.name}")
def test_parsec_replays_match_golden(case, golden):
    groups = config_groups()
    trace = record_trace(
        case.workload.fresh_program(),
        seed=case.seed,
        max_steps=case.workload.max_steps,
        max_blocks=max([8, *(c.spin_max_blocks for c in groups)]),
    )
    problems = []
    for config, names in groups.items():
        report = analyze_trace(trace, config).report
        actual = {
            "fingerprint": hashlib.sha256(report.fingerprint().encode()).hexdigest(),
            "status": trace.status,
            "steps": trace.steps,
        }
        expected = golden[golden_key(case.family, case.name, names[0], case.seed)]
        diffs = diff_entries({f: expected[f] for f in actual}, actual)
        if diffs:
            problems.append(f"{names[0]}: " + "; ".join(diffs))
    assert not problems, f"{case.name}:\n" + "\n".join(problems)
