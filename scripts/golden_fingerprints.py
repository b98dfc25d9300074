#!/usr/bin/env python
"""Check (default) or rewrite (``--write``) the golden report table.

Runs every case of ``tests/data/report_fingerprints.json`` live — the
120-case suite, the 8 chaos cases and the 13 PARSEC models under all
preset names plus ``nolib`` at their pinned seeds — and compares each
entry's report fingerprint, status, steps and event count with the
committed table.
It also checks the table against ``perfbench/golden.json`` on every
``workload|preset|seed`` key the two share (that file is only read).

Exits non-zero on any mismatch.  ``--write`` replaces the committed
table with the freshly computed one instead of checking it; do that
only for a deliberate semantic change, and say why in CHANGES.md.

    python scripts/golden_fingerprints.py           # check
    python scripts/golden_fingerprints.py --write   # regenerate
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from _smoke_common import REPO

from repro.harness.golden import (  # noqa: E402
    GOLDEN_PATH,
    compute_golden,
    diff_entries,
    load_golden,
    write_golden,
)

PERFBENCH_GOLDEN = REPO / "perfbench" / "golden.json"


def perfbench_mismatches(table) -> tuple:
    """(shared key count, problems) against perfbench's fingerprints."""
    if not PERFBENCH_GOLDEN.exists():
        return 0, []
    with open(PERFBENCH_GOLDEN) as fh:
        pinned = json.load(fh)["fingerprints"]
    shared = 0
    problems = []
    for key, entry in table.items():
        _, rest = key.split("|", 1)
        if rest in pinned:
            shared += 1
            if pinned[rest] != entry["fingerprint"]:
                problems.append(f"{key}: differs from perfbench/golden.json")
    return shared, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="rewrite the committed table"
    )
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    table = compute_golden()
    elapsed = time.perf_counter() - t0
    distinct = len({e["fingerprint"] for e in table.values()})
    print(f"computed {len(table)} entries ({distinct} distinct reports) in {elapsed:.1f}s")
    shared, problems = perfbench_mismatches(table)
    print(f"{shared} key(s) shared with perfbench/golden.json")
    if args.write:
        write_golden(table)
        print(f"wrote {GOLDEN_PATH}")
    else:
        committed = load_golden()
        for key in sorted(set(committed) | set(table)):
            if key not in table or key not in committed:
                problems.append(f"{key}: present on one side only")
                continue
            diffs = diff_entries(committed[key], table[key])
            if diffs:
                problems.append(f"{key}: " + "; ".join(diffs))
    for line in problems:
        print(f"FAIL: {line}")
    print(f"{len(problems)} mismatch(es)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
