"""Self-test of the benchmark at a tiny size.

Run from the root of a source checkout: ``python3 perfbench/selftest.py``.
It runs every workload on two cells with one set-up and a 10 ms timed
phase (one round, or two when the cells are fast), then the traced
pass, and checks that every metric ``BENCHMARK.json`` names is
reported.  It then corrupts one golden entry and checks that the cell
using it counts as a failed operation with a wrong output.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import bench

LIMIT = 2


def main() -> int:
    sys.path.insert(0, str(bench.ROOT / "src"))
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    expect({w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS),
           "BENCHMARK.json names only the benchmark's workloads")
    golden = bench.load_golden()
    work_root = bench.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work_root, ignore_errors=True)
    try:
        for name in bench.WORKLOADS:
            result = bench.measure(name, golden, work_root / name, 1, 0.01,
                                   limit=LIMIT, setups=1)
            metrics = bench.end_to_end_metrics(result, 0.0)
            tally = result["tally"]
            expect(
                {k: m["unit"] for k, m in metrics.items()} == end_to_end
                and all(math.isfinite(m["value"]) and m["value"] > 0
                        for m in metrics.values()),
                f"{name}: every end-to-end metric reported, finite and positive",
            )
            expect(tally.attempted > 0 and tally.wrong == 0,
                   f"{name}: {tally.attempted} operations, no wrong output")

        layers, breakdown, tally = bench.traced_run(golden, work_root / "traced", 1,
                                                    limit=LIMIT)
        expect({k: u for k, (_v, u) in layers.items()} == per_layer,
               "traced run reports exactly the per-layer metrics")
        expect(set(breakdown) == set(bench.IN_PROCESS),
               "traced run breaks layers down by in-process workload")
        expect(tally.wrong == 0, "traced run reproduces the golden fingerprints")

        corrupted = dict(golden)
        from repro.workloads import parsec_workloads

        first = parsec_workloads()[0]
        corrupted[bench.golden_key(first.name, bench.TOOL, first.seed)] = "0" * 64
        result = bench.measure("parsec-live", corrupted, work_root / "corrupt", 1, 0.01,
                               limit=1, setups=1)
        tally = result["tally"]
        expect(tally.attempted >= 2 and tally.failed == tally.attempted == tally.wrong,
               "a corrupted golden entry fails the cell in warm-up and in every round")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
