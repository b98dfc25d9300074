"""F3 — analysis-pipeline throughput on the live path.

Sweeps the 120-case dr_test suite and the 13 PARSEC stand-ins under
``helgrind-lib`` (spin off) and ``helgrind-lib-spin7`` (spin on) at each
workload's pinned seed.  Throughput is events per second of *analysis
time* (detector wall-clock minus the bare interpreter baseline — the F2
accounting).  Every measured report must match the golden table
(``tests/data/report_fingerprints.json``).  Results are written to
``BENCH_pipeline.json`` (set ``REPRO_BENCH_OUT=`` to skip) and compared
against the committed copy when one exists: more than 30% extra
wall-clock over the committed ``fast_s`` column fails the run.

``REPRO_PERF_SUBSET=N`` caps both sweeps at N workloads for the CI
perf-smoke job; the regression gate and the golden check always apply.
"""

import os

from repro.harness.perf import (
    load_pipeline_baseline,
    measure_pipeline,
    pipeline_summary,
    write_pipeline_bench,
)
from repro.harness.tables import format_table

from benchmarks.conftest import run_once

TOOLS = ("helgrind-lib", "helgrind-lib-spin")
BASELINE = os.path.join(os.path.dirname(__file__), "..", "BENCH_pipeline.json")


def _subset():
    raw = os.environ.get("REPRO_PERF_SUBSET", "")
    return int(raw) if raw else 0


def test_f3_pipeline_throughput(benchmark, suite120, parsec13):
    subset = _subset()
    suite = suite120[:subset] if subset else suite120
    parsec = parsec13[:subset] if subset else parsec13

    def sweep():
        # min-of-3: the analysis-time denominator is small relative to
        # interpreter wall-clock, so per-run timer noise needs squeezing
        # out before the subtraction.
        return {
            "t1_suite": measure_pipeline(suite, TOOLS, "suite", repeats=3),
            "parsec": measure_pipeline(parsec, TOOLS, "parsec", repeats=3),
        }

    groups = run_once(benchmark, sweep)

    print()
    for name, rows in groups.items():
        s = pipeline_summary(rows)
        print(
            format_table(
                ["Tool", "Workloads", "Events", "ev/s"],
                _tool_rows(rows),
                title=f"F3 {name} — pipeline throughput "
                f"({s['events_per_s']:.0f} ev/s of analysis time)",
            )
        )
        benchmark.extra_info[f"{name}_events_per_s"] = round(s["events_per_s"], 1)

    # Every measured report is pinned by the golden table.
    unmatched = [
        (r.workload, r.tool, r.golden_match)
        for rows in groups.values()
        for r in rows
        if r.golden_match is not True
    ]
    assert not unmatched, f"reports differ from (or missing in) golden: {unmatched}"

    out = os.environ.get("REPRO_BENCH_OUT", None)
    if out is None:
        out = BASELINE if not subset else ""
    baseline = load_pipeline_baseline(BASELINE)
    if out:
        write_pipeline_bench(out, groups)
        print(f"wrote {os.path.abspath(out)}")

    # Regression gate vs the committed baseline: >30% extra wall-clock on
    # the t1 suite fails.  The baseline is summed over exactly the rows
    # measured this run, so the subset CI job compares the same workload
    # mix as the committed full sweep.  Wall-clock (interpreter included)
    # is stable on small subsets, where analysis time is sub-noise.
    rows = groups["t1_suite"]
    committed = _baseline_seconds(baseline, "t1_suite", rows)
    if committed is not None:
        current = sum(r.fast_s for r in rows)
        benchmark.extra_info["baseline_wall_s"] = round(committed, 4)
        benchmark.extra_info["wall_s"] = round(current, 4)
        assert current * 0.7 <= committed, (
            f"pipeline wall-clock regressed >30%: "
            f"{current:.3f}s vs committed {committed:.3f}s"
        )


def _baseline_seconds(baseline, group, measured_rows):
    """Committed ``fast_s`` summed over the measured (workload, tool) rows.

    Returns ``None`` when there is no committed baseline covering them.
    """
    if not baseline:
        return None
    wanted = {(r.workload, r.tool) for r in measured_rows}
    total = 0.0
    hits = 0
    for row in baseline.get("rows", ()):
        if row.get("group") == group and (row["workload"], row["tool"]) in wanted:
            total += row["fast_s"]
            hits += 1
    if hits < len(wanted) or total <= 0:
        return None
    return total


def _tool_rows(rows):
    by_tool = {}
    for r in rows:
        by_tool.setdefault(r.tool, []).append(r)
    out = []
    for tool, tool_rows in by_tool.items():
        s = pipeline_summary(tool_rows)
        out.append([tool, len(tool_rows), s["events"], f"{s['events_per_s']:.0f}"])
    return out
