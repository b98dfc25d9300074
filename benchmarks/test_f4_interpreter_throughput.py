"""F4 — interpreter throughput: the pre-decoded threaded-code VM.

Runs the 13 PARSEC stand-ins bare (no detector) at each workload's
pinned seed and reports steps per second.  Every run's status and step
count must match the golden table (``tests/data/report_fingerprints.json``).
Results are written to ``BENCH_interpreter.json`` (set
``REPRO_BENCH_OUT=`` to skip) and compared against the committed copy
when one exists: a >30% steps/sec regression against the committed
``steps``/``decoded_s`` columns fails the run.

``REPRO_PERF_SUBSET=N`` caps the sweep at N workloads for the CI
perf-smoke job; the regression gate and the golden check always apply.
"""

import os

from repro.harness.perf import (
    interpreter_summary,
    load_interpreter_baseline,
    measure_interpreter,
    write_interpreter_bench,
)
from repro.harness.tables import format_table

from benchmarks.conftest import run_once

BASELINE = os.path.join(os.path.dirname(__file__), "..", "BENCH_interpreter.json")


def _subset():
    raw = os.environ.get("REPRO_PERF_SUBSET", "")
    return int(raw) if raw else 0


def test_f4_interpreter_throughput(benchmark, parsec13):
    subset = _subset()
    parsec = parsec13[:subset] if subset else parsec13

    def sweep():
        # min-of-5: bare runs are short, so squeeze the timer noise hard.
        return {"parsec": measure_interpreter(parsec, repeats=5)}

    groups = run_once(benchmark, sweep)
    rows = groups["parsec"]
    s = interpreter_summary(rows)

    print()
    print(
        format_table(
            ["Workload", "Steps", "steps/s"],
            [[r.workload, r.steps, f"{r.steps_per_s:.0f}"] for r in rows],
            title=f"F4 PARSEC — interpreter throughput "
            f"({s['steps_per_s']:.0f} steps/s, one-time decode {s['decode_s']:.3f}s)",
        )
    )
    benchmark.extra_info["parsec_steps_per_s"] = round(s["steps_per_s"], 1)

    # Every run is pinned by the golden table.
    unmatched = [(r.workload, r.golden_match) for r in rows if r.golden_match is not True]
    assert not unmatched, f"runs differ from (or missing in) golden: {unmatched}"

    out = os.environ.get("REPRO_BENCH_OUT", None)
    if out is None:
        out = BASELINE if not subset else ""
    baseline = load_interpreter_baseline(BASELINE)
    if out:
        write_interpreter_bench(out, groups)
        print(f"wrote {os.path.abspath(out)}")

    # Regression gate vs the committed baseline: >30% steps/sec drop
    # fails.  The baseline throughput is recomputed over exactly the rows
    # measured this run, so the subset CI job compares the same workload
    # mix as the committed full sweep.
    committed = _baseline_throughput(baseline, "parsec", rows)
    if committed is not None:
        current = s["steps_per_s"]
        benchmark.extra_info["baseline_steps_per_s"] = round(committed, 1)
        assert current >= 0.7 * committed, (
            f"interpreter throughput regressed >30%: "
            f"{current:.0f} steps/s vs committed {committed:.0f} steps/s"
        )


def _baseline_throughput(baseline, group, measured_rows):
    """Committed steps/sec over the measured workload rows.

    Returns ``None`` when there is no committed baseline covering them.
    """
    if not baseline:
        return None
    wanted = {r.workload for r in measured_rows}
    steps = decoded_s = 0.0
    hits = 0
    for row in baseline.get("rows", ()):
        if row.get("group") == group and row["workload"] in wanted:
            steps += row["steps"]
            decoded_s += row["decoded_s"]
            hits += 1
    if hits < len(wanted) or decoded_s <= 0:
        return None
    return steps / decoded_s
