"""Runner, table formatting, and perf measurement."""

from repro.detectors import ToolConfig
from repro.harness.perf import measure_overhead, overhead_summary
from repro.harness.runner import run_bare, run_workload
from repro.harness.tables import contexts_table, format_table, suite_table
from repro.harness.workload import Workload

from tests.conftest import flag_handoff_program


def _wl(seed=1):
    return Workload(name="handoff", build=flag_handoff_program, seed=seed)


class TestRunner:
    def test_run_workload_outcome_fields(self):
        out = run_workload(_wl(), ToolConfig.helgrind_lib_spin(7))
        assert out.ok
        assert out.steps > 0
        assert out.events > 0
        assert out.detector_words > 0
        assert out.imap_words > 0
        assert out.spin_loops >= 1  # the consumer loop + library loops
        assert out.adhoc_edges >= 1
        assert out.duration_s >= 0

    def test_no_instrumentation_without_spin(self):
        out = run_workload(_wl(), ToolConfig.helgrind_lib())
        assert out.imap_words == 0
        assert out.spin_loops == 0
        assert out.adhoc_edges == 0

    def test_seed_override(self):
        a = run_workload(_wl(seed=1), ToolConfig.drd(), seed=9)
        assert a.seed == 9

    def test_run_bare(self):
        assert run_bare(_wl()) >= 0

    def test_instrumentation_phase_is_timed(self):
        """Regression: the spin configuration pays a static analysis pass
        before execution; it must be measured, not silently dropped."""
        out = run_workload(_wl(), ToolConfig.helgrind_lib_spin(7))
        assert out.instrument_s > 0
        assert out.total_s == out.duration_s + out.instrument_s

    def test_no_instrumentation_time_without_spin(self):
        out = run_workload(_wl(), ToolConfig.helgrind_lib())
        assert out.instrument_s == 0
        assert out.total_s == out.duration_s


class TestTables:
    def test_format_alignment(self):
        text = format_table(["A", "BBBB"], [[1, 2], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(l) == len(lines[1]) for l in lines[1:])

    def test_float_formatting(self):
        text = format_table(["x"], [[1.0], [2.55]])
        assert "1" in text and "2.5" in text and "1.0" not in text

    def test_suite_table(self):
        rows = [
            {
                "tool": "t",
                "false_alarms": 1,
                "missed_races": 2,
                "failed": 3,
                "correct": 117,
            }
        ]
        text = suite_table(rows, "T1")
        assert "117" in text and "Tool" in text

    def test_contexts_table_with_meta(self):
        data = {"prog": {"A": 1.0, "B": 1000.0}}
        meta = {"prog": {"model": "POSIX", "instructions": 42}}
        text = contexts_table(data, ["A", "B"], "T4", meta)
        assert "POSIX" in text and "1000" in text and "42" in text


class TestPerf:
    def test_measure_overhead_row_fields(self):
        rows = measure_overhead([_wl()], repeats=1)
        assert len(rows) == 1
        row = rows[0]
        assert row.lib_words > 0
        assert row.spin_words > 0
        # The spin feature's footprint change is small in either direction:
        # marker tables and engine state add words, while suppressed flag
        # accesses and eliminated warnings remove shadow/report words.
        assert 0.5 < row.memory_overhead < 2.0
        assert row.runtime_overhead > 0

    def test_overhead_includes_instrumentation_phase(self):
        """Regression: the runtime-overhead figure (slide 32) must charge
        the spin configuration for its instrumentation phase."""
        rows = measure_overhead([_wl()], repeats=1)
        row = rows[0]
        assert row.spin_instr_s > 0
        assert row.spin_total_s == row.spin_s + row.spin_instr_s
        expected = row.spin_total_s / row.lib_total_s
        assert abs(row.runtime_overhead - expected) < 1e-12
        # the instrumented configuration is strictly more expensive than
        # its machine+detector time alone
        assert row.spin_total_s > row.spin_s

    def test_overhead_summary(self):
        rows = measure_overhead([_wl()], repeats=1)
        summary = overhead_summary(rows)
        assert 0.5 < summary["memory"] < 2.0
        assert summary["runtime"] > 0

    def test_empty_summary_is_nan(self):
        import math

        s = overhead_summary([])
        assert math.isnan(s["memory"]) and math.isnan(s["runtime"])


class TestGoldenPinnedThroughput:
    """F3/F4 check every measured run against the golden table, and
    still run (every row unpinned) where the table is absent, as in an
    installed package."""

    ARGS = ["--limit", "1", "--repeats", "1", "--out", ""]

    def _run(self, capsys):
        from repro.harness.cli import main

        codes = [main(["f3", *self.ARGS]), main(["f4", *self.ARGS])]
        return codes, capsys.readouterr().out

    def test_rows_match_the_committed_table(self, capsys):
        codes, out = self._run(capsys)
        assert codes == [0, 0]
        assert out.count("0 golden mismatch(es), 0 unpinned") == 3

    def test_rows_are_unpinned_without_the_table(self, capsys, monkeypatch, tmp_path):
        import repro.harness.golden as golden

        monkeypatch.setattr(golden, "GOLDEN_PATH", tmp_path / "absent.json")
        codes, out = self._run(capsys)
        assert codes == [0, 0]
        assert out.count("0 golden mismatch(es), 2 unpinned") == 2  # F3 groups
        assert "0 golden mismatch(es), 1 unpinned" in out  # F4
