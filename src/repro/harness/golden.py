"""Absolute golden report fingerprints.

``tests/data/report_fingerprints.json`` pins, for every case of the
120-case dr_test suite, the 8 chaos cases and the 13 PARSEC models under
every :meth:`ToolConfig.presets` name plus ``nolib`` (:data:`NOLIB`) at
the case's pinned seed, what a live run produces:
``sha256(Report.fingerprint())`` plus the run's ``status``, ``steps``
and delivered ``events``.  The table is the reference every execution
path is checked against — live, replay, sweep and benchmark runs alike —
so a change to the verdicts shows up as a mismatch instead of passing
as long as two paths agree.

Keys are ``family|workload|preset|seed``.  Regenerate the table only on
purpose, with ``python scripts/golden_fingerprints.py --write``.  The
table lives with the tests, so an installed package has none:
:func:`load_golden` then returns an empty table and every run is
unpinned.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.detectors import ToolConfig
from repro.harness.workload import Workload
from repro.vm.faults import FaultPlan

GOLDEN_PATH = (
    Path(__file__).resolve().parents[3] / "tests" / "data" / "report_fingerprints.json"
)

#: lib interception off and no ad-hoc engine: not a paper configuration
#: and not a preset, but the only config that delivers library-internal
#: traffic without the spin feature, so the table pins it as ``nolib``.
NOLIB = replace(ToolConfig.helgrind_nolib_spin(7), spin=False, name="Helgrind+ nolib")


@dataclass(frozen=True)
class GoldenCase:
    """One pinned (workload, seed, fault plan) cell of the table."""

    family: str
    name: str
    workload: Workload
    seed: int
    fault_plan: Optional[FaultPlan] = None
    livelock_bound: Optional[int] = None


def golden_cases() -> List[GoldenCase]:
    """Every case the table pins, suite first, then chaos, then PARSEC."""
    from repro.harness.registry import resolve_workload
    from repro.workloads import build_suite, parsec_workloads
    from repro.workloads.dr_test.faults import chaos_cases

    cases = [GoldenCase("suite", wl.name, wl, wl.seed) for wl in build_suite()]
    cases += [
        GoldenCase(
            "chaos", c.name, resolve_workload(c.workload), c.seed, c.plan, c.livelock_bound
        )
        for c in chaos_cases()
    ]
    cases += [GoldenCase("parsec", wl.name, wl, wl.seed) for wl in parsec_workloads()]
    return cases


def golden_key(family: str, name: str, preset: str, seed: int) -> str:
    return f"{family}|{name}|{preset}|{seed}"


def golden_entry(outcome) -> Dict[str, object]:
    """The pinned surface of one :class:`~repro.harness.runner.RunOutcome`."""
    return {
        "fingerprint": hashlib.sha256(outcome.report.fingerprint().encode()).hexdigest(),
        "status": outcome.result.status,
        "steps": outcome.steps,
        "events": outcome.events,
    }


def config_groups() -> Dict[ToolConfig, List[str]]:
    """Distinct pinned configs -> the key names that alias them."""
    groups: Dict[ToolConfig, List[str]] = {}
    for name in ToolConfig.presets():
        groups.setdefault(ToolConfig.preset(name), []).append(name)
    groups.setdefault(NOLIB, []).append("nolib")
    return groups


def compute_golden(
    cases: Optional[Sequence[GoldenCase]] = None,
) -> Dict[str, Dict[str, object]]:
    """Run every case live under every pinned config; aliases share one run."""
    from repro.harness.runner import run_workload

    table: Dict[str, Dict[str, object]] = {}
    groups = config_groups()
    for case in cases if cases is not None else golden_cases():
        for config, names in groups.items():
            entry = golden_entry(
                run_workload(
                    case.workload,
                    config,
                    seed=case.seed,
                    fault_plan=case.fault_plan,
                    livelock_bound=case.livelock_bound,
                )
            )
            for name in names:
                table[golden_key(case.family, case.name, name, case.seed)] = entry
    return dict(sorted(table.items()))


def load_golden() -> Dict[str, Dict[str, object]]:
    """The committed table (empty when absent, as in an installed package)."""
    if not GOLDEN_PATH.exists():
        return {}
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def write_golden(table: Dict[str, Dict[str, object]]) -> None:
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=1, sort_keys=True)
        fh.write("\n")


def diff_entries(expected: Dict[str, object], actual: Dict[str, object]) -> List[str]:
    """``field: expected != actual`` for each differing field."""
    return [
        f"{f}: {expected.get(f)!r} != {actual.get(f)!r}"
        for f in sorted(set(expected) | set(actual))
        if expected.get(f) != actual.get(f)
    ]
