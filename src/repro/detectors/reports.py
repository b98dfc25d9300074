"""Race warnings and the racy-context metric.

A *racy context* follows the paper's PARSEC evaluation unit: a distinct
``(data symbol, unordered pair of code locations)`` combination.  Like
Helgrind, reporting is capped at 1000 distinct contexts per run (the
"1000" cells in the paper's tables are this cap being hit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Set, Tuple

from repro.isa.program import CodeLocation

CONTEXT_CAP = 1000


@dataclass(frozen=True)
class AccessInfo:
    """One side of a racy access pair."""

    tid: int
    loc: CodeLocation
    is_write: bool
    atomic: bool = False


@dataclass(frozen=True)
class RaceWarning:
    """A reported (potential) data race."""

    addr: int
    symbol: str
    prev: AccessInfo
    cur: AccessInfo
    kind: str  # "write-write", "write-read", "read-write"

    @property
    def base_symbol(self) -> str:
        """Symbol without the ``+offset`` suffix (the variable's name)."""
        return self.symbol.split("+", 1)[0]

    def context_key(self, granularity: str = "symbol") -> Tuple[str, FrozenSet[str]]:
        """Context identity for deduplication.

        ``symbol`` granularity collapses all elements of an array/struct
        into one variable (Helgrind-style reporting); ``address`` keeps
        each element distinct (DRD-style reporting).  The granularity
        difference is what makes DRD's racy-context counts explode on
        array-heavy PARSEC programs in the paper's tables while
        Helgrind+ stays in the tens-to-hundreds.
        """
        name = self.base_symbol if granularity == "symbol" else self.symbol
        return (name, frozenset((str(self.prev.loc), str(self.cur.loc))))

    def __str__(self) -> str:
        return (
            f"race[{self.kind}] on {self.symbol} (addr {hex(self.addr)}): "
            f"T{self.prev.tid}@{self.prev.loc}"
            f"{'W' if self.prev.is_write else 'R'} vs "
            f"T{self.cur.tid}@{self.cur.loc}"
            f"{'W' if self.cur.is_write else 'R'}"
        )


class Report:
    """Collects warnings, deduplicating by racy context, capped at 1000."""

    def __init__(
        self, tool: str = "", cap: int = CONTEXT_CAP, granularity: str = "symbol"
    ) -> None:
        self.tool = tool
        self.cap = cap
        self.granularity = granularity
        self.warnings: List[RaceWarning] = []
        self.contexts: Set[Tuple[str, FrozenSet[str]]] = set()
        #: total warning submissions, including beyond-cap and duplicates
        self.raw_count = 0
        #: the event stream was truncated (fault/livelock/step budget):
        #: warnings are sound for the observed prefix but not exhaustive
        self.partial = False
        #: finalize-time diagnostics (e.g. a component that failed to
        #: finalize cleanly on a faulted stream)
        self.notes: List[str] = []

    def add(self, warning: RaceWarning) -> bool:
        """Record ``warning``; returns True if it opened a new context."""
        self.raw_count += 1
        key = warning.context_key(self.granularity)
        if key in self.contexts:
            return False
        if len(self.contexts) >= self.cap:
            return False
        self.contexts.add(key)
        self.warnings.append(warning)
        return True

    @property
    def racy_contexts(self) -> int:
        """The paper's 'Racy Contexts' metric for this run."""
        return len(self.contexts)

    @property
    def reported_base_symbols(self) -> Set[str]:
        return {w.base_symbol for w in self.warnings}

    def warnings_for(self, base_symbol: str) -> List[RaceWarning]:
        return [w for w in self.warnings if w.base_symbol == base_symbol]

    def summary(self) -> str:
        suffix = " (partial stream)" if self.partial else ""
        lines = [f"[{self.tool}] {self.racy_contexts} racy context(s){suffix}"]
        lines.extend(f"  {w}" for w in self.warnings[:20])
        if len(self.warnings) > 20:
            lines.append(f"  ... and {len(self.warnings) - 20} more")
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """Canonical serialization of everything the report contains.

        Two runs produced identical reports iff their fingerprints are
        byte-equal: every warning field in emission order, the context
        set (sorted), the raw submission count, the partial flag, and
        the finalize notes.  ``tests/data/report_fingerprints.json`` pins
        the sha256 of this string for every suite, chaos and PARSEC case
        under every preset (and ``nolib``), so live, replay, streaming and
        sharded runs are all checked against absolute values.
        """
        contexts = sorted((name, tuple(sorted(locs))) for name, locs in self.contexts)
        return repr(
            (
                self.tool,
                self.granularity,
                [repr(w) for w in self.warnings],
                contexts,
                self.raw_count,
                self.partial,
                list(self.notes),
            )
        )

    def memory_words(self) -> int:
        return 8 * len(self.warnings) + 4 * len(self.contexts)
