"""Pure lockset analysis — the paper's background baseline (slides 8-10).

Slide 8 states the algorithm exactly:

    "The lockset for a variable is initially set to all locks occurring
     in the program.  Whenever a variable is accessed, remove all locks
     from the variable's lockset that are not currently protecting the
     variable.  When the lockset is empty, issue a warning."

Slide 9 walks a refinement run ({m1,m2,...} -> {m1} -> {m1} -> {}), and
slide 10 shows the algorithm's fundamental false positive: it cannot
represent signal/wait ordering at all.

This is the *original* (Eraser v1 / slide) semantics: candidate sets are
refined from the very first access, with no Exclusive-state grace
period.  Two pragmatic gates keep single-threaded code quiet — a
warning requires that at least two distinct threads touched the
variable and that a write is involved in the conflicting pair — but the
famous v1 behaviours remain: it false-positives on unlocked
initialization and on every signal/wait protocol, and it misses nothing
a lock should have covered, in *any* schedule.

Exposed as ``ToolConfig.eraser()`` for background comparisons.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set

from repro.isa.program import CodeLocation
from repro.detectors.base import VectorClockAlgorithm
from repro.detectors.reports import AccessInfo, RaceWarning


class _EraserCell:
    __slots__ = ("lockset", "tids", "saw_write", "last", "reported")

    def __init__(self) -> None:
        self.lockset: Optional[FrozenSet[int]] = None  # None = all locks
        self.tids: Set[int] = set()
        self.saw_write = False
        self.last: Optional[AccessInfo] = None
        self.reported: Set[str] = set()


class EraserAlgorithm(VectorClockAlgorithm):
    """Classic lockset refinement; ignores every non-lock sync operation.

    Subclasses :class:`VectorClockAlgorithm` for the lock-tracking and
    reporting plumbing but replaces the access logic entirely — no
    vector clocks are consulted.
    """

    locks_as_hb = False
    name = "eraser"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._cells: Dict[int, _EraserCell] = {}

    # Non-lock synchronization is invisible to pure lockset analysis.
    def spawn(self, parent: int, child: int) -> None:  # noqa: D102
        pass

    def join(self, waiter: int, exited: int) -> None:  # noqa: D102
        pass

    def signal(self, tid: int, obj: int) -> None:  # noqa: D102
        pass

    def wait_return(self, tid: int, obj: int) -> None:  # noqa: D102
        pass

    def barrier_enter(self, tid: int, obj: int) -> None:  # noqa: D102
        pass

    def barrier_leave(self, tid: int, obj: int) -> None:  # noqa: D102
        pass

    def sem_post(self, tid: int, obj: int) -> None:  # noqa: D102
        pass

    def sem_wait_return(self, tid: int, obj: int) -> None:  # noqa: D102
        pass

    def _eraser_cell(self, addr: int) -> _EraserCell:
        cell = self._cells.get(addr)
        if cell is None:
            cell = _EraserCell()
            self._cells[addr] = cell
        return cell

    def _access(
        self, tid: int, addr: int, loc: CodeLocation, is_write: bool, atomic: bool
    ) -> None:
        if self.suppressor is not None and self.suppressor(addr):
            return
        self.accesses_checked += 1
        cell = self._eraser_cell(addr)
        me = AccessInfo(tid, loc, is_write, atomic)

        # Slide 8: refine the candidate set on every access.
        held = self._locks(tid)
        cell.lockset = held if cell.lockset is None else (cell.lockset & held)
        cell.tids.add(tid)
        cell.saw_write = cell.saw_write or is_write

        pair_has_write = is_write or (cell.last is not None and cell.last.is_write)
        both_atomic = atomic and cell.last is not None and cell.last.atomic
        violating = (
            not cell.lockset
            and len(cell.tids) >= 2
            and cell.saw_write
            and pair_has_write
            and not both_atomic
            and cell.last is not None
            and cell.last.tid != tid
        )
        if violating:
            kind = (
                "write-write"
                if is_write and cell.last.is_write
                else ("write-read" if cell.last.is_write else "read-write")
            )
            # Dedup on the *unordered* location pair plus access kind:
            # the same conflicting pair must not be reported a second
            # time just because the two threads' access orders swapped.
            pair = "|".join(sorted((str(cell.last.loc), str(loc))))
            key = f"{pair}|{'ww' if kind == 'write-write' else 'rw'}"
            if key not in cell.reported:
                cell.reported.add(key)
                self.report.add(
                    RaceWarning(
                        addr=addr,
                        symbol=self.symbolize(addr),
                        prev=cell.last,
                        cur=me,
                        kind=kind,
                    )
                )
        cell.last = me

    def read(self, tid: int, addr: int, loc: CodeLocation, atomic: bool) -> None:
        self._access(tid, addr, loc, False, atomic)
        # Keep the shadow write history for the ad-hoc engine's matching.

    def write(
        self, tid: int, addr: int, value: int, loc: CodeLocation, atomic: bool
    ) -> None:
        self._access(tid, addr, loc, True, atomic)
        t = self.thread(tid)
        self._record_write(t, self._cell(addr), value, loc, atomic, self._locks(tid))
        t.tick()

    def memory_words(self) -> int:
        words = super().memory_words()
        for cell in self._cells.values():
            words += 4 + (len(cell.lockset) if cell.lockset else 0)
            words += len(cell.reported)
        return words
