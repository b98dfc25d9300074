"""Call frames and per-thread interpreter state."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.isa.program import Function


class ThreadStatus(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED_JOIN = "blocked_join"
    EXITED = "exited"
    #: terminated by a kill-thread fault — never runs again, never wakes
    #: joiners, and abandons any locks it held
    KILLED = "killed"


@dataclass
class Frame:
    """One activation record."""

    function: Function
    block: str
    index: int = 0
    regs: Dict[str, int] = field(default_factory=dict)
    #: register in the *caller's* frame receiving our return value
    ret_dst: Optional[str] = None
    #: address of the annotated sync object if this frame is an annotated
    #: library call (captured at entry so LibExit can report it)
    sync_obj: Optional[int] = None
    #: second annotated object (the mutex of a ``cv_wait``)
    sync_obj2: Optional[int] = None
    #: this frame's current :class:`~repro.vm.decode.DecodedBlock` (set
    #: by the machine on frame creation); branch handlers re-point it on
    #: block transfers
    code: Optional[object] = None
    #: raw predicate forwarded from a ``Cmp`` to a fused ``Br`` in the
    #: same block (decode-time Cmp→Br fusion); meaningless otherwise
    cond_flag: bool = False


@dataclass
class ThreadState:
    """Interpreter state for one simulated thread."""

    tid: int
    frames: List[Frame] = field(default_factory=list)
    status: ThreadStatus = ThreadStatus.RUNNABLE
    #: tid this thread is blocked joining on (when BLOCKED_JOIN)
    join_target: Optional[int] = None
    #: nesting depth of ``is_library`` functions on the stack
    lib_depth: int = 0
    #: value returned by the thread's top-level function
    result: Optional[int] = None
    started: bool = False
    #: addresses of annotated locks currently held (acquire returned,
    #: release not yet entered) — drives crashed-holder diagnostics
    held_locks: Set[int] = field(default_factory=set)

    @property
    def frame(self) -> Frame:
        return self.frames[-1]

    @property
    def in_library(self) -> bool:
        return self.lib_depth > 0
