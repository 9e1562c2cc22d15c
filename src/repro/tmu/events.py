"""Fault and error event records produced by the TMU.

Every detected anomaly becomes a :class:`FaultEvent` appended to the
guard's error log (the paper's "detailed error logs for performance and
bottleneck analysis").  Events carry enough context — direction, phase,
transaction metadata, detection cycle — for the benches to compute
detection latencies exactly as Figs. 9 and 11 report them.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Optional, Union

from ..axi.types import AxiDir
from ..sim.component import RegisteredState
from .phases import ReadPhase, TxnSpan, WritePhase

PhaseLike = Union[WritePhase, ReadPhase, TxnSpan]


class FaultKind(enum.Enum):
    """Classes of anomaly the TMU distinguishes."""

    TIMEOUT = "timeout"
    HANDSHAKE_VIOLATION = "handshake_violation"
    ID_MISMATCH = "id_mismatch"
    UNREQUESTED_RESPONSE = "unrequested_response"
    WRONG_LAST = "wrong_last"
    ERROR_RESPONSE = "error_response"


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One detected fault, as recorded in the TMU error log."""

    kind: FaultKind
    direction: AxiDir
    phase: Optional[PhaseLike]
    detect_cycle: int
    txn_id: Optional[int] = None
    orig_id: Optional[int] = None
    addr: Optional[int] = None
    detail: str = ""

    @property
    def phase_label(self) -> str:
        return self.phase.label if self.phase is not None else "-"

    def __str__(self) -> str:  # pragma: no cover - human-readable log line
        where = f"id={self.txn_id}" if self.txn_id is not None else "front"
        return (
            f"[cycle {self.detect_cycle}] {self.kind.value} "
            f"{self.direction.value} phase={self.phase_label} {where} "
            f"{self.detail}".rstrip()
        )


class ErrorLog(RegisteredState):
    """Bounded FIFO of fault events (hardware error-log model)."""

    registered = {"_events": list, "dropped": 0}

    def __init__(self, depth: int = 32) -> None:
        self.depth = depth
        self.reset()

    def push(self, event: FaultEvent) -> None:
        if len(self._events) >= self.depth:
            self.dropped += 1
            return
        self._events.append(event)

    def pop(self) -> Optional[FaultEvent]:
        if not self._events:
            return None
        return self._events.pop(0)

    def peek_all(self) -> List[FaultEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    clear = RegisteredState.reset
