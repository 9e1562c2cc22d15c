"""Read Guard: monitors the AR/R channels (paper §II-A, Figs. 1-2, 5).

Mirrors the Write Guard for the read direction: four phases in the
Full-Counter variant (``ARVLD_ARRDY``, ``ARRDY_RVLD``, ``RVLD_RRDY``,
``RVLD_RLAST``) or a single ``ARVALID→RLAST`` span in the Tiny-Counter
variant.  The AR channel, the phase step and the completion are
:class:`~repro.tmu.guard.GuardBase`'s; this module keeps the R channel:
beats are routed to the head of their ID's FIFO, honouring AXI4's
same-ID ordering, and mismatched or unrequested R IDs are flagged.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..axi.types import AxiDir
from ..sim.signal import Channel
from .events import FaultEvent, FaultKind
from .guard import GuardBase
from .ott import LdEntry
from .phases import ReadPhase, TxnSpan


class ReadGuard(GuardBase):
    """Per-cycle observer of the read channels on the device side."""

    direction = AxiDir.READ
    addr_channel = "ar"
    SPAN = TxnSpan.READ
    ADDR_PHASE = ReadPhase.AR_HANDSHAKE
    ENTRY_PHASE = ReadPhase.R_ENTRY

    def _phase_budget(self, phase, beats, queued=0):
        return self.budgets.read_phase_budget(phase, beats, queued)

    # ------------------------------------------------------------------
    # Main per-cycle observation
    # ------------------------------------------------------------------
    def observe(
        self,
        ar: Channel,
        r: Channel,
        cycle: int,
        orig_id_of: Optional[Callable[[int], int]] = None,
    ) -> List[FaultEvent]:
        """Digest one settled cycle of the read channels."""
        edge = self.prescaler.advance()
        events: List[FaultEvent] = []
        self._observe_addr(ar, cycle, events, orig_id_of)
        self._observe_r(r, cycle, events)
        self._tick_counters(edge, cycle, events)
        return events

    # ------------------------------------------------------------------
    # R: data beats routed to the per-ID FIFO head
    # ------------------------------------------------------------------
    def _observe_r(self, r: Channel, cycle, events) -> None:
        valid = bool(r.valid._value)
        fired = r.fired()
        if self.stab_resp.check(valid, r.ready._value):
            events.append(
                self._event(
                    FaultKind.HANDSHAKE_VIOLATION,
                    ReadPhase.R_DATA,
                    cycle,
                    detail="r_valid deasserted before r_ready",
                )
            )
        if not valid:
            self._edge("r_unreq", False)
            return
        beat = r.payload._value
        head = self.ott.head_of(beat.id)
        if head is None:
            if self._edge("r_unreq", True):
                events.append(
                    self._event(
                        FaultKind.UNREQUESTED_RESPONSE,
                        ReadPhase.R_DATA,
                        cycle,
                        detail=f"R beat with untracked ID {beat.id}",
                    )
                )
            return
        if not self.tiny:
            if head.state == ReadPhase.R_ENTRY:
                self._advance(head, ReadPhase.R_FIRST_HS, cycle)
            if head.state == ReadPhase.R_FIRST_HS and fired:
                self._advance(head, ReadPhase.R_DATA, cycle)
        if fired:
            self._count_r_beat(head, beat, cycle, events)

    def _count_r_beat(self, head: LdEntry, beat, cycle, events) -> None:
        head.beats_seen += 1
        if beat.resp.is_error and self._edge(f"r_err_{head.index}", True):
            events.append(
                self._event(
                    FaultKind.ERROR_RESPONSE,
                    head.state,
                    cycle,
                    entry=head,
                    detail=f"subordinate returned {beat.resp.name}",
                )
            )
        if beat.last:
            if head.beats_seen != head.beats:
                events.append(
                    self._event(
                        FaultKind.WRONG_LAST,
                        head.state,
                        cycle,
                        entry=head,
                        detail=(
                            f"r_last after {head.beats_seen} beats, "
                            f"expected {head.beats}"
                        ),
                    )
                )
            self._complete(head, cycle)
            self._edge_state.pop(f"r_err_{head.index}", None)
        elif head.beats_seen >= head.beats:
            events.append(
                self._event(
                    FaultKind.WRONG_LAST,
                    head.state,
                    cycle,
                    entry=head,
                    detail=(
                        f"beat {head.beats_seen} of {head.beats} without r_last"
                    ),
                )
            )
