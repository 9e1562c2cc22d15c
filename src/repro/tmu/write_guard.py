"""Write Guard: monitors the AW/W/B channels (paper §II-A, Figs. 1-2).

The Write Guard tracks every outstanding write transaction through the
six phases of Fig. 4 (Full-Counter) or as one ``AWVALID→BRESP`` span
(Tiny-Counter, Fig. 6), and performs the four checks the architecture
diagrams name: **Timeout Check**, **Handshake Check**, **ID Match
Check**, and **Unrequested resp**.

The AW channel, the phase step and the completion are
:class:`~repro.tmu.guard.GuardBase`'s; this module keeps the write
direction's own channels: W beats, which carry no ID and so follow AW
order (the OTT's EI queue), and B responses, matched to the head of
their ID's queue.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..axi.types import AxiDir
from ..sim.signal import Channel
from .events import FaultEvent, FaultKind
from .guard import GuardBase
from .ott import LdEntry
from .phases import TxnSpan, WritePhase


class WriteGuard(GuardBase):
    """Per-cycle observer of the write channels on the device side."""

    direction = AxiDir.WRITE
    addr_channel = "aw"
    SPAN = TxnSpan.WRITE
    ADDR_PHASE = WritePhase.AW_HANDSHAKE
    ENTRY_PHASE = WritePhase.W_ENTRY

    def _phase_budget(self, phase, beats, queued=0):
        return self.budgets.write_phase_budget(phase, beats, queued)

    def unfinished_write_bursts(self) -> int:
        """Outstanding writes whose W burst has not yet seen ``w_last``.

        The fault-recovery path must keep accepting (and discarding) W
        beats for these — an AXI manager cannot abort a write burst
        midway, so the TMU drains them to avoid wedging the W channel.
        """
        return sum(
            1 for entry in self.ott.live_entries() if not entry.w_done
        )

    # ------------------------------------------------------------------
    # Burst streaming
    # ------------------------------------------------------------------
    def stream_horizon(self, limit: int) -> int:
        """Mid-burst beats, at most *limit*, the W target takes silently.

        The target must already be in its data phase (its first beat
        was observed), and the span stops before the beat that would be
        its last — ``w_last`` or a missing one is an event.
        """
        target = self.ott.ei_front()
        if target is None or target.state not in (
            WritePhase.W_DATA, TxnSpan.WRITE
        ):
            return 0
        return min(limit, target.beats - 1 - target.beats_seen)

    def stream(self, cycles: int) -> None:
        """Observe *cycles* mid-burst W beats in one call."""
        self.ott.ei_front().beats_seen += cycles
        self.catch_up(cycles)

    # ------------------------------------------------------------------
    # Main per-cycle observation
    # ------------------------------------------------------------------
    def observe(
        self,
        aw: Channel,
        w: Channel,
        b: Channel,
        cycle: int,
        orig_id_of: Optional[Callable[[int], int]] = None,
    ) -> List[FaultEvent]:
        """Digest one settled cycle of the write channels.

        Returns every fault event raised this cycle; the TMU top level
        decides (via :meth:`GuardBase.should_trip`) whether to enter the
        fault-recovery path.
        """
        edge = self.prescaler.advance()
        events: List[FaultEvent] = []
        self._observe_addr(aw, cycle, events, orig_id_of)
        self._observe_w(w, cycle, events)
        self._observe_b(b, cycle, events)
        self._tick_counters(edge, cycle, events)
        return events

    # ------------------------------------------------------------------
    # W: data-phase progression in AW (EI) order
    # ------------------------------------------------------------------
    def _observe_w(self, w: Channel, cycle, events) -> None:
        valid = bool(w.valid._value)
        fired = w.fired()
        if self.stab_data.check(valid, w.ready._value):
            events.append(
                self._event(
                    FaultKind.HANDSHAKE_VIOLATION,
                    WritePhase.W_DATA,
                    cycle,
                    detail="w_valid deasserted before w_ready",
                )
            )
        target = self.ott.ei_front()
        if valid and target is None and self._edge("stray_w", True):
            events.append(
                self._event(
                    FaultKind.UNREQUESTED_RESPONSE,
                    WritePhase.W_DATA,
                    cycle,
                    detail="W beat with no outstanding write",
                )
            )
        if not valid:
            self._edge("stray_w", False)
        if target is None:
            return
        if not self.tiny:
            if target.state == WritePhase.W_ENTRY and valid:
                self._advance(target, WritePhase.W_FIRST_HS, cycle)
            if target.state == WritePhase.W_FIRST_HS and fired:
                self._advance(target, WritePhase.W_DATA, cycle)
        if fired:
            self._count_w_beat(target, w.payload._value, cycle, events)

    def _count_w_beat(self, target: LdEntry, beat, cycle, events) -> None:
        target.beats_seen += 1
        if beat.last:
            if target.beats_seen != target.beats:
                events.append(
                    self._event(
                        FaultKind.WRONG_LAST,
                        WritePhase.W_DATA,
                        cycle,
                        entry=target,
                        detail=(
                            f"w_last after {target.beats_seen} beats, "
                            f"expected {target.beats}"
                        ),
                    )
                )
            target.w_done = True
            self.ott.ei_advance()
            if not self.tiny:
                # Waiting-time bonus scales with the accumulated
                # outstanding traffic in the OTT (§II-F), since the
                # subordinate may serialize responses across IDs.
                self._advance(
                    target, WritePhase.B_WAIT, cycle,
                    queued=max(0, self.ott.occupancy - 1),
                )
        elif target.beats_seen >= target.beats:
            events.append(
                self._event(
                    FaultKind.WRONG_LAST,
                    WritePhase.W_DATA,
                    cycle,
                    entry=target,
                    detail=(
                        f"beat {target.beats_seen} of {target.beats} "
                        "without w_last"
                    ),
                )
            )

    # ------------------------------------------------------------------
    # B: response matching and completion
    # ------------------------------------------------------------------
    def _observe_b(self, b: Channel, cycle, events) -> None:
        valid = bool(b.valid._value)
        fired = b.fired()
        if self.stab_resp.check(valid, b.ready._value):
            events.append(
                self._event(
                    FaultKind.HANDSHAKE_VIOLATION,
                    WritePhase.B_WAIT,
                    cycle,
                    detail="b_valid deasserted before b_ready",
                )
            )
        if not valid:
            self._edge("b_unreq", False)
            self._edge("b_early", False)
            return
        beat = b.payload._value
        head = self.ott.head_of(beat.id)
        if head is None:
            if self._edge("b_unreq", True):
                events.append(
                    self._event(
                        FaultKind.UNREQUESTED_RESPONSE,
                        WritePhase.B_WAIT,
                        cycle,
                        detail=f"B response with untracked ID {beat.id}",
                    )
                )
            return
        if not head.w_done:
            # The Full-Counter flags a B that is only valid, the
            # Tiny-Counter one that fires.
            if (fired or not self.tiny) and self._edge("b_early", True):
                events.append(
                    self._event(
                        FaultKind.ID_MISMATCH,
                        head.state,
                        cycle,
                        entry=head,
                        detail="B response before w_last",
                    )
                )
            return
        if head.state == WritePhase.B_WAIT:
            self._advance(head, WritePhase.B_HANDSHAKE, cycle)
        if fired:
            if beat.resp.is_error:
                events.append(
                    self._event(
                        FaultKind.ERROR_RESPONSE,
                        head.state,
                        cycle,
                        entry=head,
                        detail=f"subordinate returned {beat.resp.name}",
                    )
                )
            self._complete(head, cycle)
            self._edge_state.pop("b_early", None)
