"""Write Guard: monitors the AW/W/B channels (paper §II-A, Figs. 1-2).

The Write Guard tracks every outstanding write transaction through the
six phases of Fig. 4 (Full-Counter) or as one ``AWVALID→BRESP`` span
(Tiny-Counter, Fig. 6), and performs the four checks the architecture
diagrams name: **Timeout Check**, **Handshake Check**, **ID Match
Check**, and **Unrequested resp**.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..axi.types import AxiDir
from ..sim.signal import Channel
from .config import TmuConfig
from .events import FaultEvent, FaultKind
from .guard import GuardBase
from .ott import LdEntry
from .phases import TxnSpan, WritePhase

_DATA_PHASES = (WritePhase.W_ENTRY, WritePhase.W_FIRST_HS, WritePhase.W_DATA)


class WriteGuard(GuardBase):
    """Per-cycle observer of the write channels on the device side."""

    def __init__(self, config: TmuConfig) -> None:
        super().__init__(config, AxiDir.WRITE)

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
    # GuardBase hooks
    # ------------------------------------------------------------------
    def _front_phase(self):
        return TxnSpan.WRITE if self.tiny else WritePhase.AW_HANDSHAKE

    def _entry_phase(self, entry: LdEntry):
        return entry.state

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
        self._observe_aw(aw, cycle, events, orig_id_of)
        self._observe_w(w, cycle, events)
        self._observe_b(b, cycle, events)
        events.extend(self._tick_counters(edge, cycle))
        return events

    # ------------------------------------------------------------------
    # AW: address handshake and enqueue
    # ------------------------------------------------------------------
    def _observe_aw(self, aw: Channel, cycle, events, orig_id_of) -> None:
        valid = bool(aw.valid._value)
        ready = bool(aw.ready._value)
        if self.stab_addr.check(valid, ready):
            events.append(
                self._event(
                    FaultKind.HANDSHAKE_VIOLATION,
                    self._front_phase(),
                    cycle,
                    detail="aw_valid deasserted before aw_ready",
                )
            )
            self.front.release()
        if valid and ready:
            self._enqueue(aw.payload._value, cycle, orig_id_of, events)
        elif valid and not self.front.active:
            beat = aw.payload._value
            beats = beat.len + 1
            queued = self.ott.ei_pending_beats()
            if self.tiny:
                budget = self.budgets.span_budget(beats, queued)
            else:
                budget = self.budgets.write_phase_budget(
                    WritePhase.AW_HANDSHAKE, beats, queued
                )
            self.front.arm(self.new_counter(budget), cycle)

    def _enqueue(self, beat, cycle, orig_id_of, events) -> None:
        front_start = self.front.start_cycle
        front_counter = self.front.release()
        hs_latency = cycle - front_start if front_start is not None else 0
        tid = beat.id
        orig = orig_id_of(tid) if orig_id_of is not None else tid
        # Queue-waiting bonus in *beats* ahead (§II-F): the new write's
        # data phase cannot start until every queued beat has moved.
        queued = self.ott.ei_pending_beats()
        entry = self.ott.enqueue(
            tid, orig, AxiDir.WRITE, beat.addr, beat.len + 1, cycle
        )
        entry.phase_latencies[WritePhase.AW_HANDSHAKE] = hs_latency
        if self.tiny:
            entry.state = TxnSpan.WRITE
            if front_counter is not None:
                entry.counter = front_counter  # single span counter, Fig. 6
            else:
                entry.counter = self.new_counter(
                    self.budgets.span_budget(entry.beats, queued)
                )
        else:
            entry.state = WritePhase.W_ENTRY
            entry.counter = self.new_counter(
                self.budgets.write_phase_budget(
                    WritePhase.W_ENTRY, entry.beats, queued
                )
            )
        entry.phase_start_cycle = cycle

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
        beat = w.payload._value
        if self.tiny:
            if fired:
                self._count_w_beat(target, beat, cycle, events)
            return
        if target.state == WritePhase.W_ENTRY and valid:
            target.phase_latencies[WritePhase.W_ENTRY] = (
                cycle - target.phase_start_cycle
            )
            target.state = WritePhase.W_FIRST_HS
            target.counter.rearm(
                self.budgets.write_phase_budget(
                    WritePhase.W_FIRST_HS, target.beats
                )
            )
            target.phase_start_cycle = cycle
        if target.state == WritePhase.W_FIRST_HS and fired:
            target.phase_latencies[WritePhase.W_FIRST_HS] = (
                cycle - target.phase_start_cycle
            )
            target.state = WritePhase.W_DATA
            target.counter.rearm(
                self.budgets.write_phase_budget(WritePhase.W_DATA, target.beats)
            )
            target.phase_start_cycle = cycle
            self._count_w_beat(target, beat, cycle, events)
        elif target.state == WritePhase.W_DATA and fired:
            self._count_w_beat(target, beat, cycle, events)

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
                target.phase_latencies[WritePhase.W_DATA] = (
                    cycle - target.phase_start_cycle
                )
                target.state = WritePhase.B_WAIT
                # Waiting-time bonus scales with the accumulated
                # outstanding traffic in the OTT (§II-F), since the
                # subordinate may serialize responses across IDs.
                target.counter.rearm(
                    self.budgets.write_phase_budget(
                        WritePhase.B_WAIT,
                        target.beats,
                        max(0, self.ott.occupancy - 1),
                    )
                )
                target.phase_start_cycle = cycle
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
        if self.tiny:
            if fired:
                if head.w_done:
                    if beat.resp.is_error:
                        events.append(
                            self._event(
                                FaultKind.ERROR_RESPONSE,
                                TxnSpan.WRITE,
                                cycle,
                                entry=head,
                                detail=f"subordinate returned {beat.resp.name}",
                            )
                        )
                    self._complete(head, cycle)
                elif self._edge("b_early", True):
                    events.append(
                        self._event(
                            FaultKind.ID_MISMATCH,
                            TxnSpan.WRITE,
                            cycle,
                            entry=head,
                            detail="B response before w_last",
                        )
                    )
            return
        # Full-Counter phase bookkeeping.
        if head.state in _DATA_PHASES:
            if self._edge("b_early", True):
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
            head.phase_latencies[WritePhase.B_WAIT] = (
                cycle - head.phase_start_cycle
            )
            head.state = WritePhase.B_HANDSHAKE
            head.counter.rearm(
                self.budgets.write_phase_budget(
                    WritePhase.B_HANDSHAKE, head.beats
                )
            )
            head.phase_start_cycle = cycle
        if head.state == WritePhase.B_HANDSHAKE and fired:
            head.phase_latencies[WritePhase.B_HANDSHAKE] = (
                cycle - head.phase_start_cycle
            )
            if beat.resp.is_error:
                events.append(
                    self._event(
                        FaultKind.ERROR_RESPONSE,
                        WritePhase.B_HANDSHAKE,
                        cycle,
                        entry=head,
                        detail=f"subordinate returned {beat.resp.name}",
                    )
                )
            self._complete(head, cycle)

    def _complete(self, entry: LdEntry, cycle: int) -> None:
        self.perf.record_completion(
            entry.orig_id,
            entry.addr,
            entry.beats,
            entry.enqueue_cycle,
            cycle,
            entry.phase_latencies,
        )
        self.ott.dequeue_head(entry.tid)
        self.completed_tids.append(entry.tid)
        self._edge_state.pop("b_early", None)
