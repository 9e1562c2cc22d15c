"""Read Guard: monitors the AR/R channels (paper §II-A, Figs. 1-2, 5).

Mirrors the Write Guard for the read direction: four phases in the
Full-Counter variant (``ARVLD_ARRDY``, ``ARRDY_RVLD``, ``RVLD_RRDY``,
``RVLD_RLAST``) or a single ``ARVALID→RLAST`` span in the Tiny-Counter
variant.  R beats are routed to the head of their ID's FIFO, honouring
AXI4's same-ID ordering; mismatched or unrequested R IDs are flagged.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..axi.types import AxiDir
from ..sim.signal import Channel
from .config import TmuConfig
from .events import FaultEvent, FaultKind
from .guard import GuardBase
from .ott import LdEntry
from .phases import ReadPhase, TxnSpan


class ReadGuard(GuardBase):
    """Per-cycle observer of the read channels on the device side."""

    def __init__(self, config: TmuConfig) -> None:
        super().__init__(config, AxiDir.READ)

    # ------------------------------------------------------------------
    # GuardBase hooks
    # ------------------------------------------------------------------
    def _front_phase(self):
        return TxnSpan.READ if self.tiny else ReadPhase.AR_HANDSHAKE

    def _entry_phase(self, entry: LdEntry):
        return entry.state

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
        self._observe_ar(ar, cycle, events, orig_id_of)
        self._observe_r(r, cycle, events)
        events.extend(self._tick_counters(edge, cycle))
        return events

    # ------------------------------------------------------------------
    # AR: address handshake and enqueue
    # ------------------------------------------------------------------
    def _observe_ar(self, ar: Channel, cycle, events, orig_id_of) -> None:
        valid = bool(ar.valid._value)
        ready = bool(ar.ready._value)
        if self.stab_addr.check(valid, ready):
            events.append(
                self._event(
                    FaultKind.HANDSHAKE_VIOLATION,
                    self._front_phase(),
                    cycle,
                    detail="ar_valid deasserted before ar_ready",
                )
            )
            self.front.release()
        if valid and ready:
            self._enqueue(ar.payload._value, cycle, orig_id_of)
        elif valid and not self.front.active:
            beat = ar.payload._value
            beats = beat.len + 1
            queued = self.ott.ei_pending_beats()
            if self.tiny:
                budget = self.budgets.span_budget(beats, queued)
            else:
                budget = self.budgets.read_phase_budget(
                    ReadPhase.AR_HANDSHAKE, beats, queued
                )
            self.front.arm(self.new_counter(budget), cycle)

    def _enqueue(self, beat, cycle, orig_id_of) -> None:
        front_start = self.front.start_cycle
        front_counter = self.front.release()
        hs_latency = cycle - front_start if front_start is not None else 0
        tid = beat.id
        orig = orig_id_of(tid) if orig_id_of is not None else tid
        # Queue-waiting bonus in *beats* ahead (§II-F).
        queued = self.ott.ei_pending_beats()
        entry = self.ott.enqueue(
            tid, orig, AxiDir.READ, beat.addr, beat.len + 1, cycle
        )
        entry.phase_latencies[ReadPhase.AR_HANDSHAKE] = hs_latency
        if self.tiny:
            entry.state = TxnSpan.READ
            if front_counter is not None:
                entry.counter = front_counter  # single span counter, Fig. 6
            else:
                entry.counter = self.new_counter(
                    self.budgets.span_budget(entry.beats, queued)
                )
        else:
            entry.state = ReadPhase.R_ENTRY
            entry.counter = self.new_counter(
                self.budgets.read_phase_budget(
                    ReadPhase.R_ENTRY, entry.beats, queued
                )
            )
        entry.phase_start_cycle = cycle

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
        if self.tiny:
            if fired:
                self._count_r_beat(head, beat, cycle, events)
            return
        if head.state == ReadPhase.R_ENTRY:
            head.phase_latencies[ReadPhase.R_ENTRY] = (
                cycle - head.phase_start_cycle
            )
            head.state = ReadPhase.R_FIRST_HS
            head.counter.rearm(
                self.budgets.read_phase_budget(ReadPhase.R_FIRST_HS, head.beats)
            )
            head.phase_start_cycle = cycle
        if head.state == ReadPhase.R_FIRST_HS and fired:
            head.phase_latencies[ReadPhase.R_FIRST_HS] = (
                cycle - head.phase_start_cycle
            )
            head.state = ReadPhase.R_DATA
            head.counter.rearm(
                self.budgets.read_phase_budget(ReadPhase.R_DATA, head.beats)
            )
            head.phase_start_cycle = cycle
            self._count_r_beat(head, beat, cycle, events)
        elif head.state == ReadPhase.R_DATA and fired:
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
            if not self.tiny:
                head.phase_latencies[ReadPhase.R_DATA] = (
                    cycle - head.phase_start_cycle
                )
            self._complete(head, cycle)
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

    def _complete(self, entry: LdEntry, cycle: int) -> None:
        self._edge_state.pop(f"r_err_{entry.index}", None)
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
