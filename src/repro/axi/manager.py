"""Traffic-generating AXI4 manager with a completion scoreboard.

The manager issues :class:`~repro.axi.traffic.TransactionSpec` streams,
drives the AW/W/AR request channels with configurable pacing, accepts
B/R responses with configurable readiness, and records every completed
transaction (cycle-stamped per phase) in a scoreboard.  The scoreboard is
what the IP-level and system-level benches use to cross-check the TMU's
own performance logs.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

from ..sim.component import (
    Component,
    DriveSensitiveState,
    projected,
    uncompared,
)
from .channels import ArBeat, AwBeat, BBeat, RBeat, WBeat
from .interface import AxiInterface
from .traffic import TransactionSpec
from .types import AxiDir, Resp, bytes_per_beat


@dataclasses.dataclass
class CompletedTransaction:
    """Scoreboard record of one finished transaction."""

    direction: AxiDir
    txn_id: int
    addr: int
    beats: int
    issue_cycle: int
    addr_cycle: int
    first_data_cycle: Optional[int]
    last_data_cycle: Optional[int]
    resp_cycle: int
    resp: Resp
    data: Optional[List[int]] = None

    @property
    def latency(self) -> int:
        """End-to-end latency from address handshake to completion."""
        return self.resp_cycle - self.addr_cycle

    @property
    def failed(self) -> bool:
        return self.resp.is_error


@dataclasses.dataclass
class ManagerFaults(DriveSensitiveState):
    """Manager-side fault switches for injection campaigns.

    * ``freeze_w`` — W Stage Timeout: the manager never presents write
      data (paper Fig. 9, "no valid data received from the master").
    * ``deaf_b`` / ``deaf_r`` — the manager stops accepting responses
      (exercises the ``BVLD_BRDY`` / response-readiness phases).

    Campaigns flip these switches mid-simulation, between cycles; the
    :class:`DriveSensitiveState` base notifies the owning manager.
    """

    freeze_w: bool = False
    deaf_b: bool = False
    deaf_r: bool = False


def _address_beat(beat_type, spec: TransactionSpec):
    """The AW or AR beat (*beat_type*) that issues *spec*."""
    return beat_type(
        id=spec.txn_id,
        addr=spec.addr,
        len=spec.len,
        size=spec.size,
        burst=spec.burst,
        qos=spec.qos,
    )


@dataclasses.dataclass
class _Outstanding:
    spec: TransactionSpec
    issue_cycle: int
    addr_cycle: int
    first_data_cycle: Optional[int] = None
    last_data_cycle: Optional[int] = None
    read_data: Optional[List[int]] = None
    worst_resp: Resp = Resp.OKAY


class Manager(Component):
    """AXI4 manager that plays transaction specs and scores responses.

    Parameters
    ----------
    bus:
        The interface whose request channels this manager sources.
    max_outstanding:
        Optional self-imposed cap on in-flight transactions (both
        directions combined); the manager stalls issue when reached.
    """

    demand_driven = True
    demand_update = True
    #: Purely reactive: every countdown (issue delay, response
    #: scoring) is relative to the submitting stimulus, so behaviour
    #: is invariant under any time shift of that stimulus.
    phase_period = 1

    # The issue delays, the W inter-beat gap and the response-readiness
    # polls advance by `elapsed = now - _stamp` (the stamp of the last
    # accounted update), so a slept span is reconstructed exactly —
    # always-on operation has elapsed == 1.  They are clock-derived; their
    # visible transitions always happen in awake updates.
    registered = {
        "_aw_queue": deque,
        "_ar_queue": deque,
        "_aw_delay": uncompared(0),
        "_ar_delay": uncompared(0),
        "_w_pending": deque,
        # (outstanding record, beat data, beat index) of the W burst
        # being sent; verify compares the beat index.
        "_w_active": projected(
            None, lambda active: None if active is None else active[2]
        ),
        "_w_gap": uncompared(0),
        # In-flight transactions per direction, keyed by ID (two tables
        # rather than one keyed by (direction, ID): AxiDir hashes slowly).
        "_writes_out": dict,
        "_reads_out": dict,
        "_inflight": 0,
        "_b_wait": uncompared(0),
        "_r_wait": uncompared(0),
        "_cycle": uncompared(0),
        "_stamp": uncompared(0),
        # The scoreboard only grows: verify compares its length.
        "completed": projected(list, len),
        "surprises": projected(list, len),
        # The beats drive() built: the AW/AR beat of a queue head (keyed
        # by the spec object) and the W beat of a burst position (keyed
        # by the ``_w_active`` tuple, replaced as the burst moves).
        "_aw_memo_spec": uncompared(None),
        "_aw_memo": uncompared(None),
        "_ar_memo_spec": uncompared(None),
        "_ar_memo": uncompared(None),
        "_w_memo_position": uncompared(None),
        "_w_memo": uncompared(None),
    }

    def __init__(
        self,
        name: str,
        bus: AxiInterface,
        max_outstanding: Optional[int] = None,
    ) -> None:
        super().__init__(name)
        self.bus = bus
        self.max_outstanding = max_outstanding
        self.faults = ManagerFaults()
        self.faults._owner = self
        self.reset()

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Apply the ticks a slept span accrued, before mutating state.

        Software entry points (``submit``) arm fresh countdowns; the
        pending ``elapsed`` of a quiescent stretch must be charged to
        the *old* state first — the span was frozen, so today's wire
        levels are the span's conditions — or the next update would
        bill the whole stretch against the new countdown.
        """
        sim = self._sim
        if sim is None:
            return
        now = sim.cycle  # stamp through which updates have conceptually run
        elapsed = now - self._stamp
        if elapsed <= 0:
            return
        self._stamp = now
        if self._aw_delay > 0:
            self._aw_delay = max(0, self._aw_delay - elapsed)
        if self._ar_delay > 0:
            self._ar_delay = max(0, self._ar_delay - elapsed)
        if self._w_gap > 0:
            self._w_gap = max(0, self._w_gap - elapsed)
        bus = self.bus
        if bus.b.valid._value and self._b_wait > 0:
            self._b_wait += elapsed
        if bus.r.valid._value and self._r_wait > 0:
            self._r_wait += elapsed

    def submit(self, spec: TransactionSpec) -> None:
        """Queue one transaction for issue."""
        self._sync()
        if spec.direction == AxiDir.WRITE:
            if len(self._aw_queue) == 0:
                self._aw_delay = spec.issue_delay
            self._aw_queue.append(spec)
        else:
            if len(self._ar_queue) == 0:
                self._ar_delay = spec.issue_delay
            self._ar_queue.append(spec)
        self.schedule_drive()
        self.schedule_update()

    def submit_all(self, specs: Iterable[TransactionSpec]) -> None:
        for spec in specs:
            self.submit(spec)

    @property
    def idle(self) -> bool:
        """True when nothing is queued or in flight."""
        return (
            not self._aw_queue
            and not self._ar_queue
            and not self._w_pending
            and self._w_active is None
            and self._inflight == 0
        )

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def failures(self) -> List[CompletedTransaction]:
        return [txn for txn in self.completed if txn.failed]

    # ------------------------------------------------------------------
    # Component protocol
    # ------------------------------------------------------------------
    def wires(self):
        return self.bus.wires()

    def inputs(self):
        # drive() reads only the response channels (via _resp_delay);
        # everything else it consults is registered state, reported
        # through schedule_drive().
        bus = self.bus
        return (bus.b.valid, bus.b.payload, bus.r.valid, bus.r.payload)

    def update_inputs(self):
        # Registered state moves only on fired handshakes (valid & ready
        # — the valids the manager sources are covered by its quiescence
        # predicate, so the ready edges must wake it) and on inbound
        # responses; submit() and the fault block wake it through
        # schedule_update().
        bus = self.bus
        return (
            bus.aw.ready, bus.ar.ready, bus.w.ready,
            bus.b.valid, bus.b.payload, bus.r.valid, bus.r.payload,
        )

    def quiescent(self):
        # Sleep whenever no handshake can fire next edge and every
        # running countdown's next *visible* transition is declared as
        # a timed wake:
        #
        # * a request (or W beat) already held on a stalled channel
        #   sleeps until the far ready rises — the deaf-subordinate
        #   regime the paper's stall campaigns hang on;
        # * an issue delay / W gap still counting wakes the cycle it
        #   reaches zero (the update that raises valid next settle);
        # * a response-readiness poll ramping toward its spec's
        #   resp_ready_delay wakes exactly at the crossing, so the
        #   ready wire still rises on schedule; a deaf poll ticks
        #   silently (elapsed accounting reconstructs it).
        #
        # Transactions parked behind a full outstanding window or a
        # freeze fault are safe to sleep on: unparking needs a response
        # fire or a fault flip, and both find us awake.
        bus, faults = self.bus, self.faults
        now = self._stamp
        wake = None
        # AW / AR issue paths (we source the valids).
        if self._aw_queue and self._issue_allowed():
            if self._aw_delay == 0:
                if not bus.aw.valid._value or bus.aw.ready._value:
                    return False  # valid rising, or fire imminent
            else:
                wake = now + self._aw_delay
        if self._ar_queue and self._issue_allowed():
            if self._ar_delay == 0:
                if not bus.ar.valid._value or bus.ar.ready._value:
                    return False
            elif wake is None or now + self._ar_delay < wake:
                wake = now + self._ar_delay
        # W data path.
        if self._w_active is not None and not faults.freeze_w:
            if self._w_gap == 0:
                if not bus.w.valid._value or bus.w.ready._value:
                    return False
            elif wake is None or now + self._w_gap < wake:
                wake = now + self._w_gap
        # B / R response readiness polls (the subordinate sources the
        # valids; our ready follows `wait >= resp_ready_delay`).  A
        # zero poll under a held valid means a response fired this edge
        # with the next one already presented: update() restarts that
        # poll at 1 whatever span it wakes after, so it must tick once
        # awake before the crossing below is exact.  (The next response
        # can be an equal value, which leaves the watched wires still.)
        if bus.b.valid._value and not faults.deaf_b:
            delay = self._resp_delay(bus.b, self._writes_out)
            if self._b_wait >= delay or self._b_wait == 0:
                return False  # ready (about to be) up: fire imminent
            crossing = now + (delay - self._b_wait)
            if wake is None or crossing < wake:
                wake = crossing
        if bus.r.valid._value and not faults.deaf_r:
            delay = self._resp_delay(bus.r, self._reads_out)
            if self._r_wait >= delay or self._r_wait == 0:
                return False
            crossing = now + (delay - self._r_wait)
            if wake is None or crossing < wake:
                wake = crossing
        if wake is not None:
            if wake <= now:
                return False
            if self._sim is not None:
                self.wake_at(self._sim.cycle + (wake - now))
        return True

    def _issue_allowed(self) -> bool:
        return (
            self.max_outstanding is None
            or self._inflight < self.max_outstanding
        )

    def drive(self) -> None:
        # Declared-input drive (see inputs()): wire reads go straight to
        # the slots.  Each request beat is built once per queue head (W:
        # per burst position) and re-driven as the same object.
        bus, faults = self.bus, self.faults
        issue = self._issue_allowed()
        # AW
        if self._aw_queue and self._aw_delay == 0 and issue:
            spec = self._aw_queue[0]
            if spec is not self._aw_memo_spec:
                self._aw_memo_spec = spec
                self._aw_memo = _address_beat(AwBeat, spec)
            bus.aw.drive(self._aw_memo)
        else:
            bus.aw.idle()
        # AR
        if self._ar_queue and self._ar_delay == 0 and issue:
            spec = self._ar_queue[0]
            if spec is not self._ar_memo_spec:
                self._ar_memo_spec = spec
                self._ar_memo = _address_beat(ArBeat, spec)
            bus.ar.drive(self._ar_memo)
        else:
            bus.ar.idle()
        # W
        active = self._w_active
        if active is not None and self._w_gap == 0 and not faults.freeze_w:
            if active is not self._w_memo_position:
                record, beats, index = active
                data, strb = beats[index]
                self._w_memo_position = active
                self._w_memo = WBeat(
                    data=data,
                    strb=strb,
                    last=index == record.spec.beats - 1,
                    burst=beats,
                    index=index,
                )
            bus.w.drive(self._w_memo)
        else:
            bus.w.idle()
        # Response readiness
        bus.b.ready.value = not faults.deaf_b and (
            self._b_wait >= self._resp_delay(bus.b, self._writes_out)
        )
        bus.r.ready.value = not faults.deaf_r and (
            self._r_wait >= self._resp_delay(bus.r, self._reads_out)
        )

    # ------------------------------------------------------------------
    # Burst streaming
    # ------------------------------------------------------------------
    def stream_horizon(self, limit: int) -> int:
        # Streams the middle of the active W burst: the previous update
        # fired a beat of it (so valid and ready are both held), the
        # burst's first and last beats are stepped, and nothing else is
        # in motion — no request queued, no response presented, no
        # inter-beat gap to reopen.
        active = self._w_active
        if (
            active is None
            or self._aw_queue
            or self._ar_queue
            or self._stamp != self._sim.cycle
        ):
            return 0
        record, _, index = active
        bus = self.bus
        if (
            index == 0
            or record.spec.w_gap
            or self.faults.freeze_w
            or not (bus.w.valid._value and bus.w.ready._value)
            or bus.b.valid._value
            or bus.r.valid._value
        ):
            return 0
        return min(limit, record.spec.beats - 1 - index)

    def stream(self, cycles: int) -> None:
        record, data, index = self._w_active
        self._w_active = (record, data, index + cycles)
        self._cycle = self._stamp = self._sim.cycle + cycles
        self.schedule_drive()

    def stream_wires(self):
        return (self.bus.w.payload,)

    def _resp_delay(self, channel, table: Dict[int, Deque[_Outstanding]]) -> int:
        # Slot reads are safe here: the manager's sensitivity to the
        # response channels is declared statically in inputs().
        beat = channel.payload._value
        if not channel.valid._value or beat is None:
            return 0
        queue = table.get(beat.id)
        if not queue:
            return 0
        return queue[0].spec.resp_ready_delay

    def update(self) -> None:
        # Clock-edge code: wire reads go straight to the slots (no
        # drive-phase tracing needed), mirroring Channel.fired().
        bus = self.bus
        aw, ar, w, b, r = bus.aw, bus.ar, bus.w, bus.b, bus.r
        # Scoreboard timestamps come from the global clock so quiescent
        # (skipped) spans cannot skew them; standalone use falls back to
        # self-counting.
        sim = self._sim
        self._cycle = sim.cycle + 1 if sim is not None else self._cycle + 1
        now = self._cycle
        elapsed = now - self._stamp
        self._stamp = now
        changed = False
        # Issue delays and the W gap tick even while parked (behind a
        # full window or a freeze fault); only reaching zero on a live
        # path raises a valid next settle, and that crossing always
        # lands in an awake update (per-cycle, or as the timed wake a
        # slept span declared).
        if self._aw_delay > 0:
            self._aw_delay = max(0, self._aw_delay - elapsed)
            if self._aw_delay == 0 and self._aw_queue and self._issue_allowed():
                changed = True
        if self._ar_delay > 0:
            self._ar_delay = max(0, self._ar_delay - elapsed)
            if self._ar_delay == 0 and self._ar_queue and self._issue_allowed():
                changed = True
        if self._w_gap > 0:
            self._w_gap = max(0, self._w_gap - elapsed)
            if self._w_gap == 0 and self._w_active is not None and not self.faults.freeze_w:
                changed = True

        if aw.valid._value and aw.ready._value:
            self._on_addr_fired(self._aw_queue, AxiDir.WRITE)
            changed = True
        if ar.valid._value and ar.ready._value:
            self._on_addr_fired(self._ar_queue, AxiDir.READ)
            changed = True

        was_active = self._w_active
        self._activate_w_if_needed()
        if self._w_active is not was_active:
            changed = True
        if w.valid._value and w.ready._value:
            self._on_w_fired()
            changed = True

        # The response-wait counters feed drive() only through the
        # "wait >= resp_ready_delay" comparisons; only a threshold
        # crossing on a non-deaf channel moves a readiness output.
        old_b_wait, old_r_wait = self._b_wait, self._r_wait
        if b.valid._value:
            self._b_wait = old_b_wait + elapsed if old_b_wait > 0 else 1
        else:
            self._b_wait = 0
        if r.valid._value:
            self._r_wait = old_r_wait + elapsed if old_r_wait > 0 else 1
        else:
            self._r_wait = 0
        if b.valid._value and b.ready._value:
            self._b_wait = 0
            self._on_b_fired(b.payload._value)
            changed = True
        elif self._b_wait != old_b_wait and not self.faults.deaf_b:
            delay = self._resp_delay(b, self._writes_out)
            if (old_b_wait >= delay) != (self._b_wait >= delay):
                changed = True
        if r.valid._value and r.ready._value:
            # A mid-burst beat only fills the scoreboard; drive() sees
            # it through the ready poll restarting, which matters only
            # below a nonzero resp_ready_delay.  A last beat retires the
            # transaction (issue window, outstanding tables).
            if r.payload._value.last or self._resp_delay(r, self._reads_out) > 0:
                changed = True
            self._r_wait = 0
            self._on_r_fired(r.payload._value)
        elif self._r_wait != old_r_wait and not self.faults.deaf_r:
            delay = self._resp_delay(r, self._reads_out)
            if (old_r_wait >= delay) != (self._r_wait >= delay):
                changed = True
        if changed:
            self.schedule_drive()

    def _on_addr_fired(self, queue: Deque[TransactionSpec], direction: AxiDir) -> None:
        spec = queue.popleft()
        record = _Outstanding(
            spec=spec, issue_cycle=self._cycle - 1, addr_cycle=self._cycle
        )
        if direction == AxiDir.READ:
            record.read_data = []
        table = self._writes_out if direction is AxiDir.WRITE else self._reads_out
        table.setdefault(spec.txn_id, deque()).append(record)
        self._inflight += 1
        if direction == AxiDir.WRITE:
            self._w_pending.append(record)
            if queue:
                self._aw_delay = queue[0].issue_delay
        else:
            if queue:
                self._ar_delay = queue[0].issue_delay

    def _activate_w_if_needed(self) -> None:
        if self._w_active is None and self._w_pending:
            record = self._w_pending.popleft()
            self._w_active = (record, record.spec.wire_write_beats(), 0)
            self._w_gap = 0

    def _on_w_fired(self) -> None:
        if self._w_active is None:
            return
        record, data, index = self._w_active
        if record.first_data_cycle is None:
            record.first_data_cycle = self._cycle
        if index == record.spec.beats - 1:
            record.last_data_cycle = self._cycle
            self._w_active = None
            self._activate_w_if_needed()
        else:
            self._w_active = (record, data, index + 1)
            self._w_gap = record.spec.w_gap

    @staticmethod
    def _pop_outstanding(
        table: Dict[int, Deque[_Outstanding]], txn_id: int
    ) -> Optional[_Outstanding]:
        queue = table.get(txn_id)
        if not queue:
            return None
        record = queue.popleft()
        if not queue:
            del table[txn_id]
        return record

    def _on_b_fired(self, beat: BBeat) -> None:
        record = self._pop_outstanding(self._writes_out, beat.id)
        if record is None:
            self.surprises.append(
                f"cycle {self._cycle}: B response for unknown write ID {beat.id}"
            )
            return
        self._inflight -= 1
        self.completed.append(
            CompletedTransaction(
                direction=AxiDir.WRITE,
                txn_id=beat.id,
                addr=record.spec.addr,
                beats=record.spec.beats,
                issue_cycle=record.issue_cycle,
                addr_cycle=record.addr_cycle,
                first_data_cycle=record.first_data_cycle,
                last_data_cycle=record.last_data_cycle,
                resp_cycle=self._cycle,
                resp=beat.resp,
            )
        )

    def _on_r_fired(self, beat: RBeat) -> None:
        queue = self._reads_out.get(beat.id)
        if not queue:
            self.surprises.append(
                f"cycle {self._cycle}: R beat for unknown read ID {beat.id}"
            )
            return
        record = queue[0]
        if record.first_data_cycle is None:
            record.first_data_cycle = self._cycle
        assert record.read_data is not None
        spec = record.spec
        width = bytes_per_beat(spec.size)
        if width < spec.bus_bytes:
            # Narrow beat: the data sits on the addressed byte lanes —
            # extract the logical value so the scoreboard matches what
            # write_data() produced.  (Clamp guards spurious extras.)
            index = min(len(record.read_data), spec.beats - 1)
            lane = spec.lane(index)
            value = (beat.data >> (8 * lane)) & ((1 << (8 * width)) - 1)
        else:
            value = beat.data
        record.read_data.append(value)
        if beat.resp.is_error or beat.resp > record.worst_resp:
            record.worst_resp = max(record.worst_resp, beat.resp)
        if beat.last:
            record.last_data_cycle = self._cycle
            self._pop_outstanding(self._reads_out, beat.id)
            self._inflight -= 1
            self.completed.append(
                CompletedTransaction(
                    direction=AxiDir.READ,
                    txn_id=beat.id,
                    addr=record.spec.addr,
                    beats=record.spec.beats,
                    issue_cycle=record.issue_cycle,
                    addr_cycle=record.addr_cycle,
                    first_data_cycle=record.first_data_cycle,
                    last_data_cycle=record.last_data_cycle,
                    resp_cycle=self._cycle,
                    resp=record.worst_resp,
                    data=record.read_data,
                )
            )

    def reset(self) -> None:
        super().reset()
        self.faults.clear()
