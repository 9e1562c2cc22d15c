"""Transaction Monitoring Unit top level (paper Figs. 1-2).

The TMU sits between the AXI4 interconnect (the *host* side) and the
subordinate device (the *device* side).  Under normal operation it is a
transparent wire — transactions traverse with **zero added latency**
while the ID remapper compacts the ID space and the Write/Read Guards
listen in parallel.  On a detected fault it:

1. **severs** both request and response paths to stop error propagation,
2. **aborts** every outstanding transaction by answering the manager
   with ``SLVERR`` responses (and accepting/discarding any in-flight
   request traffic so the manager never deadlocks),
3. raises an **interrupt** for software recovery routines, and
4. requests the external **reset unit** to reinitialize the subordinate;
   on acknowledgment it clears its tables and resumes monitoring.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import List, Optional

from ..axi.channels import BBeat, RBeat, remap_id
from ..axi.id_remap import IdRemapTable
from ..axi.interface import AxiInterface
from ..axi.types import Resp
from ..sim.component import Component, held, projected, uncompared
from ..sim.signal import Wire
from .config import TmuConfig
from .events import FaultEvent
from .read_guard import ReadGuard
from .write_guard import WriteGuard


class TmuState(enum.Enum):
    """Top-level fault-handling FSM."""

    MONITOR = "monitor"
    RECOVER = "recover"


#: The five AXI channels, request side first.
_CHANNELS = ("aw", "w", "ar", "b", "r")

#: Channels whose source is the host side (the rest source from device).
_REQUEST_CHANNELS = frozenset({"aw", "w", "ar"})


class _TmuChannel(Component):
    """Drive-only child covering one AXI channel of the TMU.

    Mirrors the crossbar's per-channel children: the kernel re-runs
    exactly the channels whose wires moved, so a long W burst streams
    through the W passthrough without re-probing the ID remap tables or
    re-evaluating the guards' capacity stalls on AW/AR, and idle
    response channels cost nothing.  All state lives in the parent TMU;
    the parent re-schedules every channel (via its overridden
    ``schedule_drive``) whenever mode or drive-visible monitor state
    changes.
    """

    demand_driven = True
    phase_period = 1

    def __init__(self, tmu: "TransactionMonitoringUnit", channel: str) -> None:
        super().__init__(f"{tmu.name}.{channel}")
        self.tmu = tmu
        self.channel = channel

    def inputs(self):
        src, dst = _channel_endpoints(self.tmu, self.channel)
        return (src.valid, src.payload, dst.ready)

    def drive(self) -> None:
        # Writes the destination's valid/payload and the source's ready.
        self.tmu._drive_channel(self.channel)


def _channel_endpoints(tmu: "TransactionMonitoringUnit", ch: str):
    """(source channel, destination channel) for one AXI channel.

    Single source of truth for the direction mapping: the children's
    declared sensitivity lists and the parent's ``_drive_channel`` must
    agree on which side sources each channel, or the scheduler would
    skip re-runs the drive actually needs.
    """
    if ch in _REQUEST_CHANNELS:
        return getattr(tmu.host, ch), getattr(tmu.device, ch)
    return getattr(tmu.device, ch), getattr(tmu.host, ch)


class TransactionMonitoringUnit(Component):
    """Drop-in AXI4 transaction monitor (Tiny- or Full-Counter).

    Parameters
    ----------
    host:
        Interface toward the AXI4 interconnect / manager.
    device:
        Interface toward the monitored subordinate.
    config:
        Variant, capacity, budgets, prescaler — see :class:`TmuConfig`.
    standalone_ack_after:
        When set, the TMU self-acknowledges its reset request after this
        many cycles — convenient for IP-level setups without an external
        reset unit.  System-level setups leave this ``None`` and wire
        ``reset_req``/``reset_ack`` to a real reset unit.
    """

    demand_driven = True
    demand_update = True

    registered = {
        # Software-visible registers (CTRL enable bit, SPAN_BASE and
        # SPAN_PER_BEAT), powered on from the config.  The span terms
        # are a frozen SpanBudgets the guards read on every Tc budget.
        "enabled": lambda self: self.config.enabled,
        "span": lambda self: self.config.budgets.span,
        # Built once; a reset resets them in place.
        "write_guard": held(lambda self: WriteGuard(self.config, self)),
        "read_guard": held(lambda self: ReadGuard(self.config, self)),
        "remap_w": held(lambda self: IdRemapTable(self.config.max_uniq_ids)),
        "remap_r": held(lambda self: IdRemapTable(self.config.max_uniq_ids)),
        "state": TmuState.MONITOR,
        "cycle": uncompared(0),  # update stamp, resynced on wake
        "fault_events": projected(list, len),
        "faults_handled": 0,
        "_irq_pending": False,
        "_req_state": False,
        "_ack_seen": False,
        "_self_ack_countdown": None,
        "_abort_b": deque,
        "_abort_r": deque,
        "_w_drain_remaining": 0,
    }

    def __init__(
        self,
        name: str,
        host: AxiInterface,
        device: AxiInterface,
        config: Optional[TmuConfig] = None,
        standalone_ack_after: Optional[int] = None,
    ) -> None:
        super().__init__(name)
        self.host = host
        self.device = device
        self.config = config if config is not None else TmuConfig()
        self.standalone_ack_after = standalone_ack_after
        self._channels = [_TmuChannel(self, ch) for ch in _CHANNELS]
        # Any traffic on either side keeps the guards observing; the
        # update-quiescence predicate and wake list both key off these.
        self._watch_channels = [
            getattr(bus, ch) for bus in (host, device) for ch in _CHANNELS
        ]

        #: interrupt request to the platform interrupt controller.
        self.irq = Wire(f"{name}.irq", False)
        #: reset request to the external reset unit.
        self.reset_req = Wire(f"{name}.reset_req", False)
        #: reset acknowledgment from the external reset unit (input).
        self.reset_ack = Wire(f"{name}.reset_ack", False)
        self.reset()

    # ------------------------------------------------------------------
    # Introspection / software API (used by the register file)
    # ------------------------------------------------------------------
    @property
    def phase_period(self) -> int:
        """Lockstep-batch periodicity declaration (see ``sim.component``).

        The guards' free-running prescaler is the TMU's only
        absolute-time state — its phase is ``cycle % prescale_step``
        (resynced in O(1) across skipped spans) — so TMU behaviour is
        invariant under stimulus shifts by multiples of the step.
        """
        return self.config.prescale_step

    @property
    def fault_active(self) -> bool:
        return self.state == TmuState.RECOVER

    @property
    def irq_pending(self) -> bool:
        return self._irq_pending

    def clear_irq(self) -> None:
        """Software interrupt acknowledgment (register write)."""
        self._irq_pending = False
        self.schedule_drive()

    @property
    def last_fault(self) -> Optional[FaultEvent]:
        return self.fault_events[-1] if self.fault_events else None

    # ------------------------------------------------------------------
    # Component protocol
    # ------------------------------------------------------------------
    def wires(self):
        yield from self.host.wires()
        yield from self.device.wires()
        yield self.irq
        yield self.reset_req
        yield self.reset_ack

    def children(self):
        return self._channels

    def inputs(self):
        # Wire sensitivity lives on the per-channel children; the parent
        # drive only refreshes irq/reset_req from registered state and
        # must not re-trigger on datapath wire changes.  reset_ack is
        # only sampled in update(), which always runs.
        return ()

    def update_inputs(self):
        # A valid rising anywhere (or the reset handshake moving) ends
        # quiescence.  Ready wires are watched too: the TMU may now
        # sleep through a held-valid stall (deaf channel), and the only
        # event that can unfreeze such a channel is its ready rising.
        return (
            *(ch.valid for ch in self._watch_channels),
            *(ch.ready for ch in self._watch_channels),
            self.reset_ack,
        )

    def quiescent(self):
        # Provably no-op update: monitoring, and no handshake can fire
        # next edge (no channel holds valid & ready — any change that
        # could fire one goes through a watched wire and wakes us
        # first).  Guards with armed counters are pure countdowns across
        # such a frozen span, so they may sleep too — but only under a
        # timed wake at the earliest possible expiry; the skipped edges
        # are replayed exactly by GuardBase.catch_up() on wake.  A
        # disabled TMU stays awake: its update is already trivial, and
        # a CTRL write (the register file wakes it) needs no wake path.
        if not self.enabled or self.state is not TmuState.MONITOR:
            return False
        for ch in self._watch_channels:
            if ch.valid._value and ch.ready._value:
                return False
        wake = None
        for guard in (self.write_guard, self.read_guard):
            if guard.idle:
                continue
            stamp = guard.next_timeout_stamp(self.cycle)
            if stamp is not None and (wake is None or stamp < wake):
                wake = stamp
        if wake is not None:
            # self.cycle is this update's stamp (sim.cycle + 1); the
            # expiry update stamped `wake` runs in the step at wake - 1.
            self.wake_at(self._sim.cycle + (wake - self.cycle))
        return True

    def stream_horizon(self, limit: int) -> int:
        # Only mid-burst W beats may cross the TMU in a streamed span,
        # with every other channel idle.  Monitoring, they pass through
        # to the device: the write guard counts them, armed counters
        # keep consuming prescaler edges, and the span ends before
        # either guard's next expiry (which must land in a stepped
        # update).  Recovering, they drain into the TMU while the reset
        # handshake waits, and the span ends before it completes.
        if not self.enabled or self.cycle != self._sim.cycle:
            return 0
        host_w, device_w = self.host.w, self.device.w
        if not (host_w.valid._value and host_w.ready._value):
            return 0
        for ch in self._watch_channels:
            if ch.valid._value and ch is not host_w and ch is not device_w:
                return 0
        if self.state is TmuState.RECOVER:
            return self._recover_stream_horizon(limit)
        if not device_w.ready._value:
            return 0
        limit = self.write_guard.stream_horizon(limit)
        for guard in (self.write_guard, self.read_guard):
            stamp = guard.next_timeout_stamp(self.cycle)
            if stamp is not None and stamp - self.cycle - 1 < limit:
                limit = stamp - self.cycle - 1
        return limit

    def _recover_stream_horizon(self, limit: int) -> int:
        """Drained W beats, at most *limit*, before the handshake moves."""
        if self._ack_seen and self._w_drain_remaining == 0:
            return 0  # back to MONITOR at the next update
        if self._req_state:
            countdown = self._self_ack_countdown
            if countdown is None:
                if self.reset_ack._value:
                    return 0
            elif countdown - 1 < limit:
                # The update that counts it down to zero acknowledges.
                limit = countdown - 1
        return limit

    def stream(self, cycles: int) -> None:
        self.cycle += cycles
        if self.state is TmuState.RECOVER:
            if self._self_ack_countdown:
                self._self_ack_countdown = max(
                    0, self._self_ack_countdown - cycles
                )
            return
        self.write_guard.stream(cycles)
        self.read_guard.catch_up(cycles)

    def stream_wires(self):
        # Recovering, the device side stays severed: nothing forwarded.
        if self.state is TmuState.RECOVER:
            return ()
        return (self.device.w.payload,)

    def schedule_drive(self) -> None:
        """Invalidate the irq/reset drive *and* every channel drive.

        The TMU's drive-visible state (FSM mode, remap tables, guard
        occupancy, abort queues, the software enable bit) is shared by
        all five channel children, so any mutation conservatively
        re-schedules them all — wire-level sensitivity still keeps idle
        channels from re-running in steady state.  Callers (register
        writes, ``clear_irq``, update-phase changes) go through here
        unchanged.
        """
        super().schedule_drive()
        for channel in self._channels:
            channel.schedule_drive()

    def drive(self) -> None:
        self.irq.value = self._irq_pending
        self.reset_req.value = self._req_state

    # -- drive helpers ---------------------------------------------------
    def _drive_channel(self, ch: str) -> None:
        """Drive one AXI channel according to the current mode.

        Runs only as a declared-input drive (see ``_TmuChannel.inputs``),
        so every wire read goes straight to the slot.
        """
        src, dst = _channel_endpoints(self, ch)
        if not self.enabled:
            # Disabled TMU: a pure wire, no remapping, no monitoring.
            dst.valid.value = src.valid._value
            dst.payload.value = src.payload._value
            src.ready.value = dst.ready._value
        elif self.state == TmuState.MONITOR:
            self._drive_monitor_channel(ch)
        else:
            self._drive_recover_channel(ch)

    def _drive_monitor_channel(self, ch: str) -> None:
        host, device = self.host, self.device
        if ch == "aw":
            # AW: remap + capacity stall.
            self._drive_request_addr(
                host.aw, device.aw, self.remap_w, self.write_guard
            )
        elif ch == "w":
            # W: straight passthrough (no ID on the W channel).
            device.w.valid.value = host.w.valid._value
            device.w.payload.value = host.w.payload._value
            host.w.ready.value = device.w.ready._value
        elif ch == "ar":
            self._drive_request_addr(
                host.ar, device.ar, self.remap_r, self.read_guard
            )
        elif ch == "b":
            # B / R: un-remap; sink responses whose ID is not live.
            self._drive_response(device.b, host.b, self.remap_w)
        else:
            self._drive_response(device.r, host.r, self.remap_r)

    def _drive_request_addr(self, src, dst, remap, guard) -> None:
        beat = src.payload._value
        stall = True
        slot = None
        if src.valid._value and beat is not None:
            slot = remap.probe(beat.id)
            stall = slot is None or not guard.can_accept(slot)
        forward = bool(src.valid._value and not stall)
        dst.valid.value = forward
        dst.payload.value = remap_id(beat, slot) if forward else None
        src.ready.value = bool(dst.ready._value and forward)

    def _drive_response(self, src, dst, remap) -> None:
        beat = src.payload._value
        if src.valid._value and beat is not None:
            orig = remap.orig_of(beat.id)
            if orig is None:
                # Unrequested response: never propagate toward the host.
                dst.idle()
                src.ready.value = True
                return
            dst.drive(remap_id(beat, orig))
            src.ready.value = dst.ready._value
        else:
            dst.idle()
            src.ready.value = dst.ready._value

    def _drive_recover_channel(self, ch: str) -> None:
        host, device = self.host, self.device
        if ch in _REQUEST_CHANNELS:
            # Device side severed (no requests forwarded); host side
            # accepted and discarded — the TMU acts as a default error
            # subordinate so the manager never deadlocks.
            dst = getattr(device, ch)
            dst.valid.value = False
            dst.payload.value = None
            getattr(host, ch).ready.value = True
        elif ch == "b":
            device.b.ready.value = True  # drain device responses
            if self._abort_b:
                host.b.drive(BBeat(id=self._abort_b[0], resp=Resp.SLVERR))
            else:
                host.b.idle()
        else:
            device.r.ready.value = True
            if self._abort_r:
                host.r.drive(
                    RBeat(id=self._abort_r[0], data=0, resp=Resp.SLVERR, last=True)
                )
            else:
                host.r.idle()

    # -- update ------------------------------------------------------------
    def update(self) -> None:
        sim = self._sim
        if sim is not None:
            now = sim.cycle + 1
            skipped = now - self.cycle - 1
            if skipped > 0:
                # Waking from quiescence (enabled MONITOR, channels
                # frozen — nothing else ever skips): the skipped span
                # advanced the free-running prescalers and fed their
                # edges to any armed counters, with no expiry inside
                # the span (the timed wake from quiescent() lands on
                # the earliest one).  Replay it in O(#counters) so
                # detection timing stays cycle-exact.
                self.write_guard.catch_up(skipped)
                self.read_guard.catch_up(skipped)
            self.cycle = now
        else:
            self.cycle += 1
        if not self.enabled:
            return
        if self.state == TmuState.MONITOR:
            self._update_monitor()
        else:
            self._update_recover()

    def _update_monitor(self) -> None:
        host, device = self.host, self.device
        changed = False
        # Commit ID-remap references on accepted addresses.
        if device.aw.fired():
            self.remap_w.acquire(host.aw.payload._value.id)
            changed = True
        if device.ar.fired():
            self.remap_r.acquire(host.ar.payload._value.id)
            changed = True

        events = self.write_guard.observe(
            device.aw,
            device.w,
            device.b,
            cycle=self.cycle,
            orig_id_of=self.remap_w.orig_of,
        )
        events += self.read_guard.observe(
            device.ar,
            device.r,
            cycle=self.cycle,
            orig_id_of=self.remap_r.orig_of,
        )
        # Release remap references for transactions the guards completed.
        for tid in self.write_guard.drain_completed():
            self.remap_w.release(tid)
            changed = True
        for tid in self.read_guard.drain_completed():
            self.remap_r.release(tid)
            changed = True
        # Guard occupancy (can_accept) moves only on the fired/drain
        # events flagged above; budget counters ticking toward a trip are
        # invisible to drive() until the trip itself.

        # Both guards share the config, which alone decides a trip.
        should_trip = self.write_guard.should_trip
        tripping = [event for event in events if should_trip(event)]
        if tripping:
            self._enter_recover(tripping)
            changed = True
        if changed:
            self.schedule_drive()

    def _enter_recover(self, tripping: List[FaultEvent]) -> None:
        self.fault_events.extend(tripping)
        self.faults_handled += 1
        self._abort_b = deque(self.write_guard.outstanding_orig_ids())
        self._abort_r = deque(self.read_guard.outstanding_orig_ids())
        self._w_drain_remaining = self.write_guard.unfinished_write_bursts()
        self.write_guard.clear()
        self.read_guard.clear()
        self.remap_w.clear()
        self.remap_r.clear()
        self._irq_pending = True
        self._req_state = True
        self._ack_seen = False
        self._self_ack_countdown = self.standalone_ack_after
        self.state = TmuState.RECOVER

    def _update_recover(self) -> None:
        host = self.host
        changed = False
        # Requests arriving during recovery are accepted and aborted.
        if host.aw.fired():
            self._abort_b.append(host.aw.payload._value.id)
            self._w_drain_remaining += 1
            changed = True
        if host.ar.fired():
            self._abort_r.append(host.ar.payload._value.id)
            changed = True
        if host.w.fired():
            beat = host.w.payload._value
            if beat is not None and beat.last and self._w_drain_remaining > 0:
                self._w_drain_remaining -= 1
        if host.b.fired() and self._abort_b:
            self._abort_b.popleft()
            changed = True
        if host.r.fired() and self._abort_r:
            self._abort_r.popleft()
            changed = True

        # Reset handshake with the external (or standalone) reset unit.
        if self._self_ack_countdown is not None:
            if self._self_ack_countdown > 0:
                self._self_ack_countdown -= 1
            ack = self._self_ack_countdown == 0
        else:
            ack = bool(self.reset_ack._value)
        if ack and self._req_state:
            self._req_state = False
            self._ack_seen = True
            changed = True
        if (
            self._ack_seen
            and not self._abort_b
            and not self._abort_r
            and self._w_drain_remaining == 0
        ):
            self.state = TmuState.MONITOR
            changed = True
        if changed:
            self.schedule_drive()

