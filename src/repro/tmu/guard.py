"""The guard engine the Write and Read Guards share.

A *guard* is the per-direction monitoring engine of the TMU (paper
Figs. 1-2 show the Write Guard and Read Guard as mirrored blocks).  The
mirrored half lives here, in :class:`GuardBase`, once:

* the Outstanding Transaction Table and its enqueue gating,
* the shared prescaler and counter construction,
* the address channel: the *front watch* — the pre-handshake timer
  covering ``AWVLD_AWRDY`` / ``ARVLD_ARRDY`` before a transaction owns
  an OTT entry — and the enqueue on handshake, which hands the front
  counter over to the entry in the Tiny-Counter variant (Fig. 6),
* the Full-Counter phase step (:meth:`GuardBase._advance`: record the
  closing phase's latency, move to the next phase, re-arm its budget)
  and the completion (:meth:`GuardBase._complete`),
* handshake *stability watches* — AXI4 requires ``valid`` to stay
  asserted (with stable payload) until ``ready``; a drop is a protocol
  violation,
* the counter sweep, the error log and the performance log.

:class:`~repro.tmu.write_guard.WriteGuard` and
:class:`~repro.tmu.read_guard.ReadGuard` set the per-direction
constants (``direction``, ``addr_channel``, ``SPAN``, ``ADDR_PHASE``,
``ENTRY_PHASE``), name their budget method in ``_phase_budget``, and
keep only their data and response channels.

Guards are passive observers: the TMU top level calls each guard's
``observe`` once per clock cycle with the settled device-side channels,
and decides from the returned events whether to trip the fault-recovery
path.
"""

from __future__ import annotations

from typing import List, Optional

from ..axi.types import AxiDir
from ..sim.signal import Channel
from .budget import AdaptiveBudgetPolicy
from .config import TmuConfig, Variant
from .counters import (
    Prescaler,
    PrescaledCounter,
    catch_up_array,
    edges_to_expiry_array,
)
from .events import ErrorLog, FaultEvent, FaultKind, PhaseLike
from .ott import LdEntry, OutstandingTransactionTable
from .perf import PerfLog
from .phases import TxnSpan


class StabilityWatch:
    """Detects ``valid`` deasserted before ``ready`` (AXI4 violation)."""

    __slots__ = ("_pending",)

    def __init__(self) -> None:
        self._pending = False

    def check(self, valid: bool, ready: bool) -> bool:
        """Feed one cycle's handshake state; True when a drop occurred."""
        violated = self._pending and not valid
        self._pending = bool(valid and not ready)
        return violated

    def clear(self) -> None:
        self._pending = False


class FrontWatch:
    """Times the address channel before the handshake completes.

    The front watch owns the only counter a transaction has before it is
    enqueued in the OTT; for the Tiny-Counter variant the counter is
    handed over to the LD entry on handshake so the single counter spans
    the whole ``AWVALID→BRESP`` window (Fig. 6).
    """

    __slots__ = ("counter", "start_cycle")

    def __init__(self) -> None:
        self.counter: Optional[PrescaledCounter] = None
        self.start_cycle: Optional[int] = None

    @property
    def active(self) -> bool:
        return self.counter is not None

    def arm(self, counter: PrescaledCounter, cycle: int) -> None:
        self.counter = counter
        self.start_cycle = cycle

    def release(self) -> Optional[PrescaledCounter]:
        counter = self.counter
        self.counter = None
        self.start_cycle = None
        return counter


class GuardBase:
    """The direction-independent half of the Write and Read Guards."""

    # Per-direction constants, set by each subclass.
    direction: AxiDir
    #: Address channel name (``"aw"``/``"ar"``), used in log details.
    addr_channel: str
    #: The Tiny-Counter whole-transaction span.
    SPAN: TxnSpan
    #: The Full-Counter address-handshake phase (the front watch's).
    ADDR_PHASE: PhaseLike
    #: The Full-Counter phase an entry starts in on enqueue.
    ENTRY_PHASE: PhaseLike

    def __init__(self, config: TmuConfig, span_owner=None) -> None:
        self.config = config
        self.budgets: AdaptiveBudgetPolicy = config.budgets
        # Holder of the Tiny-Counter span terms (``.span``): the TMU,
        # whose registers write them, or else the config's policy.
        self._span_owner = span_owner if span_owner is not None else config.budgets
        self.ott = OutstandingTransactionTable(
            config.max_uniq_ids, config.txn_per_id
        )
        self.prescaler = Prescaler(config.prescale_step)
        self.perf = PerfLog(self.direction)
        self.log = ErrorLog(config.error_log_depth)
        self.front = FrontWatch()
        self.stab_addr = StabilityWatch()
        self.stab_data = StabilityWatch()
        self.stab_resp = StabilityWatch()
        self.timeouts_detected = 0
        self.violations_detected = 0
        self._edge_state: dict = {}
        self.completed_tids: List[int] = []

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @property
    def tiny(self) -> bool:
        return self.config.variant == Variant.TINY

    def new_counter(self, budget: int) -> PrescaledCounter:
        return PrescaledCounter(
            budget, self.config.prescale_step, self.config.sticky
        )

    def can_accept(self, tid: int) -> bool:
        """Whether a new transaction with compact ID *tid* can be tracked."""
        return self.ott.can_enqueue(tid)

    # ------------------------------------------------------------------
    # Event helpers
    # ------------------------------------------------------------------
    def _event(
        self,
        kind: FaultKind,
        phase: Optional[PhaseLike],
        cycle: int,
        entry: Optional[LdEntry] = None,
        detail: str = "",
    ) -> FaultEvent:
        event = FaultEvent(
            kind=kind,
            direction=self.direction,
            phase=phase,
            detect_cycle=cycle,
            txn_id=entry.tid if entry is not None else None,
            orig_id=entry.orig_id if entry is not None else None,
            addr=entry.addr if entry is not None else None,
            detail=detail,
        )
        self.log.push(event)
        if kind == FaultKind.TIMEOUT:
            self.timeouts_detected += 1
        else:
            self.violations_detected += 1
        return event

    def should_trip(self, event: FaultEvent) -> bool:
        """Whether *event* triggers the fault-recovery path.

        Timeouts always trip.  Protocol violations trip immediately only
        when the configuration says so (Full-Counter default); otherwise
        they are logged and surface as timeouts when the transaction's
        budget expires — the Tiny-Counter behaviour of Figs. 9/11.
        """
        if event.kind == FaultKind.TIMEOUT:
            return True
        if event.kind == FaultKind.ERROR_RESPONSE:
            return bool(self.config.trip_on_error_resp)
        return bool(self.config.protocol_check_immediate)

    def _edge(self, key: str, condition: bool) -> bool:
        """Rising-edge detector so persistent anomalies log only once."""
        previous = self._edge_state.get(key, False)
        self._edge_state[key] = condition
        return condition and not previous

    # ------------------------------------------------------------------
    # Address channel, phase step and completion
    # ------------------------------------------------------------------
    def _phase_budget(self, phase: PhaseLike, beats: int, queued: int = 0) -> int:
        """Full-Counter budget of *phase*: the direction's budget method."""
        raise NotImplementedError

    def _front_phase(self) -> PhaseLike:
        return self.SPAN if self.tiny else self.ADDR_PHASE

    def _start_budget(self, phase: PhaseLike, beats: int, queued: int) -> int:
        """Budget of a transaction's first counter: its span, or *phase*."""
        if self.tiny:
            return self.budgets.span_budget(beats, queued, self._span_owner.span)
        return self._phase_budget(phase, beats, queued)

    def _observe_addr(self, addr: Channel, cycle, events, orig_id_of) -> None:
        """Address handshake: stability check, front watch, enqueue."""
        valid = bool(addr.valid._value)
        ready = bool(addr.ready._value)
        if self.stab_addr.check(valid, ready):
            name = self.addr_channel
            events.append(
                self._event(
                    FaultKind.HANDSHAKE_VIOLATION,
                    self._front_phase(),
                    cycle,
                    detail=f"{name}_valid deasserted before {name}_ready",
                )
            )
            self.front.release()
        if valid and ready:
            self._enqueue(addr.payload._value, cycle, orig_id_of)
        elif valid and not self.front.active:
            budget = self._start_budget(
                self.ADDR_PHASE,
                addr.payload._value.len + 1,
                self.ott.ei_pending_beats(),
            )
            self.front.arm(self.new_counter(budget), cycle)

    def _enqueue(self, beat, cycle, orig_id_of) -> None:
        front_start = self.front.start_cycle
        front_counter = self.front.release()
        tid = beat.id
        orig = orig_id_of(tid) if orig_id_of is not None else tid
        # Queue-waiting bonus in *beats* ahead (§II-F): the new
        # transaction's data phase cannot start until every queued beat
        # has moved.
        queued = self.ott.ei_pending_beats()
        entry = self.ott.enqueue(
            tid, orig, self.direction, beat.addr, beat.len + 1, cycle
        )
        entry.phase_latencies[self.ADDR_PHASE] = (
            cycle - front_start if front_start is not None else 0
        )
        entry.state = self.SPAN if self.tiny else self.ENTRY_PHASE
        if self.tiny and front_counter is not None:
            entry.counter = front_counter  # single span counter, Fig. 6
        else:
            entry.counter = self.new_counter(
                self._start_budget(self.ENTRY_PHASE, entry.beats, queued)
            )

    def _advance(self, entry: LdEntry, phase, cycle: int, queued: int = 0) -> None:
        """Full-Counter phase step: close *entry*'s phase, arm *phase*."""
        entry.phase_latencies[entry.state] = cycle - entry.phase_start_cycle
        entry.state = phase
        entry.counter.rearm(self._phase_budget(phase, entry.beats, queued))
        entry.phase_start_cycle = cycle

    def _complete(self, entry: LdEntry, cycle: int) -> None:
        """Record *entry*'s completion and free its OTT slot."""
        if not self.tiny:
            entry.phase_latencies[entry.state] = cycle - entry.phase_start_cycle
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

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def outstanding_orig_ids(self) -> List[int]:
        """Original IDs of every tracked transaction (for fault aborts)."""
        return [entry.orig_id for entry in self.ott.live_entries()]

    def drain_completed(self) -> List[int]:
        """Compact IDs completed since the last drain (for remap release)."""
        completed, self.completed_tids = self.completed_tids, []
        return completed

    def clear(self) -> None:
        """Abort all tracking state (fault recovery)."""
        self.ott.clear()
        self.front.release()
        self.stab_addr.clear()
        self.stab_data.clear()
        self.stab_resp.clear()
        self._edge_state.clear()
        self.completed_tids.clear()

    @property
    def idle(self) -> bool:
        """No armed counters: nothing enqueued, front watch released.

        The TMU's update-quiescence precondition — with the channels
        idle on top, :meth:`observe` moves nothing but the free-running
        prescaler (which resyncs in O(1) on wake).
        """
        return self.ott.occupancy == 0 and not self.front.active

    def _armed_counters(self) -> List[PrescaledCounter]:
        """Counters still consuming prescaler edges (front + live entries)."""
        counters: List[PrescaledCounter] = []
        if self.front.counter is not None:
            counters.append(self.front.counter)
        for entry in self.ott.live_entries():
            if entry.counter is not None and not entry.timeout:
                counters.append(entry.counter)
        return counters

    def next_timeout_stamp(self, now: int) -> Optional[int]:
        """Stamp of the earliest possible counter expiry after *now*.

        Assumes the channels stay frozen from here (every armed counter
        enabled every cycle, no re-arms) — exactly the span the TMU
        sleeps through.  Any channel movement wakes the TMU first and
        the prediction is recomputed.  ``None`` when nothing is armed.
        """
        counters = self._armed_counters()
        if not counters:
            return None
        # cycles_to_edge is monotone in the edge count, so the earliest
        # stamp is the one for the fewest edges.
        return now + self.prescaler.cycles_to_edge(
            min(edges_to_expiry_array(counters))
        )

    def catch_up(self, cycles: int) -> None:
        """Replay *cycles* frozen-channel observations in O(#counters).

        Equivalent to calling :meth:`observe` *cycles* times with every
        channel unchanged and fire-free: the prescaler advances, armed
        counters consume its edges, and nothing else moves.  The counters
        behave the same while mid-burst W beats stream (they count
        whatever the channels do), so :meth:`WriteGuard.stream` replays
        a streamed span through here too.  Valid only when no expiry
        falls inside the span — the TMU's timed wake or stream horizon
        (both from :meth:`next_timeout_stamp`) guarantees that.
        """
        if cycles <= 0:
            return
        prescaler = self.prescaler
        edges = prescaler.edges_in(cycles)
        end_on_edge = edges > 0 and (prescaler.phase + cycles) % prescaler.step == 0
        prescaler.skip(cycles)
        catch_up_array(self._armed_counters(), edges, end_on_edge)

    def snapshot_state(self):
        """Wake-independent registered state, for verify-strategy diffs.

        Excludes the prescaler phase *and* the armed counters' counts —
        both are clock-derived now that the TMU sleeps through frozen
        stalls under a timed wake (the counts advance deterministically
        with the skipped edges and are replayed by :meth:`catch_up`) —
        and normalizes the rising-edge detector map (absent and False
        entries are equivalent).  The expiry *transitions* (events,
        ``entry.timeout``, trip bookkeeping) stay snapshotted, which is
        what lets ``strategy="verify"`` catch an under-declared wake.
        """
        return (
            self.ott.occupancy,
            tuple(
                (entry.tid, entry.beats_seen, entry.timeout, entry.state)
                for entry in self.ott.live_entries()
            ),
            self.front.active,
            self.timeouts_detected,
            self.violations_detected,
            tuple(self.completed_tids),
            len(self.log),
            self.perf.completed,
            self.perf.beats_transferred,
            self.stab_addr._pending,
            self.stab_data._pending,
            self.stab_resp._pending,
            tuple(sorted(k for k, v in self._edge_state.items() if v)),
        )

    # ------------------------------------------------------------------
    # Counter sweep
    # ------------------------------------------------------------------
    def _tick_counters(self, edge: bool, cycle: int, events: List[FaultEvent]) -> None:
        """Advance the front-watch and per-entry counters; emit timeouts."""
        front_counter = self.front.counter
        if front_counter is not None:
            if front_counter.tick(enabled=True, edge=edge):
                events.append(
                    self._event(
                        FaultKind.TIMEOUT,
                        self._front_phase(),
                        cycle,
                        detail="address handshake timeout",
                    )
                )
                self.front.release()
        for entry in self.ott.live_entries():
            counter = entry.counter
            if counter is None or entry.timeout:
                continue
            if counter.tick(enabled=True, edge=edge):
                entry.timeout = True
                events.append(
                    self._event(
                        FaultKind.TIMEOUT,
                        entry.state,
                        cycle,
                        entry=entry,
                        detail=f"budget expired ({counter.units} units)",
                    )
                )
