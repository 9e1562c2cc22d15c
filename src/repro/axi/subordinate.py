"""Memory-backed AXI4 subordinate with latency knobs and fault hooks.

The subordinate models a generic endpoint (memory controller, peripheral)
with configurable handshake delays and response latencies.  A mutable
:class:`SubordinateFaults` block lets fault-injection campaigns make the
device misbehave in exactly the ways the paper's Fig. 9 enumerates —
going deaf on a request channel, going mute on a response channel,
corrupting response IDs, dropping ``last``, or emitting unrequested
responses.  A hardware reset input (driven by the external reset unit)
clears internal state and, by default, the fault block — modelling the
paper's recovery path.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import deque
from typing import List, Optional

from ..sim.component import (
    Component,
    DriveSensitiveState,
    power_on_writer,
    projected,
    uncompared,
)
from ..sim.signal import Wire
from .channels import ArBeat, AwBeat, BBeat, RBeat
from .interface import AxiInterface
from .memory import SparseMemory
from .types import Resp, beat_lane, burst_addresses, bytes_per_beat


@dataclasses.dataclass
class SubordinateFaults(DriveSensitiveState):
    """Mutable fault switches, toggled by injectors mid-simulation.

    Each flag corresponds to an error class from the paper's
    fault-injection campaign (§III-A3):

    * ``deaf_aw`` — AW Stage Error: missing ``aw_ready`` acknowledgment.
    * ``deaf_w`` — W Datapath Error: ``w_ready`` failure during transfer.
    * ``deaf_ar`` — AR stage error (read-side mirror of ``deaf_aw``).
    * ``mute_b`` — ``w_last``-to-``b_valid`` error: response never comes.
    * ``mute_r`` — R channel goes silent (mid-burst stall).
    * ``corrupt_b_id`` / ``corrupt_r_id`` — ID mismatch on B / R.
    * ``drop_r_last`` — final R beat arrives without ``last``.
    * ``spurious_b`` / ``spurious_r`` — unrequested response with that ID.
    * ``error_resp`` — respond with SLVERR instead of OKAY.
    * ``reorder_same_id`` — the reorder window ignores the same-ID
      ordering constraint, illegally interleaving R beats of two
      transactions that share an ID (the dark-corner fault the
      interleaving-legality rules exist to catch).
    * ``deaf_w_after`` / ``mute_r_after`` — the mid-burst stages as beat
      thresholds: ``deaf_w`` (``mute_r``) switches on by itself once
      this many more W beats have been accepted (R beats served).  The
      subordinate counts them down in its update, so the fault lands
      exactly after the threshold beat, however the kernel advanced.

    Injectors flip these switches mid-simulation, between cycles; the
    :class:`DriveSensitiveState` base notifies the owning subordinate.
    """

    deaf_aw: bool = False
    deaf_w: bool = False
    deaf_ar: bool = False
    mute_b: bool = False
    mute_r: bool = False
    corrupt_b_id: Optional[int] = None
    corrupt_r_id: Optional[int] = None
    drop_r_last: bool = False
    spurious_b: Optional[int] = None
    spurious_r: Optional[int] = None
    error_resp: bool = False
    reorder_same_id: bool = False
    deaf_w_after: Optional[int] = None
    mute_r_after: Optional[int] = None

    def take_w_beats(self, count: int) -> None:
        """Count *count* accepted W beats against ``deaf_w_after``."""
        remaining = self.deaf_w_after - count
        if remaining > 0:
            # The countdown itself is invisible to drive(); only the
            # switch it arms is, so it bypasses the owner notification.
            object.__setattr__(self, "deaf_w_after", remaining)
        else:
            self.deaf_w_after = None
            self.deaf_w = True

    def take_r_beats(self, count: int) -> None:
        """Count *count* served R beats against ``mute_r_after``."""
        remaining = self.mute_r_after - count
        if remaining > 0:
            object.__setattr__(self, "mute_r_after", remaining)
        else:
            self.mute_r_after = None
            self.mute_r = True

    @property
    def any_active(self) -> bool:
        return any(
            (
                self.deaf_aw,
                self.deaf_w,
                self.deaf_ar,
                self.mute_b,
                self.mute_r,
                self.corrupt_b_id is not None,
                self.corrupt_r_id is not None,
                self.drop_r_last,
                self.spurious_b is not None,
                self.spurious_r is not None,
                self.error_resp,
                self.reorder_same_id,
                self.deaf_w_after is not None,
                self.mute_r_after is not None,
            )
        )


@dataclasses.dataclass
class _WriteJob:
    aw: AwBeat
    addrs: List[int]
    index: int = 0
    w_wait: int = 0


@dataclasses.dataclass
class _ReadJob:
    ar: ArBeat
    addrs: List[int]
    index: int = 0
    countdown: int = 0
    gap: int = 0


class Subordinate(Component):
    """Generic memory-backed AXI4 subordinate.

    Parameters
    ----------
    bus:
        Interface whose response channels this subordinate sources.
    memory:
        Backing store; a private :class:`SparseMemory` if omitted.
    aw_ready_delay / ar_ready_delay:
        Cycles of ``valid`` observed before asserting address ``ready``.
    w_ready_delay:
        Per-beat delay before accepting each W beat.
    b_latency:
        Cycles from the last W beat to ``b_valid``.
    r_latency:
        Cycles from AR acceptance to the first R beat.
    r_gap:
        Idle cycles between consecutive R beats.
    max_outstanding:
        Accepted-but-unfinished transaction cap per direction.
    reset_clears_faults:
        Whether a hardware reset repairs the fault block (the paper's
        recovery model).
    interleave_reads:
        Serve R beats round-robin across outstanding reads of
        *different* IDs (AXI4 permits interleaving read data between
        transactions with different IDs; same-ID order is preserved).
        Equivalent to an unbounded ``reorder_depth`` on the read side.
    reorder_depth:
        Size of the response reorder window.  ``0``/``1`` preserve the
        strict in-order legacy behaviour.  With depth ``k`` the
        subordinate may serve any of the first ``k`` outstanding
        responses per direction — interleaving R beats across IDs and
        reordering B responses — while still completing same-ID
        transactions in order, exactly the latitude AXI4 grants.
    """

    demand_driven = True
    demand_update = True
    #: Purely reactive: latency chains count from the request's
    #: arrival, never from absolute cycle numbers.
    phase_period = 1

    #: In-flight state, which the hardware reset drops.  The ready-delay
    #: polls and latency countdowns are clock-derived under the
    #: timed-wake contract (they advance by `elapsed` and are replayed
    #: exactly), so verify compares only the structural state — the
    #: queues and indices whose movement needs a handshake.
    in_flight = {
        "_aw_wait": uncompared(0),
        "_ar_wait": uncompared(0),
        "_writes": projected(
            deque, lambda jobs: tuple(job.index for job in jobs)
        ),
        # [id, countdown] per pending B response.
        "_b_queue": projected(
            deque, lambda queue: tuple(entry[0] for entry in queue)
        ),
        "_reads": projected(
            deque, lambda jobs: tuple((job.ar.id, job.index) for job in jobs)
        ),
        "_r_rr": 0,
        "_b_rr": 0,
        # Response beats drive() built, re-driven as the same objects:
        # the last B beat (a pure value), and the R beat of one
        # (job, beat index), dropped on every memory store.
        "_b_memo": uncompared(None),
        "_r_memo": uncompared(None),
    }
    _drop_in_flight = power_on_writer(in_flight)
    registered = {
        **in_flight,
        "_in_reset": False,
        # Completion counters, kept across a hardware reset.  w_beats
        # and r_beats count W beats accepted and R beats served.
        "resets_taken": 0,
        "writes_done": 0,
        "reads_done": 0,
        "w_beats": 0,
        "r_beats": 0,
        # Stamp of the last accounted update.  Every per-cycle counter
        # (the ready-delay polls, the b/r latency countdowns) advances
        # by `elapsed = now - _stamp` in update(), so a slept span is
        # reconstructed exactly — always-on operation has elapsed == 1.
        "_stamp": uncompared(0),
    }

    def __init__(
        self,
        name: str,
        bus: AxiInterface,
        memory: Optional[SparseMemory] = None,
        aw_ready_delay: int = 0,
        w_ready_delay: int = 0,
        b_latency: int = 1,
        ar_ready_delay: int = 0,
        r_latency: int = 1,
        r_gap: int = 0,
        max_outstanding: int = 64,
        reset_clears_faults: bool = True,
        interleave_reads: bool = False,
        reorder_depth: int = 0,
    ) -> None:
        super().__init__(name)
        self.bus = bus
        self.memory = memory if memory is not None else SparseMemory()
        # R data is read combinationally from memory; external stores
        # (testbench preloads, shared memories) must re-drive us.
        self.memory.watch(self._memory_stored)
        self.aw_ready_delay = aw_ready_delay
        self.w_ready_delay = w_ready_delay
        self.b_latency = b_latency
        self.ar_ready_delay = ar_ready_delay
        self.r_latency = r_latency
        self.r_gap = r_gap
        self.max_outstanding = max_outstanding
        self.reset_clears_faults = reset_clears_faults
        self.interleave_reads = interleave_reads
        self.reorder_depth = reorder_depth
        self.faults = SubordinateFaults()
        self.faults._owner = self
        #: hardware reset request input, driven by an external reset unit.
        self.hw_reset = Wire(f"{name}.hw_reset", False)
        self.reset()

    # ------------------------------------------------------------------
    # Component protocol
    # ------------------------------------------------------------------
    def wires(self):
        yield from self.bus.wires()
        yield self.hw_reset

    def inputs(self):
        # drive() computes readiness and responses purely from registered
        # state and the fault block; the only wire it reads is hw_reset.
        return (self.hw_reset,)

    def update_inputs(self):
        # Inbound requests, the ready edges that can complete a stalled
        # response handshake, and the hardware reset end quiescence;
        # fault flips arrive through DriveSensitiveState.
        bus = self.bus
        return (
            bus.aw.valid, bus.ar.valid, bus.w.valid,
            bus.b.ready, bus.r.ready, self.hw_reset,
        )

    def quiescent(self):
        # Sleep whenever no handshake can fire next edge and every
        # running counter is a pure countdown whose next *visible*
        # transition is declared as a timed wake:
        #
        # * a held-but-deaf request channel (or one parked behind a
        #   full window) just increments its poll counter — elapsed
        #   accounting reconstructs it on wake;
        # * a poll counter ramping toward its ready-delay threshold
        #   wakes exactly at the crossing, so the ready wire still
        #   rises on schedule;
        # * b/r latency countdowns wake the cycle they reach zero (the
        #   update that raises valid next settle); while a mute fault
        #   parks the channel they tick silently and need no wake.
        #
        # Anything that could change the picture — a valid/ready edge,
        # the hardware reset, a fault flip — arrives through a watched
        # wire or DriveSensitiveState and wakes us first.
        bus, faults = self.bus, self.faults
        if self.hw_reset._value:
            # Held in reset: update() returns immediately until release.
            return self._in_reset
        if self._in_reset:
            return False
        now = self._stamp
        wake: Optional[int] = None

        # AW / AR: fire imminent when a held valid meets next-settle
        # readiness (computed from state — the wire may lag a cycle).
        aw_open = not faults.deaf_aw and self._write_capacity()
        if bus.aw.valid._value and aw_open:
            if self._aw_wait >= self.aw_ready_delay:
                return False
            wake = now + (self.aw_ready_delay - self._aw_wait)
        ar_open = not faults.deaf_ar and len(self._reads) < self.max_outstanding
        if bus.ar.valid._value and ar_open:
            if self._ar_wait >= self.ar_ready_delay:
                return False
            crossing = now + (self.ar_ready_delay - self._ar_wait)
            if wake is None or crossing < wake:
                wake = crossing
        # W: the head job's per-beat ready delay ramps regardless of
        # w_valid; its crossing is drive-visible (w_ready rises).
        if self._writes and not faults.deaf_w:
            w_wait = self._writes[0].w_wait
            if w_wait >= self.w_ready_delay:
                if bus.w.valid._value:
                    return False
            else:
                crossing = now + (self.w_ready_delay - w_wait)
                if wake is None or crossing < wake:
                    wake = crossing
        # B: a still-counting head wakes at zero (the update that raises
        # b_valid next settle); a response already held on a stalled
        # channel sleeps until the far ready rises; an unparked response
        # whose valid is rising — or whose handshake can complete — must
        # stay awake.  Muted queues tick silently.
        if faults.spurious_b is not None and bus.b.ready._value:
            return False
        if self._b_queue and not faults.mute_b and faults.spurious_b is None:
            if self._b_window() <= 1:
                # Serial ticking: only the head countdown is a real
                # wall-clock crossing (entries behind tick after it).
                head_countdown = self._b_queue[0][1]
                if head_countdown > 0:
                    if wake is None or now + head_countdown < wake:
                        wake = now + head_countdown
                elif not bus.b.valid._value or bus.b.ready._value:
                    return False
            else:
                # Parallel ticking: any in-window entry maturing can
                # change the selection, so each crossing arms a wake.
                window = self._b_window()
                for position, entry in enumerate(self._b_queue):
                    if position >= window:
                        break
                    if entry[1] > 0 and (wake is None or now + entry[1] < wake):
                        wake = now + entry[1]
                if self._select_b_entry() is not None and (
                    not bus.b.valid._value or bus.b.ready._value
                ):
                    return False
        # R: mirror of B over the parallel per-job countdown/gap chains.
        # Every still-counting chain arms a wake — a crossing can change
        # which job _select_r_job() picks (and hence the driven beat),
        # so it must be observed at its exact cycle even while the
        # channel is stalled.
        if faults.spurious_r is not None and bus.r.ready._value:
            return False
        if self._reads and not faults.mute_r and faults.spurious_r is None:
            for job in self._reads:
                chain = job.countdown + job.gap
                if chain > 0 and (wake is None or now + chain < wake):
                    wake = now + chain
            if self._select_r_job() is not None and (
                not bus.r.valid._value or bus.r.ready._value
            ):
                return False
        if wake is not None:
            if wake <= now:
                return False
            if self._sim is not None:
                # `now` is this update's stamp (sim.cycle + 1); the
                # event update stamped `wake` runs in the step at
                # wake - 1 == sim.cycle + (wake - now).
                self.wake_at(self._sim.cycle + (wake - now))
        return True

    # ------------------------------------------------------------------
    # Burst streaming
    # ------------------------------------------------------------------
    def stream_horizon(self, limit: int) -> int:
        # Stores the middle of the head write job's burst: the previous
        # update accepted a beat of it from a streaming source, W stays
        # ready (no per-beat delay, no deaf fault), no other channel
        # moves, and the span ends before the burst's last beat, the W
        # fault threshold and every response countdown crossing.
        bus, faults = self.bus, self.faults
        if (
            not self._writes
            or self._stamp != self._sim.cycle
            or self._in_reset
            or self.hw_reset._value
            or self.w_ready_delay
            or faults.deaf_w
            or faults.spurious_b is not None
            or faults.spurious_r is not None
            or not (bus.w.valid._value and bus.w.ready._value)
            or bus.aw.valid._value
            or bus.ar.valid._value
            or bus.b.valid._value
            or bus.r.valid._value
        ):
            return 0
        job = self._writes[0]
        beat = bus.w.payload._value
        if beat.burst is None or beat.index + 1 != job.index:
            return 0
        limit = min(
            limit,
            len(job.addrs) - 1 - job.index,
            len(beat.burst) - 1 - job.index,
        )
        if faults.deaf_w_after is not None:
            limit = min(limit, faults.deaf_w_after - 1)
        if self._b_queue and not faults.mute_b:
            # In order, only the head counts down (the rest wait behind
            # it); with a reorder window every entry in it does.
            window = self._b_window()
            for entry in itertools.islice(self._b_queue, window):
                if entry[1] <= 0:
                    return 0
                limit = min(limit, entry[1] - 1)
        if self._reads and not faults.mute_r:
            for read in self._reads:
                chain = read.countdown + read.gap
                if chain == 0:
                    return 0
                limit = min(limit, chain - 1)
        return limit

    def stream(self, cycles: int) -> None:
        self._stamp = self._sim.cycle + cycles
        self._tick_responses(cycles)
        job = self._writes[0]
        start = job.index
        beats = self.bus.w.payload._value.burst[start:start + cycles]
        width = bytes_per_beat(job.aw.size)
        full = (1 << width) - 1
        if (
            width == self.bus.data_bytes
            and job.addrs[start + cycles - 1] - job.addrs[start]
            == (cycles - 1) * width
            and all(strb & full == full for _, strb in beats)
        ):
            # Full-width beats at consecutive addresses: one slice.
            mask = (1 << (8 * width)) - 1
            self.memory.write_block(
                job.addrs[start],
                b"".join(
                    (data & mask).to_bytes(width, "little")
                    for data, _ in beats
                ),
            )
        else:
            for offset, (data, strb) in enumerate(beats):
                self._store(job, start + offset, data, strb)
        job.index = start + cycles
        job.w_wait = 0
        self.w_beats += cycles
        if self.faults.deaf_w_after is not None:
            self.faults.take_w_beats(cycles)

    def _memory_stored(self) -> None:
        """Memory watcher: a store may change the R data being driven.

        Only R data comes from memory, so with no read in flight there
        is nothing to re-drive.
        """
        self._r_memo = None
        if self._reads:
            self.schedule_drive()

    def _write_capacity(self) -> bool:
        return len(self._writes) + len(self._b_queue) < self.max_outstanding

    def drive(self) -> None:
        # Declared-input drive (see inputs()): the one wire it reads is
        # read from its slot.
        bus = self.bus
        if self.hw_reset._value:
            bus.aw.ready.value = False
            bus.w.ready.value = False
            bus.ar.ready.value = False
            bus.b.idle()
            bus.r.idle()
            return

        faults = self.faults
        bus.aw.ready.value = (
            not faults.deaf_aw
            and self._write_capacity()
            and self._aw_wait >= self.aw_ready_delay
        )
        bus.ar.ready.value = (
            not faults.deaf_ar
            and len(self._reads) < self.max_outstanding
            and self._ar_wait >= self.ar_ready_delay
        )
        job = self._writes[0] if self._writes else None
        bus.w.ready.value = (
            job is not None
            and not faults.deaf_w
            and job.w_wait >= self.w_ready_delay
        )
        self._drive_b()
        self._drive_r()

    def _drive_b(self) -> None:
        bus, faults = self.bus, self.faults
        if faults.spurious_b is not None:
            bus.b.drive(BBeat(id=faults.spurious_b, resp=Resp.OKAY))
            return
        entry = self._select_b_entry() if not faults.mute_b else None
        if entry is None:
            bus.b.idle()
            return
        txn_id = entry[0]
        if faults.corrupt_b_id is not None:
            txn_id = faults.corrupt_b_id
        resp = Resp.SLVERR if faults.error_resp else Resp.OKAY
        beat = self._b_memo
        if beat is None or beat.id != txn_id or beat.resp != resp:
            beat = self._b_memo = BBeat(id=txn_id, resp=resp)
        bus.b.drive(beat)

    def _r_window(self) -> int:
        """Read-side reorder window size (``interleave_reads`` = unbounded)."""
        if self.interleave_reads:
            return len(self._reads)
        return max(1, self.reorder_depth)

    def _b_window(self) -> int:
        """Write-response reorder window size."""
        return max(1, self.reorder_depth)

    def _select_r_job(self) -> Optional[_ReadJob]:
        """Deterministic choice of the read job to serve this cycle.

        Pure function of registered state, so drive() and update() can
        both call it and agree.  With a window of one the oldest job is
        served; otherwise the round-robin pointer picks among the heads
        of each ID's in-order stream within the window (every job when
        the ``reorder_same_id`` fault erases the same-ID constraint).
        """
        reads = self._reads
        if not reads:
            return None
        window = self._r_window()
        if window <= 1 or len(reads) == 1:
            job = reads[0]
            return job if job.countdown == 0 and job.gap == 0 else None
        heads = []
        seen_ids = set()
        same_id_free = self.faults.reorder_same_id
        for job in itertools.islice(reads, window):
            txn_id = job.ar.id
            if txn_id in seen_ids and not same_id_free:
                continue  # same-ID reads stay in order
            seen_ids.add(txn_id)
            if job.countdown == 0 and job.gap == 0:
                heads.append(job)
        if not heads:
            return None
        return heads[self._r_rr % len(heads)]

    def _select_b_entry(self) -> Optional[List[int]]:
        """Deterministic choice of the B response to present this cycle.

        Mirror of :meth:`_select_r_job` over the write-response queue:
        within the reorder window any matured response whose ID has no
        older sibling still queued may complete; same-ID responses keep
        AW order (unless the ``reorder_same_id`` fault erases it).
        """
        if not self._b_queue:
            return None
        window = self._b_window()
        if window <= 1:
            entry = self._b_queue[0]
            return entry if entry[1] <= 0 else None
        candidates = []
        seen_ids = set()
        for position, entry in enumerate(self._b_queue):
            if position >= window:
                break
            if entry[0] in seen_ids and not self.faults.reorder_same_id:
                continue  # same-ID responses keep AW order
            seen_ids.add(entry[0])
            if entry[1] <= 0:
                candidates.append(entry)
        if not candidates:
            return None
        return candidates[self._b_rr % len(candidates)]

    def _drive_r(self) -> None:
        bus, faults = self.bus, self.faults
        if faults.spurious_r is not None:
            bus.r.drive(
                RBeat(id=faults.spurious_r, data=0, resp=Resp.OKAY, last=True)
            )
            return
        job = self._select_r_job()
        if faults.mute_r or job is None:
            bus.r.idle()
            return
        # Fault-free beats are a pure function of (job, index) and the
        # memory contents; the memory watcher drops the memo on a store.
        plain = (
            faults.corrupt_r_id is None
            and not faults.drop_r_last
            and not faults.error_resp
        )
        memo = self._r_memo
        if plain and memo is not None and memo[0] is job and memo[1] == job.index:
            bus.r.drive(memo[2])
            return
        width = bytes_per_beat(job.ar.size)
        addr = job.addrs[job.index]
        data = self.memory.read_word(addr, width)
        if width < self.bus.data_bytes:
            # Narrow beat: place the data on the addressed byte lanes.
            data <<= 8 * beat_lane(addr, self.bus.data_bytes)
        is_last = job.index == len(job.addrs) - 1
        txn_id = job.ar.id
        if faults.corrupt_r_id is not None:
            txn_id = faults.corrupt_r_id
        if faults.drop_r_last:
            is_last = False
        resp = Resp.SLVERR if faults.error_resp else Resp.OKAY
        beat = RBeat(id=txn_id, data=data, resp=resp, last=is_last)
        if plain:
            self._r_memo = (job, job.index, beat)
        bus.r.drive(beat)

    def update(self) -> None:
        # Clock-edge code: wire reads go straight to the slots (no
        # drive-phase tracing needed), mirroring Channel.fired().
        bus = self.bus
        aw, ar, w, b, r = bus.aw, bus.ar, bus.w, bus.b, bus.r
        sim = self._sim
        now = sim.cycle + 1 if sim is not None else self._stamp + 1
        if self.hw_reset._value:
            if not self._in_reset:
                self._take_reset()
                self.resets_taken += 1
                self._in_reset = True
                self.schedule_drive()
            self._stamp = now  # reset cycles tick nothing
            return
        elapsed = now - self._stamp
        self._stamp = now
        if self._in_reset:
            self._in_reset = False
            self.schedule_drive()
            elapsed = 1  # the slept reset span ticked nothing
        changed = False

        # A response handshake completing this edge carries the payload
        # selected at the last settle — i.e. from *pre-tick* state.
        # Resolve the selection now, before the countdown ticks below
        # can mature another window entry and skew the round-robin pick.
        b_fired_entry = None
        if b.valid._value and b.ready._value and self.faults.spurious_b is None:
            b_fired_entry = self._select_b_entry()
        r_fired_job = None
        if r.valid._value and r.ready._value and self.faults.spurious_r is None:
            r_fired_job = self._select_r_job()

        # The wait counters feed drive() only through the
        # "wait >= *_ready_delay" comparisons, so only a threshold
        # crossing on an open (non-deaf, in-capacity) channel moves a
        # readiness output — and such crossings always happen in a real
        # (awake) update: either per-cycle, or as the declared timed
        # wake of a slept span.  A slept span's ticks are reconstructed
        # here via `elapsed`, which is 1 in always-on operation.
        old_wait = self._aw_wait
        if aw.valid._value:
            self._aw_wait = old_wait + elapsed if old_wait > 0 else 1
        else:
            self._aw_wait = 0
        if (
            (old_wait >= self.aw_ready_delay)
            != (self._aw_wait >= self.aw_ready_delay)
            and not self.faults.deaf_aw
            and self._write_capacity()
        ):
            changed = True
        old_wait = self._ar_wait
        if ar.valid._value:
            self._ar_wait = old_wait + elapsed if old_wait > 0 else 1
        else:
            self._ar_wait = 0
        if (
            (old_wait >= self.ar_ready_delay)
            != (self._ar_wait >= self.ar_ready_delay)
            and not self.faults.deaf_ar
            and len(self._reads) < self.max_outstanding
        ):
            changed = True
        if self._writes:
            job = self._writes[0]
            old_wait = job.w_wait
            job.w_wait = old_wait + elapsed
            if (
                (old_wait >= self.w_ready_delay)
                != (job.w_wait >= self.w_ready_delay)
                and not self.faults.deaf_w
            ):
                changed = True
        if self._tick_responses(elapsed):
            changed = True

        if aw.valid._value and aw.ready._value:
            self._aw_wait = 0
            beat = aw.payload._value
            self._writes.append(
                _WriteJob(
                    beat,
                    burst_addresses(beat.addr, beat.len, beat.size, beat.burst),
                )
            )
            changed = True
        if ar.valid._value and ar.ready._value:
            self._ar_wait = 0
            beat = ar.payload._value
            self._reads.append(
                _ReadJob(
                    beat,
                    burst_addresses(beat.addr, beat.len, beat.size, beat.burst),
                    countdown=self.r_latency,
                )
            )
            changed = True
        if w.valid._value and w.ready._value:
            beat = w.payload._value
            job = self._writes[0] if self._writes else None
            # A mid-burst beat moves nothing drive() reads unless the
            # per-beat ready delay restarts; a burst's last beat moves
            # the write queues.  (Its store reaches an in-flight read
            # through the memory watcher.)
            if job is not None and (
                beat.last
                or job.index + 1 >= len(job.addrs)
                or self.w_ready_delay > 0
            ):
                changed = True
            self.w_beats += 1
            self._on_w_fired(beat)
            if self.faults.deaf_w_after is not None:
                self.faults.take_w_beats(1)
        if b.valid._value and b.ready._value:
            self._on_b_fired(b_fired_entry)
            changed = True
        if r.valid._value and r.ready._value:
            self.r_beats += 1
            self._on_r_fired(r_fired_job)
            if self.faults.mute_r_after is not None:
                self.faults.take_r_beats(1)
            changed = True
        if changed:
            self.schedule_drive()

    def _tick_responses(self, elapsed: int) -> bool:
        """Advance the B/R latency countdowns by *elapsed* cycles.

        Returns whether a countdown reached zero where it makes a
        response selectable next settle (drive-visible).  b_latency
        countdowns tick serially in the legacy in-order regime (the
        front-most nonzero entry, one tick per cycle — a span of
        *elapsed* cycles distributes across the queue in that order),
        and in parallel across the queue when a reorder window is open,
        since any window entry maturing can change the selection.
        """
        changed = False
        if self._b_window() <= 1:
            remaining = elapsed
            for entry in self._b_queue:
                if remaining <= 0:
                    break
                if entry[1] <= 0:
                    continue
                ticks = entry[1] if entry[1] < remaining else remaining
                entry[1] -= ticks
                remaining -= ticks
                if (
                    entry[1] == 0
                    and entry is self._b_queue[0]
                    and not self.faults.mute_b
                    and self.faults.spurious_b is None
                ):
                    changed = True
        else:
            window = self._b_window()
            for position, entry in enumerate(self._b_queue):
                if entry[1] <= 0:
                    continue
                ticks = entry[1] if entry[1] < elapsed else elapsed
                entry[1] -= ticks
                if (
                    entry[1] == 0
                    and position < window
                    and not self.faults.mute_b
                    and self.faults.spurious_b is None
                ):
                    changed = True
        # r_latency/r_gap chains count down in parallel across jobs
        # (countdown first, then gap); a chain reaching zero on an
        # unparked channel makes its job selectable next settle.
        for job in self._reads:
            ticked = False
            rest = elapsed
            if job.countdown > 0:
                ticks = job.countdown if job.countdown < rest else rest
                job.countdown -= ticks
                rest -= ticks
                ticked = ticks > 0
            if rest > 0 and job.gap > 0:
                job.gap -= job.gap if job.gap < rest else rest
                ticked = True
            if (
                ticked
                and job.countdown == 0
                and job.gap == 0
                and not self.faults.mute_r
                and self.faults.spurious_r is None
            ):
                changed = True

        return changed

    def _on_w_fired(self, beat) -> None:
        if not self._writes:
            return  # W beat with no accepted AW; protocol checker's domain
        job = self._writes[0]
        self._store(job, job.index, beat.data, beat.strb)
        job.w_wait = 0
        job.index += 1
        if beat.last or job.index >= len(job.addrs):
            self._writes.popleft()
            self._b_queue.append([job.aw.id, self.b_latency])
            self.writes_done += 1

    def _store(self, job: _WriteJob, index: int, data: int, strb: int) -> None:
        """Store beat *index* of *job* (its W ``data`` and ``strb``)."""
        width = bytes_per_beat(job.aw.size)
        bus_bytes = self.bus.data_bytes
        addr = job.addrs[index]
        if width < bus_bytes:
            # Narrow beat: data and strobes are lane-positioned over the
            # bus-aligned word containing the beat address.
            base = addr - beat_lane(addr, bus_bytes)
            self.memory.write_masked(base, data, strb, bus_bytes)
        else:
            self.memory.write_masked(addr, data, strb, width)

    def _on_b_fired(self, entry: Optional[List[int]]) -> None:
        if self.faults.spurious_b is not None:
            self.faults.spurious_b = None
            return
        if entry is None:
            return
        self._b_queue.remove(entry)
        if self._b_window() > 1:
            self._b_rr += 1

    def _on_r_fired(self, job: Optional[_ReadJob]) -> None:
        if self.faults.spurious_r is not None:
            self.faults.spurious_r = None
            return
        if job is None:
            return
        job.index += 1
        if self.interleave_reads or self.reorder_depth > 1:
            self._r_rr += 1
        if job.index >= len(job.addrs):
            self._reads.remove(job)
            self.reads_done += 1
        else:
            job.gap = self.r_gap

    def _take_reset(self) -> None:
        """The hardware reset (``hw_reset``): drop every in-flight job
        but keep the counters."""
        self._drop_in_flight()
        if self.reset_clears_faults:
            self.faults.clear()

    def reset(self) -> None:
        super().reset()
        self.faults.clear()
