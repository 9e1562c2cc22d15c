"""N×M AXI4 crossbar with address decode and round-robin arbitration.

Models the Cheshire platform's central interconnect (paper Fig. 10):

* address-decoded routing of AW/AR to subordinate ports, with a DECERR
  default subordinate for unmapped addresses;
* manager-index ID extension so responses route back unambiguously
  (downstream ID = ``manager_index << ID_SHIFT | original ID``);
* per-subordinate W-channel burst locking (AXI4 forbids interleaving
  write data of different bursts);
* round-robin arbitration on every contended port.

Ordering note: a manager issuing same-ID transactions to *different*
subordinates could observe reordered completions; real crossbars stall
that case.  The workloads here (like Cheshire's) give each manager
distinct ID streams per target, so the hazard is not exercised; the
protocol checker still flags it if it ever occurs.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import deque
from typing import List, Optional, Sequence, Tuple

from ..sim.component import Component, uncompared
from .channels import BBeat, RBeat, remap_id
from .interface import AxiInterface
from .types import Resp

#: Bits reserved for the original ID when prepending the manager index.
ID_SHIFT = 16
_ID_MASK = (1 << ID_SHIFT) - 1


def extend_id(manager_index: int, orig_id: int) -> int:
    """Downstream ID carrying the issuing manager's port index."""
    if orig_id > _ID_MASK:
        raise ValueError(f"original ID {orig_id} exceeds {ID_SHIFT} bits")
    return (manager_index << ID_SHIFT) | orig_id


def split_id(extended: int) -> Tuple[int, int]:
    """Inverse of :func:`extend_id`: (manager_index, original ID)."""
    return extended >> ID_SHIFT, extended & _ID_MASK


@dataclasses.dataclass(frozen=True)
class AddressRange:
    """One subordinate's address window."""

    base: int
    size: int

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size


class _XbarChannel(Component):
    """Drive-only child covering one AXI channel of the crossbar.

    The crossbar registers one of these per channel (aw/w/b/ar/r) so the
    kernel can re-arbitrate exactly the channels whose inputs moved: a W
    beat streaming through does not re-run address decode, and an idle
    response channel costs nothing.  All state lives in the parent; the
    parent's update() re-schedules every channel when it mutates
    routing/arbitration state.
    """

    demand_driven = True
    phase_period = 1

    def __init__(self, xbar: "Crossbar", channel: str) -> None:
        super().__init__(f"{xbar.name}.{channel}")
        self.xbar = xbar
        self.channel = channel
        if channel in ("aw", "ar"):
            self._drive_channel = functools.partial(xbar._drive_addr, channel)
        elif channel == "w":
            self._drive_channel = xbar._drive_w
        else:
            self._drive_channel = functools.partial(xbar._drive_resp, channel)

    def inputs(self):
        xbar, ch = self.xbar, self.channel
        if ch in ("aw", "ar", "w"):
            for src in xbar._mgr_ch[ch]:
                yield from (src.valid, src.payload)
            for dst in xbar._sub_ch[ch]:
                yield dst.ready
        else:
            for src in xbar._sub_ch[ch]:
                yield from (src.valid, src.payload)
            for dst in xbar._mgr_ch[ch]:
                yield dst.ready

    def forwards_w(self, wire):
        return self.xbar.forwards_w(wire)

    def drive(self) -> None:
        # Writes valid/payload toward every destination port of this
        # channel and ready back to every source port.
        self._drive_channel()


#: Route index used for addresses no subordinate claims.
DEFAULT_ROUTE = -1

#: The five AXI4 channels, in request-then-response order.
CHANNELS = ("aw", "ar", "w", "b", "r")

#: Channel bits for Crossbar._schedule_channels, in CHANNELS order.
_AW, _AR, _W, _B, _R = (1 << i for i in range(len(CHANNELS)))
ALL_CHANNELS = _AW | _AR | _W | _B | _R


class Crossbar(Component):
    """AXI4 crossbar connecting manager ports to subordinate ports.

    Parameters
    ----------
    managers:
        Upstream interfaces (managers drive their request channels).
    subordinates:
        ``(interface, address_range)`` pairs for each downstream port.
    """

    demand_driven = True
    demand_update = True
    #: Pure arbitration over the channel wires — translation invariant.
    phase_period = 1

    registered = {
        # Routing and arbitration: W routes per manager, W owners per
        # subordinate, round-robin pointers per port.
        "_mgr_w_route": lambda self: [deque() for _ in self.managers],
        "_sub_w_owner": lambda self: [deque() for _ in self.subordinates],
        "_aw_rr": lambda self: [0] * len(self.subordinates),
        "_ar_rr": lambda self: [0] * len(self.subordinates),
        "_b_rr": lambda self: [0] * len(self.managers),
        "_r_rr": lambda self: [0] * len(self.managers),
        # Default-subordinate (DECERR) bookkeeping: extended IDs
        # awaiting a DECERR B or R, and W beats left to drain.
        "_decerr_b": deque,
        "_decerr_r": deque,
        "_decerr_w_drain": 0,
        "decode_errors": 0,
        # Same-ID ordering: outstanding targets per (manager, ID), one
        # table per direction.  AXI4 requires same-ID responses in
        # request order; the crossbar enforces it by granting a same-ID
        # request only to the target its outstanding predecessors went
        # to.
        "_w_outstanding": dict,
        "_r_outstanding": dict,
        # Forwarded beat per destination channel: (source beat, beat
        # driven), a pure function of its key (see _forward()); and the
        # W plan, dropped whenever the W routes move.
        "_fwd_memo": uncompared(dict),
        "_w_plan_memo": uncompared(None),
    }

    def __init__(
        self,
        name: str,
        managers: Sequence[AxiInterface],
        subordinates: Sequence[Tuple[AxiInterface, AddressRange]],
        qos_arbitration: bool = False,
    ) -> None:
        super().__init__(name)
        if not managers or not subordinates:
            raise ValueError("crossbar needs at least one port per side")
        self.qos_arbitration = qos_arbitration
        self.managers = list(managers)
        self.subordinates = [bus for bus, _ in subordinates]
        self.ranges = [rng for _, rng in subordinates]

        # Per-channel wire bundles, precomputed for the hot arbitration
        # loops and the per-channel scheduling children.
        self._mgr_ch = {
            ch: [getattr(bus, ch) for bus in self.managers] for ch in CHANNELS
        }
        self._sub_ch = {
            ch: [getattr(bus, ch) for bus in self.subordinates] for ch in CHANNELS
        }
        self._channels = [_XbarChannel(self, ch) for ch in CHANNELS]
        # update() commits state only on fired handshakes; these
        # channel pairs gate its quiescence and their valid/ready wires
        # wake it.  Watching the readys too lets the crossbar sleep
        # through a held-valid (deaf endpoint) stall — the only event
        # that can complete such a handshake is its ready rising.
        self._watch_channels = [
            ch
            for group in (self._mgr_ch, self._sub_ch)
            for channels in group.values()
            for ch in channels
        ]
        self._w_channels = frozenset((*self._mgr_ch["w"], *self._sub_ch["w"]))
        self.reset()

    # ------------------------------------------------------------------
    # Routing helpers
    # ------------------------------------------------------------------
    def route(self, addr: int) -> int:
        for index, rng in enumerate(self.ranges):
            if rng.contains(addr):
                return index
        return DEFAULT_ROUTE

    def wires(self):
        for bus in self.managers:
            yield from bus.wires()
        for bus in self.subordinates:
            yield from bus.wires()

    def children(self):
        return self._channels

    def inputs(self):
        # Wire sensitivity lives on the per-channel children; the parent
        # keeps a whole-crossbar drive() only for one-shot seeding and
        # standalone use, and must not re-trigger on every wire change.
        return ()

    def update_inputs(self):
        return [
            wire
            for ch in self._watch_channels
            for wire in (ch.valid, ch.ready)
        ]

    def quiescent(self):
        # Routing and arbitration state move only on fired handshakes;
        # while no channel holds valid & ready nothing can fire next
        # edge, whatever the DECERR queues or round-robin pointers
        # currently hold — and any change that could complete a
        # handshake passes through a watched wire first.
        for ch in self._watch_channels:
            if ch.valid._value and ch.ready._value:
                return False
        return True

    def stream_horizon(self, limit: int) -> int:
        # Mid-burst W beats commit nothing here (only a last beat moves
        # routing state, and the manager never streams one); any other
        # handshake about to fire pins the span.
        w_channels = self._w_channels
        for ch in self._watch_channels:
            if ch.valid._value and ch.ready._value and ch not in w_channels:
                return 0
        return limit

    def stream_wires(self):
        return [sub_w.payload for _, sub_w in self._w_plan()[0]]

    def forwards_w(self, wire):
        # A mid-burst W beat moves no routing state (only a last beat
        # does) and _drive_w re-forwards a repeated beat as an equal
        # value, so a frozen beat is harmless here; it reappears only on
        # the subordinate port its manager's burst is locked to.
        for mgr_w, sub_w in self._w_plan()[0]:
            if mgr_w.payload is wire:
                return (sub_w.payload,)
        return ()

    def _schedule_channels(self, stale: int = ALL_CHANNELS) -> None:
        """Invalidate the per-channel drives that read moved state.

        *stale* is a mask over :data:`CHANNELS` (bit ``i`` for channel
        ``i``).  The channel drives read disjoint parts of the routing
        and arbitration state: AW its round-robin pointers, the write
        same-ID table and the W routes (one W target per manager); AR
        its pointers and the read same-ID table; W the W routes; B its
        pointers and the DECERR write queue and drain count; R its
        pointers and the DECERR read queue.  update() flags exactly the
        channels whose state a committed handshake moved.  Wire-level
        sensitivity still keeps idle channels from re-running in steady
        state.
        """
        if stale & _W:
            self._w_plan_memo = None
        for child in self._channels:
            if stale & 1:
                child.schedule_drive()
            stale >>= 1

    # ------------------------------------------------------------------
    # Drive: pure combinational forwarding + arbitration
    # ------------------------------------------------------------------
    def _addr_winner(
        self, sources, routes: List[Optional[int]], sub_index: int, rr: int
    ) -> Optional[int]:
        """Pick among managers requesting *sub_index*.

        *routes* holds each manager's decoded target (``None`` while it
        presents nothing).  Round-robin by default; with QoS arbitration
        the highest AxQOS wins and round-robin only breaks ties (AXI4
        QoS semantics).
        """
        n_mgr = len(routes)
        winner = None
        winner_qos = -1
        for offset in range(n_mgr):
            m = (rr + offset) % n_mgr
            if routes[m] == sub_index:
                if not self.qos_arbitration:
                    return m
                qos = sources[m].payload._value.qos
                if qos > winner_qos:
                    winner = m
                    winner_qos = qos
        return winner

    def _forward(self, dst, beat, new_id: int):
        """*beat* with ID *new_id*, as the beat to drive on *dst*.

        Re-drives of an unchanged source beat return the same object,
        so the destination wire's identity check skips the dataclass
        comparison.
        """
        memo = self._fwd_memo.get(dst)
        if memo is not None and memo[0] is beat and memo[1].id == new_id:
            return memo[1]
        out = remap_id(beat, new_id)
        self._fwd_memo[dst] = (beat, out)
        return out

    def drive(self) -> None:
        self._drive_addr("aw")
        self._drive_addr("ar")
        self._drive_w()
        self._drive_resp("b")
        self._drive_resp("r")

    def _w_target_allowed(self, manager_index: int, target: int) -> bool:
        """Write-deadlock avoidance: one W target per manager at a time.

        Granting a manager AWs to two different subordinates while both
        subs' W channels are locked to *other* managers can form a
        circular wait (a classic AXI crossbar deadlock).  The standard
        interconnect rule breaks the cycle: a manager's new AW is only
        granted when its pending W streams all go to the same target.
        """
        route = self._mgr_w_route[manager_index]
        return all(entry == target for entry in route)

    def _same_id_allowed(
        self, channel: str, manager_index: int, txn_id: int, target: int
    ) -> bool:
        """Same-ID ordering: all outstanding same-ID requests of this
        manager must target the same port before a new one is granted."""
        table = self._w_outstanding if channel == "aw" else self._r_outstanding
        queue = table.get((manager_index, txn_id))
        return not queue or queue[0] == target

    def _grant_allowed(self, channel: str, m: int, beat, target: int) -> bool:
        if not self._same_id_allowed(channel, m, beat.id, target):
            return False
        if channel == "aw" and not self._w_target_allowed(m, target):
            return False
        return True

    def _drive_addr(self, channel: str) -> None:
        # Declared-input drive (see _XbarChannel.inputs): wire reads go
        # straight to the slots.
        rr_state = self._aw_rr if channel == "aw" else self._ar_rr
        sources = self._mgr_ch[channel]
        # Decode each presented request once.
        route = self.route
        routes: List[Optional[int]] = [None] * len(sources)
        for m, src in enumerate(sources):
            beat = src.payload._value
            if beat is not None and src.valid._value:
                routes[m] = route(beat.addr)
        granted = [False] * len(sources)
        for s, dst in enumerate(self._sub_ch[channel]):
            winner = self._addr_winner(sources, routes, s, rr_state[s])
            if winner is not None:
                beat = sources[winner].payload._value
                if not self._grant_allowed(channel, winner, beat, s):
                    winner = None
            if winner is None:
                dst.idle()
                continue
            src = sources[winner]
            dst.drive(self._forward(dst, beat, extend_id(winner, beat.id)))
            src.ready.value = dst.ready._value
            granted[winner] = True
        # Default subordinate: accept unmapped requests (same gating).
        for m, src in enumerate(sources):
            if not granted[m]:
                src.ready.value = routes[m] == DEFAULT_ROUTE and (
                    self._grant_allowed(channel, m, src.payload._value, DEFAULT_ROUTE)
                )

    def _w_plan(self):
        """The W forwarding plan the routing state implies.

        ``(fed, drains, idle)``: the (manager, subordinate) W channel
        pairs whose locked burst streams through, each unfed manager's
        W channel with whether it drains an unmapped write, and the
        subordinate W channels left idle.  Cached until update() moves
        the routing state.
        """
        plan = self._w_plan_memo
        if plan is not None:
            return plan
        sub_owner, mgr_route = self._sub_w_owner, self._mgr_w_route
        fed_by: List[Optional[int]] = [None] * len(self.managers)
        for s, owners in enumerate(sub_owner):
            if owners:
                route = mgr_route[owners[0]]
                if route and route[0] == s:
                    fed_by[owners[0]] = s
        mgr_ws, sub_ws = self._mgr_ch["w"], self._sub_ch["w"]
        fed = [(mgr_ws[m], sub_ws[s]) for m, s in enumerate(fed_by) if s is not None]
        drains = [
            (mgr_ws[m], bool(route) and route[0] == DEFAULT_ROUTE)
            for m, route in enumerate(mgr_route)
            if fed_by[m] is None
        ]
        idle = [
            sub_w
            for s, sub_w in enumerate(sub_ws)
            if not sub_owner[s] or fed_by[sub_owner[s][0]] != s
        ]
        plan = self._w_plan_memo = (fed, drains, idle)
        return plan

    def _drive_w(self) -> None:
        # Forward each subordinate's locked W stream.
        fed, drains, idle = self._w_plan()
        for mgr_w, sub_w in fed:
            sub_w.valid.value = mgr_w.valid._value
            sub_w.payload.value = mgr_w.payload._value
            mgr_w.ready.value = sub_w.ready._value
        for mgr_w, drain in drains:
            mgr_w.ready.value = drain
        for sub_w in idle:
            sub_w.idle()

    def _drive_resp(self, channel: str) -> None:
        rr_state = self._b_rr if channel == "b" else self._r_rr
        sources = self._sub_ch[channel]
        dests = self._mgr_ch[channel]
        n_sub = len(sources)
        # One pass over the subordinates: a presented beat names its
        # manager in the ID's top bits; each manager takes the presenter
        # nearest its round-robin pointer.
        winners: List[Optional[int]] = [None] * len(dests)
        distance = [n_sub] * len(dests)
        for s, src in enumerate(sources):
            beat = src.payload._value
            if beat is None or not src.valid._value:
                continue
            m = beat.id >> ID_SHIFT
            if m < len(dests):
                offset = (s - rr_state[m]) % n_sub
                if offset < distance[m]:
                    distance[m] = offset
                    winners[m] = s
        used = [False] * n_sub
        for m, dst in enumerate(dests):
            s = winners[m]
            if s is not None:
                src = sources[s]
                beat = src.payload._value
                dst.drive(self._forward(dst, beat, beat.id & _ID_MASK))
                src.ready.value = dst.ready._value
                used[s] = True
                continue
            # DECERR responses for unmapped requests, in request order;
            # a DECERR B waits until its write's W beats are drained.
            queue = self._decerr_b if channel == "b" else self._decerr_r
            if (
                queue
                and queue[0] >> ID_SHIFT == m
                and (channel == "r" or self._decerr_w_drain == 0)
            ):
                orig = queue[0] & _ID_MASK
                if channel == "b":
                    dst.drive(BBeat(id=orig, resp=Resp.DECERR))
                else:
                    dst.drive(RBeat(id=orig, data=0, resp=Resp.DECERR, last=True))
            else:
                dst.idle()
        for s, src in enumerate(sources):
            if not used[s]:
                src.ready.value = False

    # ------------------------------------------------------------------
    # Update: commit arbitration and routing state on fired handshakes
    # ------------------------------------------------------------------
    def update(self) -> None:
        # Clock-edge code: wire reads go straight to the slots (no
        # drive-phase tracing needed), mirroring Channel.fired().
        n_mgr = len(self.managers)
        stale = 0  # channels whose drive reads state moved below
        # Managers whose W beat was forwarded to a subordinate this
        # cycle must not also trigger the DECERR drain bookkeeping below
        # (the same handshake fires on both sides of the crossbar).
        w_forwarded = set()
        for s, sub in enumerate(self.subordinates):
            if (sub.aw.valid._value and sub.aw.ready._value):
                m, orig = split_id(sub.aw.payload._value.id)
                self._sub_w_owner[s].append(m)
                self._mgr_w_route[m].append(s)
                self._w_outstanding.setdefault((m, orig), deque()).append(s)
                self._aw_rr[s] = (m + 1) % n_mgr
                stale |= _AW | _W
            if (sub.ar.valid._value and sub.ar.ready._value):
                m, orig = split_id(sub.ar.payload._value.id)
                self._r_outstanding.setdefault((m, orig), deque()).append(s)
                self._ar_rr[s] = (m + 1) % n_mgr
                stale |= _AR
            if (sub.w.valid._value and sub.w.ready._value):
                owner = self._sub_w_owner[s][0]
                w_forwarded.add(owner)
                if sub.w.payload._value.last:
                    # Mid-burst beats commit nothing; only the last beat
                    # moves routing state.
                    self._sub_w_owner[s].popleft()
                    self._mgr_w_route[owner].popleft()
                    stale |= _AW | _W
        for m, mgr in enumerate(self.managers):
            # Unmapped requests accepted this cycle.
            if (mgr.aw.valid._value and mgr.aw.ready._value):
                beat = mgr.aw.payload._value
                if self.route(beat.addr) == DEFAULT_ROUTE:
                    self._decerr_b.append(extend_id(m, beat.id))
                    self._mgr_w_route[m].append(DEFAULT_ROUTE)
                    self._w_outstanding.setdefault((m, beat.id), deque()).append(
                        DEFAULT_ROUTE
                    )
                    self._decerr_w_drain += 1
                    self.decode_errors += 1
                    stale |= _AW | _W | _B
            if (mgr.ar.valid._value and mgr.ar.ready._value):
                beat = mgr.ar.payload._value
                if self.route(beat.addr) == DEFAULT_ROUTE:
                    self._decerr_r.append(extend_id(m, beat.id))
                    self._r_outstanding.setdefault((m, beat.id), deque()).append(
                        DEFAULT_ROUTE
                    )
                    self.decode_errors += 1
                    stale |= _AR | _R
            if (mgr.w.valid._value and mgr.w.ready._value) and m not in w_forwarded:
                route = self._mgr_w_route[m]
                if route and route[0] == DEFAULT_ROUTE and mgr.w.payload._value.last:
                    route.popleft()
                    self._decerr_w_drain -= 1
                    stale |= _AW | _W | _B
            if (mgr.b.valid._value and mgr.b.ready._value):
                beat = mgr.b.payload._value
                self._pop_outstanding(self._w_outstanding, m, beat.id)
                if (
                    beat.resp == Resp.DECERR
                    and self._decerr_b
                    and split_id(self._decerr_b[0]) == (m, beat.id)
                ):
                    self._decerr_b.popleft()
                else:
                    self._b_rr[m] = (self._b_rr[m] + 1) % len(self.subordinates)
                stale |= _AW | _B
            if (mgr.r.valid._value and mgr.r.ready._value):
                beat = mgr.r.payload._value
                if beat.last:
                    self._pop_outstanding(self._r_outstanding, m, beat.id)
                    stale |= _AR | _R
                if (
                    beat.resp == Resp.DECERR
                    and self._decerr_r
                    and split_id(self._decerr_r[0]) == (m, beat.id)
                ):
                    self._decerr_r.popleft()
                    stale |= _R
                elif beat.last:
                    self._r_rr[m] = (self._r_rr[m] + 1) % len(self.subordinates)
        if stale:
            self._schedule_channels(stale)

    @staticmethod
    def _pop_outstanding(table, m: int, txn_id: int) -> None:
        queue = table.get((m, txn_id))
        if queue:
            queue.popleft()
            if not queue:
                del table[(m, txn_id)]
