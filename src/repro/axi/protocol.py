"""Rule-based AXI4 protocol checker (AXIChecker-class, ref. [13]).

A passive observer that applies a library of AXI4 protocol rules to one
interface, modelled on Chen et al.'s synthesizable AXIChecker.  Rules
are named in the ARM protocol-assertion style (``ERRM_*`` for manager
obligations, ``ERRS_*`` for subordinate obligations).

This module serves three roles in the reproduction:

* the :class:`~repro.baselines.axichecker.AxiChecker` baseline of
  Table II wraps it;
* property tests drive random legal traffic through it and assert zero
  false positives;
* fault-injection tests assert that the corresponding rule fires.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Dict, Optional

from ..sim.component import Component, projected, uncompared
from .interface import AxiInterface
from .types import (
    MAX_BURST_LEN,
    BurstType,
    Resp,
    aligned,
    beat_strb,
    burst_addresses,
    crosses_4k_boundary,
    is_legal_wrap_len,
)


@dataclasses.dataclass(frozen=True)
class Rule:
    """One protocol rule."""

    name: str
    description: str


@dataclasses.dataclass(frozen=True)
class RuleViolation:
    """One observed rule violation."""

    rule: Rule
    cycle: int
    detail: str

    def __str__(self) -> str:  # pragma: no cover - log formatting
        return f"[cycle {self.cycle}] {self.rule.name}: {self.detail}"


def _rule(name: str, description: str) -> Rule:
    rule = Rule(name, description)
    RULES[name] = rule
    return rule


RULES: Dict[str, Rule] = {}

# Manager address-channel obligations.
ERRM_AWVALID_STABLE = _rule(
    "ERRM_AWVALID_STABLE", "AWVALID must stay asserted until AWREADY"
)
ERRM_AW_PAYLOAD_STABLE = _rule(
    "ERRM_AW_PAYLOAD_STABLE", "AW payload must not change while stalled"
)
ERRM_AWADDR_ALIGNED_WRAP = _rule(
    "ERRM_AWADDR_ALIGNED_WRAP", "WRAP bursts require size-aligned addresses"
)
ERRM_AWLEN_WRAP = _rule(
    "ERRM_AWLEN_WRAP", "WRAP bursts must be 2, 4, 8 or 16 beats"
)
ERRM_AW_4K_BOUNDARY = _rule(
    "ERRM_AW_4K_BOUNDARY", "INCR bursts must not cross a 4 KiB boundary"
)
ERRM_AWLEN_RANGE = _rule(
    "ERRM_AWLEN_RANGE", f"AWLEN must encode at most {MAX_BURST_LEN} beats"
)
ERRM_ARVALID_STABLE = _rule(
    "ERRM_ARVALID_STABLE", "ARVALID must stay asserted until ARREADY"
)
ERRM_AR_PAYLOAD_STABLE = _rule(
    "ERRM_AR_PAYLOAD_STABLE", "AR payload must not change while stalled"
)
ERRM_ARADDR_ALIGNED_WRAP = _rule(
    "ERRM_ARADDR_ALIGNED_WRAP", "WRAP bursts require size-aligned addresses"
)
ERRM_ARLEN_WRAP = _rule(
    "ERRM_ARLEN_WRAP", "WRAP bursts must be 2, 4, 8 or 16 beats"
)
ERRM_AR_4K_BOUNDARY = _rule(
    "ERRM_AR_4K_BOUNDARY", "INCR bursts must not cross a 4 KiB boundary"
)
ERRM_ARLEN_RANGE = _rule(
    "ERRM_ARLEN_RANGE", f"ARLEN must encode at most {MAX_BURST_LEN} beats"
)

# Manager write-data obligations.
ERRM_WVALID_STABLE = _rule(
    "ERRM_WVALID_STABLE", "WVALID must stay asserted until WREADY"
)
ERRM_W_PAYLOAD_STABLE = _rule(
    "ERRM_W_PAYLOAD_STABLE", "W payload must not change while stalled"
)
ERRM_WLAST_POSITION = _rule(
    "ERRM_WLAST_POSITION", "WLAST must mark exactly the AWLEN-th beat"
)
ERRM_W_EXTRA_BEATS = _rule(
    "ERRM_W_EXTRA_BEATS", "no W beats beyond the burst length"
)
ERRM_W_NO_OUTSTANDING = _rule(
    "ERRM_W_NO_OUTSTANDING", "W data without any outstanding write address"
)
ERRM_WSTRB_RANGE = _rule(
    "ERRM_WSTRB_RANGE", "WSTRB must only enable lanes within the beat size"
)

# Subordinate response obligations.
ERRS_BVALID_STABLE = _rule(
    "ERRS_BVALID_STABLE", "BVALID must stay asserted until BREADY"
)
ERRS_BRESP_LEGAL = _rule("ERRS_BRESP_LEGAL", "BRESP must be a legal encoding")
ERRS_B_BEFORE_WLAST = _rule(
    "ERRS_B_BEFORE_WLAST", "B response must follow the write's WLAST"
)
ERRS_B_UNREQUESTED = _rule(
    "ERRS_B_UNREQUESTED", "B response without a matching outstanding write"
)
ERRS_RVALID_STABLE = _rule(
    "ERRS_RVALID_STABLE", "RVALID must stay asserted until RREADY"
)
ERRS_RRESP_LEGAL = _rule("ERRS_RRESP_LEGAL", "RRESP must be a legal encoding")
ERRS_R_UNREQUESTED = _rule(
    "ERRS_R_UNREQUESTED", "R beat without a matching outstanding read"
)
ERRS_RLAST_POSITION = _rule(
    "ERRS_RLAST_POSITION", "RLAST must mark exactly the ARLEN-th beat"
)
ERRS_R_IN_ORDER = _rule(
    "ERRS_R_IN_ORDER", "same-ID reads must complete in request order"
)
ERRS_R_INTERLEAVE_DEPTH = _rule(
    "ERRS_R_INTERLEAVE_DEPTH",
    "R data interleaved across more IDs than the configured depth",
)
ERRM_AXSIZE_RANGE = _rule(
    "ERRM_AXSIZE_RANGE", "AxSIZE must not exceed the data bus width"
)


#: Per address channel: its (AxLEN range, WRAP length, WRAP alignment,
#: 4 KiB boundary) rules.
_ADDR_RULES = {
    "aw": (ERRM_AWLEN_RANGE, ERRM_AWLEN_WRAP, ERRM_AWADDR_ALIGNED_WRAP,
           ERRM_AW_4K_BOUNDARY),
    "ar": (ERRM_ARLEN_RANGE, ERRM_ARLEN_WRAP, ERRM_ARADDR_ALIGNED_WRAP,
           ERRM_AR_4K_BOUNDARY),
}


@dataclasses.dataclass
class _PendingWrite:
    txn_id: int
    beats: int
    beats_seen: int = 0
    wlast_seen: bool = False
    size: int = 3
    addrs: tuple = ()


@dataclasses.dataclass
class _PendingRead:
    txn_id: int
    beats: int
    beats_seen: int = 0


class _Stability:
    """Tracks valid/payload stability across stalled cycles."""

    __slots__ = ("pending", "payload")

    def __init__(self) -> None:
        self.pending = False
        self.payload = None

    def step(self, valid: bool, ready: bool, payload) -> Optional[str]:
        """Returns 'drop', 'payload', or None."""
        outcome = None
        if self.pending:
            if not valid:
                outcome = "drop"
            elif payload != self.payload:
                outcome = "payload"
        self.pending = bool(valid and not ready)
        self.payload = payload if self.pending else None
        return outcome


def _queue_lengths(table):
    """Verify's view of a per-ID table of pending bursts: its depths."""
    return tuple(sorted((tid, len(queue)) for tid, queue in table.items()))


class ProtocolChecker(Component):
    """Passive AXI4 rule checker attached to one interface.

    Parameters
    ----------
    bus:
        Interface to observe; its ``data_bytes`` feeds the narrow-beat
        WSTRB lane rules.
    max_r_interleave:
        Interleaving-legality bound: the maximum number of read bursts
        whose R data may be concurrently interleaved (AXI4 leaves this
        unbounded, but interconnects advertise a depth).  ``None``
        disables the check, so legal traffic never false-positives.
    """

    registered = {
        "violations": projected(list, len),
        "_cycle": uncompared(0),  # violation stamps follow the clock
        "_stab": projected(
            lambda self: {ch: _Stability() for ch in ("aw", "w", "b", "ar", "r")},
            lambda stab: tuple(watch.pending for watch in stab.values()),
        ),
        "_writes": projected(dict, _queue_lengths),
        "_write_order": projected(deque, len),
        "_reads": projected(dict, _queue_lengths),
    }

    def __init__(
        self,
        name: str,
        bus: AxiInterface,
        max_r_interleave: Optional[int] = None,
    ) -> None:
        super().__init__(name)
        self.bus = bus
        self.max_r_interleave = max_r_interleave
        self._bus_bytes = getattr(bus, "data_bytes", 8)
        self.reset()

    # ------------------------------------------------------------------
    def wires(self):
        return self.bus.wires()

    def _flag(self, rule: Rule, detail: str = "") -> None:
        self.violations.append(RuleViolation(rule, self._cycle, detail))

    def count(self, rule: Rule) -> int:
        return sum(1 for violation in self.violations if violation.rule == rule)

    @property
    def clean(self) -> bool:
        return not self.violations

    # ------------------------------------------------------------------
    def update(self) -> None:
        # Violation timestamps follow the owning simulator's clock when
        # registered (the AxiChecker wrapper sets ``_cycle`` instead), so
        # skipped quiescent spans cannot skew them.
        sim = self._sim
        self._cycle = sim.cycle + 1 if sim is not None else self._cycle + 1
        self._check_stability()
        bus = self.bus
        if bus.aw.fired():
            self._on_aw(bus.aw.payload.value)
        if bus.ar.fired():
            self._on_ar(bus.ar.payload.value)
        if bus.w.fired():
            self._on_w(bus.w.payload.value)
        if bus.b.fired():
            self._on_b(bus.b.payload.value)
        if bus.r.fired():
            self._on_r(bus.r.payload.value)

    def _check_stability(self) -> None:
        rules = {
            "aw": (ERRM_AWVALID_STABLE, ERRM_AW_PAYLOAD_STABLE),
            "w": (ERRM_WVALID_STABLE, ERRM_W_PAYLOAD_STABLE),
            "b": (ERRS_BVALID_STABLE, None),
            "ar": (ERRM_ARVALID_STABLE, ERRM_AR_PAYLOAD_STABLE),
            "r": (ERRS_RVALID_STABLE, None),
        }
        for name, (drop_rule, payload_rule) in rules.items():
            channel = getattr(self.bus, name)
            outcome = self._stab[name].step(
                bool(channel.valid.value),
                bool(channel.ready.value),
                channel.payload.value,
            )
            if outcome == "drop":
                self._flag(drop_rule, f"{name} valid dropped before ready")
            elif outcome == "payload" and payload_rule is not None:
                self._flag(payload_rule, f"{name} payload changed while stalled")

    # -- address channels -------------------------------------------------
    def _check_addr(self, channel: str, beat) -> bool:
        """Apply the address-channel rules to *beat*; return whether its
        AxLEN and AxSIZE are in range, so its beats and addresses exist.

        The range rules come first: the WRAP and 4 KiB rules are skipped
        for a burst whose length or size is out of range.
        """
        len_rule, wrap_len_rule, wrap_addr_rule, boundary_rule = _ADDR_RULES[channel]
        len_ok = 0 <= beat.len < MAX_BURST_LEN
        size_ok = 0 <= beat.size <= 7 and (1 << beat.size) <= self._bus_bytes
        if not len_ok:
            self._flag(len_rule, f"len={beat.len}")
        if not size_ok:
            self._flag(
                ERRM_AXSIZE_RANGE,
                f"{channel}size={beat.size} on a {self._bus_bytes}-byte bus",
            )
        if not (len_ok and size_ok):
            return False
        if beat.burst == BurstType.WRAP:
            if not is_legal_wrap_len(beat.len):
                self._flag(wrap_len_rule, f"len={beat.len}")
            if not aligned(beat.addr, beat.size):
                self._flag(wrap_addr_rule, f"addr={beat.addr:#x}")
        if crosses_4k_boundary(beat.addr, beat.len, beat.size, beat.burst):
            self._flag(boundary_rule, f"addr={beat.addr:#x} len={beat.len}")
        return True

    def _on_aw(self, beat) -> None:
        pending = _PendingWrite(txn_id=beat.id, beats=beat.len + 1)
        if self._check_addr("aw", beat):
            pending.size = beat.size
            pending.addrs = tuple(
                burst_addresses(beat.addr, beat.len, beat.size, beat.burst)
            )
        self._writes.setdefault(beat.id, deque()).append(pending)
        self._write_order.append(pending)

    def _on_ar(self, beat) -> None:
        self._check_addr("ar", beat)
        self._reads.setdefault(beat.id, deque()).append(
            _PendingRead(txn_id=beat.id, beats=beat.len + 1)
        )

    # -- write data ---------------------------------------------------------
    def _current_write(self) -> Optional[_PendingWrite]:
        while self._write_order and self._write_order[0].wlast_seen:
            self._write_order.popleft()
        return self._write_order[0] if self._write_order else None

    def _on_w(self, beat) -> None:
        target = self._current_write()
        if target is None:
            self._flag(ERRM_W_NO_OUTSTANDING, "")
            return
        if target.beats_seen < len(target.addrs):
            # Sparse strobes are legal; lanes outside the beat's
            # size-and-address window are not.
            legal = beat_strb(
                target.addrs[target.beats_seen], target.size, self._bus_bytes
            )
            if beat.strb & ~legal:
                self._flag(
                    ERRM_WSTRB_RANGE,
                    f"strb={beat.strb:#x} outside lane mask {legal:#x} "
                    f"at beat {target.beats_seen}",
                )
        target.beats_seen += 1
        if beat.last:
            if target.beats_seen != target.beats:
                self._flag(
                    ERRM_WLAST_POSITION,
                    f"wlast at beat {target.beats_seen} of {target.beats}",
                )
            target.wlast_seen = True
        elif target.beats_seen >= target.beats:
            self._flag(
                ERRM_W_EXTRA_BEATS,
                f"beat {target.beats_seen} of {target.beats} without wlast",
            )
            target.wlast_seen = True  # resynchronize

    # -- responses ------------------------------------------------------------
    def _on_b(self, beat) -> None:
        if beat.resp not in tuple(Resp):
            self._flag(ERRS_BRESP_LEGAL, f"resp={beat.resp}")
        queue = self._writes.get(beat.id)
        if not queue:
            self._flag(ERRS_B_UNREQUESTED, f"id={beat.id}")
            return
        head = queue[0]
        if not head.wlast_seen:
            self._flag(ERRS_B_BEFORE_WLAST, f"id={beat.id}")
            return
        queue.popleft()
        if not queue:
            del self._writes[beat.id]

    def _on_r(self, beat) -> None:
        if beat.resp not in tuple(Resp):
            self._flag(ERRS_RRESP_LEGAL, f"resp={beat.resp}")
        queue = self._reads.get(beat.id)
        if not queue:
            self._flag(ERRS_R_UNREQUESTED, f"id={beat.id}")
            return
        head = queue[0]
        if head.beats_seen == 0 and self.max_r_interleave is not None:
            # A new burst's first beat joins the set of mid-burst
            # streams; count how many distinct IDs it interleaves with.
            active = sum(
                1
                for txn_id, pending in self._reads.items()
                if txn_id != beat.id and pending and pending[0].beats_seen > 0
            )
            if active + 1 > self.max_r_interleave:
                self._flag(
                    ERRS_R_INTERLEAVE_DEPTH,
                    f"id={beat.id} joins {active} mid-burst streams "
                    f"(depth limit {self.max_r_interleave})",
                )
        head.beats_seen += 1
        if beat.last:
            if head.beats_seen != head.beats:
                self._flag(
                    ERRS_RLAST_POSITION,
                    f"rlast at beat {head.beats_seen} of {head.beats}",
                )
                if any(
                    pending.beats == head.beats_seen
                    for pending in list(queue)[1:]
                ):
                    # The rlast lands exactly where a younger same-ID
                    # burst would end: the signature of a subordinate
                    # completing same-ID reads out of request order.
                    self._flag(
                        ERRS_R_IN_ORDER,
                        f"id={beat.id}: rlast matches a younger burst's "
                        f"length — served out of request order",
                    )
            queue.popleft()
            if not queue:
                del self._reads[beat.id]
        elif head.beats_seen >= head.beats:
            self._flag(
                ERRS_RLAST_POSITION,
                f"beat {head.beats_seen} of {head.beats} without rlast",
            )
