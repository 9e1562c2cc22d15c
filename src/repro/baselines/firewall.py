"""AXI transaction firewall baseline (paper ref. [9], Lazaro et al.).

Filters transactions by operation type and address range against
predefined rules, rejecting unauthorized requests with ``SLVERR``
without forwarding them — but (per Table II) performs no timing
monitoring and no protocol checking, which is exactly the gap the TMU
fills.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Sequence

from ..axi.channels import BBeat, RBeat
from ..axi.interface import AxiInterface
from ..axi.types import AxiDir, Resp
from ..sim.component import Component


@dataclasses.dataclass(frozen=True)
class FirewallRule:
    """One allow rule: direction + address window."""

    base: int
    size: int
    allow_write: bool = True
    allow_read: bool = True

    def permits(self, addr: int, direction: AxiDir) -> bool:
        if not self.base <= addr < self.base + self.size:
            return False
        return self.allow_write if direction == AxiDir.WRITE else self.allow_read


class AxiFirewall(Component):
    """Allow-list firewall between a host and a device interface.

    Demand-driven with automatic read tracing for the wire side;
    ``update()`` reports every mutation of the rejection queues and the
    per-burst forwarding order, which is all the registered state the
    drive consults.  The rule list is treated as construction-time
    configuration — mutate it only between simulations.
    """

    demand_driven = True
    demand_update = True

    registered = {
        "rejected_writes": 0,
        "rejected_reads": 0,
        "_reject_b": deque,
        "_reject_r": deque,
        "_w_forward": deque,  # per accepted AW, in order: forwarded?
    }

    def __init__(
        self,
        name: str,
        host: AxiInterface,
        device: AxiInterface,
        rules: Sequence[FirewallRule],
    ) -> None:
        super().__init__(name)
        self.host = host
        self.device = device
        self.rules = list(rules)
        self.reset()

    def permitted(self, addr: int, direction: AxiDir) -> bool:
        return any(rule.permits(addr, direction) for rule in self.rules)

    def wires(self):
        yield from self.host.wires()
        yield from self.device.wires()

    def update_inputs(self):
        host, device = self.host, self.device
        return (
            host.aw.valid, host.ar.valid, host.w.valid,
            host.b.valid, host.r.valid,
            device.b.valid, device.r.valid,
        )

    def quiescent(self):
        # Queue movement needs a fired handshake, which needs a valid;
        # rejection responses keep host.b/host.r asserted until drained.
        return not any(wire._value for wire in self.update_inputs())

    # ------------------------------------------------------------------
    def drive(self) -> None:
        host, device = self.host, self.device
        # AW: forward only permitted requests; accept denied ones locally.
        aw = host.aw.payload.value
        aw_ok = (
            host.aw.valid.value
            and aw is not None
            and self.permitted(aw.addr, AxiDir.WRITE)
        )
        device.aw.valid.value = bool(aw_ok)
        device.aw.payload.value = aw if aw_ok else None
        host.aw.ready.value = bool(
            device.aw.ready.value if aw_ok else host.aw.valid.value
        )
        # AR: same policy.
        ar = host.ar.payload.value
        ar_ok = (
            host.ar.valid.value
            and ar is not None
            and self.permitted(ar.addr, AxiDir.READ)
        )
        device.ar.valid.value = bool(ar_ok)
        device.ar.payload.value = ar if ar_ok else None
        host.ar.ready.value = bool(
            device.ar.ready.value if ar_ok else host.ar.valid.value
        )
        # W: forward when the current burst belongs to a forwarded AW,
        # otherwise sink the beats of a rejected write.
        forward_w = bool(self._w_forward and self._w_forward[0])
        if forward_w:
            device.w.valid.value = host.w.valid.value
            device.w.payload.value = host.w.payload.value
            host.w.ready.value = device.w.ready.value
        else:
            device.w.idle()
            host.w.ready.value = bool(self._w_forward) and not self._w_forward[0]
        # Responses: device responses pass through; rejections take
        # priority only when the device has nothing to say.
        # A rejection B may only go out once the rejected burst's W beats
        # have been drained (front of the order queue is a forwarded one).
        reject_b_ready = bool(
            self._reject_b and (not self._w_forward or self._w_forward[0])
        )
        if device.b.valid.value:
            host.b.valid.value = True
            host.b.payload.value = device.b.payload.value
            device.b.ready.value = host.b.ready.value
        elif reject_b_ready:
            host.b.drive(BBeat(id=self._reject_b[0], resp=Resp.SLVERR))
            device.b.ready.value = False
        else:
            host.b.idle()
            device.b.ready.value = host.b.ready.value
        if device.r.valid.value:
            host.r.valid.value = True
            host.r.payload.value = device.r.payload.value
            device.r.ready.value = host.r.ready.value
        elif self._reject_r:
            host.r.drive(
                RBeat(id=self._reject_r[0], data=0, resp=Resp.SLVERR, last=True)
            )
            device.r.ready.value = False
        else:
            host.r.idle()
            device.r.ready.value = host.r.ready.value

    def update(self) -> None:
        host = self.host
        changed = False
        if host.aw.fired():
            beat = host.aw.payload.value
            ok = self.permitted(beat.addr, AxiDir.WRITE)
            self._w_forward.append(ok)
            if not ok:
                self.rejected_writes += 1
                self._reject_b.append(beat.id)
            changed = True
        if host.ar.fired():
            beat = host.ar.payload.value
            if not self.permitted(beat.addr, AxiDir.READ):
                self.rejected_reads += 1
                self._reject_r.append(beat.id)
                changed = True
        if host.w.fired():
            beat = host.w.payload.value
            if beat is not None and beat.last and self._w_forward:
                self._w_forward.popleft()
                changed = True
        if host.b.fired() and not self.device.b.valid.value and self._reject_b:
            self._reject_b.popleft()
            changed = True
        if host.r.fired() and not self.device.r.valid.value and self._reject_r:
            self._reject_r.popleft()
            changed = True
        if changed:
            self.schedule_drive()
