"""Xilinx AXI Timeout Block-class baseline (paper ref. [5]).

Detects *stalls*: whenever transactions are outstanding and the response
channels make no progress for a programmable window, it flags an error
and raises an interrupt.  Faithful to the limitations Table II lists —
no phase-level latency metrics, no protocol checks, no per-transaction
tracking (a single shared window timer), and no notion of multiple
outstanding transactions beyond a counter.
"""

from __future__ import annotations

from typing import List, Optional

from ..axi.interface import AxiInterface
from ..sim.component import Component
from ..sim.signal import Wire


class XilinxStyleTimeout(Component):
    """Single-window stall detector on one AXI interface.

    Demand-driven: the shared stall timer only feeds ``drive()`` through
    the irq flag, so the window counting schedules nothing until the
    expiry itself (or ``clear_irq``/reset) flips it.
    """

    demand_driven = True
    demand_update = True

    def __init__(self, name: str, bus: AxiInterface, window: int = 256) -> None:
        super().__init__(name)
        if window <= 0:
            raise ValueError("window must be positive")
        self.bus = bus
        self.window = window
        self.irq = Wire(f"{name}.irq", False)
        self._outstanding_w = 0
        self._outstanding_r = 0
        # The shared stall timer as a timestamp: its classical value at
        # update stamp `t` is `t - _stall_since`; None while rewound.
        # A stalled-but-frozen interface is then a pure countdown, slept
        # through under a timed wake at `_stall_since + window`.
        self._stall_since: Optional[int] = None
        self._irq_state = False
        self.timeouts: List[int] = []
        self._cycle = 0

    def wires(self):
        yield from self.bus.wires()
        yield self.irq

    def inputs(self):
        return ()  # drive() reads registered state only

    def update_inputs(self):
        # Ready wires are watched alongside the valids: the block may
        # now sleep through a held-valid (deaf-channel) stall, and the
        # only event that can unfreeze such a handshake is its ready
        # rising.
        bus = self.bus
        return (
            bus.aw.valid, bus.aw.ready, bus.ar.valid, bus.ar.ready,
            bus.b.valid, bus.b.ready, bus.r.valid, bus.r.ready,
        )

    def quiescent(self):
        # No observed handshake can fire next edge (any change that
        # could complete one passes through a watched wire first).  An
        # armed stall window is a pure countdown across such a frozen
        # span: sleep under a timed wake at its expiry stamp.
        bus = self.bus
        for ch in (bus.aw, bus.ar, bus.b, bus.r):
            if ch.valid._value and ch.ready._value:
                return False
        if self._irq_state or self._outstanding_w + self._outstanding_r == 0:
            return True
        if self._stall_since is None:
            return False  # timer not engaged yet: let the update run
        if self._sim is not None:
            expiry = self._stall_since + self.window
            self.wake_at(self._sim.cycle + (expiry - self._cycle))
        return True

    def snapshot_state(self):
        # _cycle (timeout timestamps) is clock-derived and excluded;
        # _stall_since moves only on progress/engagement transitions.
        return (
            self._outstanding_w,
            self._outstanding_r,
            self._stall_since,
            self._irq_state,
            tuple(self.timeouts),
        )

    def drive(self) -> None:
        self.irq.value = self._irq_state

    def update(self) -> None:
        sim = self._sim
        self._cycle = sim.cycle + 1 if sim is not None else self._cycle + 1
        bus = self.bus
        if bus.aw.fired():
            self._outstanding_w += 1
        if bus.ar.fired():
            self._outstanding_r += 1
        progress = False
        if bus.b.fired():
            self._outstanding_w = max(0, self._outstanding_w - 1)
            progress = True
        if bus.r.fired():
            progress = True
            beat = bus.r.payload.value
            if beat is not None and beat.last:
                self._outstanding_r = max(0, self._outstanding_r - 1)
        # One shared timer: any response progress rewinds it, which is
        # exactly why this block cannot attribute stalls per transaction.
        if self._outstanding_w + self._outstanding_r > 0 and not progress:
            if self._stall_since is None:
                # First stalled update counts 1: value = now - since.
                self._stall_since = self._cycle - 1
            if (
                self._cycle - self._stall_since >= self.window
                and not self._irq_state
            ):
                self.timeouts.append(self._cycle)
                self._irq_state = True
                self.schedule_drive()
        else:
            self._stall_since = None

    def clear_irq(self) -> None:
        self._irq_state = False
        self._stall_since = None
        self.schedule_drive()
        # A still-stalled interface must re-engage the window timer.
        self.schedule_update()

    def reset(self) -> None:
        self._outstanding_w = 0
        self._outstanding_r = 0
        self._stall_since = None
        self._irq_state = False
        self.timeouts.clear()
        self._cycle = 0
        self.cancel_wake()
        self.schedule_drive()
        self.schedule_update()
