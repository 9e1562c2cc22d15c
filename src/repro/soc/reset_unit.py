"""External hardware reset unit (paper §II-B, ref. [6]).

On a TMU ``reset_req`` the unit holds the monitored subordinate in reset
for a configurable number of cycles, then acknowledges back to the TMU.
The handshake is four-phase: req↑ → (reset pulse) → ack↑ → req↓ → ack↓.
"""

from __future__ import annotations

import enum
from typing import Optional

from ..axi.subordinate import Subordinate
from ..sim.component import Component, projected, uncompared
from ..sim.signal import Wire


class _ResetState(enum.Enum):
    IDLE = "idle"
    RESETTING = "resetting"
    ACK = "ack"


class ResetUnit(Component):
    """Drives a subordinate's hardware reset on TMU request.

    Parameters
    ----------
    req:
        The TMU's ``reset_req`` output wire.
    ack:
        The TMU's ``reset_ack`` input wire (this unit drives it).
    subordinate:
        The device whose ``hw_reset`` line this unit controls; may be
        ``None`` for IP-level setups where only the handshake matters.
    reset_duration:
        Cycles the reset line is held asserted.
    """

    demand_driven = True
    demand_update = True
    #: The reset pulse counts down from the request edge — reactive.
    phase_period = 1

    registered = {
        "_state": _ResetState.IDLE,
        # The elapsed-ticked delay line is clock-derived; the FSM
        # transitions it produces are what verify must observe.
        "_countdown": uncompared(0),
        "resets_issued": 0,
        "reset_log": projected(list, len),
        "_cycle": uncompared(0),  # reset_log stamps follow the clock
    }

    def __init__(
        self,
        name: str,
        req: Wire,
        ack: Wire,
        subordinate: Optional[Subordinate] = None,
        reset_duration: int = 4,
    ) -> None:
        super().__init__(name)
        if reset_duration <= 0:
            raise ValueError("reset_duration must be positive")
        self.req = req
        self.ack = ack
        self.subordinate = subordinate
        self.reset_duration = reset_duration
        self.reset()

    def wires(self):
        yield self.req
        yield self.ack
        if self.subordinate is not None:
            yield self.subordinate.hw_reset

    def inputs(self):
        # drive() is a pure function of the handshake FSM state; req is
        # only sampled in update(), which the req wire re-arms.
        return ()

    def update_inputs(self):
        return (self.req,)

    def quiescent(self):
        # IDLE sleeps until req rises and ACK until it falls (both
        # watched); RESETTING is a pure delay line — sleep under a
        # timed wake at the cycle the countdown reaches zero (the
        # update that flips the FSM to ACK and raises the ack wire
        # next settle).
        if self._state is _ResetState.IDLE:
            return not self.req._value
        if self._state is _ResetState.ACK:
            return self.req._value
        if self._countdown > 0 and self._sim is not None:
            self.wake_at(self._sim.cycle + self._countdown)
        return True

    def drive(self) -> None:
        in_reset = self._state == _ResetState.RESETTING
        if self.subordinate is not None:
            self.subordinate.hw_reset.value = in_reset
        self.ack.value = self._state == _ResetState.ACK

    def update(self) -> None:
        sim = self._sim
        now = sim.cycle + 1 if sim is not None else self._cycle + 1
        elapsed = now - self._cycle
        self._cycle = now
        if self._state == _ResetState.IDLE:
            if self.req.value:
                self._state = _ResetState.RESETTING
                self._countdown = self.reset_duration
                self.resets_issued += 1
                self.reset_log.append(self._cycle)
                self.schedule_drive()
        elif self._state == _ResetState.RESETTING:
            # Pure delay line: a slept span's ticks land here at once
            # (the timed wake guarantees elapsed never overshoots the
            # zero crossing by more than the current cycle).
            self._countdown -= min(self._countdown, elapsed)
            if self._countdown <= 0:
                self._state = _ResetState.ACK
                self.schedule_drive()
        elif self._state == _ResetState.ACK:
            if not self.req.value:
                self._state = _ResetState.IDLE
                self.schedule_drive()
