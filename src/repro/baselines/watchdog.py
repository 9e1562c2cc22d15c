"""ARM SP805-class watchdog baseline (paper ref. [6]).

A software-kicked countdown: the first expiry raises an interrupt, a
second expiry with the interrupt still pending asserts the reset output.
It observes no bus signals at all — which is precisely its Table II
profile (fault detection ✓ through liveness only, everything else ✗).
"""

from __future__ import annotations

from ..sim.component import Component, uncompared
from ..sim.signal import Wire


class Sp805Watchdog(Component):
    """Two-stage (interrupt, then reset) software watchdog.

    Demand-driven: the countdown itself is invisible to ``drive()``
    (which only mirrors the irq/reset flags), so ticks schedule nothing
    and only the expiry transitions — plus ``clear_irq`` and reset —
    re-run the drive.  A kicked, healthy watchdog costs the scheduler
    zero work.

    The update phase holds an *armed counter*, but a pure one: between
    software interactions nothing can change its trajectory, so the
    countdown is kept as an absolute expiry stamp plus the stamp of the
    last accounted update, ``update()`` applies the elapsed span in
    O(1), and the component sleeps under a timed wake at the expiry —
    the exact component the paper's stall campaigns keep alive, now
    reduced to one heap pop per stage.
    """

    demand_driven = True
    demand_update = True

    registered = {
        "_enabled": True,
        # Countdown as timestamps: the expiry update is stamped
        # `_deadline`; `_stamp` is the last update (or software poke)
        # already accounted, so `_deadline - _stamp` is the classical
        # counter value.  _stamp is clock-derived; _deadline moves only
        # on the expiry and software transitions verify must observe.
        "_deadline": lambda self: self.load,
        "_stamp": uncompared(0),
        "_irq_state": False,
        "_reset_state": False,
        "interrupts_raised": 0,
        "resets_raised": 0,
    }

    def __init__(self, name: str, load: int = 1000) -> None:
        super().__init__(name)
        if load <= 0:
            raise ValueError("load must be positive")
        self.load = load
        self.irq = Wire(f"{name}.irq", False)
        self.reset_out = Wire(f"{name}.reset_out", False)
        self.reset()

    # ------------------------------------------------------------------
    # Software interface
    # ------------------------------------------------------------------
    def _now(self) -> int:
        """Stamp of the latest completed update (for software pokes)."""
        return self._sim.cycle if self._sim is not None else self._stamp

    @property
    def counter(self) -> int:
        """Cycles until the current stage expires (0 once latched)."""
        if self._reset_state:
            return 0
        if not self._enabled:
            return self._deadline - self._stamp
        return max(0, self._deadline - self._now())

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        # A property so campaign code flipping the switch directly
        # re-arms (or freezes) the countdown, mirroring
        # DriveSensitiveState.  The deadline is rebased around the
        # flip so disabled spans do not count — exactly the behaviour
        # of the per-cycle tick that froze while disabled.
        value = bool(value)
        if value != self._enabled:
            now = self._now()
            if value:
                # Re-enable: push the expiry out by the frozen span.
                self._deadline = now + (self._deadline - self._stamp)
            self._stamp = now
            self._enabled = value
        self.schedule_update()

    def kick(self) -> None:
        """Reload the counter (the periodic software 'pet')."""
        now = self._now()
        self._deadline = now + self.load
        self._stamp = now
        # No wake re-arm needed: kicks only push the expiry out, so if
        # asleep the superseded wake pops as a spurious (harmless) wake
        # whose update re-arms the new one.

    def clear_irq(self) -> None:
        now = self._now()
        self._irq_state = False
        self._deadline = now + self.load
        self._stamp = now
        self.schedule_drive()
        self.schedule_update()

    # ------------------------------------------------------------------
    def wires(self):
        yield self.irq
        yield self.reset_out

    def inputs(self):
        return ()  # drive() reads registered state only

    def drive(self) -> None:
        self.irq.value = self._irq_state
        self.reset_out.value = self._reset_state

    def update_inputs(self):
        return ()  # nothing on the wire side can re-arm the countdown

    def quiescent(self):
        # Always: disabled and latched-reset states need no wake at all,
        # and an armed countdown sleeps under the timed wake update()
        # arms at its expiry stamp.
        return True

    def update(self) -> None:
        sim = self._sim
        now = sim.cycle + 1 if sim is not None else self._stamp + 1
        if not self._enabled or self._reset_state:
            # Frozen: the span does not count.  _stamp stays at the
            # freeze boundary (the last counted stamp) so the enabled
            # setter can rebase the deadline around the frozen span.
            return
        self._stamp = now
        if now < self._deadline:
            # Still counting: sleep until the expiry update's step.
            if sim is not None:
                self.wake_at(sim.cycle + (self._deadline - now))
            return
        if not self._irq_state:
            self._irq_state = True
            self.interrupts_raised += 1
            self._deadline = now + self.load
            if sim is not None:
                self.wake_at(sim.cycle + self.load)
        else:
            # Second expiry with the interrupt unserviced: assert reset.
            self._reset_state = True
            self.resets_raised += 1
        self.schedule_drive()
