"""AXIChecker-class baseline (paper ref. [13], Chen, Ju and Huang).

A rule-based protocol checker: it logs violations for debugging but has
no timing metrics, no timeout counters, and no recovery action — the
Table II profile of the original.  It wraps the reusable rule library in
:mod:`repro.axi.protocol`.
"""

from __future__ import annotations

from typing import List

from ..axi.interface import AxiInterface
from ..axi.protocol import ProtocolChecker, RuleViolation
from ..sim.component import Component
from ..sim.signal import Wire


class AxiChecker(Component):
    """Protocol-rule checker with a violation log and an error flag.

    Demand-driven: ``drive()`` only mirrors ``_error_state`` onto the
    error wire, so it is re-run exactly when that flag moves (a fresh
    violation, ``clear_error``, reset).
    """

    demand_driven = True
    demand_update = True

    registered = {
        # The rule library, rebuilt at power-on.
        "_checker": lambda self: ProtocolChecker(
            f"{self.name}.rules", self.bus, max_r_interleave=self.max_r_interleave
        ),
        "_error_state": False,
    }

    def __init__(
        self,
        name: str,
        bus: AxiInterface,
        log_depth: int = 64,
        max_r_interleave: "int | None" = None,
    ) -> None:
        super().__init__(name)
        self.bus = bus
        self.max_r_interleave = max_r_interleave
        self.log_depth = log_depth
        self.error = Wire(f"{name}.error", False)
        self.reset()

    def wires(self):
        yield from self._checker.wires()
        yield self.error

    def inputs(self):
        return ()  # drive() reads registered state only

    def update_inputs(self):
        # Valid, ready *and* payload on every channel: the checker may
        # sleep through a frozen (held-valid) stall, and each of the
        # events that could produce a fresh observation — a handshake
        # completing (ready rise), a valid drop (stability violation),
        # a payload mutating under a held valid (stability violation) —
        # is a change on one of these wires.
        bus = self.bus
        wires = []
        for ch in ("aw", "w", "b", "ar", "r"):
            channel = getattr(bus, ch)
            wires.extend((channel.valid, channel.ready, channel.payload))
        return tuple(wires)

    def quiescent(self):
        # No handshake can fire next edge: every rule sweep over a
        # frozen interface observes exactly what this one did.  The
        # armed stability watches hold their pending state (valid high,
        # ready low is a legal wait, not a violation) and any wire
        # movement that could change the verdict re-arms us first.
        bus = self.bus
        return not any(
            getattr(bus, ch).valid._value and getattr(bus, ch).ready._value
            for ch in ("aw", "w", "b", "ar", "r")
        )

    def drive(self) -> None:
        self.error.value = self._error_state

    def update(self) -> None:
        checker = self._checker
        # The unregistered rule library stamps a violation one past its
        # own count: set that to the wrapper's clock, so skipped
        # quiescent spans cannot skew it.  Handing it the simulator
        # instead would make checkpoints share it as a registered
        # component, and a restore would keep its later state.
        checker._cycle = self._sim.cycle
        before = len(checker.violations)
        checker.update()
        if len(self._checker.violations) > before:
            if not self._error_state:
                self._error_state = True
                self.schedule_drive()
            # Bounded log, as in the synthesizable original.
            del self._checker.violations[self.log_depth:]

    @property
    def violations(self) -> List[RuleViolation]:
        return self._checker.violations

    @property
    def clean(self) -> bool:
        return self._checker.clean

    def clear_error(self) -> None:
        self._error_state = False
        self.schedule_drive()
