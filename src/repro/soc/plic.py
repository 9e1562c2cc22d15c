"""PLIC-like platform interrupt collector (paper Fig. 10).

Latches level interrupts from source wires (the TMU's ``irq`` among
them) into pending bits that a hart claims and completes — the shape of
the RISC-V PLIC claim/complete flow, reduced to what the recovery
software model needs.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim.component import Component
from ..sim.signal import Wire


class Plic(Component):
    """Level-sensitive interrupt collector with claim/complete.

    Update-quiescent: latching happens only while some source is high
    and neither pending nor claimed, so an idle (or fully serviced)
    interrupt fabric costs the update phase nothing.  Sources must be
    connected *before* the PLIC is registered with a simulator — the
    wake list is declared at registration time.
    """

    demand_update = True
    #: Latches levels and claims — no autonomous clocked behaviour.
    phase_period = 1

    registered = {
        "_pending": lambda self: [False] * len(self._sources),
        "_claimed": lambda self: [False] * len(self._sources),
        "irq_counts": lambda self: dict.fromkeys(self._names, 0),
    }

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._sources: List[Wire] = []
        self._names: List[str] = []
        self.reset()

    def connect(self, source: Wire, name: str) -> int:
        """Register an interrupt source; returns its source ID."""
        if self._sim is not None:
            # The wake list (update_inputs) was captured when the PLIC —
            # and any hart polling it — registered with the simulator; a
            # late source would never wake the quiescent PLIC and its
            # interrupts would be silently dropped.  Fail fast instead.
            raise RuntimeError(
                f"{self.name}: connect() after simulator registration would "
                "miss the update-wake plumbing; connect every source before "
                "sim.add()"
            )
        self._sources.append(source)
        self._names.append(name)
        self._pending.append(False)
        self._claimed.append(False)
        self.irq_counts[name] = 0
        self.schedule_update()
        return len(self._sources) - 1

    @property
    def sources(self) -> List[Wire]:
        """The connected interrupt source wires, in source-ID order."""
        return list(self._sources)

    def wires(self):
        yield from self._sources

    def update_inputs(self):
        return self._sources

    def quiescent(self):
        # No latch can fire: every high source is already pending or
        # claimed.  complete() re-arms (the level may re-latch).
        return not any(
            source._value and not pending and not claimed
            for source, pending, claimed in zip(
                self._sources, self._pending, self._claimed
            )
        )

    def update(self) -> None:
        for i, source in enumerate(self._sources):
            if source.value and not self._pending[i] and not self._claimed[i]:
                self._pending[i] = True
                self.irq_counts[self._names[i]] += 1

    # ------------------------------------------------------------------
    # Hart-facing API
    # ------------------------------------------------------------------
    def claim(self) -> Optional[int]:
        """Claim the highest-priority (lowest-ID) pending interrupt."""
        for i, pending in enumerate(self._pending):
            if pending:
                self._pending[i] = False
                self._claimed[i] = True
                return i
        return None

    def complete(self, source_id: int) -> None:
        """Signal end of handling; the source may re-raise afterwards."""
        if not 0 <= source_id < len(self._claimed):
            raise ValueError(f"unknown interrupt source {source_id}")
        self._claimed[source_id] = False
        # A still-high level source re-latches on the next update.
        self.schedule_update()

    def source_name(self, source_id: int) -> str:
        return self._names[source_id]

    @property
    def any_pending(self) -> bool:
        return any(self._pending)
