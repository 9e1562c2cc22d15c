"""Recovery-software model: the hart servicing TMU interrupts.

The paper's flow (§II-B): on a TMU interrupt "the processor runs
software-based recovery routines".  This component models that handler:
it claims the interrupt from the PLIC after a configurable ISR entry
latency, reads the TMU's fault registers the way a driver would, clears
the interrupt, and logs the episode.

Register access runs either directly against the register file or — when
a :class:`~repro.soc.regbus.RegBusMaster` is supplied — through the
Regbus, taking one bus round-trip per access exactly like Cheshire's
configuration path (Fig. 10's "Regbus Demux").
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional

from ..sim.component import Component, projected, uncompared
from ..tmu.registers import REG_FAULT_KIND, REG_IRQ_CLEAR, REG_STATUS, TmuRegisters


@dataclasses.dataclass(frozen=True)
class RecoveryRecord:
    """One serviced TMU interrupt."""

    claim_cycle: int
    source: str
    fault_kind_code: int
    status: int


class _IsrState(enum.Enum):
    IDLE = "idle"
    ENTRY = "entry"
    READ_STATUS = "read_status"
    READ_KIND = "read_kind"
    CLEAR = "clear"


class RecoveryCpu(Component):
    """Polls the PLIC and services TMU interrupts via the register file.

    Update-quiescent while idle with nothing pending: the hart sleeps
    (WFI-style) until an interrupt source wire rises.  Because a PLIC
    claim can race registration order, quiescence additionally requires
    every source wire low — a level interrupt therefore always wakes the
    hart on the cycle the PLIC latches it, whichever of the two updates
    runs first.
    """

    demand_update = True
    #: ISR latency counts down from the interrupt edge — reactive.
    phase_period = 1

    registered = {
        "recoveries": projected(list, len),
        "_cycle": uncompared(0),  # claim stamps follow the clock
        "_servicing": None,
        # Clock-derived under the timed-wake contract (elapsed-ticked,
        # replayed exactly); the ISR transitions it produces are what
        # verify must observe.
        "_countdown": uncompared(0),
        "_state": _IsrState.IDLE,
        "_status": 0,
        "_kind": 0,
        "_awaiting_bus": False,
    }

    def __init__(
        self,
        name: str,
        plic,
        tmu_regs,
        isr_latency: int = 5,
        regbus=None,
        regbus_bases: Optional[dict] = None,
    ) -> None:
        super().__init__(name)
        self.plic = plic
        # One register file per interrupt source; a bare TmuRegisters is
        # shorthand for a single source named "tmu".
        if isinstance(tmu_regs, TmuRegisters):
            tmu_regs = {"tmu": tmu_regs}
        self.tmu_regs = tmu_regs
        self.isr_latency = isr_latency
        self.regbus = regbus
        self.regbus_bases = regbus_bases if regbus_bases is not None else {"tmu": 0}
        self.reset()

    # ------------------------------------------------------------------
    # Register access, direct or through the Regbus
    # ------------------------------------------------------------------
    def _source_name(self) -> str:
        return self.plic.source_name(self._servicing)

    def _current_regs(self) -> TmuRegisters:
        return self.tmu_regs[self._source_name()]

    def _bus_read(self, offset: int, store: str) -> None:
        self._awaiting_bus = True

        def done(response):
            setattr(self, store, response.rdata)
            self._awaiting_bus = False
            # The hart sleeps while a bus access is in flight; the
            # completion (delivered from the Regbus master's update)
            # resumes the ISR on the next edge, as always-on did.
            self.schedule_update()

        base = self.regbus_bases[self._source_name()]
        self.regbus.read(base + offset, done)

    def _bus_write(self, offset: int, value: int) -> None:
        self._awaiting_bus = True

        def done(_response):
            self._awaiting_bus = False
            self.schedule_update()

        base = self.regbus_bases[self._source_name()]
        self.regbus.write(base + offset, value, done)

    # ------------------------------------------------------------------
    def update_inputs(self):
        return self.plic.sources

    def quiescent(self):
        # WFI-style idle sleep, plus two new sleeps the ISR allows: the
        # entry-latency stall (a pure countdown — timed wake at its
        # zero crossing) and a bus access in flight (the completion
        # callback re-arms us).
        if self._state is _IsrState.ENTRY and self._countdown > 0:
            if self._sim is not None:
                self.wake_at(self._sim.cycle + self._countdown)
            return True
        if self._awaiting_bus:
            return True
        return (
            self._state is _IsrState.IDLE
            and not self.plic.any_pending
            and not any(wire._value for wire in self.plic._sources)
        )

    def update(self) -> None:
        # claim_cycle stamps come from the global clock so quiescent
        # spans cannot skew them; standalone use falls back to counting.
        sim = self._sim
        now = sim.cycle + 1 if sim is not None else self._cycle + 1
        elapsed = now - self._cycle
        self._cycle = now
        if self._state == _IsrState.IDLE:
            source = self.plic.claim()
            if source is not None:
                self._servicing = source
                self._countdown = self.isr_latency
                self._state = _IsrState.ENTRY
            return
        if self._state == _IsrState.ENTRY:
            if self._countdown > 0:
                self._countdown -= min(self._countdown, elapsed)
                return
            if self.regbus is None:
                # Direct access: the whole handler body in one cycle.
                regs = self._current_regs()
                self._status = regs.read(REG_STATUS)
                self._kind = regs.read(REG_FAULT_KIND)
                regs.write(REG_IRQ_CLEAR, 1)
                self._finish()
                return
            self._bus_read(REG_STATUS, "_status")
            self._state = _IsrState.READ_STATUS
            return
        if self._awaiting_bus:
            return
        if self._state == _IsrState.READ_STATUS:
            self._bus_read(REG_FAULT_KIND, "_kind")
            self._state = _IsrState.READ_KIND
        elif self._state == _IsrState.READ_KIND:
            self._bus_write(REG_IRQ_CLEAR, 1)
            self._state = _IsrState.CLEAR
        elif self._state == _IsrState.CLEAR:
            self._finish()

    def _finish(self) -> None:
        self.recoveries.append(
            RecoveryRecord(
                claim_cycle=self._cycle,
                source=self.plic.source_name(self._servicing),
                fault_kind_code=self._kind,
                status=self._status,
            )
        )
        self.plic.complete(self._servicing)
        self._servicing = None
        self._state = _IsrState.IDLE
