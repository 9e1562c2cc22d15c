"""Software-visible TMU register file (paper §II-A).

"A set of software-configurable registers enables or disables the TMU
and adjusts parameters such as time budgets, latency statistics,
interrupt behavior, and error logging."  This module models that
interface as a word-addressed register map so system-level software
(the CPU model in the Cheshire integration) can configure and service
the TMU exactly as a driver would.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from .events import FaultKind
from .unit import TransactionMonitoringUnit

# Register offsets (byte addresses, word-aligned).
REG_CTRL = 0x00          # bit0: enable
REG_STATUS = 0x04        # bit0: irq pending, bit1: fault active (severed)
REG_IRQ_CLEAR = 0x08     # write 1 to clear the interrupt
REG_FAULT_KIND = 0x0C    # enum index of the most recent fault
REG_FAULT_ID = 0x10      # original AXI ID of the most recent fault
REG_PRESCALE = 0x14      # prescaler step (read-only mirror)
REG_SPAN_BASE = 0x18     # Tc span budget base (RW)
REG_SPAN_PER_BEAT = 0x1C  # Tc span budget per-beat term (RW)
REG_ERRLOG_COUNT = 0x20  # pending error-log entries
REG_ERRLOG_POP = 0x24    # read pops one entry, returns its kind index
REG_WR_COMPLETED = 0x28  # completed write transactions
REG_RD_COMPLETED = 0x2C  # completed read transactions
REG_WR_LAT_MAX = 0x30    # worst observed write latency
REG_RD_LAT_MAX = 0x34    # worst observed read latency
REG_FAULT_COUNT = 0x38   # fault episodes handled
REG_OCCUPANCY = 0x3C     # current OTT occupancy (write<<8 | read)
REG_WR_PHASE_MEAN = 0x40  # 6 words: mean latency per write phase (Fig. 4)
REG_RD_PHASE_MEAN = 0x60  # 4 words: mean latency per read phase (Fig. 5)
REG_WR_LAT_P99 = 0x78    # 99th-percentile write latency (histogram bucket)
REG_RD_LAT_P99 = 0x7C    # 99th-percentile read latency

_FAULT_KIND_INDEX = {kind: i + 1 for i, kind in enumerate(FaultKind)}


class TmuRegisters:
    """Word-addressed software window onto one TMU instance.

    CTRL, SPAN_BASE and SPAN_PER_BEAT are the TMU's registered
    ``enabled`` and ``span`` fields: a TMU reset restores them."""

    def __init__(self, tmu: TransactionMonitoringUnit) -> None:
        self.tmu = tmu

    # ------------------------------------------------------------------
    # Bus-facing API
    # ------------------------------------------------------------------
    def read(self, offset: int) -> int:
        tmu = self.tmu
        if offset == REG_CTRL:
            return int(tmu.enabled)
        if offset == REG_STATUS:
            return int(tmu.irq_pending) | (int(tmu.fault_active) << 1)
        if offset == REG_FAULT_KIND:
            fault = tmu.last_fault
            return _FAULT_KIND_INDEX[fault.kind] if fault else 0
        if offset == REG_FAULT_ID:
            fault = tmu.last_fault
            if fault is None or fault.orig_id is None:
                return 0
            return fault.orig_id
        if offset == REG_PRESCALE:
            return tmu.config.prescale_step
        if offset == REG_SPAN_BASE:
            return tmu.span.base
        if offset == REG_SPAN_PER_BEAT:
            return tmu.span.per_beat
        if offset == REG_ERRLOG_COUNT:
            return len(tmu.write_guard.log) + len(tmu.read_guard.log)
        if offset == REG_ERRLOG_POP:
            event = tmu.write_guard.log.pop() or tmu.read_guard.log.pop()
            return _FAULT_KIND_INDEX[event.kind] if event else 0
        if offset == REG_WR_COMPLETED:
            return tmu.write_guard.perf.completed
        if offset == REG_RD_COMPLETED:
            return tmu.read_guard.perf.completed
        if offset == REG_WR_LAT_MAX:
            return tmu.write_guard.perf.txn_latency.maximum or 0
        if offset == REG_RD_LAT_MAX:
            return tmu.read_guard.perf.txn_latency.maximum or 0
        if offset == REG_FAULT_COUNT:
            return tmu.faults_handled
        if offset == REG_OCCUPANCY:
            return (tmu.write_guard.ott.occupancy << 8) | (
                tmu.read_guard.ott.occupancy
            )
        if REG_WR_PHASE_MEAN <= offset < REG_WR_PHASE_MEAN + 6 * 4 and offset % 4 == 0:
            from .phases import WritePhase

            phase = WritePhase((offset - REG_WR_PHASE_MEAN) // 4)
            return int(tmu.write_guard.perf.phase_stats[phase].mean)
        if REG_RD_PHASE_MEAN <= offset < REG_RD_PHASE_MEAN + 4 * 4 and offset % 4 == 0:
            from .phases import ReadPhase

            phase = ReadPhase((offset - REG_RD_PHASE_MEAN) // 4)
            return int(tmu.read_guard.perf.phase_stats[phase].mean)
        if offset == REG_WR_LAT_P99:
            return tmu.write_guard.perf.latency_histogram.percentile(0.99)
        if offset == REG_RD_LAT_P99:
            return tmu.read_guard.perf.latency_histogram.percentile(0.99)
        raise KeyError(f"unmapped TMU register offset {offset:#x}")

    def write(self, offset: int, value: int) -> None:
        tmu = self.tmu
        if offset == REG_CTRL:
            tmu.enabled = bool(value & 1)
        elif offset == REG_IRQ_CLEAR:
            if value & 1:
                tmu.clear_irq()
        elif offset == REG_SPAN_BASE:
            tmu.span = dataclasses.replace(tmu.span, base=int(value))
        elif offset == REG_SPAN_PER_BEAT:
            tmu.span = dataclasses.replace(tmu.span, per_beat=int(value))
        else:
            raise KeyError(
                f"register offset {offset:#x} is read-only or unmapped"
            )
        # Register writes mutate state the TMU's drive() may read
        # (enable bit, interrupt line) and can re-enable sequential work
        # (monitoring after an enable flip); re-evaluate both phases.
        tmu.schedule_drive()
        tmu.schedule_update()

    def dump(self) -> Dict[str, int]:
        """Snapshot of all readable registers (debug aid)."""
        names = {
            "CTRL": REG_CTRL,
            "STATUS": REG_STATUS,
            "FAULT_KIND": REG_FAULT_KIND,
            "FAULT_ID": REG_FAULT_ID,
            "PRESCALE": REG_PRESCALE,
            "SPAN_BASE": REG_SPAN_BASE,
            "SPAN_PER_BEAT": REG_SPAN_PER_BEAT,
            "ERRLOG_COUNT": REG_ERRLOG_COUNT,
            "WR_COMPLETED": REG_WR_COMPLETED,
            "RD_COMPLETED": REG_RD_COMPLETED,
            "WR_LAT_MAX": REG_WR_LAT_MAX,
            "RD_LAT_MAX": REG_RD_LAT_MAX,
            "FAULT_COUNT": REG_FAULT_COUNT,
            "OCCUPANCY": REG_OCCUPANCY,
        }
        return {name: self.read(offset) for name, offset in names.items()}
