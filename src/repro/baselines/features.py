"""Capability matrix for Table II (comparison of AXI transaction monitors).

Each row of the paper's Table II becomes a :class:`MonitorProfile`.
Rows for monitors implemented in this repository are derived from the
implementation (and cross-checked by tests); rows for literature-only
monitors carry the paper's reported feature set.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional


@dataclasses.dataclass(frozen=True)
class MonitorProfile:
    """One Table II row."""

    name: str
    target_protocol: str
    hw_based: bool
    timing_metrics: bool
    transaction_level: bool
    phase_level: bool
    protocol_check: bool
    perf_metrics: bool
    fault_detection: bool
    multiple_outstanding: bool
    scalable: bool
    implemented_as: Optional[str] = None  # repro class, when built here

    def row(self) -> List[str]:
        def mark(flag: bool) -> str:
            return "Y" if flag else "x"

        return [
            self.name,
            self.target_protocol,
            "HW" if self.hw_based else "SW",
            mark(self.timing_metrics),
            mark(self.transaction_level),
            mark(self.phase_level),
            mark(self.protocol_check),
            mark(self.perf_metrics),
            mark(self.fault_detection),
            mark(self.multiple_outstanding),
            mark(self.scalable),
        ]


TABLE2_COLUMNS = [
    "Reference",
    "Prot.",
    "HW/SW",
    "Timing",
    "Txn-Lvl",
    "Phase-Lvl",
    "ProtChk",
    "PerfMet",
    "FaultDet",
    "M.O.",
    "Scal.",
]


def table2_profiles() -> List[MonitorProfile]:
    """All Table II rows, literature order, TMU variants last."""
    return [
        MonitorProfile(
            "Xilinx AXI Timeout [5]", "AXI", True,
            timing_metrics=True, transaction_level=True, phase_level=False,
            protocol_check=False, perf_metrics=False, fault_detection=True,
            multiple_outstanding=False, scalable=False,
            implemented_as="repro.baselines.XilinxStyleTimeout",
        ),
        MonitorProfile(
            "ARM Watchdog [6]", "APB", True,
            timing_metrics=True, transaction_level=True, phase_level=False,
            protocol_check=False, perf_metrics=False, fault_detection=True,
            multiple_outstanding=False, scalable=False,
        ),
        MonitorProfile(
            "AMD Perf. Mon. [7]", "AXI", True,
            timing_metrics=True, transaction_level=True, phase_level=False,
            protocol_check=False, perf_metrics=True, fault_detection=False,
            multiple_outstanding=False, scalable=False,
            implemented_as="repro.baselines.AxiPerfMonitor",
        ),
        MonitorProfile(
            "Synopsys Smart Mon. [8]", "AXI", True,
            timing_metrics=True, transaction_level=True, phase_level=False,
            protocol_check=False, perf_metrics=True, fault_detection=False,
            multiple_outstanding=False, scalable=False,
            implemented_as="repro.baselines.AxiPerfMonitor",
        ),
        MonitorProfile(
            "Lazaro AXI Firewall [9]", "AXI", True,
            timing_metrics=False, transaction_level=True, phase_level=False,
            protocol_check=False, perf_metrics=False, fault_detection=False,
            multiple_outstanding=False, scalable=False,
        ),
        MonitorProfile(
            "Ravi Bus Monitor [10]", "AXI", True,
            timing_metrics=True, transaction_level=True, phase_level=False,
            protocol_check=False, perf_metrics=True, fault_detection=False,
            multiple_outstanding=False, scalable=False,
        ),
        MonitorProfile(
            "Lee Bus Monitor [11]", "AXI", True,
            timing_metrics=True, transaction_level=True, phase_level=False,
            protocol_check=True, perf_metrics=True, fault_detection=False,
            multiple_outstanding=False, scalable=False,
        ),
        MonitorProfile(
            "Kyung Perf. Mon. [12]", "AXI", True,
            timing_metrics=True, transaction_level=True, phase_level=False,
            protocol_check=False, perf_metrics=True, fault_detection=False,
            multiple_outstanding=False, scalable=False,
        ),
        MonitorProfile(
            "Chen AXIChecker [13]", "AXI", True,
            timing_metrics=False, transaction_level=True, phase_level=False,
            protocol_check=True, perf_metrics=False, fault_detection=False,
            multiple_outstanding=False, scalable=False,
            implemented_as="repro.baselines.AxiChecker",
        ),
        MonitorProfile(
            "Tan Perf. Mon. [14]", "AXI", True,
            timing_metrics=True, transaction_level=True, phase_level=False,
            protocol_check=False, perf_metrics=True, fault_detection=False,
            multiple_outstanding=False, scalable=False,
        ),
        MonitorProfile(
            "Edelman Transac. Mon. [15]", "AXI", False,
            timing_metrics=False, transaction_level=False, phase_level=True,
            protocol_check=False, perf_metrics=False, fault_detection=False,
            multiple_outstanding=False, scalable=False,
        ),
        MonitorProfile(
            "This work: Tiny-Counter", "AXI", True,
            timing_metrics=True, transaction_level=True, phase_level=False,
            protocol_check=True, perf_metrics=True, fault_detection=True,
            multiple_outstanding=True, scalable=True,
            implemented_as="repro.tmu.TransactionMonitoringUnit(variant=TINY)",
        ),
        MonitorProfile(
            "This work: Full-Counter", "AXI", True,
            timing_metrics=True, transaction_level=False, phase_level=True,
            protocol_check=True, perf_metrics=True, fault_detection=True,
            multiple_outstanding=True, scalable=True,
            implemented_as="repro.tmu.TransactionMonitoringUnit(variant=FULL)",
        ),
    ]


def implemented_profiles() -> List[MonitorProfile]:
    return [p for p in table2_profiles() if p.implemented_as is not None]
