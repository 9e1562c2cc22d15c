"""System-level substrate: the Cheshire-like SoC of the paper's Fig. 10."""

from .._lazy import lazy_exports

__all__ = [
    "BOOTROM_BASE",
    "CheshireSoC",
    "DRAM_BASE",
    "DmaDescriptor",
    "DmaEngine",
    "ETHERNET_BASE",
    "EthernetMac",
    "Plic",
    "RecoveryCpu",
    "RecoveryRecord",
    "ResetUnit",
    "SYSTEM_FC_BUDGETS",
    "SYSTEM_TC_BUDGET",
    "system_budget_policy",
    "system_tmu_config",
    "FIG11_LABELS",
    "FIG11_STAGES",
    "RegBusDemux",
    "RegBusMaster",
    "RegBusPort",
    "RegRequest",
    "RegResponse",
    "SystemInjectionResult",
    "TmuRegbusAdapter",
    "run_fig11",
    "run_system_injection",
]

_EXPORTS = {
    "cheshire": (
        "BOOTROM_BASE",
        "DRAM_BASE",
        "ETHERNET_BASE",
        "SYSTEM_FC_BUDGETS",
        "SYSTEM_TC_BUDGET",
        "CheshireSoC",
        "system_budget_policy",
        "system_tmu_config",
    ),
    "cpu": ("RecoveryCpu", "RecoveryRecord"),
    "dma": ("DmaDescriptor", "DmaEngine"),
    "ethernet": ("EthernetMac",),
    "plic": ("Plic",),
    "reset_unit": ("ResetUnit",),
    "experiment": (
        "FIG11_LABELS",
        "FIG11_STAGES",
        "SystemInjectionResult",
        "run_fig11",
        "run_system_injection",
    ),
    "regbus": (
        "RegBusDemux",
        "RegBusMaster",
        "RegBusPort",
        "RegRequest",
        "RegResponse",
        "TmuRegbusAdapter",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
