"""Baseline monitors from the paper's Table II comparison."""

from .._lazy import lazy_exports

__all__ = [
    "AxiChecker",
    "AxiPerfMonitor",
    "MonitorProfile",
    "TABLE2_COLUMNS",
    "TrafficCounters",
    "XilinxStyleTimeout",
    "implemented_profiles",
    "table2_profiles",
]

_EXPORTS = {
    "axichecker": ("AxiChecker",),
    "features": (
        "TABLE2_COLUMNS",
        "MonitorProfile",
        "implemented_profiles",
        "table2_profiles",
    ),
    "perf_monitor": ("AxiPerfMonitor", "TrafficCounters"),
    "xilinx_timeout": ("XilinxStyleTimeout",),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
