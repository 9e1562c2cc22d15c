"""Two-phase synchronous simulation kernel.

The kernel models synchronous digital hardware: every cycle, component
``drive()`` methods settle combinational wire values to a fixed point,
then ``update()`` methods advance registered state at the clock edge.
"""

from .._lazy import lazy_exports

__all__ = [
    "Channel",
    "Component",
    "DriveSensitiveState",
    "STRATEGIES",
    "lane_classes",
    "lockstep_period",
    "SchedulerDivergenceError",
    "SettleError",
    "Simulator",
    "VcdWriter",
    "Wire",
]

_EXPORTS = {
    "batch": ("lane_classes", "lockstep_period"),
    "component": ("Component", "DriveSensitiveState"),
    "kernel": (
        "STRATEGIES",
        "SchedulerDivergenceError",
        "SettleError",
        "Simulator",
    ),
    "signal": ("Channel", "Wire"),
    "vcd": ("VcdWriter",),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
