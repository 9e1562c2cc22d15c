"""GF12-calibrated structural area model (reproduces Figs. 7-8)."""

from .._lazy import lazy_exports
from . import gf12

__all__ = [
    "AreaReport",
    "detection_latency_bound",
    "estimate_area",
    "gf12",
    "prescaler_saving",
    "tmu_area",
]

_EXPORTS = {
    "model": (
        "AreaReport",
        "detection_latency_bound",
        "estimate_area",
        "prescaler_saving",
        "tmu_area",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
