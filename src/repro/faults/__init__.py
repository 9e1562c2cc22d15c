"""Fault injection: stages, signal forcing, campaign runner."""

from .._lazy import lazy_exports

__all__ = [
    "ChannelForce",
    "FIG9_WRITE_STAGES",
    "FaultInjector",
    "FaultSite",
    "InjectionResult",
    "InjectionStage",
    "IpHarness",
    "apply_stage_fault",
    "measure_stall_detection_latency",
    "run_campaign",
    "run_injection",
]

_EXPORTS = {
    "campaign": (
        "InjectionResult",
        "IpHarness",
        "apply_stage_fault",
        "measure_stall_detection_latency",
        "run_campaign",
        "run_injection",
    ),
    "injector": ("ChannelForce", "FaultInjector"),
    "types": ("FIG9_WRITE_STAGES", "FaultSite", "InjectionStage"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
