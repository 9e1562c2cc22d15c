"""Measurement and reporting helpers for the benches."""

from .._lazy import lazy_exports

__all__ = [
    "IrqLatencyProbe",
    "area_report_dict",
    "injection_result_dict",
    "perf_log_dict",
    "to_json",
    "LatencySummary",
    "render_bar_chart",
    "render_series",
    "render_table",
    "summarize_latencies",
]

_EXPORTS = {
    "export": (
        "area_report_dict",
        "injection_result_dict",
        "perf_log_dict",
        "to_json",
    ),
    "latency": ("IrqLatencyProbe", "LatencySummary", "summarize_latencies"),
    "report": ("render_bar_chart", "render_series", "render_table"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
