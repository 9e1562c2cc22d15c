"""Measurement and reporting helpers for the benches."""

from .._lazy import lazy_exports

__all__ = [
    "area_report_dict",
    "injection_result_dict",
    "perf_log_dict",
    "to_json",
    "render_bar_chart",
    "render_series",
    "render_table",
]

_EXPORTS = {
    "export": (
        "area_report_dict",
        "injection_result_dict",
        "perf_log_dict",
        "to_json",
    ),
    "report": ("render_bar_chart", "render_series", "render_table"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
