"""Transaction Monitoring Unit — the paper's primary contribution."""

from .._lazy import lazy_exports

__all__ = [
    "AdaptiveBudgetPolicy",
    "ErrorLog",
    "FaultEvent",
    "FaultKind",
    "FixedBudgetPolicy",
    "LatencyHistogram",
    "LatencyStat",
    "LdEntry",
    "OttFullError",
    "OutstandingTransactionTable",
    "PerfLog",
    "PhaseBudgets",
    "Prescaler",
    "PrescaledCounter",
    "ReadGuard",
    "ReadPhase",
    "SpanBudgets",
    "TmuConfig",
    "TmuRegisters",
    "TmuState",
    "TransactionMonitoringUnit",
    "TxnSpan",
    "Variant",
    "WriteGuard",
    "WritePhase",
    "counter_width",
    "full_config",
    "tiny_config",
    "units_for",
]

_EXPORTS = {
    "budget": (
        "AdaptiveBudgetPolicy",
        "FixedBudgetPolicy",
        "PhaseBudgets",
        "SpanBudgets",
    ),
    "config": ("TmuConfig", "Variant", "full_config", "tiny_config"),
    "counters": (
        "Prescaler",
        "PrescaledCounter",
        "counter_width",
        "units_for",
    ),
    "events": ("ErrorLog", "FaultEvent", "FaultKind"),
    "ott": ("LdEntry", "OttFullError", "OutstandingTransactionTable"),
    "perf": ("LatencyHistogram", "LatencyStat", "PerfLog"),
    "phases": ("ReadPhase", "TxnSpan", "WritePhase"),
    "read_guard": ("ReadGuard",),
    "registers": ("TmuRegisters",),
    "unit": ("TmuState", "TransactionMonitoringUnit"),
    "write_guard": ("WriteGuard",),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
