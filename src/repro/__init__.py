"""Reproduction of "Towards Reliable Systems: A Scalable Approach to
AXI4 Transaction Monitoring" (DATE 2025).

Public API overview
-------------------
``repro.sim``
    Two-phase synchronous simulation kernel.
``repro.axi``
    AXI4 protocol substrate: channels, managers, subordinates, crossbar.
``repro.tmu``
    The Transaction Monitoring Unit (Tiny- and Full-Counter variants).
``repro.faults``
    Fault-injection wrappers and campaign runner.
``repro.orchestrate``
    Campaign orchestration: shard planning, process-pool execution,
    result caching, progress reporting.
``repro.area``
    GF12-calibrated structural area model.
``repro.baselines``
    Comparator monitors from the paper's Table II.
``repro.soc``
    Cheshire-like system-level integration (Fig. 10).
``repro.analysis``
    Result export and report rendering.
"""

__version__ = "1.0.0"
