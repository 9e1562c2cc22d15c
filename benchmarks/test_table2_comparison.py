"""Table II — Comparison of AXI Transaction Monitors in the Literature.

Regenerates the feature matrix.  Rows for monitors implemented in this
repository are cross-checked against live instances: each implemented
baseline is exercised and must demonstrate (or provably lack) the
capabilities its row claims, and every row that names an implementation
is backed by at least one demonstrated outcome.
"""

from types import SimpleNamespace

from conftest import report, run_once

from repro.analysis.report import render_table
from repro.axi.interface import AxiInterface
from repro.axi.manager import Manager
from repro.axi.subordinate import Subordinate
from repro.axi.traffic import write_spec
from repro.baselines import (
    AxiChecker,
    AxiPerfMonitor,
    TABLE2_COLUMNS,
    XilinxStyleTimeout,
    table2_profiles,
)
from repro.sim.kernel import Simulator

TMU_TINY = "repro.tmu.TransactionMonitoringUnit(variant=TINY)"
TMU_FULL = "repro.tmu.TransactionMonitoringUnit(variant=FULL)"

#: The ``implemented_as`` each demonstrated outcome backs.
BACKS = {
    "xilinx_fault_detection": ("repro.baselines.XilinxStyleTimeout",),
    "perfmon_metrics": ("repro.baselines.AxiPerfMonitor",),
    "perfmon_no_fault_detection": ("repro.baselines.AxiPerfMonitor",),
    "axichecker_protocol_check": ("repro.baselines.AxiChecker",),
    "axichecker_no_timing": ("repro.baselines.AxiChecker",),
    "tmu_fc_phase_level": (TMU_FULL,),
    "tmu_tc_txn_level": (TMU_TINY,),
    "tmu_fault_detection": (TMU_TINY, TMU_FULL),
    "tmu_recovery": (TMU_TINY, TMU_FULL),
}


def demonstrate_capabilities():
    """Exercise implemented monitors to validate their Table II rows."""
    outcomes = {}

    def loop(monitor_cls, fault=None, **kwargs):
        sim = Simulator()
        bus = AxiInterface("bus")
        manager = Manager("manager", bus)
        subordinate = Subordinate("subordinate", bus)
        monitor = monitor_cls("monitor", bus, **kwargs)
        for component in (manager, subordinate, monitor):
            sim.add(component)
        if fault:
            setattr(subordinate.faults, fault, True)
        manager.submit(write_spec(0, 0x100, beats=4))
        sim.run(300)
        return SimpleNamespace(monitor=monitor, manager=manager)

    env = loop(XilinxStyleTimeout, fault="mute_b", window=32)
    outcomes["xilinx_fault_detection"] = bool(env.monitor.timeouts)

    env = loop(AxiPerfMonitor)
    outcomes["perfmon_metrics"] = env.monitor.write.transactions == 1
    outcomes["perfmon_no_fault_detection"] = not hasattr(env.monitor, "irq")

    env = loop(AxiChecker, fault="spurious_b")
    outcomes["axichecker_protocol_check"] = not env.monitor.clean
    outcomes["axichecker_no_timing"] = not hasattr(env.monitor, "timeouts")

    from repro.faults.campaign import run_injection
    from repro.faults.types import InjectionStage
    from repro.tmu.config import full_config, tiny_config

    fc = run_injection(full_config(), InjectionStage.WLAST_TO_BVALID, beats=4)
    tc = run_injection(tiny_config(), InjectionStage.WLAST_TO_BVALID, beats=4)
    outcomes["tmu_fc_phase_level"] = fc.fault_phase == "WLAST_BVLD"
    outcomes["tmu_tc_txn_level"] = tc.fault_phase == "AWVALID_BRESP"
    outcomes["tmu_fault_detection"] = fc.detected and tc.detected
    outcomes["tmu_recovery"] = fc.recovered and tc.recovered
    return outcomes


def test_table2_comparison(benchmark):
    outcomes = run_once(benchmark, demonstrate_capabilities)
    profiles = table2_profiles()
    body = render_table(
        TABLE2_COLUMNS, [profile.row() for profile in profiles]
    )
    built = [p.name for p in profiles if p.implemented_as]
    body += "\n\nRows backed by an implementation in this repo: " + ", ".join(built)
    report("Table II: Comparison of AXI Transaction Monitors", body)
    assert all(outcomes.values()), {k: v for k, v in outcomes.items() if not v}
    demonstrated = {target for key in outcomes for target in BACKS[key]}
    claimed = {p.implemented_as for p in profiles if p.implemented_as}
    assert demonstrated == claimed, (claimed - demonstrated, demonstrated - claimed)
