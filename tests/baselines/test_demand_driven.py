"""Differential tests for the demand-driven Table II baselines.

Each baseline that opted into ``demand_driven = True`` (checker and
Xilinx-style timeout) gets a fault-exercising scenario run three ways:
``dirty`` vs ``exhaustive`` in lockstep with full wire traces compared
every cycle, and once under ``strategy="verify"`` so any missed
``schedule_drive()`` raises
:class:`~repro.sim.kernel.SchedulerDivergenceError` at the offending
cycle.
"""

import pytest

from repro.axi.interface import AxiInterface
from repro.axi.manager import Manager
from repro.axi.subordinate import Subordinate
from repro.axi.traffic import write_spec
from repro.baselines import AxiChecker, XilinxStyleTimeout
from repro.sim import Simulator


def build_xilinx_scenario(strategy):
    """Healthy write, then a muted B response, detection, irq clear."""
    sim = Simulator(strategy=strategy)
    bus = AxiInterface("bus")
    manager = Manager("mgr", bus)
    subordinate = Subordinate("sub", bus, b_latency=2)
    monitor = XilinxStyleTimeout("timeout", bus, window=24)
    for component in (manager, subordinate, monitor):
        sim.add(component)
    manager.submit(write_spec(0, 0x100, beats=2))

    def events(cycle):
        if cycle == 20:
            subordinate.faults.mute_b = True
            manager.submit(write_spec(1, 0x200, beats=2))
        if cycle == 90:
            monitor.clear_irq()

    state = lambda: (  # noqa: E731 - compact scenario closure
        monitor.timeouts,
        monitor.irq.value,
        len(manager.completed),
    )
    return sim, events, state


def build_checker_scenario(strategy):
    """Clean traffic, then a spurious B response trips the error flag."""
    sim = Simulator(strategy=strategy)
    bus = AxiInterface("bus")
    manager = Manager("mgr", bus)
    subordinate = Subordinate("sub", bus)
    checker = AxiChecker("checker", bus, log_depth=4)
    for component in (manager, subordinate, checker):
        sim.add(component)
    manager.submit(write_spec(0, 0x100, beats=2))

    def events(cycle):
        if cycle == 25:
            subordinate.faults.spurious_b = 9
        if cycle == 45:
            subordinate.faults.spurious_b = None
            checker.clear_error()

    state = lambda: (  # noqa: E731
        checker.error.value,
        len(checker.violations),
        checker.clean,
    )
    return sim, events, state


SCENARIOS = {
    "xilinx_timeout": build_xilinx_scenario,
    "axichecker": build_checker_scenario,
}
CYCLES = {
    "xilinx_timeout": 120,
    "axichecker": 60,
}


def trace(sim):
    return {wire.name: wire.value for wire in sim.wires}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_dirty_and_exhaustive_traces_identical(name):
    build = SCENARIOS[name]
    dirty_sim, dirty_events, dirty_state = build("dirty")
    exact_sim, exact_events, exact_state = build("exhaustive")
    for cycle in range(CYCLES[name]):
        dirty_events(cycle)
        exact_events(cycle)
        dirty_sim.step()
        exact_sim.step()
        assert trace(dirty_sim) == trace(exact_sim), f"cycle {cycle}"
    assert dirty_state() == exact_state()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_verify_strategy_confirms_fixed_point(name):
    sim, events, _state = SCENARIOS[name]("verify")
    for cycle in range(CYCLES[name]):
        events(cycle)
        sim.step()  # SchedulerDivergenceError on any under-evaluation
