"""Scheduler equivalence: slept ≡ always-awake on equal back-to-back payloads.

``strategy="verify"`` replays every skipped update in its slot, so its
elapsed-reconstructed counters tick once per cycle and a component
behaves as if it never slept: a bug that only shows when a component
*sleeps* through a span is invisible to it (the manager's B/R ready
polls ran late that way when equal responses arrived back to back).
Only lockstep comparisons against runs that never sleep catch that
class.  Each scenario here is built three times — ``dirty`` with update
skipping, ``dirty`` with ``update_skipping=False`` (every update every
cycle) and ``exhaustive`` — stepped in lockstep and compared wire for
wire every cycle, then on final state.

The stimulus is chosen so that wires stay still between handshakes:
equal AW/AR requests, equal B responses and fill-byte R beats, W bursts
of identical words.  A sleeping component then sees no wire change at
the boundary between two payloads, and only its own bookkeeping can
tell them apart.
"""

import pytest

from repro.axi.crossbar import AddressRange, Crossbar
from repro.axi.interface import AxiInterface
from repro.axi.manager import Manager
from repro.axi.subordinate import Subordinate
from repro.axi.traffic import read_spec, write_spec
from repro.faults.campaign import IpHarness
from repro.sim import Simulator
from repro.tmu.config import TmuConfig, Variant

#: (strategy, update_skipping) of the three kernels run in lockstep.
KERNELS = (("dirty", True), ("dirty", False), ("exhaustive", True))

SAME = 0x5A5A_5A5A_5A5A_5A5A


def equal_traffic(manager, base, resp_ready_delay):
    """Three equal single-beat writes, three equal reads, two identical-
    word bursts — all same ID, so their handshakes come back to back."""
    for _ in range(3):
        manager.submit(
            write_spec(1, base, data=[SAME], resp_ready_delay=resp_ready_delay)
        )
    for _ in range(3):
        manager.submit(read_spec(1, base + 0x800, resp_ready_delay=resp_ready_delay))
    manager.submit(
        read_spec(2, base + 0x900, beats=4, resp_ready_delay=resp_ready_delay)
    )
    for _ in range(2):
        manager.submit(write_spec(2, base + 0x100, beats=6, data=[SAME] * 6))


def build_manager_subordinate(strategy, skipping, delay):
    sim = Simulator(strategy=strategy, update_skipping=skipping)
    bus = AxiInterface("bus")
    manager = Manager("mgr", bus)
    subordinate = Subordinate(
        "sub", bus, aw_ready_delay=delay, ar_ready_delay=delay, b_latency=2
    )
    sim.add(manager)
    sim.add(subordinate)
    equal_traffic(manager, 0x1000, resp_ready_delay=delay)

    def state():
        return (
            [(t.resp_cycle, t.data) for t in manager.completed],
            subordinate.writes_done,
            subordinate.reads_done,
        )

    return sim, state


def build_crossbar(strategy, skipping, delay):
    sim = Simulator(strategy=strategy, update_skipping=skipping)
    managers = [AxiInterface(f"m{i}") for i in range(2)]
    subs = [AxiInterface(f"s{i}") for i in range(2)]
    mgr_components = [Manager(f"mgr{i}", bus) for i, bus in enumerate(managers)]
    sub_components = [
        Subordinate(f"sub{i}", bus, aw_ready_delay=delay, ar_ready_delay=delay)
        for i, bus in enumerate(subs)
    ]
    xbar = Crossbar(
        "xbar",
        managers,
        [
            (subs[0], AddressRange(0x0000, 0x4000)),
            (subs[1], AddressRange(0x4000, 0x4000)),
        ],
    )
    for component in (*mgr_components, xbar, *sub_components):
        sim.add(component)
    # Both managers send the same requests to the same subordinate.
    for manager in mgr_components:
        equal_traffic(manager, 0x4000, resp_ready_delay=delay)

    def state():
        return [
            [(t.resp_cycle, t.data) for t in m.completed] for m in mgr_components
        ]

    return sim, state


def build_tmu(strategy, skipping, delay):
    config = TmuConfig(variant=Variant.FULL, max_uniq_ids=4, txn_per_id=4)
    harness = IpHarness(
        config,
        b_latency=delay + 1,
        sim_strategy=strategy,
        sim_update_skipping=skipping,
    )
    harness.subordinate.aw_ready_delay = delay
    harness.subordinate.ar_ready_delay = delay
    equal_traffic(harness.manager, 0x1000, resp_ready_delay=delay)

    def state():
        return (
            [(t.resp_cycle, t.resp) for t in harness.manager.completed],
            harness.tmu.write_guard.perf.completed,
            harness.tmu.read_guard.perf.completed,
            harness.tmu.faults_handled,
        )

    return harness.sim, state


SCENARIOS = {
    "manager_subordinate": build_manager_subordinate,
    "crossbar": build_crossbar,
    "tmu": build_tmu,
}


def trace(sim):
    return {wire.name: wire._value for wire in sim.wires}


@pytest.mark.parametrize("delay", (1, 3))
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_slept_and_always_awake_runs_identical(name, delay):
    runs = [
        SCENARIOS[name](strategy, skipping, delay) for strategy, skipping in KERNELS
    ]
    slept_sim = runs[0][0]
    slept = 0
    for cycle in range(400):
        for sim, _ in runs:
            sim.step()
        # Cycles in which some component of the skipping kernel slept.
        slept += len(slept_sim._update_pending) < len(slept_sim._demand_updaters)
        reference = trace(slept_sim)
        for sim, _ in runs[1:]:
            assert trace(sim) == reference, f"{name}: cycle {cycle}"
    states = [state() for _, state in runs]
    assert states[0] == states[1] == states[2]
    assert slept > 100


def test_manager_polls_restart_on_equal_back_to_back_responses():
    """Regression: the manager's B/R ready polls under update skipping.

    Equal responses arriving back to back leave the response wires
    still, so a sleeping manager used to resume its poll from the
    previous response's count and raise ``ready`` early.  Each accepted
    response must restart the poll exactly as an always-awake manager's
    does.
    """
    fired = {}
    for strategy, skipping in KERNELS:
        sim = Simulator(strategy=strategy, update_skipping=skipping)
        bus = AxiInterface("bus")
        manager = Manager("mgr", bus)
        sim.add(manager)
        sim.add(Subordinate("sub", bus))
        for _ in range(3):
            manager.submit(write_spec(1, 0x800, data=[0], resp_ready_delay=3))
        manager.submit(read_spec(1, 0x900, beats=4, resp_ready_delay=3))
        cycles = []
        for _ in range(200):
            sim.step()
            if bus.b.fired() or bus.r.fired():
                cycles.append(sim.cycle)
        fired[(strategy, skipping)] = cycles
    reference = fired[("dirty", False)]
    assert len(reference) == 7
    assert all(cycles == reference for cycles in fired.values())
