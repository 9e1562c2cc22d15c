"""Checkpoint and restore are exact.

``Simulator.checkpoint()`` (with the harnesses' memories beside it)
taken at a drawn cycle — between runs, where a leap or a streamed span
is split, or from a ``run_until`` condition, where an island may be
held — then a run on, a restore and the same run again: the second
continuation must equal the first in every component's state (through
``test_reset_exact``'s normalizer), every wire value and the
scheduler statistics, with the probes and the tracer still attached
and observing.  The scenarios cover every component class of the IP
harness, the busy SoC, the Regbus SoC and the baseline bus.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.sim.test_reset_exact import _baseline_bus, _state

from repro.axi.traffic import RandomTraffic, read_spec, write_spec
from repro.faults.campaign import build_ip_harness
from repro.soc.cheshire import CheshireSoC, system_tmu_config
from repro.soc.experiment import build_system_soc
from repro.telemetry import Tracer
from repro.tmu.config import Variant, full_config


class CountingProbe:
    leap_aware = True

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, sim) -> None:
        self.calls += 1


class CountingTracer(Tracer):
    def __init__(self) -> None:
        self.steps = 0
        self.leaped = 0

    def step_end(self, sim) -> None:
        self.steps += 1

    def leap(self, sim, start, end) -> None:
        self.steps += 1
        self.leaped += end - start

    def stream(self, sim, start, end) -> None:
        self.steps += 1


class _Bus:
    """The baseline bus with the harness checkpoint interface."""

    def __init__(self, tracer) -> None:
        self.sim, self.parts = _baseline_bus()
        self.sim._tracer = tracer
        self.parts["manager"].submit_all(
            RandomTraffic(seed=5, max_beats=6).take(10)
        )
        self.parts["manager"].submit(write_spec(1, 0x9000, beats=2))

    def checkpoint(self):
        memory = self.parts["subordinate"].memory
        return self.sim.checkpoint(), memory.checkpoint()

    def restore(self, checkpoint) -> None:
        sim, pages = checkpoint
        self.sim.restore(sim)
        self.parts["subordinate"].memory.restore(pages)


def ip_scenario(tracer):
    harness = build_ip_harness(
        full_config(prescale_step=4), {"sim_tracer": tracer}, reorder_depth=2
    )
    manager = harness.manager
    for i in range(3):
        addr = 0x1000 * (i + 1)
        manager.submit(write_spec(i, addr, beats=12, issue_delay=3))
        manager.submit(read_spec(i, addr, beats=6))
    harness.subordinate.faults.deaf_w_after = 20
    return harness


def busy_scenario(tracer):
    soc = build_system_soc(Variant.TINY, 96, 4, sim_tracer=tracer)
    soc.sim.run(5)
    soc.send_ethernet_frame(96)
    soc.submit_background_traffic(24)
    soc.submit_outstanding_reads(4)
    soc.ethernet.faults.mute_b = True
    return soc


def regbus_scenario(tracer):
    soc = CheshireSoC(
        system_tmu_config(Variant.FULL, frame_beats=32), use_regbus=True,
        sim_tracer=tracer,
    )
    soc.send_ethernet_frame(32)
    soc.submit_background_traffic(6)
    soc.ethernet.faults.deaf_w = True
    return soc


def baseline_scenario(tracer):
    return _Bus(tracer)


SCENARIOS = {
    "ip": (ip_scenario, 260),
    "busy": (busy_scenario, 700),
    "regbus": (regbus_scenario, 700),
    "baseline": (baseline_scenario, 160),
}


def _never(sim) -> bool:
    return False


def _observed(harness):
    sim = harness.sim
    stats = {key: sim.stats()[key] for key in sim.STAT_KEYS}
    return _state(sim), stats, sim.cycle


def continuations(name, at, run_on, inside):
    """The state after *run_on* cycles from a checkpoint at *at*, run
    first straight through and then again after a restore."""
    make, _ = SCENARIOS[name]
    tracer = CountingTracer()
    harness = make(tracer)
    sim = harness.sim
    probe = CountingProbe()
    sim.add_probe(probe)
    at += sim.cycle
    target = at + run_on
    saved = []
    if inside:
        def take(_sim) -> bool:
            if not saved and _sim.cycle >= at:
                saved.append((harness.checkpoint(), _sim._island is not None))
            return False

        sim.run_until(take, timeout=target - sim.cycle)
        if not saved:  # the run leaped from before *at* to its end
            saved.append((harness.checkpoint(), False))
    else:
        sim.run(at - sim.cycle)
        saved.append((harness.checkpoint(), False))
        sim.run(target - sim.cycle)
    first = _observed(harness)
    checkpoint, island = saved[0]
    harness.restore(checkpoint)
    calls, steps, leaped = probe.calls, tracer.steps, tracer.leaped
    restored_at = sim.cycle
    if inside:
        sim.run_until(_never, timeout=target - sim.cycle, resume=True)
    else:
        sim.run(target - sim.cycle)
    second = _observed(harness)
    assert probe in sim._probes and sim._tracer is tracer
    if target > restored_at:
        assert tracer.steps > steps
    # The probe sees every cycle the tracer does not see leaped.
    observed = probe.calls - calls + tracer.leaped - leaped
    assert observed == target - restored_at
    return first, second, island


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(SCENARIOS)),
    data=st.data(),
    inside=st.booleans(),
)
def test_restore_then_run_equals_running_on(name, data, inside):
    horizon = SCENARIOS[name][1]
    at = data.draw(st.integers(1, horizon), label="at")
    run_on = data.draw(st.integers(1, horizon), label="run_on")
    first, second, _ = continuations(name, at, run_on, inside)
    assert second == first


def test_checkpoint_inside_an_island():
    # The busy frame streams as an island while background traffic
    # steps: a checkpoint taken while one is held restores it.
    for at in range(20, 120, 7):
        first, second, island = continuations("busy", at, 150, inside=True)
        assert second == first
        if island:
            return
    raise AssertionError("no island was held at any checkpoint tried")


def test_a_checkpoint_restores_twice():
    tracer = CountingTracer()
    soc = busy_scenario(tracer)
    soc.sim.run(60)
    checkpoint = soc.checkpoint()
    soc.sim.run(200)
    first = _observed(soc)
    for _ in range(2):
        soc.restore(checkpoint)
        soc.sim.run(200)
        assert _observed(soc) == first
