"""Kernel-level tests for burst streaming.

When every awake component reports a streaming horizon, ``run`` and
``run_until`` advance the middle of a steady W burst in one call (see
"Burst streaming" in :mod:`repro.sim.kernel`).  These tests pin the
regime's legality rules — where it runs, what pins it, how probes,
tracers and ``run_until`` conditions see a span — and the scheduler
statistics that account for it.
"""

import io

import pytest

from repro.axi.interface import AxiInterface
from repro.axi.manager import Manager
from repro.axi.memory import SparseMemory
from repro.axi.subordinate import Subordinate
from repro.axi.traffic import read_spec, write_spec
from repro.faults.campaign import IpHarness, run_injection
from repro.faults.types import InjectionStage
from repro.sim import Component, Simulator, VcdWriter
from repro.soc.experiment import build_system_soc, run_system_injection
from repro.telemetry import KernelTracer
from repro.tmu.config import TmuConfig, Variant

WORDS = [0x1111_0000_0000_0000 + i for i in range(32)]


def direct_loop(**sim_kwargs):
    """Manager ↔ subordinate, one 32-beat write queued."""
    sim = Simulator(**sim_kwargs)
    bus = AxiInterface("bus")
    manager = Manager("mgr", bus)
    subordinate = Subordinate("sub", bus, b_latency=3)
    sim.add(manager)
    sim.add(subordinate)
    manager.submit(write_spec(0, 0x1000, beats=len(WORDS), data=list(WORDS)))
    return sim, manager, subordinate


def stored_words(subordinate):
    memory = subordinate.memory
    return [memory.read_word(0x1000 + 8 * i, 8) for i in range(len(WORDS))]


def test_burst_middle_streams_and_matches_stepping():
    streamed, manager, subordinate = direct_loop()
    stepped, ref_manager, ref_subordinate = direct_loop(time_leaping=False)
    streamed.run(80)
    stepped.run(80)
    # First and last beats are stepped; the 30 in between stream.
    assert streamed.cycles_streamed == len(WORDS) - 2
    assert stepped.cycles_streamed == 0
    assert stored_words(subordinate) == stored_words(ref_subordinate) == WORDS
    assert manager.completed == ref_manager.completed
    assert {w.name: w.value for w in streamed.wires} == {
        w.name: w.value for w in stepped.wires
    }


@pytest.mark.parametrize(
    "sim_kwargs",
    [
        {"time_leaping": False},
        {"strategy": "verify"},
        {"strategy": "exhaustive"},
        {"update_skipping": False},
    ],
    ids=["no-leaping", "verify", "exhaustive", "no-skipping"],
)
def test_streaming_rides_on_leaping(sim_kwargs):
    sim, _, subordinate = direct_loop(**sim_kwargs)
    sim.run(80)
    assert sim.cycles_streamed == 0
    assert stored_words(subordinate) == WORDS


def test_statistics_account_for_every_cycle():
    sim, _, _ = direct_loop()
    sim.run(200)
    assert sim.stepped_cycles + sim.cycles_streamed + sim.cycles_leaped == 200
    assert sim.cycles_streamed and sim.cycles_leaped
    sim.reset()
    assert sim.stats() == {key: 0 for key in Simulator.STAT_KEYS}


@pytest.mark.parametrize("variant", (Variant.FULL, Variant.TINY))
def test_system_run_statistics_add_up_to_final_cycle(variant):
    soc = build_system_soc(variant)
    result = run_system_injection(
        variant, InjectionStage.WLAST_TO_BVALID, start_delay=9, soc=soc
    )
    assert result.sim_cycles_streamed >= 200
    assert (
        result.sim_stepped_cycles
        + result.sim_cycles_streamed
        + result.sim_cycles_leaped
        == soc.sim.cycle
    )


def test_leap_aware_probe_sees_every_streamed_cycle():
    sim, _, _ = direct_loop()

    class Probe:
        leap_aware = True

        def __init__(self):
            self.cycles = []

        def __call__(self, s):
            self.cycles.append(s.cycle)

    probe = Probe()
    sim.add_probe(probe)
    sim.run(60)
    assert sim.cycles_streamed > 0
    # Stepped and streamed cycles each reach the probe once, in order.
    assert len(probe.cycles) == sim.stepped_cycles + sim.cycles_streamed
    assert probe.cycles == sorted(set(probe.cycles))


def test_change_tracking_pins_streaming():
    sim, _, subordinate = direct_loop()
    sim.track_changes()
    sim.run(80)
    assert sim.cycles_streamed == 0
    assert stored_words(subordinate) == WORDS


@pytest.mark.parametrize("traced", [False, True])
def test_vcd_writer_pins_streaming(traced):
    harness = IpHarness(TmuConfig(variant=Variant.FULL))
    if traced:
        writer = VcdWriter(io.StringIO(), [harness.tmu.irq])
        harness.sim.add_probe(writer.sample)
    harness.manager.submit(write_spec(0, 0x1000, beats=64))
    harness.sim.run(200)
    assert (harness.sim.cycles_streamed == 0) == traced


class PayloadSpy(Component):
    """Reads the W payload in its drive without the streaming contract."""

    demand_driven = True

    def __init__(self, bus):
        super().__init__("spy")
        self.bus = bus
        self.seen = []

    def inputs(self):
        return (self.bus.w.payload,)

    def drive(self):
        beat = self.bus.w.payload._value
        if beat is not None:
            self.seen.append(beat.data)


def test_reader_without_contract_pins_streaming():
    sim, manager, _ = direct_loop()
    spy = PayloadSpy(manager.bus)
    sim.add(spy)
    sim.run(80)
    assert sim.cycles_streamed == 0
    assert spy.seen == WORDS  # every beat was driven, so the spy saw it


def test_run_target_bounds_a_span():
    sim, _, subordinate = direct_loop()
    reference, _, ref_subordinate = direct_loop(time_leaping=False)
    for chunk in (7, 3, 11, 5, 50):
        sim.run(chunk)
        reference.run(chunk)
        assert sim.cycle == reference.cycle
        assert subordinate.w_beats == ref_subordinate.w_beats
    assert stored_words(subordinate) == WORDS


def test_run_until_consults_its_condition_at_span_boundaries():
    sim, manager, subordinate = direct_loop()
    seen = []

    def done(s):
        seen.append(s.cycle)
        return manager.idle

    finished = sim.run_until(done, timeout=200)
    reference, ref_manager, _ = direct_loop(time_leaping=False)
    assert finished == reference.run_until(lambda s: ref_manager.idle, timeout=200)
    assert sim.cycles_streamed > 0
    assert len(seen) < finished  # not once per cycle


def test_run_until_never_streams_past_a_condition_that_already_holds():
    sim, _, _ = direct_loop()
    sim.run(5)  # mid-burst: the next cycle could stream
    start = sim.cycle
    assert sim.run_until(lambda s: True, timeout=100) == start + 1


def test_tracer_sees_each_span_once():
    tracer = KernelTracer()
    sim, _, _ = direct_loop(tracer=tracer)
    sim.run(80)
    assert tracer.cycles_streamed == sim.cycles_streamed > 0
    events = tracer.chrome_trace()["traceEvents"]
    spans = [e for e in events if e.get("name") == "stream"]
    assert sum(e["args"]["cycles"] for e in spans) == sim.cycles_streamed


def test_ip_harness_streams_through_the_tmu():
    harness = IpHarness(TmuConfig(variant=Variant.FULL))
    harness.manager.submit(write_spec(0, 0x1000, beats=64))
    harness.sim.run(200)
    assert harness.sim.cycles_streamed == 62
    assert harness.tmu.write_guard.perf.completed == 1
    assert harness.manager.completed[0].resp.name == "OKAY"


def test_write_block_spans_pages_and_notifies_once():
    memory = SparseMemory(page_bits=4)
    calls = []
    memory.watch(lambda: calls.append(1))
    memory.write_block(0x0C, bytes(range(40)))
    assert memory.read(0x0C, 40) == bytes(range(40))
    assert memory.allocated_pages == 4
    assert calls == [1]


@pytest.mark.parametrize(
    "with_reset_unit", (True, False), ids=["reset-unit", "self-ack"]
)
@pytest.mark.parametrize(
    "stage", (InjectionStage.AW_READY_MISSING, InjectionStage.DATA_TRANSFER_STALL)
)
def test_recovering_tmu_drain_streams_like_stepping(stage, with_reset_unit):
    # After detection the TMU accepts and discards the rest of the
    # burst; the drain streams until the reset handshake moves, which a
    # standalone TMU counts down itself.
    config = TmuConfig(variant=Variant.FULL)
    kwargs = {"with_reset_unit": with_reset_unit, "reset_duration": 30}

    def run(**sim_kwargs):
        return run_injection(
            config, stage, beats=128, harness_kwargs={**kwargs, **sim_kwargs}
        )

    streamed = run()
    assert streamed.recovered and streamed.sim_cycles_streamed > 100
    assert streamed == run(sim_time_leaping=False)
    assert streamed == run(sim_strategy="exhaustive")


# ----------------------------------------------------------------------
# Island streaming: the burst streams while other traffic steps
# ----------------------------------------------------------------------
class Pulser(Component):
    """Asserts *wire* during cycles ``[at, at + width)``, awake till then."""

    demand_driven = True
    demand_update = True

    def __init__(self, wire, at, width=2):
        super().__init__("pulser")
        self.wire, self.at, self.width = wire, at, width

    def wires(self):
        return (self.wire,)

    def inputs(self):
        return ()

    def drive(self):
        cycle = self._sim.cycle
        self.wire.value = self.at <= cycle < self.at + self.width

    def update(self):
        self.schedule_drive()

    def quiescent(self):
        return self._sim.cycle > self.at + self.width


def busy_loop(reads=12, extra=(), **sim_kwargs):
    """``direct_loop`` beside a second pair serving *reads* 4-beat reads.

    Read bursts never stream, so while they run the whole simulation
    cannot: the write burst can only stream as an island.  *extra*
    builds more components from the write pair.
    """
    sim, manager, subordinate = direct_loop(**sim_kwargs)
    bus = AxiInterface("bg")
    reader = Manager("bg_mgr", bus)
    memory = Subordinate("bg_sub", bus, r_latency=2)
    sim.add(reader)
    sim.add(memory)
    for i in range(reads):
        reader.submit(read_spec(0, 0x2000 + 0x40 * i, beats=4))
    for build in extra:
        sim.add(build(manager, subordinate))
    return sim, manager, subordinate


def outcome(sim, manager, subordinate):
    return (
        sim.cycle,
        stored_words(subordinate),
        subordinate.w_beats,
        subordinate.resets_taken,
        [(t.txn_id, t.resp, t.resp_cycle) for t in manager.completed],
        {w.name: w.value for w in sim.wires},
    )


def test_island_streams_beside_stepped_traffic():
    sim, manager, subordinate = busy_loop()
    reference = busy_loop(time_leaping=False)
    sim.run(80)
    reference[0].run(80)
    # The read traffic pins whole-simulation streaming, but the write
    # burst streams as an island in cycles the reads step.
    assert 0 < sim.island_cycles <= sim.stepped_cycles
    assert (
        sim.stepped_cycles + sim.cycles_streamed + sim.cycles_leaped == 80
    )
    assert outcome(sim, manager, subordinate) == outcome(*reference)
    assert stored_words(subordinate) == WORDS


def test_island_statistics_account_for_a_busy_system_run_from_reset():
    soc = build_system_soc(Variant.FULL)
    result = run_system_injection(
        Variant.FULL,
        InjectionStage.DATA_TRANSFER_STALL,
        background=32,
        outstanding=6,
        reorder_depth=4,
        soc=soc,
    )
    assert 0 < result.sim_island_cycles <= result.sim_stepped_cycles
    assert (
        result.sim_stepped_cycles
        + result.sim_cycles_streamed
        + result.sim_cycles_leaped
        == soc.sim.cycle
    )
    soc.reset()
    assert soc.sim.stats() == {key: 0 for key in Simulator.STAT_KEYS}


def test_reader_without_the_declaration_pins_the_island():
    spies = []

    def spy(manager, _):
        spies.append(PayloadSpy(manager.bus))
        return spies[-1]

    sim, _, _ = busy_loop(extra=(spy,))
    sim.run(80)
    assert sim.island_cycles == 0
    assert spies[0].seen == WORDS  # a frozen payload would repeat a word


def test_touching_a_member_ends_the_span_with_a_catch_up():
    # A stepped reset pulse on the subordinate's hw_reset lands in the
    # middle of the burst: the subordinate is brought current before
    # its drive and update see the reset, exactly as stepping does.
    def pulse(_, subordinate):
        return Pulser(subordinate.hw_reset, at=20)

    sim, manager, subordinate = busy_loop(extra=(pulse,))
    reference = busy_loop(extra=(pulse,), time_leaping=False)
    sim.run(120)
    reference[0].run(120)
    assert subordinate.resets_taken == 1
    assert 0 < sim.island_cycles < 20
    assert outcome(sim, manager, subordinate) == outcome(*reference)


def test_run_until_returning_mid_span_leaves_every_member_current():
    sim, manager, subordinate = busy_loop()
    reference, ref_manager, ref_subordinate = busy_loop(time_leaping=False)
    stop = sim.run_until(lambda s: s.cycle == 20, timeout=100)
    assert stop == reference.run_until(lambda s: s.cycle == 20, timeout=100)
    assert sim.island_cycles > 0
    assert subordinate.w_beats == ref_subordinate.w_beats
    assert manager._w_active[2] == ref_manager._w_active[2]
    sim.run(60)
    reference.run(60)
    assert outcome(sim, manager, subordinate) == outcome(
        reference, ref_manager, ref_subordinate
    )


def test_reset_after_an_interrupted_span_starts_clean():
    def build():
        sim, manager, subordinate = busy_loop()
        return sim, manager, subordinate, sim.components[2]

    sim, manager, subordinate, reader = build()

    class Interrupt(Exception):
        pass

    class StopMidSpan:
        leap_aware = True

        def __call__(self, s):
            if s.cycle == 15 and s._island is not None:
                raise Interrupt

    probe = StopMidSpan()
    sim.add_probe(probe)
    with pytest.raises(Interrupt):
        sim.run(80)
    sim.remove_probe(probe)
    sim.reset()
    assert sim._island is None
    manager.submit(write_spec(0, 0x1000, beats=len(WORDS), data=list(WORDS)))
    for i in range(12):
        reader.submit(read_spec(0, 0x2000 + 0x40 * i, beats=4))
    sim.run(80)
    fresh = build()
    fresh[0].run(80)
    assert outcome(sim, manager, subordinate) == outcome(*fresh[:3])
    assert sim.stats() == fresh[0].stats()


def test_rest_going_quiet_hands_over_to_whole_streaming():
    # The reads finish mid-burst: the island stops holding, the rest of
    # the burst streams whole, then the clock leaps.
    sim, manager, subordinate = busy_loop(reads=2)
    reference = busy_loop(reads=2, time_leaping=False)
    sim.run(120)
    reference[0].run(120)
    assert sim.island_cycles > 0
    assert sim.cycles_streamed > 0
    assert sim.cycles_leaped > 0
    assert outcome(sim, manager, subordinate) == outcome(*reference)


@pytest.mark.parametrize(
    "sim_kwargs",
    [
        {"time_leaping": False},
        {"strategy": "verify"},
        {"strategy": "exhaustive"},
        {"update_skipping": False},
    ],
    ids=["no-leaping", "verify", "exhaustive", "no-skipping"],
)
def test_islands_ride_on_leaping(sim_kwargs):
    sim, _, subordinate = busy_loop(**sim_kwargs)
    sim.run(80)
    assert sim.island_cycles == 0
    assert stored_words(subordinate) == WORDS


def test_change_tracking_pins_islands():
    sim, _, subordinate = busy_loop()
    sim.track_changes()
    sim.run(80)
    assert sim.island_cycles == 0
    assert stored_words(subordinate) == WORDS


def test_stream_horizon_queries_repeat_across_identical_campaigns(monkeypatch):
    # Each campaign builds fresh harnesses, so set order (object ids)
    # differs between them; the horizons a stream attempt queries before
    # it gives up must not.
    from repro.orchestrate.engine import run_campaign_spec
    from repro.orchestrate.spec import CampaignSpec
    from repro.soc.experiment import FIG11_STAGES
    from repro.tmu.counters import PrescaledCounter

    calls = []
    original = PrescaledCounter.edges_to_expiry

    def counting(self, *args, **kwargs):
        calls.append(None)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PrescaledCounter, "edges_to_expiry", counting)
    counts = []
    for _ in range(4):
        calls.clear()
        spec = CampaignSpec.system(
            (Variant.FULL, Variant.TINY), FIG11_STAGES, seeds=[0, 7]
        )
        list(run_campaign_spec(spec))
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts == counts[:1] * 4, counts
