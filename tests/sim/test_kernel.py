"""Unit tests for the two-phase simulation kernel."""

import pytest

from repro.axi.interface import AxiInterface
from repro.axi.manager import Manager
from repro.axi.subordinate import Subordinate
from repro.sim.component import Component
from repro.sim.kernel import SettleError, Simulator
from repro.sim.signal import Channel, Wire


class Counter(Component):
    """Registered counter driving a wire with its value."""

    def __init__(self, name):
        super().__init__(name)
        self.out = Wire(f"{name}.out", 0, width=32)
        self.value = 0

    def wires(self):
        yield self.out

    def drive(self):
        self.out.value = self.value

    def update(self):
        self.value += 1

    def reset(self):
        self.value = 0


class Follower(Component):
    """Combinationally mirrors another wire (tests settle ordering)."""

    def __init__(self, name, source):
        super().__init__(name)
        self.source = source
        self.out = Wire(f"{name}.out", 0, width=32)

    def wires(self):
        yield self.out

    def drive(self):
        self.out.value = self.source.value


class Oscillator(Component):
    """Pathological combinational loop: inverts its own output."""

    def __init__(self, name):
        super().__init__(name)
        self.out = Wire(f"{name}.out", False)

    def wires(self):
        yield self.out

    def drive(self):
        self.out.value = not self.out.value


def test_step_advances_cycle():
    sim = Simulator()
    sim.step()
    sim.step()
    assert sim.cycle == 2


def test_update_runs_once_per_cycle():
    sim = Simulator()
    counter = sim.add(Counter("c"))
    sim.run(5)
    assert counter.value == 5


def test_combinational_chain_settles_regardless_of_add_order():
    # Follower registered BEFORE its source: needs a second settle sweep.
    sim = Simulator()
    counter = Counter("c")
    follower = Follower("f", counter.out)
    sim.add(follower)
    sim.add(counter)
    sim.step()
    assert follower.out.value == counter.out.value == 0
    sim.step()
    assert follower.out.value == 1


def test_deep_combinational_chain_settles():
    sim = Simulator()
    counter = Counter("c")
    chain = [counter]
    previous = counter.out
    followers = []
    for i in range(10):
        follower = Follower(f"f{i}", previous)
        followers.append(follower)
        previous = follower.out
    # Register in worst-case (reverse) order.
    for component in reversed(followers):
        sim.add(component)
    sim.add(counter)
    sim.run(3)
    assert followers[-1].out.value == counter.out.value


def test_combinational_loop_raises_settle_error():
    sim = Simulator(max_settle_iterations=8)
    sim.add(Oscillator("osc"))
    with pytest.raises(SettleError):
        sim.step()


def test_reset_restores_wires_and_components():
    sim = Simulator()
    counter = sim.add(Counter("c"))
    sim.run(3)
    sim.reset()
    assert sim.cycle == 0
    assert counter.value == 0
    assert counter.out.value == 0


def test_run_until_returns_cycle_condition_first_held():
    sim = Simulator()
    counter = sim.add(Counter("c"))
    result = sim.run_until(lambda s: counter.value >= 4, timeout=100)
    assert result == 4
    assert sim.cycle == 4


def test_run_until_times_out_returns_none():
    sim = Simulator()
    sim.add(Counter("c"))
    assert sim.run_until(lambda s: False, timeout=10) is None


def test_probe_called_after_each_cycle():
    sim = Simulator()
    sim.add(Counter("c"))
    seen = []
    sim.add_probe(lambda s: seen.append(s.cycle))
    sim.run(4)
    assert seen == [1, 2, 3, 4]


def test_channel_fired_requires_both_valid_and_ready():
    channel = Channel("ch")
    assert not channel.fired()
    channel.valid.value = True
    assert not channel.fired()
    channel.ready.value = True
    assert channel.fired()
    assert channel.beat() is None  # payload never driven
    channel.payload.value = "beat"
    assert channel.beat() == "beat"


def test_channel_idle_clears_valid_and_payload():
    channel = Channel("ch")
    channel.drive("payload")
    assert channel.valid.value and channel.payload.value == "payload"
    channel.idle()
    assert not channel.valid.value
    assert channel.payload.value is None


def test_wire_reset_restores_init():
    wire = Wire("w", init=7, width=8)
    wire.value = 99
    wire.reset()
    assert wire.value == 7


def test_settle_succeeds_when_depth_equals_iteration_budget():
    # The worklist draining exactly on the last allowed round is a
    # settled cycle, not a combinational loop.
    sim = Simulator(max_settle_iterations=1)
    counter = sim.add(Counter("c"))
    sim.run(3)
    assert counter.out.value == 2


def test_wire_adoption_by_new_simulator_drops_stale_readers():
    # A wire re-registered with a second simulator must not schedule —
    # let alone execute — components of the abandoned simulator.
    class SharedFollower(Follower):
        def wires(self):
            yield self.source
            yield self.out

    shared = Wire("shared", 0, width=32)
    sim_a = Simulator()
    follower_a = sim_a.add(SharedFollower("fa", shared))
    sim_a.step()  # traces follower_a as a reader of `shared`

    sim_b = Simulator()
    follower_b = sim_b.add(SharedFollower("fb", shared))
    shared.value = 42  # poke between cycles; sim_b owns the wire now
    sim_b.step()
    assert follower_b.out.value == 42
    assert follower_a.out.value == 0  # dead sim's component never ran


@pytest.mark.parametrize("strategy", ["dirty", "verify"])
def test_shared_interface_registered_once_keeps_declared_readers(strategy):
    bus = AxiInterface("bus")
    sim = Simulator(strategy=strategy)
    manager = sim.add(Manager("m", bus))
    subordinate = sim.add(Subordinate("s", bus))
    # Registering the subordinate re-names every bus wire; the manager's
    # declared drive and update readers survive it.
    assert bus.b.valid.readers == {manager}
    assert bus.aw.ready.update_readers == {manager}
    assert subordinate in bus.aw.valid.update_readers
    assert subordinate.hw_reset.readers == {subordinate}
    named = {id(wire) for wire in (*bus.wires(), subordinate.hw_reset)}
    assert sorted(id(wire) for wire in sim.wires) == sorted(named)


def test_wire_named_after_track_changes_joins_the_change_log():
    # An exhaustive simulator gives wires no dirty sink, so a fresh wire
    # already "points" there; it must still be adopted into the log.
    sim = Simulator(strategy="exhaustive")
    changed = sim.track_changes()
    counter = sim.add(Counter("c"))
    sim.step()
    counter.out.value = 5
    assert counter.out in changed
