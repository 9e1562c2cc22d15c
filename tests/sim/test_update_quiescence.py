"""Kernel-level tests for the update-quiescence contract.

The sequential phase's live updater set mirrors the settle phase's
dirty-set worklist: a ``demand_update`` component leaves the set when
its ``quiescent()`` predicate holds and re-arms on a declared
``update_inputs()`` wire change or an explicit ``schedule_update()``.
These tests pin the kernel semantics with purpose-built components;
the system-level equivalence lives in ``test_scheduler_equivalence.py``.
"""

import pytest

from repro.sim import Component, SchedulerDivergenceError, Simulator, Wire


class Counter(Component):
    """Counts down from `load` once armed; quiescent at zero."""

    demand_update = True

    def __init__(self, name, load=3):
        super().__init__(name)
        self.load = load
        self.remaining = 0
        self.updates_run = 0
        self.expiries = 0

    def arm(self):
        self.remaining = self.load
        self.schedule_update()

    def update_inputs(self):
        return ()

    def quiescent(self):
        return self.remaining == 0

    def snapshot_state(self):
        return (self.remaining, self.expiries)

    def update(self):
        self.updates_run += 1
        if self.remaining > 0:
            self.remaining -= 1
            if self.remaining == 0:
                self.expiries += 1


class Follower(Component):
    """Latches a wire's settled value at each clock edge while awake."""

    demand_update = True

    def __init__(self, name, wire):
        super().__init__(name)
        self.wire = wire
        self.seen = []
        self.updates_run = 0

    def wires(self):
        yield self.wire

    def update_inputs(self):
        return (self.wire,)

    def quiescent(self):
        return not self.wire._value

    def snapshot_state(self):
        return (tuple(self.seen),)

    def update(self):
        self.updates_run += 1
        if self.wire._value:
            self.seen.append((self._sim.cycle, self.wire._value))


class Glitcher(Component):
    """Drives its wire from registered state (settles in one round)."""

    def __init__(self, name, wire, schedule):
        super().__init__(name)
        self.wire = wire
        self.schedule = dict(schedule)  # cycle -> value
        self._cycle = 0

    def wires(self):
        yield self.wire

    def drive(self):
        self.wire.value = self.schedule.get(self._cycle, False)

    def update(self):
        self._cycle += 1


def test_quiescent_component_leaves_live_set_and_rearms():
    sim = Simulator()
    counter = sim.add(Counter("c", load=2))
    assert counter in sim._update_pending  # seeded awake at registration
    sim.run(3)
    assert counter not in sim._update_pending
    baseline = counter.updates_run
    sim.run(10)
    assert counter.updates_run == baseline  # fully asleep: zero update work
    counter.arm()
    sim.run(3)
    assert counter.expiries == 1
    assert counter.updates_run == baseline + 2  # load cycles, then asleep


def test_wire_change_rearms_update():
    sim = Simulator()
    wire = Wire("pulse", False)
    sim.add(Glitcher("src", wire, {5: True, 6: True}))
    follower = sim.add(Follower("dst", wire))
    sim.run(12)
    # Awake exactly while the wire was high (cycle counter reads taken
    # during the update phase, before the cycle increments).
    assert [cycle for cycle, _ in follower.seen] == [5, 6]
    assert follower.updates_run < 12


def test_woken_component_observes_settled_wires():
    """Regression: a woken update must see the same settled values a
    static (always-on) updater would."""

    def run(update_skipping):
        sim = Simulator(update_skipping=update_skipping)
        wire = Wire("pulse", False)
        sim.add(Glitcher("src", wire, {3: "payload-a", 7: "payload-b"}))
        follower = sim.add(Follower("dst", wire))
        sim.run(12)
        return follower.seen

    assert run(True) == run(False)


def test_update_skipping_flag_disables_live_set():
    sim = Simulator(update_skipping=False)
    counter = sim.add(Counter("c"))
    assert counter not in sim._update_pending
    assert sim._static_updaters == [counter]
    sim.run(5)
    assert counter.updates_run == 5  # every cycle, pre-quiescence behaviour


def test_exhaustive_strategy_never_skips():
    sim = Simulator(strategy="exhaustive")
    counter = sim.add(Counter("c"))
    sim.run(5)
    assert counter.updates_run == 5


def test_schedule_update_is_noop_until_registered():
    counter = Counter("c")
    counter.schedule_update()  # must not raise


def test_reset_reseeds_live_updaters():
    sim = Simulator()
    counter = sim.add(Counter("c"))
    sim.run(2)
    assert counter not in sim._update_pending
    sim.reset()
    assert counter in sim._update_pending


class LateWaker(Component):
    """Wakes a target component from inside its own update()."""

    demand_update = True

    def __init__(self, name, target, at_cycle):
        super().__init__(name)
        self.target = target
        self.at_cycle = at_cycle
        self._cycle = 0

    def update_inputs(self):
        return ()

    def quiescent(self):
        return self._cycle > self.at_cycle

    def snapshot_state(self):
        return ()

    def update(self):
        self._cycle += 1
        if self._cycle == self.at_cycle:
            self.target.schedule_update()


def test_midphase_wake_runs_later_ordered_component_same_cycle():
    """A wake from an earlier-ordered update reaches a later-ordered
    component in the same cycle — exactly what the static list did."""
    sim = Simulator()
    counter = Counter("late")
    sim.add(LateWaker("waker", counter, at_cycle=4))
    sim.add(counter)  # registered after: higher _order than the waker
    sim.run(3)  # counter runs once (seeded), then sleeps
    runs_asleep = counter.updates_run
    sim.run(1)  # cycle 4: waker fires mid-phase, counter's turn not passed
    assert counter.updates_run == runs_asleep + 1


def test_midphase_wake_defers_earlier_ordered_component():
    """A wake aimed at an earlier-ordered (already passed) component is
    deferred to the next cycle — its skipped slot was a no-op."""
    sim = Simulator()
    counter = sim.add(Counter("early"))
    sim.add(LateWaker("waker", counter, at_cycle=4))
    sim.run(3)  # counter asleep by now
    runs = counter.updates_run
    sim.run(1)  # cycle 4: waker (later order) wakes the sleeping counter
    assert counter.updates_run == runs  # not run this cycle...
    sim.run(1)
    assert counter.updates_run == runs + 1  # ...but on the next


class StaticWaker(Component):
    """Non-opt-in (static) updater that wakes a target mid-phase."""

    def __init__(self, name, target, at_cycle):
        super().__init__(name)
        self.target = target
        self.at_cycle = at_cycle
        self._cycle = 0

    def update(self):
        self._cycle += 1
        if self._cycle == self.at_cycle:
            self.target.schedule_update()


def test_static_updater_wake_reaches_later_component_same_cycle():
    """Regression: the statics-only fast path (live set empty) must
    still deliver a mid-phase wake to a later-registered component in
    the same cycle, like the static reference order would."""
    sim = Simulator()
    counter = Counter("late")
    sim.add(StaticWaker("waker", counter, at_cycle=4))
    sim.add(counter)  # higher _order than the static waker
    sim.run(3)  # counter ran once (seeded) and slept; live set is empty
    assert not sim._update_pending
    runs_asleep = counter.updates_run
    sim.run(1)  # cycle 4: the static updater fires the wake mid-phase
    assert counter.updates_run == runs_asleep + 1


class BrokenQuiescence(Component):
    """Claims quiescence while its counter is still armed."""

    demand_update = True

    def __init__(self):
        super().__init__("broken")
        self.count = 0

    def update_inputs(self):
        return ()

    def quiescent(self):
        return True  # lies: update() still mutates state

    def snapshot_state(self):
        return (self.count,)

    def update(self):
        self.count += 1


def test_verify_catches_underdeclared_quiescence():
    sim = Simulator(strategy="verify")
    sim.add(BrokenQuiescence())
    with pytest.raises(SchedulerDivergenceError, match="update-quiescence"):
        sim.run(3)


class SneakyScheduler(Component):
    """Quiescent by state, but its replayed update schedules work."""

    demand_driven = True
    demand_update = True

    def __init__(self):
        super().__init__("sneaky")
        self.out = Wire("sneaky.out", 0, width=32)

    def wires(self):
        yield self.out

    def inputs(self):
        return ()

    def update_inputs(self):
        return ()

    def quiescent(self):
        return True  # lies: update() re-arms itself every cycle

    def snapshot_state(self):
        return ()

    def drive(self):
        self.out.value = 0

    def update(self):
        self.schedule_update()


def test_verify_catches_quiescent_component_scheduling_work():
    sim = Simulator(strategy="verify")
    sim.add(SneakyScheduler())
    with pytest.raises(SchedulerDivergenceError, match="scheduled new work"):
        sim.run(3)


def test_verify_replays_are_clean_for_honest_components():
    sim = Simulator(strategy="verify")
    counter = sim.add(Counter("c", load=2))
    counter.arm()
    sim.run(10)  # counts down, quiesces; replays must stay silent
    assert counter.expiries == 1


def test_verify_with_update_skipping_disabled_runs_statically():
    """Regression: strategy="verify" + update_skipping=False registers
    demand_update components as statics — the verify phase must run
    them unconditionally, not replay them under the no-op contract."""
    sim = Simulator(strategy="verify", update_skipping=False)
    counter = sim.add(Counter("c", load=2))
    counter.arm()
    sim.run(10)  # would raise SchedulerDivergenceError before the fix
    assert counter.expiries == 1
    assert counter.updates_run == 10


def test_plic_rejects_late_source_connection():
    """Regression: a source connected after sim.add() would never wake
    the quiescent PLIC — the kernel plumbing is captured at
    registration — so the late connect must fail fast."""
    from repro.soc.plic import Plic

    sim = Simulator()
    plic = Plic("plic")
    plic.connect(Wire("early.irq", False), "early")  # fine: before add
    sim.add(plic)
    with pytest.raises(RuntimeError, match="before\\s+sim.add"):
        plic.connect(Wire("late.irq", False), "late")
