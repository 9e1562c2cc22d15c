"""Kernel-level tests for the timed-wake heap and clock fast-forward.

The wake heap is the third arm of the scheduling contract (after the
settle worklist and the live updater set): a quiescent component with a
pure countdown declares its next interesting cycle with ``wake_at`` and
the kernel guarantees its update runs in the step starting there.  When
*only* timed wakes remain, ``run``/``run_until`` leap the clock instead
of ticking.  These tests pin the heap semantics (cancel, re-arm,
wake-in-the-past), the leap legality rules (bounded by the run target,
pinned by probes and static work), and the verify strategy's ability to
catch an under-declared wake.
"""

import pytest

from repro.sim import Component, SchedulerDivergenceError, Simulator, Wire
from repro.telemetry import Tracer


class Alarm(Component):
    """Sleeps with a timed wake; counts how often its update really ran."""

    demand_update = True

    def __init__(self, name, deadline=None):
        super().__init__(name)
        self.deadline = deadline  # stamp at which the alarm fires
        self.fired_at = []
        self.updates_run = 0
        self._stamp = 0

    def update_inputs(self):
        return ()

    def quiescent(self):
        return True  # always sleeps; relies purely on wake_at

    def snapshot_state(self):
        return (self.deadline, tuple(self.fired_at))

    def update(self):
        self.updates_run += 1
        now = self._sim.cycle + 1
        self._stamp = now
        if self.deadline is None:
            return
        if now >= self.deadline:
            self.fired_at.append(now)
            self.deadline = None
        else:
            # Wake for the step whose update is stamped `deadline`.
            self.wake_at(self._sim.cycle + (self.deadline - now))


class ForgetfulAlarm(Alarm):
    """Declares quiescence but never arms its wake — a contract bug."""

    def update(self):
        self.updates_run += 1
        now = self._sim.cycle + 1
        if self.deadline is not None and now >= self.deadline:
            self.fired_at.append(now)
            self.deadline = None
        # no wake_at: under-declared countdown


def test_wake_at_runs_update_in_the_declared_step():
    sim = Simulator()
    alarm = sim.add(Alarm("a", deadline=10))
    sim.run(20)
    assert alarm.fired_at == [10]
    # Seed update (stamp 1), then exactly the expiry update (stamp 10).
    assert alarm.updates_run == 2


def test_leap_jumps_idle_span_in_one_hop():
    sim = Simulator()
    sim.add(Alarm("a", deadline=1000))
    sim.run(2000)
    assert sim.cycle == 2000
    assert sim.leaps >= 2  # to the wake, and to the run target
    assert sim.cycles_leaped >= 1990


def test_leap_bounded_by_run_target():
    sim = Simulator()
    alarm = sim.add(Alarm("a", deadline=1000))
    sim.run(500)
    assert sim.cycle == 500  # never beyond the target
    assert alarm.fired_at == []
    sim.run(500)
    assert alarm.fired_at == [1000]


def test_leap_bounded_by_run_until_timeout():
    sim = Simulator()
    alarm = sim.add(Alarm("a", deadline=700))
    hit = sim.run_until(lambda s: bool(alarm.fired_at), timeout=300)
    assert hit is None
    assert sim.cycle == 300
    hit = sim.run_until(lambda s: bool(alarm.fired_at), timeout=1_000)
    assert hit == 700
    assert alarm.fired_at == [700]


def test_rearm_with_earlier_deadline_wins():
    sim = Simulator()
    alarm = sim.add(Alarm("a", deadline=500))
    sim.run(5)  # seed update armed the 500 wake; alarm now asleep
    alarm.deadline = 100
    alarm.wake_at(99)  # software re-arm: earlier deadline supersedes
    sim.run(495)
    assert alarm.fired_at == [100]
    # The stale 500 entry must not produce a second firing.
    assert sim.cycle == 500


def test_rearm_with_later_deadline_survives_spurious_pop():
    sim = Simulator()
    alarm = sim.add(Alarm("a", deadline=100))
    sim.run(5)
    alarm.deadline = 400  # pushed out (a "kick")
    alarm.wake_at(399)
    sim.run(495)
    # The superseded 100-cycle entry is discarded without waking; only
    # the 400 deadline fires.
    assert alarm.fired_at == [400]


def test_cancel_wake_sleeps_forever():
    sim = Simulator()
    alarm = sim.add(Alarm("a", deadline=50))
    sim.run(5)
    alarm.deadline = None
    alarm.cancel_wake()
    sim.run(200)
    assert alarm.fired_at == []
    assert alarm.updates_run == 1  # only the registration seed ran


def test_wake_in_the_past_raises():
    sim = Simulator()
    alarm = sim.add(Alarm("a"))
    sim.run(10)
    with pytest.raises(ValueError, match="wake-in-the-past"):
        alarm.wake_at(3)


def test_wake_at_current_cycle_degenerates_to_schedule_update():
    sim = Simulator()
    alarm = sim.add(Alarm("a"))
    sim.run(10)
    before = alarm.updates_run
    alarm.wake_at(sim.cycle)
    sim.run(1)
    assert alarm.updates_run == before + 1


def test_plain_probe_pins_the_clock():
    sim = Simulator()
    sim.add(Alarm("a", deadline=100))
    seen = []
    sim.add_probe(lambda s: seen.append(s.cycle))
    sim.run(200)
    assert sim.leaps == 0
    assert seen == list(range(1, 201))  # every cycle observed


def test_leap_aware_probe_allows_leaps_and_sees_jumps():
    class LeapProbe:
        leap_aware = True

        def __init__(self):
            self.samples = []

        def __call__(self, s):
            self.samples.append(s.cycle)

    class Jumps(Tracer):
        def __init__(self):
            self.jumps = []

        def leap(self, s, start, end):
            self.jumps.append((start, end))

    tracer = Jumps()
    sim = Simulator(tracer=tracer)
    sim.add(Alarm("a", deadline=100))
    probe = LeapProbe()
    sim.add_probe(probe)
    sim.run(200)
    assert sim.leaps >= 1
    assert tracer.jumps == [(1, 99), (100, 200)]  # the tracer sees each jump
    assert len(probe.samples) < 200  # skipped cycles were not sampled
    # Jumps plus samples tile the whole span exactly once.
    covered = sum(end - start for start, end in tracer.jumps)
    assert covered + len(probe.samples) == 200


def test_static_updater_pins_the_clock():
    class Static(Component):
        def __init__(self, name):
            super().__init__(name)
            self.ticks = 0

        def update(self):
            self.ticks += 1

    sim = Simulator()
    sim.add(Alarm("a", deadline=100))
    static = sim.add(Static("s"))
    sim.run(200)
    assert sim.leaps == 0
    assert static.ticks == 200


def test_time_leaping_flag_disables_fast_forward():
    sim = Simulator(time_leaping=False)
    alarm = sim.add(Alarm("a", deadline=100))
    sim.run(200)
    assert sim.leaps == 0
    assert alarm.fired_at == [100]  # wakes still honoured, just stepped


def test_identical_firing_with_and_without_leaping():
    def run(flag):
        sim = Simulator(time_leaping=flag)
        alarm = sim.add(Alarm("a", deadline=77))
        sim.run(300)
        return alarm.fired_at, alarm.updates_run, sim.cycle

    assert run(True) == run(False)


def test_verify_catches_underdeclared_wake():
    sim = Simulator(strategy="verify")
    sim.add(ForgetfulAlarm("a", deadline=10))
    with pytest.raises(SchedulerDivergenceError):
        sim.run(20)


def test_verify_accepts_correctly_declared_wake():
    sim = Simulator(strategy="verify")
    alarm = sim.add(Alarm("a", deadline=10))
    sim.run(20)
    assert alarm.fired_at == [10]
    assert sim.leaps == 0  # verify replays spans cycle by cycle


def test_reset_clears_armed_wakes():
    sim = Simulator()
    alarm = sim.add(Alarm("a", deadline=10))
    sim.run(3)
    sim.reset()
    alarm.deadline = None
    sim.run(50)
    # The pre-reset wake at 10 must not fire after the rewind.
    assert alarm.fired_at == []


def test_side_effecting_condition_blocks_the_leap():
    """Work scheduled *by* a run_until condition must be stepped.

    The leap-eligibility check runs again after the condition: a
    callback that arms a component (fault injection, schedule_update)
    has created real work for the very next step, and leaping over it
    would diverge from the time_leaping=False kernel.
    """

    class Armable(Component):
        demand_update = True

        def __init__(self, name):
            super().__init__(name)
            self.remaining = 0
            self.updates_run = 0
            self.expiries = 0

        def update_inputs(self):
            return ()

        def quiescent(self):
            return self.remaining == 0

        def update(self):
            self.updates_run += 1
            if self.remaining > 0:
                self.remaining -= 1
                if self.remaining == 0:
                    self.expiries += 1

    def run(flag):
        sim = Simulator(time_leaping=flag)
        component = sim.add(Armable("c"))
        calls = []

        def cond(s):
            # The second evaluation is the first one made while the
            # simulator is fully idle — under leaping that is exactly
            # the pre-jump consultation.  Arming there must block the
            # jump, not be skipped over by it.
            calls.append(s.cycle)
            if len(calls) == 2:
                component.remaining = 3
                component.schedule_update()
            return False

        sim.run_until(cond, timeout=50)
        return component.expiries, component.updates_run

    assert run(True) == run(False)
    assert run(True)[0] == 1  # the armed countdown really ran


def test_wires_frozen_across_leap():
    class Holder(Component):
        demand_driven = True
        demand_update = True

        def __init__(self, name):
            super().__init__(name)
            self.out = Wire(f"{name}.out", False)
            self._level = True

        def wires(self):
            yield self.out

        def inputs(self):
            return ()

        def update_inputs(self):
            return ()

        def quiescent(self):
            return True

        def drive(self):
            self.out.value = self._level

    sim = Simulator()
    holder = sim.add(Holder("h"))
    sim.add(Alarm("a", deadline=500))
    sim.run(1)
    assert holder.out.value is True
    sim.run(999)
    assert sim.leaps >= 1
    assert holder.out.value is True  # held level survives the jump
