"""Tests for the Table II baseline monitors."""

from types import SimpleNamespace

from repro.axi.interface import AxiInterface
from repro.axi.manager import Manager
from repro.axi.subordinate import Subordinate
from repro.axi.traffic import RandomTraffic, read_spec, write_spec
from repro.baselines import (
    AxiChecker,
    AxiPerfMonitor,
    XilinxStyleTimeout,
)
from repro.sim.kernel import Simulator


def observed_loop(monitor_cls, *args, sub_kwargs=None, **kwargs):
    sim = Simulator()
    bus = AxiInterface("bus")
    manager = Manager("manager", bus)
    subordinate = Subordinate("subordinate", bus, **(sub_kwargs or {}))
    monitor = monitor_cls("monitor", bus, *args, **kwargs)
    for component in (manager, subordinate, monitor):
        sim.add(component)
    return SimpleNamespace(
        sim=sim, bus=bus, manager=manager, subordinate=subordinate, monitor=monitor
    )


# ---------------------------------------------------------------------------
# Xilinx-style timeout block
# ---------------------------------------------------------------------------
def test_xilinx_quiet_on_healthy_traffic():
    env = observed_loop(XilinxStyleTimeout, window=64)
    env.manager.submit_all(RandomTraffic(seed=1).take(15))
    assert env.sim.run_until(lambda s: env.manager.idle, timeout=10_000)
    assert not env.monitor.irq.value
    assert env.monitor.timeouts == []


def test_xilinx_detects_hung_response():
    env = observed_loop(XilinxStyleTimeout, window=32)
    env.subordinate.faults.mute_b = True
    env.manager.submit(write_spec(0, 0x100))
    detect = env.sim.run_until(lambda s: env.monitor.irq.value, timeout=2_000)
    assert detect is not None
    assert len(env.monitor.timeouts) == 1


def test_xilinx_cannot_attribute_but_flags_globally():
    """One shared timer: progress on ANY transaction rewinds it."""
    env = observed_loop(XilinxStyleTimeout, window=16, sub_kwargs={"b_latency": 4})
    env.subordinate.faults.mute_r = True  # reads hang
    env.manager.submit(read_spec(0, 0x100))
    # Keep writes flowing; the shared window never expires.
    for i in range(30):
        env.manager.submit(write_spec(1, 0x200 + 8 * i))
    env.sim.run(120)
    assert not env.monitor.irq.value  # the hung read hides behind write progress
    env.sim.run(400)
    assert env.monitor.irq.value  # detected only after all writes drained


def test_xilinx_clear_irq_rearms():
    env = observed_loop(XilinxStyleTimeout, window=16)
    env.subordinate.faults.mute_b = True
    env.manager.submit(write_spec(0, 0x100))
    assert env.sim.run_until(lambda s: env.monitor.irq.value, timeout=1_000)
    env.monitor.clear_irq()
    assert env.sim.run_until(lambda s: env.monitor.irq.value, timeout=1_000)
    assert len(env.monitor.timeouts) == 2


# ---------------------------------------------------------------------------
# Performance monitor
# ---------------------------------------------------------------------------
def test_perf_monitor_counts_match_scoreboard():
    env = observed_loop(AxiPerfMonitor)
    env.manager.submit_all(
        [write_spec(0, 0x100, beats=4), write_spec(1, 0x200, beats=2), read_spec(0, 0x100, beats=8)]
    )
    assert env.sim.run_until(lambda s: env.manager.idle, timeout=5_000)
    assert env.monitor.write.transactions == 2
    assert env.monitor.read.transactions == 1
    assert env.monitor.write.beats == 6
    assert env.monitor.read.beats == 8
    assert env.monitor.write.bytes == 6 * 8


def test_perf_monitor_latency_tracks_subordinate_delay():
    fast = observed_loop(AxiPerfMonitor)
    fast.manager.submit(write_spec(0, 0x100))
    assert fast.sim.run_until(lambda s: fast.manager.idle, timeout=2_000)
    slow = observed_loop(AxiPerfMonitor, sub_kwargs={"b_latency": 20})
    slow.manager.submit(write_spec(0, 0x100))
    assert slow.sim.run_until(lambda s: slow.manager.idle, timeout=2_000)
    assert slow.monitor.write.latency.maximum > fast.monitor.write.latency.maximum


def test_perf_monitor_throughput_positive():
    env = observed_loop(AxiPerfMonitor)
    env.manager.submit(write_spec(0, 0x100, beats=16))
    assert env.sim.run_until(lambda s: env.manager.idle, timeout=2_000)
    assert 0 < env.monitor.throughput() <= 1.0


# ---------------------------------------------------------------------------
# AXIChecker baseline
# ---------------------------------------------------------------------------
def test_axichecker_clean_then_flags_fault():
    env = observed_loop(AxiChecker)
    env.manager.submit(write_spec(0, 0x100, beats=2))
    assert env.sim.run_until(lambda s: env.manager.idle, timeout=2_000)
    assert env.monitor.clean
    env.subordinate.faults.spurious_b = 9
    env.sim.run(10)
    assert not env.monitor.clean
    assert env.monitor.error.value


def test_axichecker_log_bounded():
    env = observed_loop(AxiChecker, log_depth=4)
    env.subordinate.faults.spurious_r = 1
    env.sim.run(100)
    assert len(env.monitor.violations) <= 4


def test_axichecker_clear_error():
    env = observed_loop(AxiChecker)
    env.subordinate.faults.spurious_b = 9
    env.sim.run(10)
    env.monitor.clear_error()
    env.sim.run(1)
    # No new violation: flag stays down.
    env.subordinate.faults.spurious_b = None
    env.sim.run(5)
    assert not env.monitor.error.value
