"""Integration tests: manager ↔ subordinate directly (no TMU)."""

from types import SimpleNamespace

import pytest

from repro.axi.interface import AxiInterface
from repro.axi.manager import Manager
from repro.axi.subordinate import Subordinate
from repro.axi.traffic import RandomTraffic, read_spec, write_spec
from repro.axi.types import AxiDir, Resp
from repro.sim.kernel import Simulator


def direct_loop(strategy="dirty", **sub_kwargs):
    sim = Simulator(strategy=strategy)
    bus = AxiInterface("bus")
    manager = Manager("manager", bus)
    subordinate = Subordinate("subordinate", bus, **sub_kwargs)
    sim.add(manager)
    sim.add(subordinate)
    return SimpleNamespace(sim=sim, bus=bus, manager=manager, subordinate=subordinate)


def run_to_idle(env, timeout=5000):
    result = env.sim.run_until(lambda s: env.manager.idle, timeout=timeout)
    assert result is not None, "manager did not drain"
    return result


def test_single_write_completes_okay():
    env = direct_loop()
    env.manager.submit(write_spec(0, 0x100, beats=4))
    run_to_idle(env)
    assert len(env.manager.completed) == 1
    txn = env.manager.completed[0]
    assert txn.resp == Resp.OKAY
    assert txn.direction == AxiDir.WRITE
    assert txn.beats == 4


def test_write_data_lands_in_memory():
    env = direct_loop()
    spec = write_spec(0, 0x100, beats=2, data=[0xDEAD, 0xBEEF])
    env.manager.submit(spec)
    run_to_idle(env)
    assert env.subordinate.memory.read_word(0x100, 8) == 0xDEAD
    assert env.subordinate.memory.read_word(0x108, 8) == 0xBEEF


def test_read_returns_written_data():
    env = direct_loop()
    env.subordinate.memory.write_word(0x200, 0xCAFE, 8)
    env.manager.submit(read_spec(1, 0x200, beats=1))
    run_to_idle(env)
    txn = env.manager.completed[0]
    assert txn.data == [0xCAFE]


@pytest.mark.parametrize("strategy", ["dirty", "verify"])
def test_store_under_a_held_read_beat_reaches_the_manager(strategy):
    # The manager holds R ready low for a few cycles, so the first beat
    # sits on the channel; a store behind the subordinate's back must
    # replace the beat being driven, not leave a stale memoised one.
    env = direct_loop(strategy)
    env.subordinate.memory.write_word(0x400, 0x1111, 8)
    env.subordinate.memory.write_word(0x408, 0x3333, 8)
    env.manager.submit(read_spec(1, 0x400, beats=2, resp_ready_delay=4))
    assert env.sim.run_until(lambda s: env.bus.r.valid.value, timeout=50)
    held = env.bus.r.payload.value
    assert held.data == 0x1111 and not env.bus.r.ready.value
    env.sim.step()
    assert env.bus.r.payload.value is held  # re-driven as the same beat
    env.subordinate.memory.write_word(0x400, 0x2222, 8)
    run_to_idle(env)
    assert env.manager.completed[0].data == [0x2222, 0x3333]


def test_write_then_read_roundtrip():
    env = direct_loop()
    env.manager.submit(write_spec(0, 0x300, beats=4, data=[1, 2, 3, 4]))
    run_to_idle(env)
    env.manager.submit(read_spec(0, 0x300, beats=4))
    run_to_idle(env)
    read_txn = [t for t in env.manager.completed if t.direction == AxiDir.READ][0]
    assert read_txn.data == [1, 2, 3, 4]


def test_phase_cycle_stamps_are_ordered():
    env = direct_loop(aw_ready_delay=2, w_ready_delay=1, b_latency=3)
    env.manager.submit(write_spec(0, 0x100, beats=4))
    run_to_idle(env)
    txn = env.manager.completed[0]
    assert txn.issue_cycle < txn.addr_cycle
    assert txn.addr_cycle < txn.first_data_cycle
    assert txn.first_data_cycle <= txn.last_data_cycle
    assert txn.last_data_cycle < txn.resp_cycle
    assert txn.latency == txn.resp_cycle - txn.addr_cycle


def _handshake_cycles(env, channel, timeout=400):
    """Cycles (post-step) at which *channel* fired, until the manager idles."""
    fired = []
    for _ in range(timeout):
        env.sim.step()
        if channel.fired():
            fired.append(env.sim.cycle)
        if env.manager.idle:
            return fired
    raise AssertionError("manager did not drain")


@pytest.mark.parametrize("strategy", ["dirty", "verify"])
def test_per_beat_w_ready_delay_spaces_every_beat(strategy):
    # Each accepted W beat restarts the subordinate's ready poll, so a
    # mid-burst beat must re-drive w_ready low; every beat is spaced.
    env = direct_loop(strategy, w_ready_delay=2)
    env.manager.submit(write_spec(0, 0x100, beats=4))
    fired = _handshake_cycles(env, env.bus.w)
    assert len(fired) == 4
    assert [b - a for a, b in zip(fired, fired[1:])] == [3, 3, 3]


@pytest.mark.parametrize("strategy", ["dirty", "verify"])
def test_resp_ready_delay_spaces_equal_read_beats(strategy):
    # Unwritten memory reads back the fill byte, so consecutive R beats
    # are equal values and the R wires never change between them: the
    # manager sleeps through each ready poll and must restart it exactly
    # after every accepted beat (and re-drive r_ready low).
    env = direct_loop(strategy)
    env.manager.submit(read_spec(1, 0x800, beats=4, resp_ready_delay=3))
    fired = _handshake_cycles(env, env.bus.r)
    assert [b - a for a, b in zip(fired, fired[1:])] == [4, 4, 4]
    assert env.manager.completed[0].data == [0, 0, 0, 0]


@pytest.mark.parametrize("strategy", ["dirty", "verify"])
def test_resp_ready_delay_spaces_equal_write_responses(strategy):
    # Same-ID single-beat writes draw equal B responses back to back.
    env = direct_loop(strategy)
    for _ in range(3):
        env.manager.submit(write_spec(1, 0x800, data=[0], resp_ready_delay=3))
    fired = _handshake_cycles(env, env.bus.b)
    assert [b - a for a, b in zip(fired, fired[1:])] == [4, 4]


def test_subordinate_latency_knobs_extend_latency():
    fast = direct_loop()
    fast.manager.submit(write_spec(0, 0x100, beats=2))
    run_to_idle(fast)
    slow = direct_loop(aw_ready_delay=4, b_latency=10)
    slow.manager.submit(write_spec(0, 0x100, beats=2))
    run_to_idle(slow)
    assert slow.manager.completed[0].latency > fast.manager.completed[0].latency


def test_same_id_writes_complete_in_order():
    env = direct_loop()
    env.manager.submit(write_spec(2, 0x100, beats=1))
    env.manager.submit(write_spec(2, 0x200, beats=1))
    env.manager.submit(write_spec(2, 0x300, beats=1))
    run_to_idle(env)
    addrs = [t.addr for t in env.manager.completed]
    assert addrs == [0x100, 0x200, 0x300]


def test_mixed_random_traffic_drains_cleanly():
    env = direct_loop(aw_ready_delay=1, b_latency=2, r_latency=3, r_gap=1)
    env.manager.submit_all(RandomTraffic(seed=3, max_beats=8).take(40))
    run_to_idle(env, timeout=20_000)
    assert len(env.manager.completed) == 40
    assert env.manager.surprises == []
    assert all(t.resp == Resp.OKAY for t in env.manager.completed)


def test_max_outstanding_cap_respected():
    env = direct_loop(b_latency=10)
    env.manager.max_outstanding = 2
    for i in range(6):
        env.manager.submit(write_spec(0, 0x100 * i, beats=1))
    peak = 0
    while not env.manager.idle:
        env.sim.step()
        peak = max(peak, env.manager.inflight)
        assert env.manager.inflight <= 2
        if env.sim.cycle > 5000:
            raise AssertionError("did not drain")
    assert peak == 2
    assert len(env.manager.completed) == 6


def test_w_gap_stretches_burst():
    dense = direct_loop()
    dense.manager.submit(write_spec(0, 0x100, beats=8))
    run_to_idle(dense)
    gappy = direct_loop()
    gappy.manager.submit(write_spec(0, 0x100, beats=8, w_gap=3))
    run_to_idle(gappy)
    dense_txn = dense.manager.completed[0]
    gappy_txn = gappy.manager.completed[0]
    dense_span = dense_txn.last_data_cycle - dense_txn.first_data_cycle
    gappy_span = gappy_txn.last_data_cycle - gappy_txn.first_data_cycle
    assert gappy_span >= dense_span + 7 * 3


def test_resp_ready_delay_defers_completion():
    quick = direct_loop()
    quick.manager.submit(write_spec(0, 0x100))
    run_to_idle(quick)
    slow = direct_loop()
    slow.manager.submit(write_spec(0, 0x100, resp_ready_delay=5))
    run_to_idle(slow)
    assert (
        slow.manager.completed[0].resp_cycle
        >= quick.manager.completed[0].resp_cycle + 5
    )


def test_error_resp_fault_reported_in_scoreboard():
    env = direct_loop()
    env.subordinate.faults.error_resp = True
    env.manager.submit(write_spec(0, 0x100))
    run_to_idle(env)
    assert env.manager.completed[0].resp == Resp.SLVERR
    assert env.manager.failures


def test_hw_reset_clears_subordinate_state_and_faults():
    env = direct_loop(b_latency=50)
    env.subordinate.faults.mute_b = True
    env.manager.submit(write_spec(0, 0x100))
    env.sim.run(20)
    env.subordinate.hw_reset.value = True
    env.sim.run(2)
    env.subordinate.hw_reset.value = False
    env.sim.run(1)
    assert env.subordinate.resets_taken == 1
    assert not env.subordinate.faults.any_active


def test_spurious_b_consumed_once():
    env = direct_loop()
    env.subordinate.faults.spurious_b = 5
    env.sim.run(10)
    assert env.subordinate.faults.spurious_b is None
    assert env.manager.surprises  # scoreboard saw an unexpected response
