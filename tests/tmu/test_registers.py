"""Tests for the software-visible register file."""

import copy

import pytest

from tests.conftest import build_loop, fast_budgets

from repro.axi.traffic import read_spec, write_spec
from repro.tmu import registers as R
from repro.tmu.budget import FixedBudgetPolicy
from repro.tmu.config import tiny_config
from repro.tmu.registers import TmuRegisters


def make_env(config=None):
    env = build_loop(config)
    env.regs = TmuRegisters(env.tmu)
    return env


def test_ctrl_enable_roundtrip():
    env = make_env()
    config = copy.deepcopy(env.tmu.config)
    assert env.regs.read(R.REG_CTRL) == 1
    env.regs.write(R.REG_CTRL, 0)
    assert env.regs.read(R.REG_CTRL) == 0
    env.regs.write(R.REG_CTRL, 1)
    assert env.regs.read(R.REG_CTRL) == 1
    assert env.tmu.config == config  # the register is TMU state


def test_status_reflects_irq_and_fault_state():
    env = make_env()
    assert env.regs.read(R.REG_STATUS) == 0
    env.subordinate.faults.deaf_aw = True
    env.manager.submit(write_spec(0, 0x100))
    assert env.sim.run_until(lambda s: env.tmu.irq.value, timeout=2_000)
    status = env.regs.read(R.REG_STATUS)
    assert status & 1  # irq pending
    assert status & 2  # fault handling active


def test_irq_clear_write_one_to_clear():
    env = make_env()
    env.subordinate.faults.deaf_aw = True
    env.manager.submit(write_spec(0, 0x100))
    assert env.sim.run_until(lambda s: env.tmu.irq.value, timeout=2_000)
    env.regs.write(R.REG_IRQ_CLEAR, 0)  # writing 0 is a no-op
    assert env.tmu.irq_pending
    env.regs.write(R.REG_IRQ_CLEAR, 1)
    assert not env.tmu.irq_pending


def test_fault_kind_and_id_registers():
    env = make_env()
    assert env.regs.read(R.REG_FAULT_KIND) == 0
    env.subordinate.faults.mute_b = True
    env.manager.submit(write_spec(7, 0x100))
    assert env.sim.run_until(lambda s: env.tmu.irq.value, timeout=2_000)
    assert env.regs.read(R.REG_FAULT_KIND) != 0
    assert env.regs.read(R.REG_FAULT_ID) == 7


def test_budget_registers_read_write():
    env = make_env()
    config = copy.deepcopy(env.tmu.config)
    base = env.regs.read(R.REG_SPAN_BASE)
    env.regs.write(R.REG_SPAN_BASE, base + 100)
    assert env.regs.read(R.REG_SPAN_BASE) == base + 100
    env.regs.write(R.REG_SPAN_PER_BEAT, 9)
    assert env.regs.read(R.REG_SPAN_PER_BEAT) == 9
    assert env.tmu.config == config  # the registers are TMU state


def _muted_b_detect_cycle(env):
    env.subordinate.faults.mute_b = True
    env.manager.submit(write_spec(0, 0x100, beats=4))
    assert env.sim.run_until(lambda s: env.tmu.irq.value, timeout=2_000)
    return env.tmu.last_fault.detect_cycle


def test_span_base_register_moves_tiny_detection():
    env = make_env(tiny_config(budgets=fast_budgets()))
    latency = _muted_b_detect_cycle(env)
    env.sim.reset()
    env.regs.write(R.REG_SPAN_BASE, env.regs.read(R.REG_SPAN_BASE) + 37)
    assert _muted_b_detect_cycle(env) == latency + 37
    env.sim.reset()  # restores the power-on span terms
    assert _muted_b_detect_cycle(env) == latency


def test_span_registers_steer_a_fixed_policy():
    # A FixedBudgetPolicy's Tc span is the span the registers show, and
    # a write moves the muted-B detection by exactly the difference.
    config = tiny_config(budgets=FixedBudgetPolicy(40, 90))
    env = make_env(config)
    assert env.regs.read(R.REG_SPAN_BASE) == 90
    assert env.regs.read(R.REG_SPAN_PER_BEAT) == 0
    baseline = _muted_b_detect_cycle(env)
    env.sim.reset()
    env.regs.write(R.REG_SPAN_BASE, 500)
    assert env.regs.read(R.REG_SPAN_BASE) == 500
    assert _muted_b_detect_cycle(env) == baseline + 410
    env.sim.reset()
    assert env.regs.read(R.REG_SPAN_BASE) == 90
    assert _muted_b_detect_cycle(env) == baseline


def test_completion_and_latency_counters():
    env = make_env()
    env.manager.submit_all(
        [write_spec(0, 0x100, beats=4), read_spec(1, 0x100, beats=4)]
    )
    assert env.sim.run_until(lambda s: env.manager.idle, timeout=5_000)
    assert env.regs.read(R.REG_WR_COMPLETED) == 1
    assert env.regs.read(R.REG_RD_COMPLETED) == 1
    assert env.regs.read(R.REG_WR_LAT_MAX) > 0
    assert env.regs.read(R.REG_RD_LAT_MAX) > 0


def test_errlog_count_and_pop():
    env = make_env()
    env.subordinate.faults.deaf_aw = True
    env.manager.submit(write_spec(0, 0x100))
    assert env.sim.run_until(lambda s: env.tmu.irq.value, timeout=2_000)
    count = env.regs.read(R.REG_ERRLOG_COUNT)
    assert count >= 1
    kind_code = env.regs.read(R.REG_ERRLOG_POP)
    assert kind_code != 0
    assert env.regs.read(R.REG_ERRLOG_COUNT) == count - 1


def test_fault_count_register():
    env = make_env()
    env.subordinate.faults.deaf_aw = True
    env.manager.submit(write_spec(0, 0x100))
    assert env.sim.run_until(lambda s: env.tmu.irq.value, timeout=2_000)
    assert env.regs.read(R.REG_FAULT_COUNT) == 1


def test_occupancy_register_packs_both_guards():
    env = make_env(); env.subordinate.b_latency = 20
    env.manager.submit(write_spec(0, 0x100))
    env.sim.run(6)
    occ = env.regs.read(R.REG_OCCUPANCY)
    assert (occ >> 8) == 1  # one outstanding write
    assert (occ & 0xFF) == 0


def test_phase_mean_registers():
    env = make_env()
    env.manager.submit_all(
        [write_spec(0, 0x100, beats=4), read_spec(1, 0x100, beats=4)]
    )
    assert env.sim.run_until(lambda s: env.manager.idle, timeout=5_000)
    # WFIRST_WLAST is write phase index 3; a 4-beat burst takes >= 3 cycles.
    assert env.regs.read(R.REG_WR_PHASE_MEAN + 3 * 4) >= 3
    # RVLD_RLAST is read phase index 3.
    assert env.regs.read(R.REG_RD_PHASE_MEAN + 3 * 4) >= 3
    # Handshake phases are fast.
    assert env.regs.read(R.REG_WR_PHASE_MEAN) <= 2


def test_p99_latency_registers():
    env = make_env()
    env.manager.submit_all([write_spec(0, 0x80 * i, beats=2) for i in range(1, 9)])
    env.manager.submit(read_spec(1, 0x100, beats=2))
    assert env.sim.run_until(lambda s: env.manager.idle, timeout=5_000)
    p99_w = env.regs.read(R.REG_WR_LAT_P99)
    assert p99_w >= env.tmu.write_guard.perf.txn_latency.minimum
    assert env.regs.read(R.REG_RD_LAT_P99) > 0


def test_unmapped_register_raises():
    env = make_env()
    with pytest.raises(KeyError):
        env.regs.read(0xFFC)
    with pytest.raises(KeyError):
        env.regs.write(R.REG_STATUS, 1)  # read-only


def test_dump_contains_all_named_registers():
    env = make_env()
    dump = env.regs.dump()
    assert "CTRL" in dump and "STATUS" in dump and "FAULT_COUNT" in dump
    assert len(dump) >= 14
