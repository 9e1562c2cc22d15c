"""Tests for the Regbus configuration path (Fig. 10's Regbus demux)."""

import copy
from types import SimpleNamespace

from tests.conftest import build_loop

from repro.axi.traffic import write_spec
from repro.sim.kernel import Simulator
from repro.soc.cheshire import CheshireSoC, system_tmu_config
from repro.soc.regbus import (
    RegBusDemux,
    RegBusMaster,
    RegBusPort,
    RegRequest,
    TmuRegbusAdapter,
)
from repro.tmu import registers as R
from repro.tmu.config import Variant
from repro.tmu.registers import TmuRegisters


def regbus_env():
    env = build_loop()
    port = RegBusPort("rb")
    master = RegBusMaster("master", port)
    demux = RegBusDemux(
        "demux",
        port,
        [(0x000, 0x100, TmuRegbusAdapter(TmuRegisters(env.tmu)))],
    )
    env.sim.add(master)
    env.sim.add(demux)
    return SimpleNamespace(master=master, demux=demux, **vars(env))


def test_read_ctrl_register_over_regbus():
    env = regbus_env()
    results = []
    env.master.read(R.REG_CTRL, lambda rsp: results.append(rsp))
    env.sim.run_until(lambda s: env.master.idle, timeout=50)
    assert results[0].rdata == 1
    assert not results[0].error


def test_write_then_readback_over_regbus():
    env = regbus_env()
    config = copy.deepcopy(env.tmu.config)
    env.master.write(R.REG_SPAN_BASE, 500)
    results = []
    env.master.read(R.REG_SPAN_BASE, lambda rsp: results.append(rsp))
    env.sim.run_until(lambda s: env.master.idle, timeout=100)
    assert results[0].rdata == 500
    assert env.tmu.config == config  # the register is TMU state


def test_unmapped_address_returns_error():
    env = regbus_env()
    results = []
    env.master.read(0x9000, lambda rsp: results.append(rsp))
    env.sim.run_until(lambda s: env.master.idle, timeout=50)
    assert results[0].error
    assert env.demux.errors == 1


def test_readonly_register_write_returns_error():
    env = regbus_env()
    results = []
    env.master.write(R.REG_STATUS, 1, lambda rsp: results.append(rsp))
    env.sim.run_until(lambda s: env.master.idle, timeout=50)
    assert results[0].error


def test_requests_serialized_in_order():
    env = regbus_env()
    order = []
    env.master.read(R.REG_CTRL, lambda rsp: order.append(("ctrl", rsp.rdata)))
    env.master.read(R.REG_PRESCALE, lambda rsp: order.append(("pre", rsp.rdata)))
    env.master.write(R.REG_IRQ_CLEAR, 1, lambda rsp: order.append(("clr", rsp.error)))
    env.sim.run_until(lambda s: env.master.idle, timeout=100)
    assert [name for name, _ in order] == ["ctrl", "pre", "clr"]


def test_demux_counts_accesses():
    env = regbus_env()
    for _ in range(5):
        env.master.read(R.REG_CTRL)
    env.sim.run_until(lambda s: env.master.idle, timeout=200)
    assert env.demux.accesses == 5
    assert len(env.master.responses) == 5


def test_cheshire_with_regbus_recovers_via_bus():
    soc = CheshireSoC(system_tmu_config(Variant.FULL), use_regbus=True)
    soc.ethernet.faults.mute_b = True
    soc.send_ethernet_frame(250)
    assert soc.sim.run_until(lambda s: soc.tmu.irq.value, timeout=20_000)
    assert soc.sim.run_until(lambda s: len(soc.cpu.recoveries) == 1, timeout=5_000)
    record = soc.cpu.recoveries[0]
    assert record.fault_kind_code != 0
    assert record.status & 1  # irq was pending when STATUS was read
    assert soc.regbus_demux.accesses >= 3  # status, kind, clear
    assert not soc.tmu.irq_pending  # cleared through the bus
    assert soc.sim.run_until(lambda s: soc.all_idle, timeout=5_000)


def test_regbus_recovery_slower_than_direct():
    def recovery_cycle(use_regbus):
        soc = CheshireSoC(
            system_tmu_config(Variant.FULL), use_regbus=use_regbus
        )
        soc.ethernet.faults.deaf_aw = True
        soc.send_ethernet_frame(250)
        soc.sim.run_until(lambda s: soc.tmu.irq.value, timeout=20_000)
        return soc.sim.run_until(
            lambda s: len(soc.cpu.recoveries) == 1, timeout=5_000
        )

    assert recovery_cycle(True) > recovery_cycle(False)
