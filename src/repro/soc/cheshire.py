"""Cheshire-like SoC assembly (paper Fig. 10).

The paper integrates the TMU into Cheshire — a Linux-capable RISC-V
CVA6 host platform — between the AXI4 crossbar and an RGMII Ethernet
peripheral.  This model assembles the same topology:

* three manager ports: two CVA6-like traffic generators and an iDMA
  engine;
* an AXI4 crossbar with address-decoded subordinate ports: last-level
  cache / DRAM, boot ROM, and the Ethernet MAC — the latter reached
  *through* the TMU;
* the external reset unit wired TMU → Ethernet;
* a PLIC collecting the TMU interrupt and a recovery-software CPU model
  servicing it.

The paper's system experiment — a 250-beat write on a 64-bit bus with
faults injected at every phase — runs on this assembly
(:meth:`CheshireSoC.send_ethernet_frame` + the fault hooks on
``ethernet.faults`` / ``dma.faults``).
"""

from __future__ import annotations

from typing import List, Optional

from ..axi.crossbar import AddressRange, Crossbar
from ..axi.interface import AxiInterface
from ..axi.manager import Manager
from ..axi.memory import SparseMemory
from ..axi.subordinate import Subordinate
from ..axi.traffic import RandomTraffic, read_spec
from ..axi.types import AxiDir, bytes_per_beat
from ..sim.kernel import Simulator
from ..tmu.budget import AdaptiveBudgetPolicy, PhaseBudgets, SpanBudgets
from ..tmu.config import TmuConfig, Variant
from ..tmu.registers import TmuRegisters
from ..tmu.unit import TransactionMonitoringUnit
from .cpu import RecoveryCpu
from .dma import DmaDescriptor, DmaEngine
from .ethernet import EthernetMac
from .plic import Plic
from .regbus import RegBusDemux, RegBusMaster, RegBusPort, TmuRegbusAdapter
from .reset_unit import ResetUnit

# Cheshire-flavoured address map.
BOOTROM_BASE = 0x0200_0000
BOOTROM_SIZE = 0x0001_0000
ETHERNET_BASE = 0x3000_0000
ETHERNET_SIZE = 0x0001_0000
DRAM_BASE = 0x8000_0000
DRAM_SIZE = 0x1000_0000

#: The paper's system-level Tiny-Counter budget: 320 cycles for the
#: whole 250-beat transaction (§III-B).
SYSTEM_TC_BUDGET = 320

#: The paper's per-phase Full-Counter budgets for the same experiment
#: ("10 cycles for AW, 250 for W, etc." — Fig. 11 series).
SYSTEM_FC_BUDGETS = {
    "aw_handshake": 10,
    "w_entry": 20,
    "w_first_hs": 10,
    "w_data": 250,
    "b_wait": 10,
    "b_handshake": 20,
}


def system_budget_policy(frame_beats: int = 250) -> AdaptiveBudgetPolicy:
    """Budget policy reproducing the paper's system-level settings."""
    phases = PhaseBudgets(
        aw_handshake=SYSTEM_FC_BUDGETS["aw_handshake"],
        w_entry=SYSTEM_FC_BUDGETS["w_entry"],
        w_first_hs=SYSTEM_FC_BUDGETS["w_first_hs"],
        w_data_base=SYSTEM_FC_BUDGETS["w_data"] - frame_beats,
        w_data_per_beat=1,
        b_wait=SYSTEM_FC_BUDGETS["b_wait"],
        b_handshake=SYSTEM_FC_BUDGETS["b_handshake"],
        ar_handshake=SYSTEM_FC_BUDGETS["aw_handshake"],
        r_entry=SYSTEM_FC_BUDGETS["w_entry"],
        r_first_hs=SYSTEM_FC_BUDGETS["w_first_hs"],
        r_data_base=SYSTEM_FC_BUDGETS["w_data"] - frame_beats,
        r_data_per_beat=1,
    )
    span = SpanBudgets(base=SYSTEM_TC_BUDGET - frame_beats, per_beat=1)
    return AdaptiveBudgetPolicy(phases, span)


def system_tmu_config(
    variant: Variant = Variant.FULL, frame_beats: int = 250
) -> TmuConfig:
    """TMU configuration used in the system-level evaluation."""
    return TmuConfig(
        variant=variant,
        max_uniq_ids=4,
        txn_per_id=8,
        budgets=system_budget_policy(frame_beats),
        max_txn_cycles=512,
    )


class CheshireSoC:
    """The full system-level test bench of Fig. 10."""

    def __init__(
        self,
        tmu_config: Optional[TmuConfig] = None,
        reset_duration: int = 8,
        isr_latency: int = 5,
        seed: int = 0,
        use_regbus: bool = False,
        monitor_dram: bool = False,
        dram_tmu_config: Optional[TmuConfig] = None,
        sim_strategy: str = "dirty",
        sim_update_skipping: bool = True,
        sim_time_leaping: bool = True,
        sim_tracer=None,
        reorder_depth: int = 0,
    ) -> None:
        self.sim = Simulator(
            strategy=sim_strategy,
            update_skipping=sim_update_skipping,
            time_leaping=sim_time_leaping,
            tracer=sim_tracer,
        )
        config = tmu_config if tmu_config is not None else system_tmu_config()

        # Manager ports.
        self.cva6_buses = [AxiInterface(f"cva6_{i}") for i in range(2)]
        self.dma_bus = AxiInterface("idma")
        self.cva6 = [
            Manager(f"cva6_{i}", bus) for i, bus in enumerate(self.cva6_buses)
        ]
        self.dma = DmaEngine("idma", self.dma_bus)

        # Subordinate ports.
        self.dram_bus = AxiInterface("dram")
        self.bootrom_bus = AxiInterface("bootrom")
        self.eth_host_bus = AxiInterface("eth_host")   # crossbar side
        self.eth_dev_bus = AxiInterface("eth_dev")     # MAC side

        # Optional second monitor on the DRAM port — the paper's
        # mixed-criticality deployment (§IV): a Tiny-Counter suffices for
        # a high-capacity but non-critical endpoint.
        self.dram_tmu: Optional[TransactionMonitoringUnit] = None
        self.dram_reset_unit: Optional[ResetUnit] = None
        if monitor_dram:
            dram_dev_bus = AxiInterface("dram_dev")
            dram_cfg = (
                dram_tmu_config
                if dram_tmu_config is not None
                else system_tmu_config(Variant.TINY)
            )
            self.dram = Subordinate(
                "dram", dram_dev_bus, SparseMemory(), b_latency=4, r_latency=6,
                reorder_depth=reorder_depth,
            )
            self.dram_tmu = TransactionMonitoringUnit(
                "dram_tmu", self.dram_bus, dram_dev_bus, dram_cfg
            )
        else:
            self.dram = Subordinate(
                "dram", self.dram_bus, SparseMemory(), b_latency=4, r_latency=6,
                reorder_depth=reorder_depth,
            )
        self.bootrom = Subordinate(
            "bootrom", self.bootrom_bus, SparseMemory(), r_latency=2
        )
        self.ethernet = EthernetMac(
            "ethernet", self.eth_dev_bus, reorder_depth=reorder_depth
        )

        self.tmu = TransactionMonitoringUnit(
            "tmu", self.eth_host_bus, self.eth_dev_bus, config
        )
        self.tmu_regs = TmuRegisters(self.tmu)

        self.xbar = Crossbar(
            "xbar",
            [*self.cva6_buses, self.dma_bus],
            [
                (self.dram_bus, AddressRange(DRAM_BASE, DRAM_SIZE)),
                (self.bootrom_bus, AddressRange(BOOTROM_BASE, BOOTROM_SIZE)),
                (self.eth_host_bus, AddressRange(ETHERNET_BASE, ETHERNET_SIZE)),
            ],
        )

        self.reset_unit = ResetUnit(
            "reset_unit",
            self.tmu.reset_req,
            self.tmu.reset_ack,
            self.ethernet,
            reset_duration=reset_duration,
        )
        self.plic = Plic("plic")
        self.plic.connect(self.tmu.irq, "tmu")
        if self.dram_tmu is not None:
            self.dram_reset_unit = ResetUnit(
                "dram_reset_unit",
                self.dram_tmu.reset_req,
                self.dram_tmu.reset_ack,
                self.dram,
                reset_duration=reset_duration,
            )
            self.plic.connect(self.dram_tmu.irq, "dram_tmu")

        # Configuration path: direct register access by default, or the
        # Regbus demux of Fig. 10 when use_regbus is set.
        reg_map = {"tmu": self.tmu_regs}
        regbus_bases = {"tmu": 0x000}
        if self.dram_tmu is not None:
            reg_map["dram_tmu"] = TmuRegisters(self.dram_tmu)
            regbus_bases["dram_tmu"] = 0x100
        self.regbus_master: Optional[RegBusMaster] = None
        self.regbus_demux: Optional[RegBusDemux] = None
        if use_regbus:
            port = RegBusPort("regbus")
            self.regbus_master = RegBusMaster("regbus_master", port)
            targets = [
                (regbus_bases[name], 0x100, TmuRegbusAdapter(regs))
                for name, regs in reg_map.items()
            ]
            self.regbus_demux = RegBusDemux("regbus_demux", port, targets)
        self.cpu = RecoveryCpu(
            "cpu",
            self.plic,
            reg_map,
            isr_latency,
            regbus=self.regbus_master,
            regbus_bases=regbus_bases,
        )

        for component in (
            *self.cva6,
            self.dma,
            self.xbar,
            self.tmu,
            self.dram,
            self.bootrom,
            self.ethernet,
            self.reset_unit,
            self.plic,
            *((self.dram_tmu, self.dram_reset_unit) if monitor_dram else ()),
            *((self.regbus_master, self.regbus_demux) if use_regbus else ()),
            self.cpu,
        ):
            self.sim.add(component)

        self._traffic = RandomTraffic(
            ids=(0, 1), max_beats=8, addr_space=DRAM_SIZE, seed=seed
        )

    def reset(self) -> None:
        """Return the SoC to exactly its state after construction.

        Rewinds the simulator (wires, components, clock, statistics),
        forgets every subordinate memory and restarts the background
        traffic stream from its constructor seed.  Probes stay attached.
        """
        self.sim.reset()
        for subordinate in self._memories:
            subordinate.memory.clear()
        self._traffic.restart()

    # ------------------------------------------------------------------
    # Workloads
    # ------------------------------------------------------------------
    def checkpoint(self):
        """The SoC state — simulation, memories, background traffic
        stream — to :meth:`restore` later (see
        :meth:`~repro.sim.kernel.Simulator.checkpoint`)."""
        return (
            self.sim.checkpoint(),
            [subordinate.memory.checkpoint()
             for subordinate in self._memories],
            self._traffic.checkpoint(),
        )

    def restore(self, checkpoint) -> None:
        """Return to *checkpoint*; probes stay attached."""
        sim, pages, traffic = checkpoint
        self.sim.restore(sim)
        for subordinate, saved in zip(self._memories, pages):
            subordinate.memory.restore(saved)
        self._traffic.restore(traffic)

    @property
    def _memories(self):
        return (self.dram, self.bootrom, self.ethernet)

    def send_ethernet_frame(
        self, beats: int = 250, txn_id: int = 0, size: int = 3
    ) -> None:
        """Queue the paper's 250-beat, 64-bit-bus Ethernet transfer.

        *size* narrows the DMA beats (AxSIZE < 3): same beat count, less
        data per beat — the frame still spans *beats* handshakes, so the
        TMU-observed transaction shape is preserved while the W channel
        exercises narrow byte lanes.
        """
        self.dma.enqueue_descriptor(
            DmaDescriptor(
                dst=ETHERNET_BASE + EthernetMac.TX_BUFFER_OFFSET,
                length_bytes=beats * bytes_per_beat(size),
                direction=AxiDir.WRITE,
                beat_size=size,
                txn_id=txn_id,
            )
        )

    def submit_background_traffic(self, count: int, manager: int = 0) -> None:
        """CVA6 cores exercising DRAM concurrently with Ethernet traffic."""
        for spec in self._traffic.take(count):
            spec.addr += DRAM_BASE
            self.cva6[manager].submit(spec)

    def submit_outstanding_reads(
        self,
        count: int,
        beats: int = 8,
        size: int = 3,
        manager: int = 1,
    ) -> None:
        """Stack *count* deterministic DRAM reads on one CVA6 core.

        Unlike :meth:`submit_background_traffic` (seeded random), these
        are fixed-shape reads at disjoint pages — the system campaign's
        ``outstanding`` axis, deepening the in-flight window behind the
        crossbar without perturbing the random traffic stream.
        """
        stride = 0x1000 * ((beats * bytes_per_beat(size) + 0xFFF) // 0x1000)
        for i in range(count):
            self.cva6[manager].submit(
                read_spec(
                    i % 2,
                    DRAM_BASE + 0x10_0000 + i * stride,
                    beats=beats,
                    size=size,
                )
            )

    # ------------------------------------------------------------------
    # Convenience queries
    # ------------------------------------------------------------------
    @property
    def managers(self) -> List[Manager]:
        return [*self.cva6, self.dma]

    @property
    def all_idle(self) -> bool:
        return all(manager.idle for manager in self.managers)

    def run(self, cycles: int) -> None:
        self.sim.run(cycles)

    def run_until_idle(self, timeout: int = 50_000) -> Optional[int]:
        return self.sim.run_until(lambda _sim: self.all_idle, timeout=timeout)
