"""System-level fault-injection experiment (paper §III-B, Fig. 11).

Runs the paper's Ethernet scenario on the Cheshire model: a 250-beat
write on a 64-bit bus, with a fault injected at the beginning, middle or
end of the transaction.  The Tiny-Counter uses a single 320-cycle budget
for the whole transaction; the Full-Counter uses the per-phase budgets
(10 for AW, 250 for W, etc.), so it detects early faults near-immediately
while Tc always reports at the end of the full budget.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..faults.types import InjectionStage
from ..tmu.config import Variant
from .cheshire import CheshireSoC, system_tmu_config

#: The six write-direction stages of Fig. 11, in the figure's order.
FIG11_STAGES = (
    InjectionStage.AW_READY_MISSING,    # AWVLD_AWRDY
    InjectionStage.W_VALID_MISSING,     # AWRDY_WVLD
    InjectionStage.W_READY_MISSING,     # WVLD_WRDY (WFIRST)
    InjectionStage.DATA_TRANSFER_STALL, # WFIRST_WLAST
    InjectionStage.WLAST_TO_BVALID,     # WLAST_BVLD
    InjectionStage.B_READY_MISSING,     # BVLD_BRDY
)

#: Fig. 11 x-axis labels for the six stages.
FIG11_LABELS = (
    "AWVLD_AWRDY",
    "AWRDY_WVLD",
    "WVLD_WRDY(WFIRST)",
    "WFIRST_WLAST",
    "WLAST_BVLD",
    "BVLD_BRDY",
)


@dataclasses.dataclass
class SystemInjectionResult:
    """Outcome of one system-level injection."""

    stage: InjectionStage
    variant: str
    txn_start_cycle: Optional[int]
    inject_cycle: Optional[int]
    w_first_cycle: Optional[int]
    detect_cycle: Optional[int]
    fault_phase: Optional[str]
    fault_kind: Optional[str]
    ethernet_resets: int
    cpu_recoveries: int
    recovered: bool
    #: Kernel fast-forward diagnostics (``compare=False``: equality —
    #: and the leap-on ≡ leap-off differentials built on it — stays
    #: about measurements, not about how the kernel scheduled them).
    sim_leaps: int = dataclasses.field(default=0, compare=False)
    sim_cycles_leaped: int = dataclasses.field(default=0, compare=False)

    def shifted(self, delta: int) -> "SystemInjectionResult":
        """This result translated *delta* cycles later in time.

        Used by the lockstep batch executor to derive a follower
        lane's result from its pack leader's: measured cycle stamps
        move rigidly with ``start_delay``, counts and flags are
        shift-invariant, and the leader's single pre-onset leap grows
        by *delta*.
        """
        start, inject, w_first, detect = (
            self.txn_start_cycle,
            self.inject_cycle,
            self.w_first_cycle,
            self.detect_cycle,
        )
        return SystemInjectionResult(
            stage=self.stage,
            variant=self.variant,
            txn_start_cycle=None if start is None else start + delta,
            inject_cycle=None if inject is None else inject + delta,
            w_first_cycle=None if w_first is None else w_first + delta,
            detect_cycle=None if detect is None else detect + delta,
            fault_phase=self.fault_phase,
            fault_kind=self.fault_kind,
            ethernet_resets=self.ethernet_resets,
            cpu_recoveries=self.cpu_recoveries,
            recovered=self.recovered,
            sim_leaps=self.sim_leaps,
            sim_cycles_leaped=self.sim_cycles_leaped + delta,
        )

    @property
    def detected(self) -> bool:
        return self.detect_cycle is not None

    @property
    def latency_from_injection(self) -> Optional[int]:
        if self.detect_cycle is None or self.inject_cycle is None:
            return None
        return self.detect_cycle - self.inject_cycle

    @property
    def latency_from_start(self) -> Optional[int]:
        if self.detect_cycle is None or self.txn_start_cycle is None:
            return None
        return self.detect_cycle - self.txn_start_cycle

    @property
    def fig11_latency(self) -> Optional[int]:
        """Latency in Fig. 11's convention.

        The figure quotes the Full-Counter bar for the ``WFIRST_WLAST``
        stage as the full W-phase budget (250), i.e. measured from the
        phase start (the first W beat) rather than from the mid-burst
        injection point; all other stages coincide with
        ``latency_from_injection``.
        """
        if self.detect_cycle is None:
            return None
        if (
            self.stage == InjectionStage.DATA_TRANSFER_STALL
            and self.w_first_cycle is not None
        ):
            return self.detect_cycle - self.w_first_cycle
        return self.latency_from_injection


def build_system_soc(
    variant: Variant, beats: int = 250, reorder_depth: int = 0, **sim_kwargs
) -> CheshireSoC:
    """The SoC :func:`run_system_injection` simulates on.

    *sim_kwargs* are the ``sim_*`` kernel options of
    :class:`CheshireSoC`.
    """
    return CheshireSoC(
        system_tmu_config(variant, frame_beats=beats),
        reorder_depth=reorder_depth,
        **sim_kwargs,
    )


def run_system_injection(
    variant: Variant,
    stage: InjectionStage,
    beats: int = 250,
    background: int = 0,
    detect_timeout: int = 20_000,
    recovery_timeout: int = 5_000,
    start_delay: int = 0,
    sim_strategy: str = "dirty",
    sim_update_skipping: bool = True,
    sim_time_leaping: bool = True,
    sim_tracer=None,
    size: int = 3,
    outstanding: int = 1,
    reorder_depth: int = 0,
    soc: Optional[CheshireSoC] = None,
) -> SystemInjectionResult:
    """One Fig. 11 data point: inject *stage* during the Ethernet frame.

    *start_delay* idles the SoC for that many cycles before the frame is
    queued — campaign seeds map here, shifting the transaction (and the
    injection) relative to the TMU's prescaler phase.  *sim_strategy*
    selects the kernel (``dirty``/``exhaustive``/``verify``),
    *sim_update_skipping* the quiescence ablation and *sim_time_leaping*
    the clock-fast-forward ablation, so differential tests and
    benchmarks can replay the identical campaign on the reference
    kernels.

    The dark-corner axes: *size* narrows the frame's beats (AxSIZE < 3
    on the 64-bit bus), *outstanding* stacks that many extra
    deterministic DRAM reads behind the crossbar, and *reorder_depth*
    lets the DRAM and Ethernet subordinates complete responses out of
    request order within that window.  All default to the legacy Fig. 11
    shape.

    The detection and recovery loops run through ``run_until`` with a
    stateful watcher: its bookkeeping only moves on handshake fires and
    wire levels, which are frozen across any span the kernel leaps, so
    the campaign output is byte-identical with leaping on or off.

    *soc* runs the injection on an SoC in its freshly built state (a
    new build, or one returned by :meth:`CheshireSoC.reset`) built by
    :func:`build_system_soc` from the same *variant*, *beats*,
    *reorder_depth* and ``sim_*`` options; by default one is built.
    """
    # Imported here: repro.faults.campaign builds IP harnesses with the
    # reset unit from this package, so a module-level import would cycle.
    from ..faults.campaign import apply_stage_fault

    if soc is None:
        soc = build_system_soc(
            variant,
            beats,
            reorder_depth,
            sim_strategy=sim_strategy,
            sim_update_skipping=sim_update_skipping,
            sim_time_leaping=sim_time_leaping,
            sim_tracer=sim_tracer,
        )
    if start_delay:
        soc.sim.run(start_delay)
    soc.send_ethernet_frame(beats, size=size)
    if background:
        soc.submit_background_traffic(background)
    if outstanding > 1:
        soc.submit_outstanding_reads(outstanding - 1)

    deferred_threshold = None
    if stage == InjectionStage.DATA_TRANSFER_STALL:
        deferred_threshold = beats // 2
    elif stage == InjectionStage.R_MID_BURST_STALL:
        deferred_threshold = beats // 2
    else:
        apply_stage_fault(
            soc.ethernet.faults,
            soc.dma.faults,
            soc.tmu.config.max_uniq_ids + 1,
            stage,
        )

    txn_start: Optional[int] = None
    inject_cycle: Optional[int] = None
    w_first_cycle: Optional[int] = None
    w_beats = 0
    wlast_seen = False
    observed_cycle = -1

    def detect_tick(_sim) -> bool:
        # May be consulted more than once per cycle (once pre-leap);
        # the cycle guard keeps the fired-beat counting idempotent.
        nonlocal txn_start, inject_cycle, w_first_cycle
        nonlocal w_beats, wlast_seen, observed_cycle, deferred_threshold
        if soc.sim.cycle != observed_cycle:
            observed_cycle = soc.sim.cycle
            dev = soc.eth_dev_bus
            if txn_start is None and soc.eth_host_bus.aw.valid.value:
                txn_start = soc.sim.cycle
            if dev.w.fired():
                if w_first_cycle is None:
                    w_first_cycle = soc.sim.cycle
                w_beats += 1
                beat = dev.w.payload.value
                if beat is not None and beat.last:
                    wlast_seen = True
            if (
                deferred_threshold is not None
                and inject_cycle is None
                and w_beats >= deferred_threshold
            ):
                apply_stage_fault(
                    soc.ethernet.faults,
                    soc.dma.faults,
                    soc.tmu.config.max_uniq_ids + 1,
                    stage,
                )
                inject_cycle = soc.sim.cycle
                deferred_threshold = None
            if inject_cycle is None and _manifested(soc, stage, wlast_seen):
                inject_cycle = soc.sim.cycle
        return bool(soc.tmu.irq.value)

    detect_cycle = soc.sim.run_until(detect_tick, timeout=detect_timeout)

    fault = soc.tmu.last_fault
    recovered = False
    if detect_cycle is not None:
        soc.dma.faults.clear()  # software recovery clears the manager fault
        recovered = (
            soc.sim.run_until(
                lambda _sim: (
                    soc.all_idle
                    and soc.tmu.state.value == "monitor"
                    and not soc.tmu.irq.value
                    and bool(soc.cpu.recoveries)
                ),
                timeout=recovery_timeout,
            )
            is not None
        )

    return SystemInjectionResult(
        stage=stage,
        variant=variant.value,
        txn_start_cycle=txn_start,
        inject_cycle=inject_cycle,
        w_first_cycle=w_first_cycle,
        detect_cycle=detect_cycle,
        fault_phase=fault.phase_label if fault else None,
        fault_kind=fault.kind.value if fault else None,
        ethernet_resets=soc.ethernet.resets_taken,
        cpu_recoveries=len(soc.cpu.recoveries),
        recovered=recovered,
        **{
            f"sim_{key}": value
            for key, value in soc.sim.stats().items()
            if key in type(soc.sim).STAT_KEYS
        },
    )


def _manifested(soc: CheshireSoC, stage: InjectionStage, wlast_seen: bool) -> bool:
    dev = soc.eth_dev_bus
    if stage == InjectionStage.AW_READY_MISSING:
        return bool(dev.aw.valid.value)
    if stage == InjectionStage.W_VALID_MISSING:
        return bool(dev.aw.fired()) or bool(soc.tmu.write_guard.ott.occupancy)
    if stage == InjectionStage.W_READY_MISSING:
        return bool(dev.w.valid.value)
    if stage == InjectionStage.WLAST_TO_BVALID:
        return wlast_seen
    if stage in (InjectionStage.B_ID_MISMATCH, InjectionStage.B_READY_MISSING):
        return bool(dev.b.valid.value)
    if stage == InjectionStage.AR_READY_MISSING:
        return bool(dev.ar.valid.value)
    if stage == InjectionStage.R_VALID_MISSING:
        return bool(dev.ar.fired()) or bool(soc.tmu.read_guard.ott.occupancy)
    if stage in (
        InjectionStage.R_ID_MISMATCH,
        InjectionStage.R_LAST_DROPPED,
        InjectionStage.R_READY_MISSING,
    ):
        return bool(dev.r.valid.value)
    return False


def run_fig11(
    beats: int = 250,
    background: int = 0,
    workers: Optional[int] = None,
    shard_size: int = 1,
    progress=None,
    executor=None,
    seeds=(0,),
    batch_lanes: Optional[int] = None,
    batch_verify: bool = False,
    metrics=None,
    store=None,
    size: int = 3,
    outstanding: int = 1,
    reorder_depth: int = 0,
) -> Dict[str, List[SystemInjectionResult]]:
    """All Fig. 11 series: both variants across the six write stages.

    The sweep runs through the orchestration engine
    (:mod:`repro.orchestrate`): *workers* > 1 shards the runs across a
    process pool (each worker builds its own :class:`CheshireSoC`; an
    explicit *executor* with the ``map(shards)`` contract overrides the
    choice), *batch_lanes* routes the
    sweep through the lockstep batch executor
    (:class:`~repro.orchestrate.batch.BatchExecutor`; *batch_verify*
    replays every derived lane on the scalar verify kernel), *store* (a
    :class:`~repro.orchestrate.store.ResultStore` or a path) adds
    run-granular reuse — a wider seed sweep or a re-run of a killed one
    simulates only the frontier — and the aggregated series are identical to the serial ones
    whatever the executor.

    *seeds* sweeps each (variant, stage) point over start-delay phase
    offsets; each variant's series is stage-major, then seed (length
    ``len(FIG11_STAGES) * len(seeds)``).
    """
    from ..orchestrate import CampaignSpec, run_campaign_spec

    variants = (Variant.FULL, Variant.TINY)
    spec = CampaignSpec.system(
        variants,
        FIG11_STAGES,
        beats=beats,
        seeds=seeds,
        background=background,
        size=size,
        outstanding=outstanding,
        reorder_depth=reorder_depth,
    )
    flat = run_campaign_spec(
        spec,
        workers=workers,
        shard_size=shard_size,
        progress=progress,
        executor=executor,
        batch_lanes=batch_lanes,
        batch_verify=batch_verify,
        metrics=metrics,
        store=store,
    )
    stride = len(FIG11_STAGES) * len(spec.seeds)
    return {
        variant.value: flat[i * stride : (i + 1) * stride]
        for i, variant in enumerate(variants)
    }
