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
from typing import Dict, Optional, Sequence

from ..faults.campaign import Trunk, drive_injection
from ..faults.types import InjectionOutcome, InjectionStage
from ..orchestrate.engine import run_campaign_spec
from ..orchestrate.spec import CampaignSpec, validate_axes
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
class SystemInjectionResult(InjectionOutcome):
    """Outcome of one system-level injection."""

    STAMPS = InjectionOutcome.STAMPS + ("w_first_cycle",)

    w_first_cycle: Optional[int]
    ethernet_resets: int
    cpu_recoveries: int

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


def queue_system_workload(
    soc: CheshireSoC,
    beats: int,
    background: int,
    start_delay: int,
    size: int,
    outstanding: int,
) -> None:
    """:func:`run_system_injection`'s set-up: idle *start_delay* cycles,
    then queue the Ethernet frame, the background traffic and the
    extra outstanding reads."""
    if start_delay:
        soc.sim.run(start_delay)
    soc.send_ethernet_frame(beats, size=size)
    if background:
        soc.submit_background_traffic(background)
    if outstanding > 1:
        soc.submit_outstanding_reads(outstanding - 1)


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
    trunk: Optional[Trunk] = None,
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

    The fault is injected, timed and recovered from by the IP runs' own
    loop, :func:`~repro.faults.campaign.drive_injection`, on the DMA →
    TMU → MAC link; recovery also waits for the CPU's interrupt routine.

    *soc* runs the injection on an SoC in its freshly built state (a
    new build, or one returned by :meth:`CheshireSoC.reset`) built by
    :func:`build_system_soc` from the same *variant*, *beats*,
    *reorder_depth* and ``sim_*`` options; by default one is built.  A
    *trunk* (:class:`~repro.faults.campaign.Trunk`, entered on *soc*)
    shares the unarmed prefix with the other stages of this seed; when
    it restored its checkpoint, the workload is already queued.

    The axes are checked by :func:`~repro.orchestrate.spec.validate_axes`,
    and *start_delay* must not be negative: a value no campaign could
    run, or a read-path stage, raises ``ValueError`` before anything is
    simulated.
    """
    validate_axes(
        "system", beats, reorder_depth, background, stages=(stage,),
        size=size, outstanding=outstanding, detect_timeout=detect_timeout,
    )
    if start_delay < 0:
        raise ValueError(f"start_delay must be at least 0, got {start_delay}")

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
    if trunk is None or not trunk.resumed:
        queue_system_workload(
            soc, beats, background, start_delay, size, outstanding
        )
    fields, w_first_cycle = drive_injection(
        soc.sim, soc.tmu, soc.eth_host_bus, soc.eth_dev_bus, soc.dma,
        soc.ethernet, stage, beats, outstanding, detect_timeout,
        recovery_timeout,
        recovered=lambda: soc.all_idle and bool(soc.cpu.recoveries),
        ack_irq=False, trunk=trunk,
    )
    return SystemInjectionResult(
        **fields,
        w_first_cycle=w_first_cycle,
        ethernet_resets=soc.ethernet.resets_taken,
        cpu_recoveries=len(soc.cpu.recoveries),
    )


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
) -> Dict[str, Sequence[SystemInjectionResult]]:
    """All Fig. 11 series: both variants across the six write stages.

    The sweep runs through the orchestration engine
    (:mod:`repro.orchestrate`) and its lockstep batch executor
    (:class:`~repro.orchestrate.batch.BatchExecutor`): *workers* > 1
    shards the (variant, stage) points across a process pool (each
    worker builds its own :class:`CheshireSoC`; an explicit *executor*
    with the ``map(points)`` contract overrides the choice),
    *batch_lanes* caps the pack width (*batch_verify* replays every
    derived lane on the scalar verify kernel), *store* (a
    :class:`~repro.orchestrate.store.ResultStore` or a path) adds
    run-granular reuse — a wider seed sweep or a re-run of a killed one
    simulates only the frontier — and the aggregated series are identical to the serial ones
    whatever the executor.

    *seeds* sweeps each (variant, stage) point over start-delay phase
    offsets; each variant's series is stage-major, then seed (length
    ``len(FIG11_STAGES) * len(seeds)``).  Each series is a lazy slice of
    the engine's :class:`~repro.orchestrate.engine.CampaignResults`: the
    batch executor's derived lanes become result objects only when
    indexed, so a caller reading the seed-0 rows builds only those.
    """
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
