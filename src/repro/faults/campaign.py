"""Fault-injection campaigns (paper §III-A3 and Fig. 9).

:class:`IpHarness` wires the canonical IP-level test bench — traffic
manager ↔ TMU ↔ subordinate, plus the external reset unit — and the
campaign runner injects one :class:`~repro.faults.types.InjectionStage`
per run, timestamps the fault's first manifestation on the interface,
and measures when the TMU raises its interrupt.

Two latencies are reported per injection, because the paper quotes both
conventions in Fig. 11: ``latency_from_injection`` (phase-budget-shaped
for the Full-Counter) and ``latency_from_start`` (whole-budget-shaped
for the Tiny-Counter).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, List, Optional, Sequence

from ..axi.interface import AxiInterface
from ..axi.manager import Manager
from ..axi.subordinate import Subordinate
from ..axi.traffic import read_spec, write_spec
from ..axi.types import AxiDir, bytes_per_beat
from ..sim.kernel import Simulator
from ..soc.reset_unit import ResetUnit
from ..tmu.config import TmuConfig
from ..tmu.unit import TransactionMonitoringUnit
from .types import FaultSite, InjectionStage


class IpHarness:
    """Manager ↔ TMU ↔ subordinate closed loop with a reset unit."""

    def __init__(
        self,
        config: TmuConfig,
        b_latency: int = 1,
        r_latency: int = 1,
        reset_duration: int = 4,
        with_reset_unit: bool = True,
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
        self.host = AxiInterface("host")
        self.device = AxiInterface("device")
        self.manager = Manager("manager", self.host)
        self.tmu = TransactionMonitoringUnit(
            "tmu",
            self.host,
            self.device,
            config,
            standalone_ack_after=None if with_reset_unit else reset_duration,
        )
        self.subordinate = Subordinate(
            "subordinate",
            self.device,
            b_latency=b_latency,
            r_latency=r_latency,
            reorder_depth=reorder_depth,
        )
        self.sim.add(self.manager)
        self.sim.add(self.tmu)
        self.sim.add(self.subordinate)
        self.reset_unit: Optional[ResetUnit] = None
        if with_reset_unit:
            self.reset_unit = ResetUnit(
                "reset_unit",
                self.tmu.reset_req,
                self.tmu.reset_ack,
                self.subordinate,
                reset_duration=reset_duration,
            )
            self.sim.add(self.reset_unit)
        self._clear_observations()

    def _clear_observations(self) -> None:
        # Interface events used by the manifest predicates.  Beat counts
        # come from the subordinate's own w_beats/r_beats instead: a
        # streamed burst span fires many W beats between observations.
        self.aw_fired_cycle: Optional[int] = None
        self.ar_fired_cycle: Optional[int] = None
        self.wlast_cycle: Optional[int] = None
        self._observed_cycle = -1

    def reset(self) -> None:
        """Return the harness to exactly its state after construction.

        Rewinds the simulator (wires, components, clock, statistics),
        forgets the subordinate's memory and zeroes the observation
        counters, so a run on a reset harness is indistinguishable from
        a run on a freshly built one.  Probes stay attached.
        """
        self.sim.reset()
        self.subordinate.memory.clear()
        self._clear_observations()

    def _observe(self) -> None:
        """Record this cycle's device-side fire events (idempotent).

        Every event recorded here — an address handshake, a ``w_last``
        beat — happens in a stepped cycle (never leaped, never inside a
        streamed burst span), so observing after each step or span sees
        every one; the cycle guard makes double observation (e.g. a
        pre-leap condition check) harmless.
        """
        if self.sim.cycle == self._observed_cycle:
            return
        self._observed_cycle = self.sim.cycle
        if self.device.w.fired():
            beat = self.device.w.payload.value
            if beat is not None and beat.last:
                self.wlast_cycle = self.sim.cycle
        if self.device.aw.fired() and self.aw_fired_cycle is None:
            self.aw_fired_cycle = self.sim.cycle
        if self.device.ar.fired() and self.ar_fired_cycle is None:
            self.ar_fired_cycle = self.sim.cycle

    def step(self) -> None:
        self.sim.step()
        self._observe()

    def run_until(self, condition, timeout: int) -> Optional[int]:
        """Leap-compatible loop: observe, then evaluate *condition*."""
        return self.sim.run_until(
            lambda _sim: (self._observe(), condition(self))[1],
            timeout=timeout,
        )

    @property
    def cycle(self) -> int:
        return self.sim.cycle


@dataclasses.dataclass
class InjectionResult:
    """Outcome of one fault injection.

    The ``sim_*`` fields are the kernel's ``Simulator.STAT_KEYS`` for
    the run: how much idle time it fast-forwarded, how many burst
    cycles it streamed in bulk, how many it stepped and in how many of
    those a streaming island rode along.  They are
    scheduler diagnostics, not measurements: ``compare=False``
    keeps result equality — and thus every leap-on ≡ leap-off
    differential — about what was *measured*, never about how fast the
    kernel got there.
    """

    stage: InjectionStage
    variant: str
    txn_start_cycle: int
    inject_cycle: Optional[int]
    detect_cycle: Optional[int]
    fault_kind: Optional[str]
    fault_phase: Optional[str]
    recovered: bool
    resets_taken: int
    sim_leaps: int = dataclasses.field(default=0, compare=False)
    sim_cycles_leaped: int = dataclasses.field(default=0, compare=False)
    sim_cycles_streamed: int = dataclasses.field(default=0, compare=False)
    sim_stepped_cycles: int = dataclasses.field(default=0, compare=False)
    sim_island_cycles: int = dataclasses.field(default=0, compare=False)

    def shifted(self, delta: int) -> "InjectionResult":
        """This result translated *delta* cycles later in time.

        The lockstep batch executor derives a follower lane's result
        from its pack leader's: every measured cycle stamp moves
        rigidly with the stimulus onset, latencies/flags/log counts are
        shift-invariant, and the leader's single pre-onset leap simply
        grows by *delta* while its stepped, streamed and island cycles stay
        (so even the scheduler diagnostics are exact).
        """
        start, inject, detect = (
            self.txn_start_cycle, self.inject_cycle, self.detect_cycle
        )
        return InjectionResult(
            stage=self.stage,
            variant=self.variant,
            txn_start_cycle=None if start is None else start + delta,
            inject_cycle=None if inject is None else inject + delta,
            detect_cycle=None if detect is None else detect + delta,
            fault_kind=self.fault_kind,
            fault_phase=self.fault_phase,
            recovered=self.recovered,
            resets_taken=self.resets_taken,
            sim_leaps=self.sim_leaps,
            sim_cycles_leaped=self.sim_cycles_leaped + delta,
            sim_cycles_streamed=self.sim_cycles_streamed,
            sim_stepped_cycles=self.sim_stepped_cycles,
            sim_island_cycles=self.sim_island_cycles,
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
        if self.detect_cycle is None:
            return None
        return self.detect_cycle - self.txn_start_cycle


def apply_stage_fault(sub_faults, mgr_faults, corrupt_id: int, stage: InjectionStage) -> None:
    """Arm the fault switches that realize *stage* on a manager/subordinate pair."""
    if stage == InjectionStage.AW_READY_MISSING:
        sub_faults.deaf_aw = True
    elif stage == InjectionStage.W_VALID_MISSING:
        mgr_faults.freeze_w = True
    elif stage in (InjectionStage.W_READY_MISSING, InjectionStage.DATA_TRANSFER_STALL):
        sub_faults.deaf_w = True
    elif stage == InjectionStage.WLAST_TO_BVALID:
        sub_faults.mute_b = True
    elif stage == InjectionStage.B_ID_MISMATCH:
        sub_faults.corrupt_b_id = corrupt_id
    elif stage == InjectionStage.B_READY_MISSING:
        mgr_faults.deaf_b = True
    elif stage == InjectionStage.AR_READY_MISSING:
        sub_faults.deaf_ar = True
    elif stage in (InjectionStage.R_VALID_MISSING, InjectionStage.R_MID_BURST_STALL):
        sub_faults.mute_r = True
    elif stage == InjectionStage.R_ID_MISMATCH:
        sub_faults.corrupt_r_id = corrupt_id
    elif stage == InjectionStage.R_LAST_DROPPED:
        sub_faults.drop_r_last = True
    elif stage == InjectionStage.R_READY_MISSING:
        mgr_faults.deaf_r = True
    else:  # pragma: no cover - exhaustive over the enum
        raise ValueError(f"unhandled stage {stage}")


def arm_stage_fault(
    sub_faults, mgr_faults, corrupt_id: int, stage: InjectionStage, beats: int
) -> None:
    """Arm *stage* at the start of a run whose transfer has *beats* beats.

    The mid-burst stages strike halfway through the transfer: they are
    armed as a beat threshold in the subordinate's fault block, which
    flips the switch itself after the ``beats // 2``-th beat (and stops
    a streamed burst span there).  Single-beat transfers have no
    middle: those stages degenerate to their apply-at-start
    counterparts.  Every other stage is applied at once.
    """
    if beats >= 2 and stage == InjectionStage.DATA_TRANSFER_STALL:
        sub_faults.deaf_w_after = beats // 2
    elif beats >= 2 and stage == InjectionStage.R_MID_BURST_STALL:
        sub_faults.mute_r_after = beats // 2
    else:
        apply_stage_fault(sub_faults, mgr_faults, corrupt_id, stage)


def drain_timeout(recovery_timeout: int, beats: int, outstanding: int) -> int:
    """The recovery budget a run actually gets.

    After detection every outstanding transfer still has to drain — the
    TMU accepts and discards the rest of each write burst — which takes
    about ``beats × outstanding`` cycles.  A fixed *recovery_timeout*
    below that would report a slow-but-legal drain as a failed
    recovery, so the budget is at least two cycles per beat in flight.
    """
    return max(recovery_timeout, 2 * beats * max(1, outstanding))


def _manifest_predicate(stage: InjectionStage) -> Callable[[IpHarness], bool]:
    """When the injected fault first becomes observable on the interface."""
    device = lambda harness: harness.device  # noqa: E731 - local alias
    table = {
        InjectionStage.AW_READY_MISSING: lambda h: bool(h.device.aw.valid.value),
        InjectionStage.W_VALID_MISSING: lambda h: h.aw_fired_cycle is not None,
        InjectionStage.W_READY_MISSING: lambda h: bool(h.device.w.valid.value),
        InjectionStage.DATA_TRANSFER_STALL: lambda h: bool(
            h.subordinate.faults.deaf_w
        ),
        InjectionStage.WLAST_TO_BVALID: lambda h: h.wlast_cycle is not None,
        InjectionStage.B_ID_MISMATCH: lambda h: bool(h.device.b.valid.value),
        InjectionStage.B_READY_MISSING: lambda h: bool(h.device.b.valid.value),
        InjectionStage.AR_READY_MISSING: lambda h: bool(h.device.ar.valid.value),
        InjectionStage.R_VALID_MISSING: lambda h: h.ar_fired_cycle is not None,
        InjectionStage.R_MID_BURST_STALL: lambda h: bool(
            h.subordinate.faults.mute_r
        ),
        InjectionStage.R_ID_MISMATCH: lambda h: bool(h.device.r.valid.value),
        InjectionStage.R_LAST_DROPPED: lambda h: h.subordinate.r_beats > 0,
        InjectionStage.R_READY_MISSING: lambda h: bool(h.device.r.valid.value),
    }
    del device
    return table[stage]


def build_ip_harness(
    config: TmuConfig,
    harness_kwargs: Optional[dict] = None,
    reorder_depth: int = 0,
) -> IpHarness:
    """The harness :func:`run_injection` simulates on.

    *reorder_depth* opens the subordinate's response reorder window
    unless *harness_kwargs* already sets it.
    """
    kwargs = dict(harness_kwargs or {})
    if reorder_depth and "reorder_depth" not in kwargs:
        kwargs["reorder_depth"] = reorder_depth
    return IpHarness(config, **kwargs)


def run_injection(
    config: TmuConfig,
    stage: InjectionStage,
    beats: int = 8,
    detect_timeout: int = 10_000,
    recovery_timeout: int = 2_000,
    harness_kwargs: Optional[dict] = None,
    issue_delay: int = 0,
    size: int = 3,
    outstanding: int = 1,
    reorder_depth: int = 0,
    harness: Optional[IpHarness] = None,
) -> InjectionResult:
    """Inject one fault and measure detection and recovery.

    The default workload is a single transaction of *beats* beats in
    the stage's direction, issued after *issue_delay* idle cycles —
    campaign seeds map to this delay, sweeping the injection across
    prescaler phase offsets exactly like the Fig. 8 stall measurement.
    The dark-corner axes reshape it: *size* sweeps the beat width
    (narrow transfers when below the bus width), *outstanding* stacks
    that many concurrent transactions over the config's ID space (only
    the first carries the issue delay, so the stimulus onset — and the
    batch executor's onset law — is unchanged), and *reorder_depth*
    opens the subordinate's response reorder window.  After detection,
    manager-side faults are cleared (the software recovery routine the
    paper's interrupt triggers) and the run continues until the manager
    has drained, the subordinate has been reset, and the TMU is
    monitoring again — within :func:`drain_timeout` cycles, which is
    *recovery_timeout* unless the workload needs longer to drain.

    *harness* runs the injection on a harness in its freshly built
    state (a new build, or one returned by :meth:`IpHarness.reset`)
    built by :func:`build_ip_harness` from the same *config*,
    *harness_kwargs* and *reorder_depth*; by default one is built.
    """
    if harness is None:
        harness = build_ip_harness(config, harness_kwargs, reorder_depth)
    spec_fn = write_spec if stage.direction == AxiDir.WRITE else read_spec
    # Each transaction gets its own 4 KiB-aligned page span so INCR
    # bursts stay AXI-legal at every (beats, size) grid point.
    stride = 0x1000 * ((beats * bytes_per_beat(size) + 0xFFF) // 0x1000)
    for i in range(max(1, outstanding)):
        harness.manager.submit(
            spec_fn(
                i % max(1, config.max_uniq_ids),
                0x1000 + i * stride,
                beats=beats,
                size=size,
                issue_delay=issue_delay if i == 0 else 0,
            )
        )

    arm_stage_fault(
        harness.subordinate.faults,
        harness.manager.faults,
        config.max_uniq_ids + 1,
        stage,
        beats,
    )
    manifest = _manifest_predicate(stage)

    txn_start: Optional[int] = None
    inject_cycle: Optional[int] = None

    def detect_tick(h: IpHarness) -> bool:
        nonlocal txn_start, inject_cycle
        if txn_start is None and (
            h.host.aw.valid.value or h.host.ar.valid.value
        ):
            txn_start = h.cycle
        if inject_cycle is None and manifest(h):
            inject_cycle = h.cycle
        return bool(h.tmu.irq.value)

    detect_cycle = harness.run_until(detect_tick, timeout=detect_timeout)

    fault = harness.tmu.last_fault
    recovered = False
    if detect_cycle is not None:
        harness.manager.faults.clear()  # software recovery routine
        harness.tmu.clear_irq()
        recovered = (
            harness.run_until(
                lambda h: (
                    h.manager.idle
                    and h.tmu.state.value == "monitor"
                    and not h.tmu.irq.value
                ),
                timeout=drain_timeout(recovery_timeout, beats, outstanding),
            )
            is not None
        )

    return InjectionResult(
        stage=stage,
        variant=config.variant.value,
        txn_start_cycle=txn_start if txn_start is not None else 0,
        inject_cycle=inject_cycle,
        detect_cycle=detect_cycle,
        fault_kind=fault.kind.value if fault else None,
        fault_phase=fault.phase_label if fault else None,
        recovered=recovered,
        resets_taken=harness.subordinate.resets_taken,
        **{
            f"sim_{key}": value
            for key, value in harness.sim.stats().items()
            if key in Simulator.STAT_KEYS
        },
    )


def run_campaign(
    configs: Iterable[TmuConfig],
    stages: Iterable[InjectionStage],
    beats: int = 8,
    seeds: Iterable[int] = (0,),
    detect_timeout: int = 10_000,
    recovery_timeout: int = 2_000,
    harness_kwargs: Optional[dict] = None,
    workers: Optional[int] = None,
    shard_size: int = 1,
    progress=None,
    executor=None,
    batch_lanes: Optional[int] = None,
    batch_verify: bool = False,
    metrics=None,
    store=None,
    size: int = 3,
    outstanding: int = 1,
    reorder_depth: int = 0,
) -> Sequence[InjectionResult]:
    """Cross-product campaign over configurations, stages and seeds.

    Runs through the orchestration engine (:mod:`repro.orchestrate`),
    whose lockstep batch executor
    (:class:`~repro.orchestrate.batch.BatchExecutor`) derives each
    (config, stage) point's seed lanes from pack leaders: *workers* > 1
    shards the points across a process pool (*executor*, anything with
    the ``map(points)`` contract, overrides the choice), *batch_lanes*
    caps the pack width (*batch_verify* replays every derived lane on
    the scalar verify kernel), *store* (a :class:`~repro.orchestrate.store.ResultStore` or
    a path) reuses runs already simulated — by an overlapping sweep or
    by a killed run of this one — and *progress* enables the live status
    line.  Result ordering is canonical (config-major, then stage, then
    seed) regardless of executor, so the parallel path is a drop-in
    replacement for the historical serial loop.  The engine returns a
    :class:`~repro.orchestrate.engine.CampaignResults`, which builds a
    batch-derived lane's result only when it is indexed.

    Configs whose budget policy the spec serializer does not understand
    (a custom :class:`AdaptiveBudgetPolicy` subclass) fall back to the
    in-process serial loop — parallelism and the store both need the
    canonical spec.
    """
    # Imported here: the orchestrator's executor imports run_injection
    # from this module, so a top-level import would cycle.
    from ..orchestrate import CampaignSpec, SpecSerializationError, run_campaign_spec

    configs = list(configs)
    stages = list(stages)
    seeds = list(seeds)
    try:
        spec = CampaignSpec.ip(
            configs,
            stages,
            beats=beats,
            seeds=seeds,
            detect_timeout=detect_timeout,
            recovery_timeout=recovery_timeout,
            harness_kwargs=harness_kwargs,
            size=size,
            outstanding=outstanding,
            reorder_depth=reorder_depth,
        )
    except SpecSerializationError:
        if (
            (workers or 1) > 1
            or executor is not None
            or batch_lanes is not None
            or store is not None
        ):
            raise
        from ..orchestrate import ProgressReporter

        reporter = None
        if isinstance(progress, ProgressReporter):
            reporter = progress
        elif progress:
            reporter = ProgressReporter(
                len(configs) * len(stages) * len(seeds),
                stream=None if progress is True else progress,
            )
        results = []
        for config in configs:
            # One harness per config, reset before each run — the same
            # reuse the executors' harness cache gives spec campaigns.
            harness = build_ip_harness(config, harness_kwargs, reorder_depth)
            for stage in stages:
                for seed in seeds:
                    harness.reset()
                    results.append(
                        run_injection(
                            config,
                            stage,
                            beats=beats,
                            detect_timeout=detect_timeout,
                            recovery_timeout=recovery_timeout,
                            issue_delay=seed,
                            size=size,
                            outstanding=outstanding,
                            harness=harness,
                        )
                    )
                    if metrics is not None:
                        metrics["campaign.runs"] += 1
                        metrics["campaign.runs_executed"] += 1
                    if reporter:
                        reporter.shard_done(1)
        if reporter:
            reporter.finish()
        return results
    return run_campaign_spec(
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


def measure_stall_detection_latency(
    config: TmuConfig,
    offsets: Optional[Iterable[int]] = None,
    timeout: int = 100_000,
) -> int:
    """Worst-case detection latency for a total-stall fault (Fig. 8).

    Models the paper's measurement scenario: "the datapath never asserts
    a valid signal, effectively modelling a total stall".  The stall
    onset is swept across prescaler phase *offsets* and the worst
    detection latency (cycles from ``aw_valid`` assertion to the TMU
    interrupt) is returned.
    """
    if offsets is None:
        offsets = range(min(config.prescale_step, 8))
    worst = 0
    harness = IpHarness(config)
    for offset in offsets:
        harness.reset()
        harness.subordinate.faults.deaf_aw = True
        harness.manager.submit(write_spec(0, 0x1000, issue_delay=offset))
        start: Optional[int] = None

        def stall_tick(h: IpHarness) -> bool:
            nonlocal start
            if start is None and h.host.aw.valid.value:
                start = h.cycle
            return bool(h.tmu.irq.value)

        detected = harness.run_until(stall_tick, timeout=timeout)
        if detected is None:
            raise RuntimeError(
                f"stall not detected within {timeout} cycles at offset {offset}"
            )
        assert start is not None
        worst = max(worst, detected - start)
    return worst
