"""Fault-injection campaigns (paper §III-A3 and Fig. 9).

:class:`IpHarness` wires the canonical IP-level test bench — traffic
manager ↔ TMU ↔ subordinate, plus the external reset unit — and the
campaign runner injects one :class:`~repro.faults.types.InjectionStage`
per run, timestamps the fault's first manifestation on the interface,
and measures when the TMU raises its interrupt.  That loop is
:func:`drive_injection`, which the system-level experiment
(:func:`repro.soc.experiment.run_system_injection`) runs too, on the
SoC's monitored Ethernet link.

Two latencies are reported per injection, because the paper quotes both
conventions in Fig. 11: ``latency_from_injection`` (phase-budget-shaped
for the Full-Counter) and ``latency_from_start`` (whole-budget-shaped
for the Tiny-Counter).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

from ..axi.interface import AxiInterface
from ..axi.manager import Manager
from ..axi.subordinate import Subordinate
from ..axi.traffic import read_spec, write_spec
from ..axi.types import AxiDir, bytes_per_beat
from ..orchestrate.engine import run_campaign_spec
from ..orchestrate.spec import CampaignSpec, validate_axes
from ..sim.kernel import Simulator
from ..soc.reset_unit import ResetUnit
from ..tmu.config import TmuConfig
from ..tmu.unit import TransactionMonitoringUnit
from .types import InjectionOutcome, InjectionStage


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

    def checkpoint(self):
        """The harness state — simulation, memory, observations — to
        :meth:`restore` later (see :meth:`Simulator.checkpoint`)."""
        return (
            self.sim.checkpoint(),
            self.subordinate.memory.checkpoint(),
            self.wlast_cycle,
            self._observed_cycle,
        )

    def restore(self, checkpoint) -> None:
        """Return to *checkpoint*; probes stay attached."""
        sim, pages, self.wlast_cycle, self._observed_cycle = checkpoint
        self.sim.restore(sim)
        self.subordinate.memory.restore(pages)

    def _observe(self) -> None:
        """Record this cycle's ``w_last`` beat on the device side
        (idempotent).

        A ``w_last`` beat fires in a stepped cycle (never leaped, never
        inside a streamed burst span), so observing after each step or
        span sees every one; the cycle guard makes double observation
        (e.g. a pre-leap condition check) harmless.
        """
        if self.sim.cycle == self._observed_cycle:
            return
        self._observed_cycle = self.sim.cycle
        if self.device.w.fired():
            beat = self.device.w.payload.value
            if beat is not None and beat.last:
                self.wlast_cycle = self.sim.cycle

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
class InjectionResult(InjectionOutcome):
    """Outcome of one IP-level fault injection."""

    resets_taken: int


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
    return max(recovery_timeout, 2 * beats * outstanding)


@dataclasses.dataclass
class _Timeline:
    """The stamps one injection records while it waits for the IRQ."""

    sim: Simulator
    device: AxiInterface
    subordinate: Subordinate
    manager: Manager
    beats: int
    txn_start: Optional[int] = None
    w_first: Optional[int] = None
    w_last: Optional[int] = None
    aw_fired: Optional[int] = None
    ar_fired: Optional[int] = None
    manifest: Optional[int] = None
    #: The subordinate's W and R beat counts where the stage is armed
    #: (the mid-burst thresholds count from there).
    w_beats: int = 0
    r_beats: int = 0

    #: What every stage records alike (the manifest is its own).
    SHARED = (
        "txn_start", "w_first", "w_last", "aw_fired", "ar_fired",
        "w_beats", "r_beats",
    )


def _valid(channel: str) -> Callable[[_Timeline], bool]:
    return lambda t: bool(getattr(t.device, channel).valid.value)


#: When each stage's fault first becomes observable on the monitored
#: link: a device-side valid, a subordinate fault switch, or a
#: handshake the timeline has stamped.
_MANIFEST: Dict[InjectionStage, Callable[[_Timeline], bool]] = {
    InjectionStage.AW_READY_MISSING: _valid("aw"),
    InjectionStage.W_VALID_MISSING: lambda t: t.aw_fired is not None,
    InjectionStage.W_READY_MISSING: _valid("w"),
    InjectionStage.DATA_TRANSFER_STALL: lambda t: t.subordinate.faults.deaf_w,
    InjectionStage.WLAST_TO_BVALID: lambda t: t.w_last is not None,
    InjectionStage.B_ID_MISMATCH: _valid("b"),
    InjectionStage.B_READY_MISSING: _valid("b"),
    InjectionStage.AR_READY_MISSING: _valid("ar"),
    InjectionStage.R_VALID_MISSING: lambda t: t.ar_fired is not None,
    InjectionStage.R_MID_BURST_STALL: lambda t: t.subordinate.faults.mute_r,
    InjectionStage.R_ID_MISMATCH: _valid("r"),
    InjectionStage.R_LAST_DROPPED: _valid("r"),
    InjectionStage.R_READY_MISSING: _valid("r"),
}


def _addr_coming(channel: str) -> Callable[[_Timeline], bool]:
    """The manager's *channel* address is up on the device side, or
    goes up in the next step (its queue head's issue delay is spent)."""
    queue, delay = f"_{channel}_queue", f"_{channel}_delay"

    def coming(t: _Timeline) -> bool:
        manager = t.manager
        return bool(
            getattr(t.device, channel).valid._value
            or (getattr(manager, queue) and getattr(manager, delay) == 0)
        )

    return coming


_aw_coming = _addr_coming("aw")
_ar_coming = _addr_coming("ar")


def _last_w_beat_next(t: _Timeline) -> bool:
    """A B response is queued, or the next W beat ends a burst (counting
    the beats an island the subordinate streams in has yet to apply)."""
    sub = t.subordinate
    if sub._b_queue:
        return True
    writes = sub._writes
    return bool(writes) and (
        writes[0].index + t.sim.lag(sub) + 1 >= len(writes[0].addrs)
    )


def _left(t: _Timeline, channel: str, lagging: bool = False) -> int:
    """Beats the subordinate still has to take on *channel* ("w": W
    beats accepted, "r": R beats served) before a mid-burst stage armed
    where *t* started would strike: counting the W beats a held island
    has yet to apply, unless *lagging* (the count the subordinate's own
    lagging countdown holds)."""
    sub = t.subordinate
    if channel == "r":
        return t.beats // 2 - (sub.r_beats - t.r_beats)
    lag = 0 if lagging else t.sim.lag(sub)
    return t.beats // 2 - (sub.w_beats + lag - t.w_beats)


def _response_next(channel: str) -> Callable[[_Timeline], bool]:
    """The subordinate presents a *channel* response in the next step:
    one has matured (responses mature in an update, and a streamed span
    ends before any does)."""
    select = "_select_b_entry" if channel == "b" else "_select_r_job"
    return lambda t: getattr(t.subordinate, select)() is not None


#: Each stage's *branch*: the first step boundary from which arming its
#: fault could change anything — a signal something acts on, a
#: registered field, or a scheduling verdict (a stream horizon, an
#: island, quiescence, a wake).  Before it, a run with the stage armed
#: and one with nothing armed are the same run, so the stages of one
#: (config, seed) share that prefix (:class:`Trunk`).  Each predicate
#: reads the state at a boundary and holds from the boundary before
#: the step in which the switch is first read with effect:
#:
#: * a ready switch (``deaf_aw``/``deaf_ar``, ``deaf_b``/``deaf_r``)
#:   only lowers a ready while no valid is up, until the address is
#:   coming (or a response is presented); at the branch its owner's
#:   outputs are re-driven (:meth:`Simulator.resettle`);
#: * ``freeze_w``/``deaf_w`` are read once the write is accepted (the
#:   AW handshake creates the W burst and the write job), ``mute_r``
#:   once the read is;
#: * ``mute_b`` is read once a B response is queued, which the last W
#:   beat of a burst does;
#: * the ID switches and ``drop_r_last`` act on a presented response;
#: * the mid-burst thresholds (``deaf_w_after``, ``mute_r_after``) only
#:   count beats until the next one strikes: they are armed with the
#:   count left (:data:`_COUNTED`).  ``deaf_w_after`` also ends a
#:   streamed span or island before the beat that strikes, so a trunk
#:   also branches right before a span it would cut short (the
#:   kernel's ``span_gate``).
#:
#: A stage whose manifest comes first branches there.
_BRANCH: Dict[InjectionStage, Callable[[_Timeline], bool]] = {
    InjectionStage.AW_READY_MISSING: _aw_coming,
    InjectionStage.W_VALID_MISSING: lambda t: (
        _aw_coming(t) or bool(t.manager._w_pending)
        or t.manager._w_active is not None
    ),
    InjectionStage.W_READY_MISSING: lambda t: (
        _aw_coming(t) or bool(t.subordinate._writes)
    ),
    InjectionStage.DATA_TRANSFER_STALL: lambda t: _left(t, "w") <= 1,
    InjectionStage.WLAST_TO_BVALID: _last_w_beat_next,
    InjectionStage.B_ID_MISMATCH: _response_next("b"),
    InjectionStage.B_READY_MISSING: _response_next("b"),
    InjectionStage.AR_READY_MISSING: _ar_coming,
    InjectionStage.R_VALID_MISSING: lambda t: (
        _ar_coming(t) or bool(t.subordinate._reads)
    ),
    InjectionStage.R_MID_BURST_STALL: lambda t: _left(t, "r") <= 1,
    InjectionStage.R_ID_MISMATCH: _response_next("r"),
    InjectionStage.R_LAST_DROPPED: _response_next("r"),
    InjectionStage.R_READY_MISSING: _response_next("r"),
}

#: The mid-burst stages: the fault block's beat countdown, and the
#: channel whose beats it counts.
_COUNTED = {
    InjectionStage.DATA_TRANSFER_STALL: ("deaf_w_after", "w"),
    InjectionStage.R_MID_BURST_STALL: ("mute_r_after", "r"),
}

#: Stages whose switch lowers a ready its owner drives before the
#: branch, and that owner's timeline field.
_REDRIVE = {
    InjectionStage.AW_READY_MISSING: "subordinate",
    InjectionStage.AR_READY_MISSING: "subordinate",
    InjectionStage.B_READY_MISSING: "manager",
    InjectionStage.R_READY_MISSING: "manager",
}

def _always(t: _Timeline) -> bool:
    return True


def _trigger(
    stage: InjectionStage, beats: int, watched: bool = False
) -> Callable[[_Timeline], bool]:
    """Whether *stage* (on *beats*-beat transfers) must be armed now:
    its branch, or its manifest if that comes first.  A mid-burst stage
    on a single beat arms the switch its manifest reads (see
    :func:`arm_stage_fault`): at the start.  *watched* from another
    stage's trunk, where no span gate speaks for it, the W threshold's
    branch is taken as passed once a write job exists (before any W
    span it could cut)."""
    if beats < 2 and stage in _COUNTED:
        return _always
    if watched and _COUNTED.get(stage, (None, None))[1] == "w":
        return lambda t: bool(t.subordinate._writes)
    branch, manifest = _BRANCH[stage], _MANIFEST[stage]
    return lambda t: branch(t) or manifest(t)


class Unforkable(Exception):
    """A branch could not be certified where it fell: the run starts
    over from cycle 0 (see :class:`Trunk`)."""


@dataclasses.dataclass
class _Saved:
    """A trunk checkpoint: the harness (its kernel's inert span
    included), the timeline's shared stamps, the detect budget's end and
    the stages whose branch fell before it."""

    cycle: int
    harness: Any
    stamps: Tuple[Optional[int], ...]
    target: int
    passed: frozenset


class Trunk:
    """The unarmed prefix the stages of one (config, seed) share.

    Every stage of a point's seed simulates the same cycles until its
    fault first matters (its ``_BRANCH``), so the batch executor runs
    a *family* — points that differ only in stage — through one trunk
    per seed it simulates.  A stage's run goes on unarmed from the
    latest checkpoint (or from cycle 0) to its own branch, takes a
    checkpoint there, arms the stage and finishes through the same
    :func:`drive_injection`; the next stage restores that checkpoint.
    Each run is still one :func:`~repro.orchestrate.executor.execute_run`
    call, and its result is the one an unforked run gives, ``sim_*``
    statistics and all: the checkpoint carries the kernel's counters.

    A stage resumes only when no evaluation before the checkpoint met
    its branch (the trunk watches every pending stage's).  A branch at
    the very start shares nothing: the stage arms there.  A checkpoint
    is kept only once the trunk has stepped :attr:`MIN_CYCLES` cycles
    (see there).  A branch that cannot be certified where it
    falls (a ready to re-drive into a held island) raises
    :class:`Unforkable`, and the run starts over from cycle 0, just as
    an uncovered lane retires.  :attr:`branched` names the last run's
    ``(stage, branch cycle)`` when it started from a checkpoint or
    armed at a branch.
    """

    #: Cycles a trunk must have stepped before a checkpoint is worth
    #: keeping.  A checkpoint and its restore cost about what stepping
    #: a dozen cycles does, on the IP harness (~0.27 ms) as on the busy
    #: SoC (~0.46 ms), while a streamed span costs one call however
    #: long: a prefix stepped less is simulated again instead, and a
    #: family that cannot step this many (:meth:`pays`) runs unforked.
    MIN_CYCLES = 16

    @classmethod
    def pays(cls, run) -> bool:
        """Whether the family of *run* (a run spec, or a point's shared
        fields) can step a prefix long enough to pay for a checkpoint.

        The longest shared prefix is about the workload's W beats (the
        B-side stages branch after them): too short on the IP sweeps'
        8-beat transfers.  And the kernel streams a burst in bulk unless
        background traffic steps beside it: a quiet SoC's 250-beat
        frame costs a few calls.  Only background traffic has been
        measured to pay: without it a family runs unforked, whatever
        its kernel.
        """
        if run.beats * run.outstanding < cls.MIN_CYCLES:
            return False
        return run.background > 0

    def __init__(self, stages: Iterable[InjectionStage]) -> None:
        #: The family's stages still to run (in any order).
        self.pending = set(stages)
        self._saved: Optional[_Saved] = None
        self._resumed: Optional[_Saved] = None
        self.harness = None
        self.branched: Optional[Tuple[InjectionStage, int]] = None

    def resumes(self, stage: InjectionStage) -> bool:
        """Whether a run of *stage* can start from the checkpoint held."""
        saved = self._saved
        return saved is not None and stage not in saved.passed

    def enter(self, harness, stage: InjectionStage) -> bool:
        """Start a run of *stage* on *harness*: restored to the checkpoint
        when it :meth:`resumes` (True; the workload is already in it),
        else as it is (freshly built or reset)."""
        self.pending.discard(stage)
        self.harness, self.branched = harness, None
        self._resumed = saved = self._saved if self.resumes(stage) else None
        if saved is None:
            return False
        harness.restore(saved.harness)
        self.branched = (stage, saved.cycle)
        return True

    @property
    def resumed(self) -> bool:
        """Whether the run :meth:`enter` started restored the checkpoint."""
        return self._resumed is not None

    def forget(self) -> None:
        """Drop the checkpoint (the run starts over from cycle 0)."""
        self._saved = self._resumed = None

    def _save(self, sim, t: _Timeline, target: int, passed) -> None:
        self._saved = _Saved(
            sim.cycle,
            self.harness.checkpoint(),
            tuple(getattr(t, name) for name in _Timeline.SHARED),
            target,
            frozenset(passed),
        )


def _silently(blocks, arm: Callable[[], None]) -> None:
    """Run *arm* on fault *blocks* without notifying their owners."""
    owners = [block._owner for block in blocks]
    for block in blocks:
        object.__setattr__(block, "_owner", None)
    try:
        arm()
    finally:
        for block, owner in zip(blocks, owners):
            object.__setattr__(block, "_owner", owner)


def drive_injection(
    sim: Simulator,
    tmu: TransactionMonitoringUnit,
    host: AxiInterface,
    device: AxiInterface,
    manager,
    subordinate,
    stage: InjectionStage,
    beats: int,
    outstanding: int,
    detect_timeout: int,
    recovery_timeout: int,
    recovered: Callable[[], bool],
    ack_irq: bool,
    trunk: Optional[Trunk] = None,
) -> Tuple[Dict[str, Any], Optional[int]]:
    """Inject *stage* on one monitored link, time it, and recover.

    The one detect/recover loop of every injection, IP and system level
    alike: the TMU *tmu* sits between its *host* bus (the *manager*'s
    side) and its *device* bus (the *subordinate*'s), on *sim*, with the
    workload already submitted.  The stage is armed, then the run waits
    at most *detect_timeout* cycles for the TMU interrupt, stamping the
    transaction start (the first address valid on the host bus), the
    first and last W beats, the first AW and AR handshakes and the cycle
    the fault first manifests (``_MANIFEST``).  Each of these events
    happens in a stepped cycle, never inside a span the kernel leaps or
    streams (whole, or as an island while background traffic steps and
    the watcher reads the island's lagging state), and is stamped once:
    the output is byte-identical with leaping on or off.

    With a *trunk* the stage is armed at its branch instead (see
    :class:`Trunk`): the run goes on unarmed — from the trunk's
    checkpoint when :meth:`Trunk.enter` restored one — checkpoints at
    the branch and arms there, carrying the stamps and the detect
    budget left.  The arming the run starts with spends its owner
    notification on both fault blocks, so the unarmed prefix is
    scheduled as an armed one is.

    After detection the manager's faults are cleared — the software
    recovery routine the paper's interrupt triggers — and, with no CPU
    to serve the interrupt (*ack_irq*), the IRQ is acknowledged here.
    The link has recovered when, within :func:`drain_timeout` cycles,
    the TMU monitors again with its IRQ low and the harness's own
    *recovered* predicate holds.

    Returns the :class:`~repro.faults.types.InjectionOutcome` fields of
    the run, and the cycle of its first W beat.
    """
    corrupt_id = tmu.config.max_uniq_ids + 1
    sub_faults, mgr_faults = subordinate.faults, manager.faults

    def arm() -> None:
        arm_stage_fault(sub_faults, mgr_faults, corrupt_id, stage, beats)

    manifest = _MANIFEST[stage]
    t = _Timeline(
        sim, device, subordinate, manager, beats,
        w_beats=subordinate.w_beats, r_beats=subordinate.r_beats,
    )
    saved = None if trunk is None else trunk._resumed
    if saved is None:
        target = sim.cycle + detect_timeout
    else:
        target = saved.target
        for name, stamp in zip(_Timeline.SHARED, saved.stamps):
            setattr(t, name, stamp)

    def detect_tick(_sim) -> bool:
        cycle = sim.cycle
        if t.txn_start is None and (host.aw.valid.value or host.ar.valid.value):
            t.txn_start = cycle
        if device.w.fired():
            if t.w_first is None:
                t.w_first = cycle
            beat = device.w.payload.value
            if t.w_last is None and beat is not None and beat.last:
                t.w_last = cycle
        if t.aw_fired is None and device.aw.fired():
            t.aw_fired = cycle
        if t.ar_fired is None and device.ar.fired():
            t.ar_fired = cycle
        if t.manifest is None and manifest(t):
            t.manifest = cycle
        return bool(tmu.irq.value)

    tick = detect_tick
    if trunk is None:
        arm()
    else:
        trigger = _trigger(stage, beats)
        passed = set() if saved is None else set(saved.passed)
        watched = [
            (other, _trigger(other, beats, watched=True))
            for other in trunk.pending - passed
        ]
        redrive = _REDRIVE.get(stage)
        counted = _COUNTED.get(stage) if beats >= 2 else None

        # The held island a W threshold would have ended early: (the
        # cycle it formed, the cycle the threshold caps it to).
        capped: Optional[Tuple[int, int]] = None

        def branch() -> None:
            nonlocal tick
            tick = detect_tick
            sim.span_gate = None
            _silently((sub_faults, mgr_faults), arm)
            if counted is not None:
                countdown, channel = counted
                object.__setattr__(
                    sub_faults, countdown, _left(t, channel, lagging=True)
                )
            if capped is not None and sim.island_start == capped[0]:
                sim.cap_island(capped[1])
            if redrive is not None and not sim.resettle(
                (getattr(t, redrive),)
            ):
                raise Unforkable(f"{stage.value} at cycle {sim.cycle}")
            trunk.branched = (stage, sim.cycle)

        def fork() -> None:
            stepped = sim.stepped_cycles >= Trunk.MIN_CYCLES
            if stepped and trunk.pending - passed:
                trunk._save(sim, t, target, passed)
            branch()

        def trunk_tick(_sim) -> bool:
            # Stamps first: the checkpoint carries the shared ones.  A
            # manifest met here is met armed too (the trigger holds).
            irq = detect_tick(_sim)
            if trigger(t):
                fork()
                return detect_tick(_sim)
            for other, met in watched:
                if other not in passed and met(t):
                    passed.add(other)
            return irq

        def span_gate(components, horizon: int, island: bool) -> bool:
            # deaf_w_after ends a span or an island before the beat that
            # strikes.  An island it caps but leaves long enough forms
            # unarmed here; the branch comes at the capped end (where
            # the beat count meets the trigger) unless a span streamed
            # beside it would cross that end first.
            nonlocal capped
            if subordinate in components:
                cap = _left(t, "w") - 1
                if cap >= horizon:
                    return False
                if island and cap >= sim.MIN_ISLAND_SPAN:
                    capped = (sim.cycle, sim.cycle + cap)
                    return False
            elif not (
                capped is not None
                and sim.island_start == capped[0]
                and sim.cycle + horizon > capped[1]
            ):
                return False
            fork()
            return True

        def unarmed() -> None:
            nonlocal tick
            tick = trunk_tick
            if counted is not None and counted[1] == "w":
                sim.span_gate = span_gate

        if saved is None:
            # What arming here notifies, minus the switch itself.
            sub_faults._notify_owner()
            mgr_faults._notify_owner()
            if trigger(t):
                _silently((sub_faults, mgr_faults), arm)
            else:
                unarmed()
        elif trigger(t):
            branch()  # at the checkpoint's own evaluation
        else:
            unarmed()

    def condition(_sim) -> bool:
        return tick(_sim)  # the trunk's tick until its branch

    if tick is detect_tick:
        condition = detect_tick
    try:
        if saved is not None and condition(sim):
            detect_cycle = sim.cycle
        else:
            detect_cycle = sim.run_until(
                condition, timeout=target - sim.cycle, resume=saved is not None
            )
    finally:
        sim.span_gate = None
    fault = tmu.last_fault
    done = None
    if detect_cycle is not None:
        manager.faults.clear()
        if ack_irq:
            tmu.clear_irq()
        done = sim.run_until(
            lambda _sim: (
                tmu.state.value == "monitor" and not tmu.irq.value and recovered()
            ),
            timeout=drain_timeout(recovery_timeout, beats, outstanding),
        )
    fields = dict(
        stage=stage,
        variant=tmu.config.variant.value,
        txn_start_cycle=t.txn_start,
        inject_cycle=t.manifest,
        detect_cycle=detect_cycle,
        fault_kind=fault.kind.value if fault else None,
        fault_phase=fault.phase_label if fault else None,
        recovered=done is not None,
    )
    stats = sim.stats()
    fields.update((f"sim_{key}", stats[key]) for key in sim.STAT_KEYS)
    return fields, t.w_first



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


def submit_ip_workload(
    harness: IpHarness,
    stage: InjectionStage,
    beats: int,
    issue_delay: int,
    size: int,
    outstanding: int,
    ids: int,
) -> None:
    """Queue :func:`run_injection`'s workload on *harness*: *outstanding*
    transactions of *beats* beats in *stage*'s direction over *ids*
    IDs, the first after *issue_delay* idle cycles."""
    spec_fn = write_spec if stage.direction == AxiDir.WRITE else read_spec
    # Each transaction gets its own 4 KiB-aligned page span so INCR
    # bursts stay AXI-legal at every (beats, size) grid point.
    stride = 0x1000 * ((beats * bytes_per_beat(size) + 0xFFF) // 0x1000)
    for i in range(outstanding):
        harness.manager.submit(
            spec_fn(
                i % ids,
                0x1000 + i * stride,
                beats=beats,
                size=size,
                issue_delay=issue_delay if i == 0 else 0,
            )
        )


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
    trunk: Optional[Trunk] = None,
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
    opens the subordinate's response reorder window.
    :func:`drive_injection` injects, times and recovers; its
    *detect_timeout* counts from the issue, and recovery ends once the
    manager has drained.

    *harness* runs the injection on a harness in its freshly built
    state (a new build, or one returned by :meth:`IpHarness.reset`)
    built by :func:`build_ip_harness` from the same *config*,
    *harness_kwargs* and *reorder_depth*; by default one is built.  A
    *trunk* (:class:`Trunk`, entered on *harness*) shares the unarmed
    prefix with the other stages of this seed; when it restored its
    checkpoint, the workload is already submitted.

    The axes are checked by :func:`~repro.orchestrate.spec.validate_axes`,
    and *issue_delay* must not be negative: a value no campaign could
    run raises ``ValueError`` before anything is simulated.
    """
    validate_axes(
        "ip", beats, reorder_depth, stages=(stage,), size=size,
        outstanding=outstanding, detect_timeout=detect_timeout,
    )
    if issue_delay < 0:
        raise ValueError(f"issue_delay must be at least 0, got {issue_delay}")
    if harness is None:
        harness = build_ip_harness(config, harness_kwargs, reorder_depth)
    if trunk is None or not trunk.resumed:
        submit_ip_workload(
            harness, stage, beats, issue_delay, size, outstanding,
            max(1, config.max_uniq_ids),
        )
    fields, _w_first = drive_injection(
        harness.sim, harness.tmu, harness.host, harness.device,
        harness.manager, harness.subordinate, stage, beats, outstanding,
        issue_delay + detect_timeout, recovery_timeout,
        recovered=lambda: harness.manager.idle, ack_irq=True, trunk=trunk,
    )
    return InjectionResult(**fields, resets_taken=harness.subordinate.resets_taken)


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

    Builds the :meth:`~repro.orchestrate.spec.CampaignSpec.ip` spec and
    runs it through the orchestration engine
    (:func:`~repro.orchestrate.engine.run_campaign_spec`), whose
    lockstep batch executor
    (:class:`~repro.orchestrate.batch.BatchExecutor`) derives each
    (config, stage) point's seed lanes from pack leaders: *workers* > 1
    shards the points across a process pool (*executor*, anything with
    the ``map(points)`` contract, overrides the choice), *batch_lanes*
    caps the pack width (*batch_verify* replays every derived lane on
    the scalar verify kernel), *store* (a :class:`~repro.orchestrate.store.ResultStore` or
    a path) reuses runs already simulated — by an overlapping sweep or
    by a killed run of this one — and *progress* enables the live status
    line.  Result ordering is canonical (config-major, then stage, then
    seed) regardless of executor.  The engine returns a
    :class:`~repro.orchestrate.engine.CampaignResults`, which builds a
    batch-derived lane's result only when it is indexed.

    A live object in *harness_kwargs* (a ``sim_tracer``) rides into
    every harness the in-process executor builds, so a traced campaign
    does the same work as an untraced one; the store and the process
    pool need plain data and reject it
    (:class:`~repro.orchestrate.serialize.SpecSerializationError`).  A
    config whose budget policy the serializer does not know (a custom
    :class:`AdaptiveBudgetPolicy` subclass) has no spec and raises the
    same error; :func:`run_injection` runs it.
    """
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
    a valid signal, effectively modelling a total stall".  The stall is
    an :attr:`~InjectionStage.AW_READY_MISSING` campaign point of
    single-beat writes whose onset is swept across prescaler phase
    *offsets* (the seeds); the worst detection latency (cycles from
    ``aw_valid`` assertion to the TMU interrupt, ``latency_from_start``)
    is returned.  Raises :class:`RuntimeError` when a run does not
    detect within *timeout* cycles.  Fig. 8 reads no recovery, so each
    run skips it: ``recovery_timeout=0`` leaves the drain its floor
    (:func:`drain_timeout`).
    """
    if offsets is None:
        offsets = range(min(config.prescale_step, 8))
    offsets = list(offsets)
    results = run_campaign(
        [config],
        [InjectionStage.AW_READY_MISSING],
        beats=1,
        seeds=offsets,
        detect_timeout=timeout,
        recovery_timeout=0,
    )
    for offset, result in zip(offsets, results):
        if not result.detected:
            raise RuntimeError(
                f"stall not detected within {timeout} cycles at offset {offset}"
            )
    return max(result.latency_from_start for result in results)
