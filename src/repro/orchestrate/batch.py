"""Lockstep batch executor: a campaign point's seed lanes, one leader.

The one in-process executor (:class:`SerialExecutor` is its width-1
form; the :class:`~repro.orchestrate.executor.WorkerPoolExecutor` runs
it in each worker).  Campaign runs that differ only in their seed are
pure *time shifts* of one another (seeds map to the IP harness's
``issue_delay`` / the system experiment's ``start_delay``), so instead
of simulating every lane, the executor takes the campaign's *points*
(:class:`~repro.orchestrate.spec.Point`: the seeds of one (config,
stage) as integers; a run becomes a
:class:`~repro.orchestrate.spec.RunSpec` only to be simulated) and for
each point:

1. splits it into congruence classes modulo the simulation's lockstep
   period (:func:`repro.sim.batch.lockstep_period`, the lcm of every
   component's declared
   :attr:`~repro.sim.component.Component.phase_period`), then into
   packs of at most ``lanes`` lanes (unbounded by default);
2. runs one scalar *leader* per pack;
3. asks the leader's kernel whether it leaped the whole gap from its
   start-up transient to the stimulus onset
   (:meth:`~repro.sim.kernel.Simulator.inert_before`, read from the
   harness the run left in the executor's cache) and, if so, derives
   every follower lane as its seed delta from the leader — the lane's
   result is ``leader.shifted(delta)``, built only when a caller asks
   for it — O(1) per lane instead of a full simulation;
4. *retires* any lane that check does not cover (seed inside the
   startup transient, a leader stamp taken before its onset, undeclared
   component, non-leaping kernel, forced divergence) to the scalar
   kernel, so coverage degrades gracefully instead of wrongly.

The full soundness argument lives in :mod:`repro.sim.batch`.  Under
the ``map(points) -> (run indices, values)`` contract every run the
executor simulates is its own item, yielded the moment it finishes,
and a pack's derived lanes follow their leader as one item whose
value is one :class:`Pack`.  The engine keeps the pack whole, and the
JSON export writes its rows from the leader's without materializing
them.  Every pack width is byte-identical to width 1 (scalar execution
of every run) by construction, and the differential test battery
(``tests/integration/test_batch_figures.py``) holds it to that.

With ``verify=True`` the executor extends ``strategy="verify"`` to the
batch path: every *derived* lane is additionally replayed on the
scalar verify kernel (which itself re-executes leaped spans and
skipped updates cycle by cycle) and compared field by field; a
mismatch raises :class:`~repro.sim.kernel.SchedulerDivergenceError`
naming the offending lane.  A verified lane stays a seed delta in its
pack, as an unverified one does.
"""

from __future__ import annotations

import bisect
import copy
import dataclasses
import itertools
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from ..faults.types import InjectionStage
from ..sim.batch import lane_classes, lockstep_period
from ..sim.kernel import SchedulerDivergenceError
from .executor import HarnessCache, Item, execute_run, harness_key
from .spec import Point, RunSpec


@dataclasses.dataclass(eq=False)
class Pack:
    """The lanes one pack derived from its leader, as one executor value.

    Covers the runs *deltas* keys (canonical run indices, in pack
    order) and iterates their results in that order: lane ``index`` is
    ``leader.shifted(deltas[index])``, built by :meth:`lane` each time
    it is asked for.  *leader* is the executor's private copy of the
    pack leader's result, so a caller mutating the leader result it was
    handed cannot change a lane.
    """

    leader: Any
    deltas: Dict[int, int]

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self) -> Iterator[Any]:
        return map(self.lane, self.deltas)

    def lane(self, index: int):
        """A new result object for derived lane *index*."""
        return self.leader.shifted(self.deltas[index])


@dataclasses.dataclass
class BatchStats:
    """Per-campaign accounting of what the batch executor did."""

    packs: int = 0
    leaders: int = 0
    derived: int = 0
    retired: int = 0  # lanes that fell back to the scalar kernel
    promoted: int = 0  # followers promoted to leader (no inert prefix)

    @property
    def simulated(self) -> int:
        return self.leaders + self.retired

    def add(self, other: "BatchStats") -> None:
        """Add *other*'s counts to these (a pool worker's, say)."""
        for field in dataclasses.fields(self):
            name = field.name
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def status(self) -> str:
        """The counts as a progress-line segment."""
        return (
            f"batch: {self.packs} pack(s) | {self.leaders} leader(s) | "
            f"{self.derived} derived | {self.retired} retired | "
            f"{self.promoted} promoted"
        )


class BatchExecutor:
    """Executes campaign points by lockstep packs of seed lanes.

    Parameters
    ----------
    lanes:
        Maximum pack width; ``None`` (the default) packs a whole
        congruence class.  ``1`` degenerates to per-lane scalar
        execution (every pack is its own leader):
        :class:`SerialExecutor`, the differential baseline.
    verify:
        Replay every derived lane on the scalar ``strategy="verify"``
        kernel and compare; divergence raises
        :class:`SchedulerDivergenceError` naming the lane.
    force_retire:
        Predicate over :class:`RunSpec` (set, it builds every lane's);
        matching lanes are retired to the scalar kernel unconditionally.
        The differential tests use it to force mid-pack divergence;
        operationally it is a guard-rail escape hatch.
    derive_hook:
        Test-only seam: maps ``(run, derived_result)`` to the result
        the verify replay is compared against, letting the verify tests
        plant a corrupted derivation and watch it get caught.  The pack
        still records the lane as its seed delta; without *verify* the
        hook is never called.

    :attr:`stats` accumulates over every ``map`` call; the engine
    publishes each campaign's share as ``batch.*`` counters.
    """

    def __init__(
        self,
        lanes: Optional[int] = None,
        verify: bool = False,
        force_retire: Optional[Callable[[RunSpec], bool]] = None,
        derive_hook=None,
    ) -> None:
        if lanes is not None and lanes <= 0:
            raise ValueError(f"lanes must be positive, got {lanes}")
        self.lanes = lanes
        self.verify = verify
        self.force_retire = force_retire
        self.derive_hook = derive_hook
        self.stats = BatchStats()
        self._period_cache: Dict[Tuple, Optional[int]] = {}

    def map(self, points: Iterable[Point]) -> Iterator[Item]:
        """Yield the items of *points* (each the runs of one (config,
        stage)) as they finish."""
        cache = HarnessCache()
        for family in _families(points):
            if len(family) == 1:
                point = family[0]
                for pack in self._packs(point, cache):
                    steps = self._pack_steps(point, pack, cache)
                    yield from _run_pack(steps, cache)
            else:
                yield from self._execute_family(family, cache)

    # ------------------------------------------------------------------
    # Families: the stages of one (config, seed) share a trunk
    # ------------------------------------------------------------------
    def _execute_family(
        self, family: List[Point], cache: HarnessCache
    ) -> Iterator[Item]:
        """Run *family* (points that differ only in stage) pack by pack,
        every pack of every point at once: the runs its packs ask for
        are grouped by seed, and each seed's runs share one
        :class:`~repro.faults.campaign.Trunk` — its unarmed prefix is
        simulated once, each stage branching off where its fault first
        matters.  Each item comes out as soon as its pack makes it."""
        from ..faults.campaign import Trunk

        waiting: List[Tuple[int, Any, RunSpec]] = []
        for position, point in enumerate(family):
            for pack in self._packs(point, cache):
                steps = self._pack_steps(point, pack, cache)
                yield from _advance(steps, None, position, waiting)
        while waiting:
            seed = waiting[0][2].seed
            group = [entry for entry in waiting if entry[2].seed == seed]
            waiting = [entry for entry in waiting if entry[2].seed != seed]
            trunk = cache.trunk = None
            if len(group) > 1:
                trunk = cache.trunk = Trunk(
                    InjectionStage(family[position].shared.stage)
                    for position, _, _ in group
                )
            for position, steps, run in group:
                result = execute_run(run, cache=cache)
                if self.verify and trunk is not None and trunk.branched:
                    self._verify_branch(run, result, trunk.branched)
                yield from _advance(steps, result, position, waiting)
            cache.trunk = None

    # ------------------------------------------------------------------
    # Pack planning
    # ------------------------------------------------------------------
    def _packs(self, point: Point, cache: HarnessCache) -> List[List[int]]:
        """The packs of one point, as offsets into it: its congruence
        classes modulo the lockstep period, each ascending by seed, cut
        at the width cap."""
        offsets = range(len(point))
        period = None
        if self.lanes != 1 and len(point) > 1:
            period = self._period_for(point, cache)
        if period is None:
            # Width 1, a lone run, or an unaudited component
            # (phase_period undeclared: batch nothing): one-lane packs.
            return [[offset] for offset in offsets]
        width = self.lanes or len(point)
        return [
            members[start : start + width]
            for members in lane_classes(
                offsets, period, seed=point.seeds.__getitem__
            ).values()
            for start in range(0, len(members), width)
        ]

    def _period_for(self, point: Point, cache: HarnessCache) -> Optional[int]:
        """Lockstep period of the harness *point*'s runs simulate on.

        Probed from the real harness (taken from *cache*, so the pack
        leader then runs on it) so the period reflects the actual
        registered components' ``phase_period`` declarations, not a
        parallel bookkeeping table.  Cached per :func:`harness_key` —
        the stage does not change the component inventory.
        """
        key = harness_key(point.shared)
        if key not in self._period_cache:
            self._period_cache[key] = lockstep_period(
                cache.get(point.shared).sim.components
            )
        return self._period_cache[key]

    # ------------------------------------------------------------------
    # Pack execution
    # ------------------------------------------------------------------
    @staticmethod
    def _onset(kind: str, seed: int) -> int:
        """First stimulus-dependent cycle of a run of *kind* and *seed*.

        System runs idle the whole SoC for ``start_delay`` cycles
        before the frame is even queued, so the onset is the seed
        itself.  IP runs submit at construction with the seed as the
        manager's issue-delay countdown, whose expiry wake (the update
        that raises AW valid next settle) lands one cycle *before* the
        handshake becomes visible — the onset is ``seed - 1``.  Either
        way every event from the onset onward translates rigidly with
        the seed, which is what
        :meth:`~repro.sim.kernel.Simulator.inert_before` certifies
        against.
        """
        return seed if kind == "system" else seed - 1

    def _pack_steps(self, point: Point, pack: List[int], cache: HarnessCache):
        """Run one pack (offsets into *point*) as a coroutine: it yields
        the :class:`RunSpec` of each run it needs simulated (and is sent
        that run's result, its harness left in *cache*), and each item
        as soon as it is ready — the lanes derived from a leader right
        after the leader.  The stats count the pack once its first run
        is back, and each run as it comes back."""
        stats = self.stats
        kind, seeds, indices = point.shared.kind, point.seeds, point.indices
        first = True
        # A lane whose onset is at (or before) cycle 1 can never show an
        # inert pre-onset *gap* — the kernel always steps cycle 0 — so
        # it runs scalar unconditionally, as do lanes the caller
        # forcibly retires.  Onsets move with seeds and the pack
        # ascends by seed: the early lanes are its head.
        head = bisect.bisect_left(
            pack, 2 - self._onset(kind, 0), key=seeds.__getitem__
        )
        retired, queue = pack[:head], pack[head:]
        if self.force_retire is not None:
            forced = [self.force_retire(point[offset]) for offset in queue]
            retired += itertools.compress(queue, forced)
            queue = [offset for offset, drop in zip(queue, forced) if not drop]
        for offset in retired:
            result = yield point[offset]
            stats.packs += first
            stats.retired += 1
            first = False
            yield (indices[offset],), [result]
        while queue:
            offset = queue.pop(0)
            leader = point[offset]
            result = yield leader
            stats.packs += first
            stats.leaders += 1
            first = False
            onset = self._onset(kind, leader.seed)
            if not queue or not cache.harness.sim.inert_before(onset):
                # Nothing to derive (the last lane), or no inert prefix
                # (non-leaping kernel, or the transient reaches the
                # onset): the result stands, and the next lane, whose
                # later onset leaves the transient more room, leads.
                stats.promoted += bool(queue)
                yield (leader.index,), [result]
                continue
            if not self._derivable(leader, result):
                # No follower can take a shift of this result: the
                # leader's stands and the rest run scalar.
                yield (leader.index,), [result]
                for offset in queue:
                    result = yield point[offset]
                    stats.retired += 1
                    yield (indices[offset],), [result]
                return
            lead = leader.seed
            deltas = {indices[offset]: seeds[offset] - lead for offset in queue}
            # The leader's copy is taken before its result is handed out.
            lanes = Pack(copy.copy(result), deltas)
            yield (leader.index,), [result]
            if self.verify:
                for offset, lane in zip(queue, lanes):
                    run = point[offset]
                    if self.derive_hook is not None:
                        lane = self.derive_hook(run, lane)
                    self._verify_lane(run, leader, lane)
            stats.derived += len(queue)
            yield tuple(deltas), lanes
            return

    def _derivable(self, leader: RunSpec, leader_result) -> bool:
        """Whether the followers of *leader* can take shifts of its result.

        A cycle stamp the leader took before its onset (a fault that
        manifests from cycle 1, say: a single-beat mid-burst stall is
        armed at start) is no time shift of the stimulus, so no follower
        can take its result by shifting: all retire.  Otherwise every
        lane shifts cleanly, detection window included: both kinds count
        ``detect_timeout`` from the stimulus (the IP transaction's issue,
        the system frame after ``start_delay``), so a follower's window
        is the leader's, shifted.
        """
        onset = self._onset(leader.kind, leader.seed)
        names = type(leader_result).STAMPS
        stamps = (getattr(leader_result, name) for name in names)
        return not any(stamp is not None and stamp < onset for stamp in stamps)

    # ------------------------------------------------------------------
    # Verify replays
    # ------------------------------------------------------------------
    def _verify_branch(self, run: RunSpec, result, branched) -> None:
        """Re-run a branched run from cycle 0 on a fresh harness and
        compare the whole result, scheduler statistics included."""
        replay = execute_run(run)
        if dataclasses.astuple(replay) != dataclasses.astuple(result):
            stage, cycle = branched
            raise SchedulerDivergenceError(
                f"trunk branch divergence at run {run.run_id} (stage "
                f"{stage.value}, branch cycle {cycle}): branched result "
                f"{result!r} != unforked replay {replay!r}"
            )

    def _verify_lane(self, run: RunSpec, leader: RunSpec, derived) -> None:
        """Replay a derived lane on the scalar verify kernel and compare.

        The verify strategy re-executes every would-be leaped span and
        skipped update cycle by cycle with differential checks, so the
        replay — on a freshly built harness, outside the map's cache —
        is the strongest available scalar reference.  Result
        equality excludes the scheduler diagnostics by construction
        (``compare=False`` fields), which is exactly right here: the
        verify kernel never leaps.
        """
        kwargs = dict(run.harness_kwargs)
        kwargs["sim_strategy"] = "verify"
        replay_spec = dataclasses.replace(
            run, harness_kwargs=tuple(sorted(kwargs.items()))
        )
        replay = execute_run(replay_spec)
        if replay != derived:
            raise SchedulerDivergenceError(
                f"lockstep batch divergence at lane {run.run_id} (seed "
                f"{run.seed}, pack leader seed {leader.seed}): derived "
                f"result {derived!r} != scalar verify replay {replay!r}"
            )


def _run_pack(steps, cache: HarnessCache) -> Iterator[Item]:
    """Drive a pack's coroutine *steps* alone: simulate each run it asks
    for, yield each item it makes."""
    result = None
    while True:
        try:
            step = steps.send(result)
        except StopIteration:
            return
        if isinstance(step, RunSpec):
            result = execute_run(step, cache=cache)
        else:
            result = None
            yield step


def _advance(steps, result, position: int, waiting: list) -> Iterator[Item]:
    """Send *result* into a pack's coroutine *steps* (``None`` starts
    it) and yield the items it makes until it asks for a run, which
    joins *waiting* with the pack's *position* in its family (or it
    finishes)."""
    try:
        step = steps.send(result)
        while not isinstance(step, RunSpec):
            yield step
            step = next(steps)
    except StopIteration:
        return
    waiting.append((position, steps, step))


def _family_key(point: Point) -> Tuple:
    """What a point's runs share with the other stages of a family:
    every field but the stage and the seeds, and for IP runs the
    direction, whose stimulus the stage chooses."""
    shared = dict(vars(point.shared))
    stage = InjectionStage(shared.pop("stage"))
    return (
        tuple(sorted(shared.items(), key=lambda item: item[0])),
        stage.direction if shared["kind"] == "ip" else None,
    )


def _families(points: Iterable[Point]) -> Iterator[List[Point]]:
    """*points* cut into runs of consecutive points with one family key;
    a point whose transfers are too short to pay for a fork
    (:meth:`~repro.faults.campaign.Trunk.pays`) is a family alone."""
    from ..faults.campaign import Trunk

    family: List[Point] = []
    key = None
    for point in points:
        point_key = _family_key(point) if Trunk.pays(point.shared) else None
        if family and (point_key is None or point_key != key):
            yield family
            family = []
        family.append(point)
        key = point_key
    if family:
        yield family


class SerialExecutor(BatchExecutor):
    """The width-1 :class:`BatchExecutor`: every run is its own one-lane
    pack, run scalar and yielded as its own item."""

    def __init__(self) -> None:
        super().__init__(1)
