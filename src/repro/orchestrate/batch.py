"""Lockstep batch executor: N same-config lanes, one interpreter pass.

The third executor axis next to :class:`~repro.orchestrate.executor.
SerialExecutor` and :class:`~repro.orchestrate.executor.
WorkerPoolExecutor`.  Campaign runs that differ only in their seed are
pure *time shifts* of one another (seeds map to the IP harness's
``issue_delay`` / the system experiment's ``start_delay``), so instead
of simulating every lane, the executor:

1. groups pending runs by their *batch key* — everything but seed and
   index;
2. splits each group into congruence classes modulo the simulation's
   lockstep period (:func:`repro.sim.batch.lockstep_period`, the lcm of
   every component's declared
   :attr:`~repro.sim.component.Component.phase_period`), then into
   packs of at most ``lanes`` lanes;
3. runs one scalar *leader* per pack with a
   :class:`~repro.sim.batch.LeapTrace` probe attached;
4. checks the leader's inert-prefix evidence and derives every
   follower lane as its seed delta from the leader — the lane's result
   is ``leader.shifted(delta)``, built only when a caller asks for it —
   O(1) per lane instead of a full simulation;
5. *retires* any lane the evidence does not cover (seed inside the
   startup transient, detection horizon crossed, undeclared component,
   non-leaping kernel, forced divergence) to the scalar kernel, so
   coverage degrades gracefully instead of wrongly.

The full soundness argument lives in :mod:`repro.sim.batch`.  Under
the standard ``map(runs) -> (run indices, values)`` contract the
executor yields one item per pack, as soon as the pack finishes, whose
values are one :class:`Pack`.  The engine keeps the pack whole, and
the JSON export writes its rows from the leader's without
materializing them.  ``--batch-lanes 64`` is byte-identical to the
serial scalar executor by construction, and the differential test
battery (``tests/integration/test_batch_figures.py``) holds it to that.

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
import json
import operator
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from ..sim.batch import LeapTrace, lane_classes, lockstep_period
from ..sim.kernel import SchedulerDivergenceError
from .executor import HarnessCache, Item, execute_run, harness_key
from .spec import RunSpec

_index = operator.attrgetter("index")
_seed = operator.attrgetter("seed")


@dataclasses.dataclass(eq=False)
class Pack:
    """One lockstep pack's results, as one executor value.

    Covers the runs *indices* (canonical run indices, in pack order)
    and iterates their results in that order.  A lane that ran — the
    leader, a retired or promoted lane — has its result in *ran*.
    Every other lane is derived, verified or not: its result is
    ``leader.shifted(deltas[index])``, built by :meth:`lane` each time
    it is asked for.  *leader* is the executor's private copy of the
    pack leader's result, so a caller mutating the leader result it was
    handed cannot change a lane.
    """

    indices: Tuple[int, ...]
    ran: Dict[int, Any]
    leader: Any = None
    deltas: Dict[int, int] = dataclasses.field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[Any]:
        ran = self.ran
        for index in self.indices:
            yield ran[index] if index in ran else self.lane(index)

    def lane(self, index: int):
        """A new result object for derived lane *index*."""
        return self.leader.shifted(self.deltas[index])


#: The :class:`RunSpec` fields two runs must share, besides their
#: config, to share a pack: everything but the seed and the index.
_pack_fields = operator.attrgetter(
    "kind", "stage", "beats", "background", "detect_timeout",
    "recovery_timeout", "harness_kwargs", "size", "outstanding",
    "reorder_depth",
)


@dataclasses.dataclass
class BatchStats:
    """Per-campaign accounting of what the batch executor did."""

    packs: int = 0
    leaders: int = 0
    derived: int = 0
    retired: int = 0  # lanes that fell back to the scalar kernel
    promoted: int = 0  # followers promoted to leader (no inert evidence)

    @property
    def simulated(self) -> int:
        return self.leaders + self.retired


class BatchExecutor:
    """Executes runs by lockstep packs of same-config lanes.

    Parameters
    ----------
    lanes:
        Maximum pack width.  ``1`` degenerates to per-lane scalar
        execution (every pack is its own leader) — handy as the
        differential baseline.
    verify:
        Replay every derived lane on the scalar ``strategy="verify"``
        kernel and compare; divergence raises
        :class:`SchedulerDivergenceError` naming the lane.
    force_retire:
        Predicate over :class:`RunSpec`; matching lanes are retired to
        the scalar kernel unconditionally.  The differential tests use
        it to force mid-pack divergence; operationally it is a
        guard-rail escape hatch.
    derive_hook:
        Test-only seam: maps ``(run, derived_result)`` to the result
        the verify replay is compared against, letting the verify tests
        plant a corrupted derivation and watch it get caught.  The pack
        still records the lane as its seed delta; without *verify* the
        hook is never called.
    """

    def __init__(
        self,
        lanes: int,
        verify: bool = False,
        force_retire: Optional[Callable[[RunSpec], bool]] = None,
        derive_hook=None,
    ) -> None:
        if lanes <= 0:
            raise ValueError(f"lanes must be positive, got {lanes}")
        self.lanes = lanes
        self.verify = verify
        self.force_retire = force_retire
        self.derive_hook = derive_hook
        self.stats = BatchStats()
        self._reporter = None
        self._metrics = None
        self._period_cache: Dict[Tuple, Optional[int]] = {}

    # ------------------------------------------------------------------
    # Engine integration
    # ------------------------------------------------------------------
    def attach_progress(self, reporter) -> None:
        self._reporter = reporter

    def attach_metrics(self, metrics) -> None:
        """Publish :class:`BatchStats` into *metrics* as ``batch.*``
        counters when ``map`` completes (engine seam, like
        ``attach_progress``)."""
        self._metrics = metrics

    def map(self, runs: Sequence[RunSpec]) -> Iterator[Item]:
        """Yield one ``(run indices, Pack)`` item per pack of *runs* as
        soon as it finishes (per run where no lockstep period holds)."""
        # Stats before this call: a repeated map() on one executor
        # publishes only its own counts.
        before = dataclasses.asdict(self.stats)
        cache = HarnessCache()
        for group in self._group_runs(runs):
            period = self._period_for(group[0], cache)
            if period is None:
                # An unaudited component (phase_period undeclared): the
                # conservative answer is to batch nothing.
                for run in group:
                    yield (run.index,), [self._scalar(run, cache)]
                continue
            # Congruence classes modulo the period, each ascending by
            # seed, then packs of at most ``lanes`` lanes.
            for members in lane_classes(group, period, seed=_seed).values():
                for start in range(0, len(members), self.lanes):
                    pack = members[start : start + self.lanes]
                    values = self._execute_pack(pack, cache)
                    self._report_status()
                    yield values.indices, values
        self._report_status()
        if self._metrics is not None:
            for name, value in dataclasses.asdict(self.stats).items():
                if value != before[name]:
                    self._metrics[f"batch.{name}"] += value - before[name]

    # ------------------------------------------------------------------
    # Grouping and pack planning
    # ------------------------------------------------------------------
    @staticmethod
    def _batch_key(run: RunSpec) -> Tuple:
        """Everything that must match for two runs to share a pack —
        i.e. the whole spec except the seed (and the run's index)."""
        return (json.dumps(run.config, sort_keys=True),) + _pack_fields(run)

    def _group_runs(self, runs: Sequence[RunSpec]) -> List[List[RunSpec]]:
        groups: Dict[Tuple, List[RunSpec]] = {}
        # A campaign lists the seeds of one (config, stage) point next
        # to each other, sharing one config dict: key each such stretch
        # once.  The config is compared by identity, since equal dicts
        # may serialize apart (``1 == True``).
        config = fields = members = None
        for run in runs:
            shared = _pack_fields(run)
            if run.config is not config or shared != fields:
                config, fields = run.config, shared
                members = groups.setdefault(self._batch_key(run), [])
            members.append(run)
        return list(groups.values())

    def _period_for(self, run: RunSpec, cache: HarnessCache) -> Optional[int]:
        """Lockstep period of the harness *run* simulates on.

        Probed from the real harness (taken from *cache*, so the pack
        leader then runs on it) so the period reflects the actual
        registered components' ``phase_period`` declarations, not a
        parallel bookkeeping table.  Cached per :func:`harness_key` —
        the stage does not change the component inventory.
        """
        key = harness_key(run)
        if key not in self._period_cache:
            self._period_cache[key] = lockstep_period(
                cache.get(run).sim.components
            )
        return self._period_cache[key]

    # ------------------------------------------------------------------
    # Pack execution
    # ------------------------------------------------------------------
    @staticmethod
    def _onset(run: RunSpec) -> int:
        """First stimulus-dependent cycle of *run*.

        System runs idle the whole SoC for ``start_delay`` cycles
        before the frame is even queued, so the onset is the seed
        itself.  IP runs submit at construction with the seed as the
        manager's issue-delay countdown, whose expiry wake (the update
        that raises AW valid next settle) lands one cycle *before* the
        handshake becomes visible — the onset is ``seed - 1``.  Either
        way every event from the onset onward translates rigidly with
        the seed, which is what :meth:`LeapTrace.inert_before` certifies
        against.
        """
        return run.seed if run.kind == "system" else run.seed - 1

    def _execute_pack(self, pack: List[RunSpec], cache: HarnessCache) -> Pack:
        self.stats.packs += 1
        # A lane whose onset is at (or before) cycle 1 can never show an
        # inert pre-onset *gap* — the kernel always steps cycle 0 — so
        # it runs scalar unconditionally, as do lanes the caller
        # forcibly retires.  The pack ascends by seed, so the early
        # lanes lead it.
        early = bisect.bisect_left(pack, 2, key=self._onset)
        scalar, queue = pack[:early], pack[early:]
        if self.force_retire is not None:
            scalar += [run for run in queue if self.force_retire(run)]
            queue = [run for run in queue if not self.force_retire(run)]
        ran: Dict[int, Any] = {
            run.index: self._scalar(run, cache) for run in scalar
        }
        values = Pack(tuple(map(_index, pack)), ran)
        while queue:
            leader = queue.pop(0)
            onset = self._onset(leader)
            trace = LeapTrace(onset=onset)
            ran[leader.index] = leader_result = execute_run(
                leader, trace=trace, cache=cache
            )
            self.stats.leaders += 1
            if not queue:
                break
            if not trace.inert_before(onset):
                # No evidence from this lane (non-leaping kernel, or
                # the transient reaches its onset): its own result
                # stands, and the next lane — whose later onset leaves
                # more room for the transient — is promoted to leader.
                self.stats.promoted += 1
                continue
            derivable = self._derivable_lanes(leader, leader_result, queue)
            derived = list(itertools.compress(queue, derivable))
            for run, ok in zip(queue, derivable):
                if not ok:
                    ran[run.index] = self._scalar(run, cache)
            # A derived lane stays a seed delta until a caller asks for
            # its result.
            values.leader = copy.copy(leader_result)
            values.deltas = {
                run.index: run.seed - leader.seed for run in derived
            }
            if self.verify:
                for run in derived:
                    result = values.lane(run.index)
                    if self.derive_hook is not None:
                        result = self.derive_hook(run, result)
                    self._verify_lane(run, leader, result)
            self.stats.derived += len(derived)
            if derived and hasattr(self._reporter, "runs_derived"):
                self._reporter.runs_derived(len(derived))
            break
        return values

    def _derivable_lanes(
        self,
        leader: RunSpec,
        leader_result,
        followers: Sequence[RunSpec],
    ) -> List[bool]:
        """Horizon containment, one flag per follower lane of the pack.

        IP runs bound detection by an absolute horizon — ``run_until``
        counts ``detect_timeout`` from cycle 0 — so a lane whose
        shifted detection stamp would cross it (or whose leader never
        detected, leaving the censoring point unshiftable) must retire.
        System runs open their window after ``start_delay``; every lane
        shifts cleanly.
        """
        if leader.kind != "ip":
            return [True] * len(followers)
        detect = leader_result.detect_cycle
        if detect is None:
            return [False] * len(followers)
        return [
            detect + (run.seed - leader.seed) <= leader.detect_timeout
            for run in followers
        ]

    # ------------------------------------------------------------------
    # Scalar fallback and verify replay
    # ------------------------------------------------------------------
    def _scalar(self, run: RunSpec, cache: HarnessCache):
        self.stats.retired += 1
        return execute_run(run, cache=cache)

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

    # ------------------------------------------------------------------
    def _report_status(self) -> None:
        if self._reporter is not None and hasattr(self._reporter, "set_status"):
            stats = self.stats
            self._reporter.set_status(
                f"batch: {stats.packs} pack(s) | {stats.leaders} leader(s) | "
                f"{stats.derived} derived | {stats.retired} retired | "
                f"{stats.promoted} promoted"
            )
