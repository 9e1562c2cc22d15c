"""Lockstep batch executor: N same-config lanes, one interpreter pass.

The third executor axis next to :class:`~repro.orchestrate.executor.
SerialExecutor` and :class:`~repro.orchestrate.executor.
WorkerPoolExecutor`.  Campaign runs that differ only in their seed are
pure *time shifts* of one another (seeds map to the IP harness's
``issue_delay`` / the system experiment's ``start_delay``), so instead
of simulating every lane, the executor:

1. groups pending runs by their *batch key* — everything but seed and
   index — across shard boundaries;
2. splits each group into congruence classes modulo the simulation's
   lockstep period (:func:`repro.sim.batch.lockstep_period`, the lcm of
   every component's declared
   :attr:`~repro.sim.component.Component.phase_period`), then into
   packs of at most ``lanes`` lanes;
3. runs one scalar *leader* per pack with a
   :class:`~repro.sim.batch.LeapTrace` probe attached;
4. checks the leader's inert-prefix evidence and derives every
   follower lane's result as ``leader.shifted(delta)`` — O(1) per lane
   instead of a full simulation;
5. *retires* any lane the evidence does not cover (seed inside the
   startup transient, detection horizon crossed, undeclared component,
   non-leaping kernel, forced divergence) to the scalar kernel, so
   coverage degrades gracefully instead of wrongly.

The full soundness argument lives in :mod:`repro.sim.batch`.  The
executor honours the standard ``map(shards) -> (shard_index, results)``
contract, so planning, caching, progress and aggregation in the engine
are untouched — ``--batch-lanes 64`` is byte-identical to the serial
scalar executor by construction, and the differential test battery
(``tests/integration/test_batch_figures.py``) holds it to that.

With ``verify=True`` the executor extends ``strategy="verify"`` to the
batch path: every *derived* lane is additionally replayed on the
scalar verify kernel (which itself re-executes leaped spans and
skipped updates cycle by cycle) and compared field by field; a
mismatch raises :class:`~repro.sim.kernel.SchedulerDivergenceError`
naming the offending lane.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..sim.batch import LeapTrace, lane_classes, lockstep_period
from ..sim.kernel import SchedulerDivergenceError
from .executor import HarnessCache, execute_run, harness_key
from .spec import RunSpec, Shard

ShardResult = Tuple[int, list]


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
    """Executes shards by lockstep packs of same-config lanes.

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
        actually recorded, letting the verify tests plant a corrupted
        derivation and watch it get caught.
    """

    workers = 1

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
        self._metrics_flushed: Dict[str, int] = {}
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

    def _flush_metrics(self) -> None:
        metrics = self._metrics
        if metrics is None:
            return
        # Delta against the last flush so repeated map() calls on one
        # executor never double-count.
        for field in dataclasses.fields(BatchStats):
            value = getattr(self.stats, field.name)
            delta = value - self._metrics_flushed.get(field.name, 0)
            if delta:
                metrics.counter(f"batch.{field.name}").inc(delta)
            self._metrics_flushed[field.name] = value

    def map(self, shards: Sequence[Shard]) -> Iterator[ShardResult]:
        runs = [run for shard in shards for run in shard.runs]
        results: Dict[int, object] = {}
        cache = HarnessCache()
        for group in self._group_runs(runs):
            self._execute_group(group, results, cache)
        self._report_status()
        self._flush_metrics()
        for shard in shards:
            yield shard.index, [results[run.index] for run in shard.runs]

    # ------------------------------------------------------------------
    # Grouping and pack planning
    # ------------------------------------------------------------------
    @staticmethod
    def _batch_key(run: RunSpec, config_text: Optional[str] = None) -> Tuple:
        """Everything that must match for two runs to share a pack —
        i.e. the whole spec except the seed (and the run's index).

        *config_text* is ``run.config`` already serialized, for callers
        keying many runs that share one config dict.
        """
        if config_text is None:
            config_text = json.dumps(run.config, sort_keys=True)
        return (
            run.kind,
            config_text,
            run.stage,
            run.beats,
            run.background,
            run.detect_timeout,
            run.recovery_timeout,
            run.harness_kwargs,
            run.size,
            run.outstanding,
            run.reorder_depth,
        )

    def _group_runs(self, runs: Sequence[RunSpec]) -> List[List[RunSpec]]:
        groups: Dict[Tuple, List[RunSpec]] = {}
        # A campaign shares a handful of config dicts across all its
        # runs: serialize each once, keyed by identity (*runs* keeps
        # every dict alive, so no id is reused during the loop).
        config_texts: Dict[int, str] = {}
        for run in runs:
            text = config_texts.get(id(run.config))
            if text is None:
                text = json.dumps(run.config, sort_keys=True)
                config_texts[id(run.config)] = text
            groups.setdefault(self._batch_key(run, text), []).append(run)
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
    def _execute_group(
        self,
        group: List[RunSpec],
        results: Dict[int, object],
        cache: HarnessCache,
    ) -> None:
        period = self._period_for(group[0], cache)
        if period is None:
            # An unaudited component (phase_period undeclared): the
            # conservative answer is to batch nothing.
            for run in group:
                results[run.index] = self._scalar(run, cache)
            return
        by_seed: Dict[int, List[RunSpec]] = {}
        for run in group:
            by_seed.setdefault(run.seed, []).append(run)
        for residue_seeds in lane_classes(sorted(by_seed), period).values():
            members = [run for seed in residue_seeds for run in by_seed[seed]]
            for start in range(0, len(members), self.lanes):
                self._execute_pack(
                    members[start : start + self.lanes], results, cache
                )

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

    def _execute_pack(
        self,
        pack: List[RunSpec],
        results: Dict[int, object],
        cache: HarnessCache,
    ) -> None:
        self.stats.packs += 1
        forced = self.force_retire or (lambda run: False)
        queue: List[RunSpec] = []
        for run in pack:
            # A lane whose onset is at (or before) cycle 1 can never
            # show an inert pre-onset *gap* — the kernel always steps
            # cycle 0 — so it runs scalar unconditionally, as do lanes
            # the caller forcibly retires.
            if self._onset(run) >= 2 and not forced(run):
                queue.append(run)
            else:
                results[run.index] = self._scalar(run, cache)
        while queue:
            leader = queue.pop(0)
            onset = self._onset(leader)
            trace = LeapTrace(onset=onset)
            results[leader.index] = leader_result = execute_run(
                leader, trace=trace, cache=cache
            )
            self.stats.leaders += 1
            if not queue:
                return
            if not trace.inert_before(onset):
                # No evidence from this lane (non-leaping kernel, or
                # the transient reaches its onset): its own result
                # stands, and the next lane — whose later onset leaves
                # more room for the transient — is promoted to leader.
                self.stats.promoted += 1
                continue
            derivable = self._derivable_lanes(leader, leader_result, queue)
            followers, queue = queue, []
            for run, ok in zip(followers, derivable):
                if not ok:
                    results[run.index] = self._scalar(run, cache)
                    continue
                derived = leader_result.shifted(run.seed - leader.seed)
                if self.derive_hook is not None:
                    derived = self.derive_hook(run, derived)
                if self.verify:
                    self._verify_lane(run, leader, derived)
                results[run.index] = derived
                self.stats.derived += 1
                if self._reporter is not None and hasattr(
                    self._reporter, "runs_derived"
                ):
                    self._reporter.runs_derived(1)
            return

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
