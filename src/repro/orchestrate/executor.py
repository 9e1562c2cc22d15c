"""Run execution: harnesses, single runs, and the process pool.

An executor's ``map(points)`` takes campaign *points* (the seeds of
one (config, stage): :class:`~repro.orchestrate.spec.Point`) and yields
``(run indices, values)`` items, in *any* order, one value per index.
The one in-process executor is
:class:`~repro.orchestrate.batch.BatchExecutor`;
:class:`WorkerPoolExecutor` ships shards of points
(:class:`~repro.orchestrate.spec.Shard`) to a process pool, each
worker running the same batch executor.  Every harness is built inside
the process that simulates it: only plain point data travels to
workers and only results travel back.  Within one ``map()`` call (or
one shard, in a worker) same-shape runs share a harness through a
one-slot :class:`HarnessCache`, reset between runs.

Worker count resolution order: explicit argument, then the
``REPRO_WORKERS`` environment variable, then 1 (in-process).  The
multiprocessing start method honours ``REPRO_MP_START`` when set
(``fork``/``spawn``/``forkserver``) and otherwise uses the platform
default.
"""

from __future__ import annotations

import functools
import json
import os
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from ..faults.types import InjectionStage
from ..tmu.config import Variant
from .serialize import config_from_dict
from .spec import Point, RunSpec, Shard, plan_shards

if TYPE_CHECKING:
    from .batch import BatchStats

#: Environment variable selecting the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable overriding the multiprocessing start method.
START_METHOD_ENV = "REPRO_MP_START"

#: One executor item: run indices and their results, index for index.
Item = Tuple[Tuple[int, ...], Sequence]


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS``, defaulting to serial."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count <= 0:
        raise ValueError(
            f"{WORKERS_ENV} must be a positive integer, got {raw!r}"
        )
    return count


def harness_key(run, config_text: Optional[str] = None) -> Tuple:
    """Everything that shapes the harness *run* simulates on.

    Runs with equal keys build identical harnesses: the stage, seed,
    timeouts and workload axes only change what is driven into one.
    *run* is a :class:`RunSpec` or a point's ``shared`` fields;
    *config_text* is ``run.config`` already serialized.
    """
    if config_text is None:
        config_text = json.dumps(run.config, sort_keys=True)
    return (run.kind, config_text, run.beats, run.harness_kwargs,
            run.reorder_depth)


def build_harness(run):
    """A freshly built harness (IP harness or SoC) for *run*."""
    # The runners are imported at call time: repro.faults.campaign and
    # repro.soc.experiment import the engine, which imports this module,
    # so module-level imports of them would cycle.
    if run.kind == "ip":
        from ..faults.campaign import build_ip_harness

        return build_ip_harness(
            config_from_dict(run.config),
            dict(run.harness_kwargs),
            run.reorder_depth,
        )
    from ..soc.experiment import build_system_soc

    return build_system_soc(
        Variant(run.config["variant"]),
        run.beats,
        run.reorder_depth,
        **dict(run.harness_kwargs),
    )


class HarnessCache:
    """One-slot harness cache, keyed by :func:`harness_key`.

    :meth:`get` returns the held harness, reset to its freshly built
    state, when the run's key matches the slot's; otherwise it builds a
    new harness into the slot.  ``reset()`` is exact — a run on a reset
    harness gives the same result, scheduler statistics included, as on
    a new build — so reuse never changes an outcome.  Each executor
    ``map()`` call (and each shard a pool worker runs) owns its cache,
    so no harness outlives the call that built it.
    """

    def __init__(self) -> None:
        self._key: Optional[Tuple] = None
        self._harness = None
        # The last run's config dict and its serialization: a campaign
        # shares one dict across many runs, so it is serialized once.
        self._config = None
        self._config_text = ""

    def get(self, run):
        if run.config is not self._config:
            self._config = run.config
            self._config_text = json.dumps(run.config, sort_keys=True)
        key = harness_key(run, self._config_text)
        if key == self._key:
            self._harness.reset()
        else:
            self._harness = build_harness(run)
            self._key = key
        return self._harness


def execute_run(run: RunSpec, trace=None, cache: Optional[HarnessCache] = None):
    """Simulate one injection described by *run*, in this process.

    The harness comes from *cache* when given (see
    :class:`HarnessCache`: reused across same-shape runs of one
    executor call, reset to its freshly built state) and is built fresh
    otherwise; either way the result depends on *run* alone, never on
    execution order.  *trace* (a simulator probe, e.g. a
    :class:`~repro.sim.batch.LeapTrace`) observes this run only: it is
    registered before the run starts and removed when it ends — the
    lockstep batch executor uses it to collect inert-prefix evidence
    from pack leaders.
    """
    harness = build_harness(run) if cache is None else cache.get(run)
    if trace is not None:
        harness.sim.add_probe(trace)
    try:
        stage = InjectionStage(run.stage)
        if run.kind == "ip":
            from ..faults.campaign import run_injection

            return run_injection(
                harness.tmu.config,
                stage,
                beats=run.beats,
                detect_timeout=run.detect_timeout,
                recovery_timeout=run.recovery_timeout,
                issue_delay=run.seed,
                size=run.size,
                outstanding=run.outstanding,
                harness=harness,
            )
        from ..soc.experiment import run_system_injection

        return run_system_injection(
            harness.tmu.config.variant,
            stage,
            beats=run.beats,
            background=run.background,
            detect_timeout=run.detect_timeout,
            recovery_timeout=run.recovery_timeout,
            start_delay=run.seed,
            size=run.size,
            outstanding=run.outstanding,
            soc=harness,
        )
    finally:
        if trace is not None:
            harness.sim.remove_probe(trace)


def execute_shard(shard: Shard, lanes: Optional[int] = None,
                  verify: bool = False) -> Tuple[List[Item], BatchStats]:
    """Pool worker entry point: run one shard's points through a
    :class:`~repro.orchestrate.batch.BatchExecutor`; return its items
    and its stats."""
    from .batch import BatchExecutor

    executor = BatchExecutor(lanes, verify=verify)
    return list(executor.map(shard.points)), executor.stats


def slice_points(points: Sequence[Point], count: int) -> List[Point]:
    """*points*, each cut into contiguous seed slices (still points) when
    there are fewer than *count*, so there are *count* if seeds allow."""
    cuts = -(-count // max(len(points), 1))
    sliced = []
    for point in points:
        step = -(-len(point) // cuts)
        sliced += [point[start : start + step]
                   for start in range(0, len(point), step)]
    return sliced


class WorkerPoolExecutor:
    """Fans the points out across a ``multiprocessing`` pool, in shards
    of *shard_size* points, each worker running the batch executor
    (*lanes*, *verify*) over its shard; :attr:`stats` adds up theirs.
    Fewer points than workers are first cut into seed slices
    (:func:`slice_points`) so that every worker gets work even when no
    lane derives.

    Completion order is arbitrary (``imap_unordered``); the engine
    re-assembles results by run index, so scheduling jitter never
    changes the aggregated output.
    """

    def __init__(self, workers: int, shard_size: int = 1,
                 lanes: Optional[int] = None, verify: bool = False) -> None:
        from .batch import BatchStats

        if workers <= 0:
            raise ValueError("workers must be positive")
        if shard_size <= 0:
            raise ValueError("shard_size must be positive")
        self.workers = workers
        self.shard_size = shard_size
        self.lanes = lanes
        self.verify = verify
        self.stats = BatchStats()

    def map(self, points: Sequence[Point]) -> Iterator[Item]:
        shards = plan_shards(
            slice_points(points, self.workers), shard_size=self.shard_size
        )
        if not shards:
            return
        # Imported here so in-process campaigns (and CLI start-up) never
        # load multiprocessing and the socket stack behind it.
        import multiprocessing

        method = os.environ.get(START_METHOD_ENV, "").strip() or None
        context = multiprocessing.get_context(method)
        processes = min(self.workers, len(shards))
        task = functools.partial(
            execute_shard, lanes=self.lanes, verify=self.verify
        )
        with context.Pool(processes=processes) as pool:
            for items, stats in pool.imap_unordered(task, shards, chunksize=1):
                self.stats.add(stats)
                yield from items


def make_executor(workers: int, batch_lanes=None, batch_verify=False,
                  shard_size: int = 1):
    """The :class:`~repro.orchestrate.batch.BatchExecutor` (packs of at
    most *batch_lanes* lanes, unbounded by default; *batch_verify*
    replays derived lanes), in-process or, for *workers* > 1, in each
    worker of a pool fed *shard_size* points per task."""
    if workers > 1:
        return WorkerPoolExecutor(
            workers, shard_size, lanes=batch_lanes, verify=batch_verify
        )
    from .batch import BatchExecutor

    return BatchExecutor(batch_lanes, verify=batch_verify)
