"""The campaign orchestration engine.

Glues the layers of this package together: plan a
:class:`~repro.orchestrate.spec.CampaignSpec` as its canonical points,
satisfy what it can from the run-granular result store, hand the
*frontier* to an executor as points (the missing runs of each point),
and re-assemble the items it yields into the exact ordering the serial
runners produce.  Only a store key or a simulated lane is built as a
:class:`~repro.orchestrate.spec.RunSpec`.

The engine is deliberately deterministic end to end: run numbering is
canonical and aggregation is by run index — so ``workers=16`` and
``workers=1`` return *equal* result lists, and a store hit returns the
same objects a fresh simulation would.  ``strategy="verify"`` campaigns
(via ``harness_kwargs``) plus the determinism tests in
``tests/orchestrate/`` are the correctness harness for that claim.

Reuse and resume are one mechanism.  Every run is looked up in the
store (*store*) by its campaign-independent parameter hash; only the
misses are simulated, and each item is committed the moment it streams
in.  A sweep that supersets an earlier one (more seeds, more stages)
therefore simulates only its new runs, and a killed campaign re-run
against the same store simulates only the runs it never finished.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import itertools
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Optional, Tuple, Union

from .batch import Pack
from .executor import WorkerPoolExecutor, default_workers, make_executor
from .progress import ProgressReporter
from .spec import CampaignSpec, Point, RunSpec


class CampaignResults(collections.abc.Sequence):
    """A campaign's results in canonical run order (read-only).

    Holds one slot per run: its result object, or the
    :class:`~repro.orchestrate.batch.Pack` of a lane the batch executor
    derived and nobody has looked at yet — every lane of a pack shares
    the one pack object.  Indexing (or iterating) materializes a lane
    once, as the pack's ``leader.shifted(delta)``, and keeps it, so
    ``r[i] is r[i]``.  A slice is a view over the same slots and stays
    lazy.  Compares equal to a list (either way round) of equal
    results, and ``r + list`` / ``list + r`` give plain lists.
    :meth:`blocks` reads the slots as ``(leader, deltas)`` blocks, from
    which :func:`~repro.analysis.export.write_campaign_json` writes a
    pack's rows and counts, materializing nothing.
    """

    __slots__ = ("_items", "_span")

    def __init__(self, items: List[Any], span: Optional[range] = None) -> None:
        self._items = items
        self._span = range(len(items)) if span is None else span

    def __len__(self) -> int:
        return len(self._span)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return CampaignResults(self._items, self._span[key])
        index = self._span[key]
        item = self._items[index]
        if type(item) is Pack:
            item = self._items[index] = item.lane(index)
        return item

    def lanes(self):
        """The slots in order, each a result or the :class:`~repro.
        orchestrate.batch.Pack` of a not yet materialized lane;
        materializes nothing."""
        return map(self._items.__getitem__, self._span)

    def blocks(self) -> Iterator[Tuple[Any, Optional[List[int]]]]:
        """The slots in order as ``(leader, deltas)`` blocks, materializing
        nothing: a result is ``(result, None)``, and each stretch of
        adjacent slots holding one pack's lanes is ``(pack.leader,
        [delta, ...])``, lane ``i`` of it being ``leader.shifted(
        deltas[i])``."""
        span = self._span
        start = 0
        for kind, group in itertools.groupby(self.lanes(), type):
            if kind is not Pack:
                for result in group:
                    yield result, None
                    start += 1
                continue
            # Adjacent pack slots may hold different packs; a pack
            # compares equal only to itself.
            for pack, lanes in itertools.groupby(group):
                end = start + len(list(lanes))
                yield pack.leader, list(
                    map(pack.deltas.__getitem__, span[start:end])
                )
                start = end

    def __eq__(self, other):
        if not isinstance(other, (list, CampaignResults)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine is theirs or mine == theirs
            for mine, theirs in zip(self, other)
        )

    def __add__(self, other):
        if not isinstance(other, (list, CampaignResults)):
            return NotImplemented
        return list(self) + list(other)

    def __radd__(self, other):
        if not isinstance(other, list):
            return NotImplemented
        return other + list(self)

    def __repr__(self) -> str:
        return f"CampaignResults({list(self)!r})"


def run_campaign_spec(
    spec: CampaignSpec,
    workers: Optional[int] = None,
    shard_size: int = 1,
    progress: Optional[Union[bool, IO[str], ProgressReporter]] = None,
    executor=None,
    batch_lanes: Optional[int] = None,
    batch_verify: bool = False,
    metrics=None,
    store=None,
    collect: bool = True,
) -> Optional[CampaignResults]:
    """Execute *spec* and return results in canonical run order.

    The results come as a :class:`CampaignResults` sequence.  A lane the
    batch executor derived stays part of its pack until indexed, so a
    sweep exported with
    :func:`~repro.analysis.export.write_campaign_json` never builds its
    derived results at all.

    A spec holding a live object (a ``sim_tracer`` in its
    ``harness_kwargs``) runs in-process like any other; with a *store*
    or on a process pool it raises
    :class:`~repro.orchestrate.serialize.SpecSerializationError` before
    any run is looked up or simulated.

    Parameters
    ----------
    workers:
        Process count; ``None`` consults ``REPRO_WORKERS`` (default 1 =
        in-process).  Each worker builds its own harnesses, so no
        simulator state is shared.
    shard_size:
        Points per process-pool task (default 1: the best load
        balancing).  Every campaign validates it and counts
        ``campaign.shards`` by it, whichever executor runs.
    progress:
        ``True`` / a text stream for a live status line with ETA, or a
        pre-built :class:`ProgressReporter`; it advances per executor
        item (a run, or a pack's derived lanes), keeping derived lanes
        out of its rate.
    executor:
        A pre-built executor (anything with the ``map(points)``
        contract) overriding the *workers*-based choice.  Reuse and
        aggregation are identical whichever executor runs the frontier.
    batch_lanes:
        Caps the lockstep pack width (default: none); ``1`` runs every
        run scalar, with the same results as any width.  *batch_verify*
        additionally replays every derived lane on the verify kernel.
    metrics:
        A :class:`collections.Counter` that receives the campaign's
        event counts: ``campaign.*`` run/shard counts, per-tier
        ``store.*`` hit/miss/frontier counts, and what the executor's
        :class:`~repro.orchestrate.batch.BatchStats` grew by, as
        ``batch.*``.  Every count depends on the campaign alone, never
        on the clock or the worker count (but ``batch.*`` when a pool
        cuts points into seed slices).  Purely observational —
        results are identical with or without it.
    store:
        A :class:`~repro.orchestrate.store.ResultStore` (or a path to
        open one at).  Runs already present are fetched instead of
        simulated, and every executor item is written back, in one
        transaction, as it completes — so the same call is both
        incremental reuse across overlapping sweeps and crash-safe
        resume.  A pack's lanes are materialized before the write.
    collect:
        ``False`` skips collecting the results (the call returns
        ``None``); every result is still reachable through the store's
        streamed, index-ordered query
        (:meth:`~repro.orchestrate.store.ResultStore.iter_results`).
        Requires *store*.
    """
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    if workers is None:
        workers = default_workers()
    pooled = (
        workers > 1 if executor is None
        else isinstance(executor, WorkerPoolExecutor)
    )
    if store is not None or pooled:
        # A store row and a pool task are data: a spec holding a live
        # object (a tracer) can become neither, so it fails here,
        # before any run is looked up or simulated.
        spec.spec_hash()
    points = spec.points()
    total = len(points) * len(spec.seeds)
    store = _open_store(store, metrics)
    if not collect and store is None:
        raise ValueError("collect=False requires a result store")

    reporter: Optional[ProgressReporter] = None
    if isinstance(progress, ProgressReporter):
        reporter = progress
    elif progress:
        reporter = ProgressReporter(
            total, stream=None if progress is True else progress
        )

    # One slot per run, by its canonical index.
    items: List[Any] = [None] * total if collect else []

    # Stored runs are fetched; what remains of each point is the
    # frontier — the only work any executor will see.  Only a store
    # builds the runs here, for their keys, keeping the frontier's.
    frontier: List[Point] = points
    keyed: Dict[int, RunSpec] = {}
    if store is not None:
        frontier = []
        for point in points:
            missing = []
            for run in point:
                result = store.get(run)
                if result is None:
                    missing.append(run)
                elif collect:
                    items[run.index] = result
            if missing:
                keyed.update((run.index, run) for run in missing)
                indices, seeds = zip(*((run.index, run.seed) for run in missing))
                frontier.append(Point(point.shared, indices, seeds))
        pending = len(keyed)
        reused = total - pending
        if reporter and reused:
            reporter.shard_done(reused, cached=True)
        if metrics is not None:
            metrics["store.reused_runs"] += reused
            metrics["store.frontier_runs"] += pending

    if executor is None:
        executor = make_executor(
            workers, batch_lanes=batch_lanes, batch_verify=batch_verify,
            shard_size=shard_size,
        )
    # The executor's stats before this campaign: a reused executor
    # publishes only this campaign's counts.
    stats = getattr(executor, "stats", None)
    before = dataclasses.asdict(stats) if stats is not None else {}
    if metrics is not None:
        metrics["campaign.runs"] += total
        metrics["campaign.shards"] += -(-len(points) // shard_size)
        metrics["campaign.shards_executed"] += -(-len(frontier) // shard_size)
    for indices, values in executor.map(frontier):
        derived = len(indices) if type(values) is Pack else 0
        if store is not None:
            values = list(values)  # a pack's lanes become results here
            if len(indices) == 1:
                store.put(keyed[indices[0]], values[0])
            else:
                store.put_many([keyed[index] for index in indices], values)
        if collect:
            # A pack stays whole: each of its lanes' slots holds it.
            slots = itertools.repeat(values) if type(values) is Pack else values
            for index, value in zip(indices, slots):
                items[index] = value
        if metrics is not None:
            metrics["campaign.runs_executed"] += len(indices)
        if reporter:
            reporter.runs_derived(derived)
            if stats is not None:
                reporter.set_status(stats.status())
            reporter.shard_done(len(indices))
    if metrics is not None and stats is not None:
        for name, value in dataclasses.asdict(stats).items():
            if value != before[name]:
                metrics[f"batch.{name}"] += value - before[name]

    if reporter:
        reporter.finish()

    if not collect:
        return None
    return CampaignResults(items)


def _open_store(store, metrics):
    """Normalize the *store* argument: path -> opened ResultStore.

    A pre-built store gains the campaign's counter if it has none, so
    callers never have to pre-wire it to match the engine's.
    """
    if isinstance(store, (str, Path)):
        from .store import ResultStore

        return ResultStore.open(store, metrics=metrics)
    if store is not None and metrics is not None and store.metrics is None:
        store.metrics = metrics
    return store
