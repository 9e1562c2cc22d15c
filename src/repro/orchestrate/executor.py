"""Run executors: in-process serial and multiprocessing worker pool.

Every executor's ``map(runs)`` takes the runs to simulate and yields
``(run indices, values)`` items, in *any* order, one value per index:
one item per run (serial), per pack (the lockstep batch executor, whose
values are a :class:`~repro.orchestrate.batch.Pack`) or per
:class:`~repro.orchestrate.spec.Shard` (the pool: shards exist only
where work crosses a process boundary).  Every harness is built inside
the process that simulates it: only plain
:class:`~repro.orchestrate.spec.RunSpec` data travels to workers and
only result dataclasses travel back.  Within one ``map()`` call (or one
shard, in a worker) same-shape runs share a harness through a one-slot
:class:`HarnessCache`, reset between runs.

Worker count resolution order: explicit argument, then the
``REPRO_WORKERS`` environment variable, then 1 (serial).  The
multiprocessing start method honours ``REPRO_MP_START`` when set
(``fork``/``spawn``/``forkserver``) and otherwise uses the platform
default.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, Optional, Sequence, Tuple

from .spec import RunSpec, Shard, plan_shards

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


def harness_key(run: RunSpec, config_text: Optional[str] = None) -> Tuple:
    """Everything that shapes the harness *run* simulates on.

    Runs with equal keys build identical harnesses: the stage, seed,
    timeouts and workload axes only change what is driven into one.
    *config_text* is ``run.config`` already serialized.
    """
    if config_text is None:
        config_text = json.dumps(run.config, sort_keys=True)
    return (run.kind, config_text, run.beats, run.harness_kwargs,
            run.reorder_depth)


def build_harness(run: RunSpec):
    """A freshly built harness (IP harness or SoC) for *run*."""
    # Imported lazily: this module is imported by repro.faults.campaign
    # (via the orchestrate package), so top-level imports of the
    # runners would cycle.
    if run.kind == "ip":
        from ..faults.campaign import build_ip_harness
        from .serialize import config_from_dict

        return build_ip_harness(
            config_from_dict(run.config),
            dict(run.harness_kwargs),
            run.reorder_depth,
        )
    from ..soc.experiment import build_system_soc
    from ..tmu.config import Variant

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

    def get(self, run: RunSpec):
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
    from ..faults.types import InjectionStage

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


def execute_shard(shard: Shard) -> Item:
    """Pool worker entry point: run every injection of one shard, in
    order, same-shape runs sharing one harness."""
    cache = HarnessCache()
    runs = shard.runs
    return (
        tuple(run.index for run in runs),
        [execute_run(run, cache=cache) for run in runs],
    )


class SerialExecutor:
    """Runs the runs one after another in the calling process."""

    def map(self, runs: Sequence[RunSpec]) -> Iterator[Item]:
        cache = HarnessCache()
        for run in runs:
            yield (run.index,), [execute_run(run, cache=cache)]


class WorkerPoolExecutor:
    """Fans the runs out across a ``multiprocessing`` pool, in shards
    of *shard_size* runs (larger shards amortize per-task pickling).

    Completion order is arbitrary (``imap_unordered``); the engine
    re-assembles results by run index, so scheduling jitter never
    changes the aggregated output.
    """

    def __init__(self, workers: int, shard_size: int = 1) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        if shard_size <= 0:
            raise ValueError("shard_size must be positive")
        self.workers = workers
        self.shard_size = shard_size

    def map(self, runs: Sequence[RunSpec]) -> Iterator[Item]:
        shards = plan_shards(runs, shard_size=self.shard_size)
        if not shards:
            return
        # Imported here so serial and batch campaigns (and CLI start-up)
        # never load multiprocessing and the socket stack behind it.
        import multiprocessing

        method = os.environ.get(START_METHOD_ENV, "").strip() or None
        context = multiprocessing.get_context(method)
        processes = min(self.workers, len(shards))
        with context.Pool(processes=processes) as pool:
            yield from pool.imap_unordered(execute_shard, shards, chunksize=1)


def make_executor(workers: int, batch_lanes=None, batch_verify=False,
                  shard_size: int = 1):
    """Pick the executor: serial, process pool, or batch.

    *batch_lanes* selects the lockstep batch executor
    (:class:`~repro.orchestrate.batch.BatchExecutor`) with packs of at
    most that many lanes (*batch_verify* adds a scalar verify replay of
    every derived lane).  Otherwise *workers* picks between the
    in-process executors (1 → serial; more → a pool, fed *shard_size*
    runs per task).  The batch axis is exclusive with the process pool:
    packs are planned over the whole pending run set in one process.
    """
    if batch_lanes is not None:
        if workers > 1:
            raise ValueError(
                f"batch_lanes requires workers=1, got workers={workers}"
            )
        from .batch import BatchExecutor

        return BatchExecutor(batch_lanes, verify=batch_verify)
    if workers <= 1:
        return SerialExecutor()
    return WorkerPoolExecutor(workers, shard_size=shard_size)
