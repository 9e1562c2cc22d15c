"""Campaign orchestration: plan, parallelize and store injection sweeps.

The paper's headline experiments are fault-injection *campaigns* — many
independent simulations swept over TMU configs, injection stages and
phase offsets.  This package turns any such sweep into a canonical run
list, executes its points (the seeds of one config and stage) as
lockstep packs, in-process or across a ``multiprocessing`` worker
pool, records every result in a run-keyed store, and aggregates results
back into the exact order the serial runners produce.

Layers (one module each):

* :mod:`~repro.orchestrate.spec` — :class:`CampaignSpec` → canonical
  :class:`RunSpec` list, plus the spec hash; the :class:`Shard` plan
  of points the process pool hands its workers.
* :mod:`~repro.orchestrate.executor` — harness construction and reuse,
  single-run execution, and the process-pool executor.
* :mod:`~repro.orchestrate.batch` — the one in-process executor
  (:class:`BatchExecutor`; :class:`SerialExecutor` is its width-1
  form): packs of a point's seed lanes derived from one scalar leader
  run when its kernel leaped up to their onsets (else they retire to
  the scalar kernel), each yielded as one :class:`Pack`.
* :mod:`~repro.orchestrate.store` — the run-granular result store
  (:class:`ResultStore`): hot LRU over WAL SQLite; the one persistence
  layer, serving both superset-sweep reuse and crash-safe resume.
* :mod:`~repro.orchestrate.progress` — live progress/ETA reporting.
* :mod:`~repro.orchestrate.engine` — :func:`run_campaign_spec`, the
  driver tying the above together, and :class:`CampaignResults`, the
  lazy result sequence it returns.

``repro.faults.campaign.run_campaign`` and
``repro.soc.experiment.run_fig11`` are thin wrappers over this engine;
``python -m repro campaign`` exposes it from the shell.
"""

from .._lazy import lazy_exports

__all__ = [
    "BatchExecutor",
    "BatchStats",
    "CampaignResults",
    "CampaignSpec",
    "Pack",
    "ProgressReporter",
    "ResultStore",
    "RunSpec",
    "STORE_FORMAT",
    "SerialExecutor",
    "Shard",
    "SpecSerializationError",
    "WorkerPoolExecutor",
    "config_from_dict",
    "config_to_dict",
    "default_workers",
    "execute_run",
    "execute_shard",
    "make_executor",
    "plan_shards",
    "result_from_dict",
    "result_to_dict",
    "run_campaign_spec",
]

_EXPORTS = {
    "batch": ("BatchExecutor", "BatchStats", "Pack", "SerialExecutor"),
    "engine": ("CampaignResults", "run_campaign_spec"),
    "executor": (
        "WorkerPoolExecutor",
        "default_workers",
        "execute_run",
        "execute_shard",
        "make_executor",
    ),
    "progress": ("ProgressReporter",),
    "serialize": (
        "SpecSerializationError",
        "config_from_dict",
        "config_to_dict",
        "result_from_dict",
        "result_to_dict",
    ),
    "spec": ("CampaignSpec", "RunSpec", "Shard", "plan_shards"),
    "store": ("STORE_FORMAT", "ResultStore"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
