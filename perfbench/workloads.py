"""The benchmark's four campaign workloads.

Each workload drives the public entry points the way a user's campaign
does — build a :class:`~repro.orchestrate.CampaignSpec`, run it through
:func:`~repro.orchestrate.run_campaign_spec` on the serial (or lockstep
batch) executor, and stream the JSON export — and returns the steps it
ran so the caller can check every simulated outcome afterwards.

The benchmark seed only chooses each workload's set of phase-offset
seeds (the runners' ``issue_delay`` / ``start_delay``).  Phase seed 0 is
always in the set: its rows are the ones the paper's figures quote.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro.analysis.export import write_campaign_json
from repro.faults.types import FIG9_WRITE_STAGES, InjectionStage
from repro.orchestrate import (
    BatchExecutor,
    CampaignSpec,
    ResultStore,
    SerialExecutor,
    run_campaign_spec,
)
from repro.soc.experiment import FIG11_STAGES
from repro.tmu.config import TmuConfig, Variant

from layers import EXPORT, NullClock, TimedExecutor

VARIANTS = (Variant.FULL, Variant.TINY)

FIG9_READ_STAGES = (
    InjectionStage.AR_READY_MISSING,
    InjectionStage.R_VALID_MISSING,
    InjectionStage.R_MID_BURST_STALL,
    InjectionStage.R_ID_MISMATCH,
    InjectionStage.R_LAST_DROPPED,
    InjectionStage.R_READY_MISSING,
)

#: Paper Fig. 11: Full-Counter latency per write stage (its own
#: convention, ``fig11_latency``) and the Tiny-Counter's whole-budget
#: latency from transaction start.
FIG11_FC = (10, 20, 10, 250, 10, 20)
FIG11_TC = 320

#: Phase seeds per Fig. 11 point of ``fig11_batch``, and its lockstep
#: pack width: one pack per point, so each point simulates one leader
#: plus the phase-seed-0 lane (whose onset is too early to derive).
BATCH_LANES = 1024


@dataclasses.dataclass
class Step:
    """One campaign call of a workload and where its results are."""

    label: str
    spec: CampaignSpec
    #: The result list, or (for store-streamed steps) a callable that
    #: reads it back after the timed region.
    results: Union[list, Callable[[], list]]


class Context:
    """Per-repetition plumbing shared by the workloads."""

    def __init__(self, clock: NullClock, work_dir: Path) -> None:
        self.clock = clock
        self.work_dir = work_dir
        self.executors: List[TimedExecutor] = []
        self.exports: List[Path] = []
        self.stores: List[ResultStore] = []
        work_dir.mkdir(parents=True, exist_ok=True)

    def executor(self, batch_lanes: Optional[int] = None) -> TimedExecutor:
        inner = BatchExecutor(batch_lanes) if batch_lanes else SerialExecutor()
        executor = TimedExecutor(inner, self.clock)
        self.executors.append(executor)
        return executor

    def open_store(self) -> ResultStore:
        store = ResultStore.open(self.work_dir / "store")
        self.stores.append(store)
        return store

    def export(self, label: str, results, spec: CampaignSpec) -> None:
        path = self.work_dir / f"{label}.json"
        with self.clock.span(EXPORT), open(path, "w") as stream:
            write_campaign_json(results, stream, spec=spec)
        self.exports.append(path)

    def close(self) -> None:
        for store in self.stores:
            store.close()
        shutil.rmtree(self.work_dir, ignore_errors=True)


def phase_seeds(seed: int, count: int, high: int) -> List[int]:
    """Phase seed 0 plus ``count - 1`` distinct seeds drawn from [2, high).

    Seed 1 is left out on purpose: the batch executor retires lanes
    whose onset is below cycle 2, so every draw has the same number of
    scalar lanes and the same cost.
    """
    rng = random.Random(seed)
    return [0] + sorted(rng.sample(range(2, high), count - 1))


def _campaign(ctx: Context, label: str, spec: CampaignSpec,
              batch_lanes: Optional[int] = None) -> Step:
    results = run_campaign_spec(
        spec, executor=ctx.executor(batch_lanes), shard_size=1
    )
    ctx.export(label, results, spec)
    return Step(label, spec, results)


def system_busy(ctx: Context, seed: int) -> List[Step]:
    spec = CampaignSpec.system(
        VARIANTS,
        FIG11_STAGES,
        seeds=phase_seeds(seed, 4, 64),
        background=32,
        outstanding=6,
        reorder_depth=4,
    )
    return [_campaign(ctx, "sweep", spec)]


def ip_stall_sweep(ctx: Context, seed: int) -> List[Step]:
    configs = [
        TmuConfig(variant=variant, max_uniq_ids=4, txn_per_id=per_id,
                  prescale_step=step)
        for variant in VARIANTS
        for per_id in (1, 2, 4, 8, 16, 32)
        for step in (1, 4, 16)
    ]
    spec = CampaignSpec.ip(
        configs,
        list(FIG9_WRITE_STAGES) + list(FIG9_READ_STAGES),
        seeds=phase_seeds(seed, 2, 2048),
    )
    return [_campaign(ctx, "sweep", spec)]


def fig11_batch(ctx: Context, seed: int) -> List[Step]:
    spec = CampaignSpec.system(
        VARIANTS, FIG11_STAGES, seeds=phase_seeds(seed, BATCH_LANES, 1 << 20)
    )
    return [_campaign(ctx, "sweep", spec, batch_lanes=BATCH_LANES)]


def system_store_sweep(ctx: Context, seed: int) -> List[Step]:
    seeds = phase_seeds(seed, 8, 512)
    subset = CampaignSpec.system(VARIANTS, FIG11_STAGES[:3], seeds=seeds[:4])
    superset = CampaignSpec.system(VARIANTS, FIG11_STAGES, seeds=seeds)
    store = ctx.open_store()
    steps = []
    for label, spec in (("cold", subset), ("superset", superset),
                        ("rerun", superset)):
        run_campaign_spec(
            spec, executor=ctx.executor(), shard_size=1, store=store,
            collect=False,
        )
        runs = spec.runs()

        def stream(runs=runs):
            return store.iter_results(runs)

        ctx.export(label, stream, spec)
        steps.append(Step(label, spec, lambda stream=stream: list(stream())))
    return steps


WORKLOADS = {
    "system_busy": system_busy,
    "ip_stall_sweep": ip_stall_sweep,
    "fig11_batch": fig11_batch,
    "system_store_sweep": system_store_sweep,
}


# ----------------------------------------------------------------------
# Outcome checks
# ----------------------------------------------------------------------
def outcome(result) -> list:
    """The simulated outcome of one run, scheduler diagnostics left out."""
    resets = getattr(result, "resets_taken", None)
    if resets is None:
        resets = [result.ethernet_resets, result.cpu_recoveries]
    return [
        result.variant,
        result.stage.value,
        result.detect_cycle is not None,
        result.inject_cycle,
        result.detect_cycle,
        result.fault_kind,
        result.fault_phase,
        result.recovered,
        resets,
    ]


def breaks_invariants(result) -> bool:
    """Whether a run breaks what every seed must satisfy: the fault is
    detected, the system recovers, and the reset path actually ran."""
    if result.detect_cycle is None or not result.recovered:
        return True
    if hasattr(result, "ethernet_resets"):
        return result.ethernet_resets < 1 or result.cpu_recoveries < 1
    return result.resets_taken < 1


def breaks_paper(spec: CampaignSpec, run, result) -> bool:
    """Whether a phase-seed-0 row of a Fig. 11 sweep misses the paper."""
    if run.seed != 0 or spec.kind != "system":
        return False
    if tuple(spec.stages) != tuple(stage.value for stage in FIG11_STAGES):
        return False
    index = spec.stages.index(run.stage)
    if result.variant == Variant.FULL.value:
        return result.fig11_latency != FIG11_FC[index]
    return result.latency_from_start != FIG11_TC
