"""The dark-corner sweep axes (size / outstanding / reorder_depth)
threaded through the orchestration engine.

The guarantees mirror the engine's headline ones: the axes are part of
every run's identity (param hash, spec hash; a pack never spans two
points), and a
campaign swept over them returns byte-identical measurements whatever
the executor — serial, process pool, lockstep batch — and whatever the
kernel strategy (``dirty``/``verify``).  Scheduler diagnostics
(``sim_leaps``/``sim_cycles_leaped``) are ``compare=False`` fields and
are excluded from the byte-identity claim, as everywhere else.
"""

import json
from collections import Counter

from tests.conftest import fast_budgets

from repro.faults.types import InjectionStage
from repro.orchestrate import (
    CampaignSpec,
    ResultStore,
    SerialExecutor,
    run_campaign_spec,
)
from repro.orchestrate.batch import BatchExecutor
from repro.orchestrate.serialize import result_to_dict
from repro.tmu.config import full_config

STAGES = (InjectionStage.AW_READY_MISSING, InjectionStage.DATA_TRANSFER_STALL)

AXES = dict(size=1, outstanding=3, reorder_depth=2)


def axes_spec(seeds=(0, 1), harness_kwargs=None, **overrides):
    params = dict(AXES, **overrides)
    return CampaignSpec.ip(
        [full_config(budgets=fast_budgets())],
        STAGES,
        beats=4,
        seeds=seeds,
        harness_kwargs=harness_kwargs,
        **params,
    )


def measurement_json(results):
    """Canonical JSON of the results minus scheduler diagnostics."""
    payload = []
    for result in results:
        data = result_to_dict(result)
        payload.append(
            {k: v for k, v in data.items() if not k.startswith("sim_")}
        )
    return json.dumps(payload, sort_keys=True)


# ----------------------------------------------------------------------
# Identity: the axes distinguish runs everywhere they must
# ----------------------------------------------------------------------
def test_axes_are_part_of_run_identity():
    base = axes_spec().runs()[0]
    for field in ("size", "outstanding", "reorder_depth"):
        varied = axes_spec(**{field: getattr(base, field) + 1}).runs()[0]
        assert varied.param_key() != base.param_key(), field
    # No pack spans two points, not even two points whose configs are
    # equal: each (config, stage) is its own batch unit.
    config = full_config(budgets=fast_budgets())
    spec = CampaignSpec.ip(
        [config, config], STAGES, beats=4, seeds=range(8), **AXES
    )
    executor = BatchExecutor()
    packs = [indices for indices, _ in executor.map(spec.points())]
    assert sorted(i for indices in packs for i in indices) == list(range(32))
    assert all(len({i // 8 for i in indices}) == 1 for indices in packs)
    assert executor.stats.derived > 0


def test_axes_change_the_spec_hash():
    hashes = {
        axes_spec().spec_hash(),
        axes_spec(size=0).spec_hash(),
        axes_spec(outstanding=1).spec_hash(),
        axes_spec(reorder_depth=0).spec_hash(),
    }
    assert len(hashes) == 4


def test_axes_survive_the_canonical_dict():
    canonical = axes_spec().canonical_dict()
    assert canonical["size"] == 1
    assert canonical["outstanding"] == 3
    assert canonical["reorder_depth"] == 2


# ----------------------------------------------------------------------
# Byte-identity across executors and kernel strategies
# ----------------------------------------------------------------------
def test_axes_campaign_identical_across_executors_and_strategies():
    serial = run_campaign_spec(axes_spec(), executor=SerialExecutor())
    reference = measurement_json(serial)
    assert all(result.detected and result.recovered for result in serial)
    assert measurement_json(run_campaign_spec(axes_spec())) == reference

    pooled = run_campaign_spec(axes_spec(), workers=2)
    assert measurement_json(pooled) == reference

    batched = run_campaign_spec(axes_spec(), batch_lanes=4)
    assert measurement_json(batched) == reference

    verified = run_campaign_spec(
        axes_spec(harness_kwargs={"sim_strategy": "verify"})
    )
    assert measurement_json(verified) == reference
    # Dataclass equality (which already excludes the diagnostics) agrees.
    assert verified == serial


def test_batch_verify_holds_on_dark_corner_lanes():
    """Every derived lane of an axes sweep replays clean on the scalar
    verify kernel — the batch executor's own divergence check."""
    results = run_campaign_spec(
        axes_spec(seeds=(0, 1, 2)), batch_lanes=4, batch_verify=True
    )
    assert measurement_json(results) == measurement_json(
        run_campaign_spec(axes_spec(seeds=(0, 1, 2)), executor=SerialExecutor())
    )


# ----------------------------------------------------------------------
# Result store: the axes partition the cache, frontier math holds
# ----------------------------------------------------------------------
def test_store_never_conflates_axis_points(tmp_path):
    store = ResultStore(tmp_path)
    metrics = Counter()
    run_campaign_spec(axes_spec(), store=store, metrics=metrics)
    counters = dict(metrics)
    assert counters["store.frontier_runs"] == 4
    assert counters["store.reused_runs"] == 0

    # A different reorder depth is a different experiment: full frontier.
    metrics = Counter()
    run_campaign_spec(
        axes_spec(reorder_depth=0), store=store, metrics=metrics
    )
    counters = dict(metrics)
    assert counters["store.frontier_runs"] == 4
    assert counters["store.reused_runs"] == 0


def test_store_reuses_axis_points_across_seed_supersets(tmp_path):
    store = ResultStore(tmp_path)
    first = run_campaign_spec(axes_spec(seeds=(0, 1)), store=store)

    metrics = Counter()
    superset = run_campaign_spec(
        axes_spec(seeds=(0, 1, 2)), store=store, metrics=metrics
    )
    counters = dict(metrics)
    assert counters["store.reused_runs"] == len(first)
    assert counters["store.frontier_runs"] == len(superset) - len(first)
    assert counters["campaign.runs_executed"] == len(superset) - len(first)
    # The reused slice is the earlier campaign, byte for byte.
    reused = [
        result
        for run, result in zip(axes_spec(seeds=(0, 1, 2)).runs(), superset)
        if run.seed in (0, 1)
    ]
    assert measurement_json(reused) == measurement_json(first)


# ----------------------------------------------------------------------
# System level: the Fig. 11-shaped dark-corner campaign
# ----------------------------------------------------------------------
def system_axes_spec(harness_kwargs=None, **axes):
    from repro.tmu.config import Variant

    return CampaignSpec.system(
        (Variant.FULL, Variant.TINY),
        (InjectionStage.DATA_TRANSFER_STALL, InjectionStage.B_READY_MISSING),
        beats=16,
        seeds=(0, 1),
        harness_kwargs=harness_kwargs,
        **dict(dict(size=1, outstanding=3, reorder_depth=2), **axes),
    )


def test_system_dark_corner_campaign_identical_everywhere():
    serial = run_campaign_spec(system_axes_spec(), executor=SerialExecutor())
    reference = measurement_json(serial)
    assert all(result.detected for result in serial)

    assert measurement_json(
        run_campaign_spec(system_axes_spec(), workers=2)
    ) == reference
    assert measurement_json(
        run_campaign_spec(system_axes_spec(), batch_lanes=4)
    ) == reference
    verified = run_campaign_spec(
        system_axes_spec(harness_kwargs={"sim_strategy": "verify"})
    )
    assert measurement_json(verified) == reference


def test_system_axes_reach_the_hardware():
    """The axes reconfigure the SoC and reshape its workload — they are
    not mere run labels: *reorder_depth* lands on both subordinates,
    *size* narrows the DMA descriptor's beats, and *outstanding* stacks
    extra in-flight DRAM reads that all complete."""
    from repro.soc.cheshire import CheshireSoC

    soc = CheshireSoC(reorder_depth=2)
    assert soc.dram.reorder_depth == 2
    assert soc.ethernet.reorder_depth == 2

    soc.send_ethernet_frame(beats=16, size=1)
    soc.submit_outstanding_reads(2, beats=4, size=1)
    assert soc.sim.run_until(lambda s: soc.all_idle, timeout=20_000)
    # Narrow frame: 16 handshakes of 2 bytes each reached the MAC.
    assert soc.ethernet.beats_received == 16
    assert soc.dram.reads_done == 2
