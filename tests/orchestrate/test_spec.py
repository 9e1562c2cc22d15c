"""Unit tests for campaign specs, run enumeration, hashing and shards."""

import pytest

from repro.axi.types import AxiDir
from repro.faults.types import FIG9_WRITE_STAGES, InjectionStage
from repro.orchestrate import (
    CampaignSpec,
    SpecSerializationError,
    config_from_dict,
    config_to_dict,
    plan_shards,
    result_from_dict,
    result_to_dict,
    run_campaign_spec,
)
from repro.soc.experiment import FIG11_STAGES, SystemInjectionResult
from repro.faults.campaign import InjectionResult
from repro.tmu.budget import AdaptiveBudgetPolicy, FixedBudgetPolicy
from repro.tmu.config import Variant, full_config, tiny_config


def ip_spec(**kwargs):
    kwargs.setdefault("beats", 4)
    return CampaignSpec.ip(
        [full_config(), tiny_config()],
        [InjectionStage.AW_READY_MISSING, InjectionStage.WLAST_TO_BVALID],
        **kwargs,
    )


def spec_points(spec):
    """The spec's points: its runs in ``len(seeds)`` slices."""
    runs, width = spec.runs(), len(spec.seeds)
    return [runs[start : start + width] for start in range(0, len(runs), width)]


# ----------------------------------------------------------------------
# Config serialization
# ----------------------------------------------------------------------
def test_config_round_trip_adaptive():
    config = full_config(prescale_step=4, max_txn_cycles=128)
    assert config_to_dict(config_from_dict(config_to_dict(config))) == (
        config_to_dict(config)
    )


def test_config_round_trip_fixed_budgets():
    config = tiny_config(budgets=FixedBudgetPolicy(32, span_budget_cycles=48))
    restored = config_from_dict(config_to_dict(config))
    assert isinstance(restored.budgets, FixedBudgetPolicy)
    assert restored.budgets.span_budget(beats=200) == 48


def test_custom_budget_policy_rejected():
    class Custom(AdaptiveBudgetPolicy):
        pass

    with pytest.raises(SpecSerializationError):
        config_to_dict(full_config(budgets=Custom()))


def test_unserializable_harness_kwargs_rejected(tmp_path):
    # A live object builds a spec (it would run in-process); only where
    # the spec must become data, its hash, a store row or a pool task,
    # is it rejected, before any harness is built.
    spec = ip_spec(harness_kwargs={"callback": lambda: None})
    assert len(spec.runs()) == 4
    with pytest.raises(SpecSerializationError):
        spec.spec_hash()
    with pytest.raises(SpecSerializationError):
        run_campaign_spec(spec, store=tmp_path / "store")
    with pytest.raises(SpecSerializationError):
        run_campaign_spec(spec, workers=2)


# ----------------------------------------------------------------------
# Run enumeration and identity
# ----------------------------------------------------------------------
def test_runs_enumerate_config_major_stage_then_seed():
    spec = ip_spec(seeds=(0, 1))
    runs = spec.runs()
    assert len(runs) == 2 * 2 * 2
    assert [run.index for run in runs] == list(range(8))
    # config-major nesting: first half full, second half tiny.
    assert [run.config["variant"] for run in runs] == ["full"] * 4 + ["tiny"] * 4
    # then stage, then seed.
    assert [run.stage for run in runs[:4]] == [
        "aw_stage_error", "aw_stage_error",
        "wlast_bvalid_error", "wlast_bvalid_error",
    ]
    assert [run.seed for run in runs[:4]] == [0, 1, 0, 1]


def test_run_ids_unique_and_stable():
    ids_a = [run.run_id for run in ip_spec(seeds=(0, 1)).runs()]
    ids_b = [run.run_id for run in ip_spec(seeds=(0, 1)).runs()]
    assert ids_a == ids_b
    assert len(set(ids_a)) == len(ids_a)
    assert ids_a[0] == "ip-000000-full-aw_stage_error-s0"


def test_spec_hash_stable_and_parameter_sensitive():
    assert ip_spec().spec_hash() == ip_spec().spec_hash()
    assert ip_spec().spec_hash() != ip_spec(beats=8).spec_hash()
    assert ip_spec().spec_hash() != ip_spec(seeds=(0, 1)).spec_hash()
    system = CampaignSpec.system((Variant.FULL,), FIG11_STAGES)
    assert system.spec_hash() != ip_spec().spec_hash()


def test_spec_requires_nonempty_axes():
    with pytest.raises(ValueError):
        CampaignSpec.ip([], FIG9_WRITE_STAGES)
    with pytest.raises(ValueError):
        CampaignSpec.ip([full_config()], [])


def test_spec_rejects_out_of_range_axes():
    for kwargs in ({"beats": 0}, {"beats": 257}, {"reorder_depth": -1}):
        with pytest.raises(ValueError):
            ip_spec(**kwargs)
    with pytest.raises(ValueError, match="beats"):
        CampaignSpec.system([Variant.FULL], FIG11_STAGES, beats=0)
    with pytest.raises(ValueError, match="background"):
        CampaignSpec.system([Variant.FULL], FIG11_STAGES, background=-1)
    # The DMA splits long system transfers, so only IP runs stop at 256.
    assert ip_spec(beats=256).beats == 256
    assert CampaignSpec.system([Variant.FULL], FIG11_STAGES, beats=300).beats == 300


@pytest.mark.parametrize(
    "stage",
    [stage for stage in InjectionStage if stage.direction is AxiDir.READ],
    ids=lambda stage: stage.value,
)
def test_system_spec_rejects_read_stages(stage):
    # The system runner drives only the DMA's write frame: a read-path
    # stage can never manifest there, so it is refused up front.
    with pytest.raises(ValueError, match=f"never manifest: {stage.value}"):
        CampaignSpec.system([Variant.FULL, Variant.TINY], [stage])
    with pytest.raises(ValueError, match="read-path"):
        CampaignSpec.system([Variant.FULL], [*FIG11_STAGES, stage])
    # The same stage is a legal IP injection.
    assert CampaignSpec.ip([full_config()], [stage]).stages == [stage.value]


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
def test_plan_shards_partitions_in_order():
    spec = ip_spec(seeds=(0, 1, 2))
    points = spec_points(spec)  # 4 points of 3 runs
    assert all(
        len({(run.config["variant"], run.stage) for run in point}) == 1
        for point in points
    )
    shards = plan_shards(points, shard_size=3)
    assert [shard.index for shard in shards] == [0, 1]
    assert all(shard.count == 2 for shard in shards)
    assert [len(shard.points) for shard in shards] == [3, 1]
    flattened = [
        run for shard in shards for point in shard.points for run in point
    ]
    assert flattened == spec.runs()


def test_plan_shards_default_one_run_per_shard():
    # One point (the seeds of one config and stage) per shard.
    points = spec_points(ip_spec(seeds=(0, 1)))
    shards = plan_shards(points)
    assert len(shards) == len(points)
    assert [list(shard.points) for shard in shards] == [[p] for p in points]


@pytest.mark.parametrize("shard_size", [1, 3, 8, 9])
def test_planned_shards_are_ordinary_frozen_shards(shard_size):
    import dataclasses
    import pickle

    from repro.orchestrate.spec import Shard

    points = spec_points(ip_spec(seeds=tuple(range(8))))  # 4 x 8 runs
    shards = plan_shards(points, shard_size=shard_size)
    built = [
        Shard(index=shard.index, count=shard.count, points=tuple(shard.points))
        for shard in shards
    ]
    assert shards == built
    assert [vars(shard) for shard in shards] == [vars(b) for b in built]
    assert pickle.loads(pickle.dumps(shards)) == built
    assert all(type(shard.points) is tuple for shard in shards)
    with pytest.raises(dataclasses.FrozenInstanceError):
        shards[0].index = 5


def test_plan_shards_rejects_bad_size():
    with pytest.raises(ValueError):
        plan_shards(ip_spec().runs(), shard_size=0)


# ----------------------------------------------------------------------
# Result round trips
# ----------------------------------------------------------------------
def test_ip_result_round_trip():
    result = InjectionResult(
        stage=InjectionStage.WLAST_TO_BVALID,
        variant="full",
        txn_start_cycle=3,
        inject_cycle=10,
        detect_cycle=42,
        fault_kind="timeout",
        fault_phase="WLAST_BVLD",
        recovered=True,
        resets_taken=1,
    )
    assert result_from_dict(result_to_dict(result)) == result


def test_system_result_round_trip():
    result = SystemInjectionResult(
        stage=InjectionStage.DATA_TRANSFER_STALL,
        variant="tiny",
        txn_start_cycle=7,
        inject_cycle=130,
        w_first_cycle=12,
        detect_cycle=340,
        fault_phase=None,
        fault_kind="timeout",
        ethernet_resets=1,
        cpu_recoveries=1,
        recovered=True,
    )
    restored = result_from_dict(result_to_dict(result))
    assert restored == result
    assert restored.fig11_latency == result.fig11_latency
