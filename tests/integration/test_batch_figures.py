"""Byte-identity of campaign outputs under lockstep batch execution.

The acceptance bar for the batch executor: the Fig. 9 (IP-level) and
Fig. 11 (system-level) campaigns must serialize to byte-identical JSON
whether every lane is simulated scalar or packs of lanes are derived
from one leader run — across pack widths, with the leaping kernel
disabled, with lanes forcibly retired mid-pack, and with batching
disabled entirely by an undeclared component.

Unlike the kernel-mode differentials (``test_update_skip_figures``),
these comparisons keep the ``scheduler`` aggregate: a derived lane's
leap statistics are computed, not simulated, and must still equal the
scalar kernel's exactly.  A batched campaign is also exported by the
streamed writer first, which reads every derived lane as its leader
and seed delta without materializing it.
"""

import dataclasses
import io

import pytest

from repro.analysis.export import campaign_dict, to_json, write_campaign_json
from repro.axi.manager import Manager
from repro.faults.types import InjectionStage
from repro.orchestrate import (
    BatchExecutor,
    CampaignSpec,
    Pack,
    SerialExecutor,
    run_campaign_spec,
)
from repro.tmu.budget import AdaptiveBudgetPolicy, PhaseBudgets, SpanBudgets
from repro.tmu.config import TmuConfig, Variant

FIG9_STAGES = (
    InjectionStage.AW_READY_MISSING,
    InjectionStage.WLAST_TO_BVALID,
    InjectionStage.R_VALID_MISSING,
)

FIG11_STAGES = (
    InjectionStage.W_READY_MISSING,
    InjectionStage.B_READY_MISSING,
)

#: Spans both residue classes of prescale_step=2 plus the degenerate
#: seed-0/seed-1 lanes that can never carry batch evidence.
SEEDS = tuple(range(8))


def small_config(variant: Variant) -> TmuConfig:
    budgets = AdaptiveBudgetPolicy(
        PhaseBudgets(aw_handshake=24), SpanBudgets(base=48, per_beat=1)
    )
    return TmuConfig(
        variant=variant,
        max_uniq_ids=4,
        txn_per_id=4,
        prescale_step=2,
        budgets=budgets,
        max_txn_cycles=96,
    )


def fig9_spec(**harness_kwargs) -> CampaignSpec:
    return CampaignSpec.ip(
        [small_config(Variant.FULL), small_config(Variant.TINY)],
        FIG9_STAGES,
        beats=4,
        seeds=SEEDS,
        harness_kwargs=harness_kwargs or None,
    )


def fig11_spec(**harness_kwargs) -> CampaignSpec:
    return CampaignSpec.system(
        (Variant.FULL, Variant.TINY),
        FIG11_STAGES,
        beats=16,
        seeds=SEEDS,
        harness_kwargs=harness_kwargs or None,
    )


def full_json(spec: CampaignSpec, executor=None) -> str:
    """The complete campaign JSON — scheduler block included — on
    *executor*, by default the scalar width-1 reference."""
    if executor is None:
        executor = SerialExecutor()
    return to_json(campaign_dict(run_campaign_spec(spec, executor=executor)))


def streamed_json(results) -> str:
    buffer = io.StringIO()
    write_campaign_json(results, buffer)
    return buffer.getvalue()


def batch_jsons(spec: CampaignSpec, executor) -> tuple:
    """The batched campaign's JSON from the streamed writer, which reads
    unmaterialized lanes, then from ``campaign_dict``, which indexes
    (and so materializes) every lane."""
    results = run_campaign_spec(spec, executor=executor)
    streamed = streamed_json(results)
    return streamed, to_json(campaign_dict(results))


@pytest.fixture(scope="module")
def fig9_serial_json():
    return full_json(fig9_spec())


@pytest.fixture(scope="module")
def fig11_serial_json():
    return full_json(fig11_spec())


@pytest.mark.parametrize("lanes", [1, 8, 64])
def test_fig9_batch_byte_identical(lanes, fig9_serial_json):
    executor = BatchExecutor(lanes)
    streamed, materialized = batch_jsons(fig9_spec(), executor)
    assert materialized == fig9_serial_json
    assert streamed == fig9_serial_json
    if lanes == 1:
        # Width-1 packs are their own leaders: pure scalar degenerate.
        assert executor.stats.derived == 0
    else:
        assert executor.stats.derived > 0


def test_default_executor_byte_identical(fig9_serial_json, fig11_serial_json):
    # No executor named: unbounded lanes, which must still equal scalar.
    for spec, serial_json in ((fig9_spec(), fig9_serial_json),
                              (fig11_spec(), fig11_serial_json)):
        results = run_campaign_spec(spec)
        assert any(type(item) is Pack for item in results.lanes())
        assert streamed_json(results) == serial_json
        assert to_json(campaign_dict(results)) == serial_json


@pytest.mark.parametrize("lanes", [1, 8, 64])
def test_fig11_batch_byte_identical(lanes, fig11_serial_json):
    executor = BatchExecutor(lanes)
    streamed, materialized = batch_jsons(fig11_spec(), executor)
    assert materialized == fig11_serial_json
    assert streamed == fig11_serial_json
    if lanes > 1:
        assert executor.stats.derived > 0


def test_fig11_lane_of_a_leader_with_a_none_stamp(fig11_serial_json):
    # W_READY_MISSING never sees a first W beat: its leader's
    # w_first_cycle is None, which a lane's row must keep as null.
    results = run_campaign_spec(fig11_spec(), executor=BatchExecutor(8))
    assert any(
        type(item) is Pack and item.leader.w_first_cycle is None
        for item in results.lanes()
    )
    assert streamed_json(results) == fig11_serial_json


def test_fig9_batch_identical_without_time_leaping():
    # A non-leaping kernel steps every pre-onset cycle, so no leader can
    # produce inert-prefix evidence: the whole campaign must retire to
    # the scalar kernel — and still match it byte for byte.
    executor = BatchExecutor(8)
    serial_json = full_json(fig9_spec(sim_time_leaping=False))
    streamed, materialized = batch_jsons(
        fig9_spec(sim_time_leaping=False), executor
    )
    assert materialized == serial_json
    assert streamed == serial_json
    assert executor.stats.derived == 0
    assert executor.stats.retired > 0


def test_fig9_forced_mid_pack_retirement_byte_identical(fig9_serial_json):
    # Retire two interior lanes of every pack: the executor must splice
    # scalar reruns into the derived stream without disturbing either.
    executor = BatchExecutor(8, force_retire=lambda run: run.seed in (3, 5))
    streamed, materialized = batch_jsons(fig9_spec(), executor)
    assert materialized == fig9_serial_json
    assert streamed == fig9_serial_json
    assert executor.stats.derived > 0
    assert executor.stats.retired > 0


def test_fig11_forced_mid_pack_retirement_byte_identical(fig11_serial_json):
    executor = BatchExecutor(8, force_retire=lambda run: run.seed == 5)
    streamed, materialized = batch_jsons(fig11_spec(), executor)
    assert materialized == fig11_serial_json
    assert streamed == fig11_serial_json
    assert executor.stats.derived > 0


def test_undeclared_component_disables_batching(
    monkeypatch, fig9_serial_json
):
    # phase_period=None anywhere in the design means "unaudited": the
    # executor must not derive a single lane, and must still agree.
    monkeypatch.setattr(Manager, "phase_period", None)
    executor = BatchExecutor(8)
    assert full_json(fig9_spec(), executor) == fig9_serial_json
    assert executor.stats.derived == 0


def test_fig9_batch_verify_accepts_clean_campaign(fig9_serial_json):
    # strategy="verify" on the batch path: every derived lane replays on
    # the scalar verify kernel; a clean campaign must sail through.
    executor = BatchExecutor(8, verify=True)
    assert full_json(fig9_spec(), executor) == fig9_serial_json
    assert executor.stats.derived > 0


def test_fig9_batch_verify_keeps_derived_lanes_packed(fig9_serial_json):
    # The verify replay checks each derived lane's pack result; the lane
    # itself stays a seed delta in its pack, which the streamed writer
    # reads unmaterialized.
    executor = BatchExecutor(8, verify=True)
    results = run_campaign_spec(fig9_spec(), executor=executor)
    packed = sum(type(item) is Pack for item in results.lanes())
    assert packed == executor.stats.derived > 0
    assert streamed_json(results) == fig9_serial_json
    assert to_json(campaign_dict(results)) == fig9_serial_json


@pytest.mark.parametrize(
    "stage",
    [InjectionStage.DATA_TRANSFER_STALL, InjectionStage.R_MID_BURST_STALL],
)
def test_pre_onset_stamp_is_not_shifted(stage):
    # A single-beat mid-burst stall is armed at start, so every seed
    # records the injection at the same early cycle, before its onset:
    # no lane may take that stamp shifted from its leader.
    spec = CampaignSpec.ip(
        [small_config(Variant.FULL)], [stage], beats=1, seeds=range(6)
    )
    scalar = run_campaign_spec(spec, executor=SerialExecutor())
    assert len({result.inject_cycle for result in scalar}) == 1
    executor = BatchExecutor()
    assert streamed_json(run_campaign_spec(spec, executor=executor)) == (
        streamed_json(scalar)
    )
    assert executor.stats.derived == 0


def test_late_seeds_detect_and_shift_like_early_ones():
    # detect_timeout counts from the transaction's issue, so a seed
    # within one detection latency of the timeout, or past it, detects
    # as seed 0 does, and its lane derives as a plain time shift.
    config = TmuConfig(
        variant=Variant.FULL, max_uniq_ids=4, txn_per_id=4, prescale_step=1
    )
    spec = CampaignSpec.ip(
        [config], [InjectionStage.WLAST_TO_BVALID], seeds=[0, 9995, 12000]
    )
    scalar = run_campaign_spec(spec, executor=SerialExecutor())
    assert [result.detected and result.recovered for result in scalar] == [
        True, True, True
    ]
    assert len({result.latency_from_start for result in scalar}) == 1
    executor = BatchExecutor()
    batched = run_campaign_spec(spec, executor=executor)
    assert executor.stats.derived == 1
    assert streamed_json(batched) == streamed_json(scalar)
    assert [dataclasses.asdict(result) for result in batched] == [
        dataclasses.asdict(result) for result in scalar
    ]
