"""Tests for the campaign runner and stall-latency measurement."""

import pytest

from tests.conftest import fast_budgets

from repro.area.model import detection_latency_bound
from repro.faults.campaign import (
    measure_stall_detection_latency,
    run_campaign,
    run_injection,
)
from repro.faults.types import FIG9_WRITE_STAGES, FaultSite, InjectionStage
from repro.tmu.budget import AdaptiveBudgetPolicy, PhaseBudgets, SpanBudgets
from repro.tmu.config import Variant, full_config, tiny_config


def test_stage_metadata_consistent():
    for stage in InjectionStage:
        assert stage.direction.value in ("write", "read")
        assert stage.site in (FaultSite.MANAGER, FaultSite.SUBORDINATE)
        assert stage.expected_fc_phase is not None
    assert len(FIG9_WRITE_STAGES) == 6


def test_result_latency_properties():
    result = run_injection(
        full_config(budgets=fast_budgets()), InjectionStage.AW_READY_MISSING
    )
    assert result.detected
    assert result.latency_from_injection is not None
    assert result.latency_from_start >= result.latency_from_injection


def test_campaign_cross_product():
    configs = [full_config(budgets=fast_budgets()), tiny_config(budgets=fast_budgets())]
    stages = [InjectionStage.AW_READY_MISSING, InjectionStage.WLAST_TO_BVALID]
    results = run_campaign(configs, stages, beats=4)
    assert len(results) == 4
    assert all(result.detected for result in results)
    assert {result.variant for result in results} == {"full", "tiny"}


def stall_config(variant, step, budget=64):
    """Configuration used for the Fig. 8 total-stall measurement."""
    budgets = AdaptiveBudgetPolicy(
        PhaseBudgets(aw_handshake=budget),
        SpanBudgets(base=budget, per_beat=0),
    )
    ctor = full_config if variant == Variant.FULL else tiny_config
    return ctor(budgets=budgets, prescale_step=step, max_txn_cycles=budget)


@pytest.mark.parametrize("variant", [Variant.FULL, Variant.TINY], ids=["fc", "tc"])
def test_stall_latency_without_prescaler_equals_budget(variant):
    latency = measure_stall_detection_latency(stall_config(variant, 1))
    assert latency == 64


@pytest.mark.parametrize("step", [2, 4, 8, 16])
def test_stall_latency_bounded_by_analytic_model(step):
    latency = measure_stall_detection_latency(stall_config(Variant.FULL, step))
    assert 64 <= latency <= detection_latency_bound(64, step)


def test_stall_latency_monotone_in_prescaler_step():
    latencies = [
        measure_stall_detection_latency(stall_config(Variant.TINY, step))
        for step in (1, 8, 32, 64)
    ]
    assert latencies == sorted(latencies)


def _ip(stage=InjectionStage.WLAST_TO_BVALID, **kwargs):
    return run_injection(full_config(), stage, **kwargs)


def _system(stage=InjectionStage.WLAST_TO_BVALID, **kwargs):
    from repro.soc.experiment import run_system_injection

    return run_system_injection(Variant.FULL, stage, beats=16, **kwargs)


@pytest.mark.parametrize(
    "run, kwargs, message",
    [
        (_ip, {"outstanding": 0}, "outstanding must be at least 1, got 0"),
        (_ip, {"issue_delay": -5}, "issue_delay must be at least 0, got -5"),
        (_ip, {"detect_timeout": 0}, "detect_timeout must be at least 1"),
        (_system, {"stage": InjectionStage.AR_READY_MISSING},
         "never manifest: ar_stage_error"),
        (_system, {"start_delay": -3}, "start_delay must be at least 0, got -3"),
        (_system, {"outstanding": 0}, "outstanding must be at least 1, got 0"),
        (_system, {"detect_timeout": 0}, "detect_timeout must be at least 1"),
    ],
)
def test_direct_injections_validate_their_axes(run, kwargs, message):
    # Called without a CampaignSpec, each of these used to run: outstanding
    # 0 as 1, a negative delay as "not detected" (IP) or as delay 0
    # (system), an empty detection window as "not detected", and a read
    # stage as a false TMU failure on a link that carries no reads.
    with pytest.raises(ValueError, match=message):
        run(**kwargs)
