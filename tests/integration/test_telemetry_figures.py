"""Telemetry is observation, never perturbation.

The acceptance bar for the instrumentation layer: the Fig. 9 and
Fig. 11 campaign JSON must be byte-identical whether a kernel tracer
rides in the harness or a counter tallies the orchestration —
including the ``scheduler`` block, because tracing must not change
which cycles step, leap, or skip.
"""

from collections import Counter

import pytest

from repro.analysis.export import campaign_dict, to_json
from repro.faults.campaign import run_campaign
from repro.orchestrate import run_campaign_spec
from repro.orchestrate.serialize import SpecSerializationError
from repro.orchestrate.spec import CampaignSpec
from repro.telemetry import KernelTracer, Tracer
from repro.tmu.config import Variant

from tests.integration.test_update_skip_figures import (
    FIG9_STAGES,
    FIG11_STAGES,
    small_config,
)


def fig9_full_json(harness_kwargs=None):
    results = run_campaign(
        [small_config(Variant.FULL), small_config(Variant.TINY)],
        FIG9_STAGES,
        beats=4,
        seeds=(0, 3),
        harness_kwargs=harness_kwargs,
    )
    return to_json(campaign_dict(results))


def fig11_full_json(harness_kwargs=None, metrics=None):
    spec = CampaignSpec.system(
        (Variant.FULL, Variant.TINY),
        FIG11_STAGES,
        beats=16,
        harness_kwargs=harness_kwargs,
    )
    return to_json(campaign_dict(run_campaign_spec(spec, metrics=metrics)))


def test_fig9_identical_with_kernel_tracer():
    baseline = fig9_full_json()
    assert fig9_full_json({"sim_tracer": Tracer()}) == baseline
    assert fig9_full_json({"sim_tracer": KernelTracer()}) == baseline


def test_spec_campaigns_reject_live_tracers():
    # A spec must stay JSON-serializable (it names cache shards and
    # crosses the wire to workers), so a live tracer cannot ride in
    # one — tracing spec-driven campaigns goes through the serial
    # run_campaign fallback instead, as `repro inject --trace` does.
    with pytest.raises(SpecSerializationError):
        fig11_full_json({"sim_tracer": KernelTracer()})


def test_fig11_identical_with_metrics_registry():
    baseline = fig11_full_json()
    metrics = Counter()
    assert fig11_full_json(metrics=metrics) == baseline
    # …and the counter actually recorded the campaign it watched.
    tallies = dict(metrics)
    assert tallies["campaign.runs"] == tallies["campaign.runs_executed"]
    assert tallies["campaign.runs"] > 0


def test_tracer_saw_the_campaign_it_rode():
    tracer = KernelTracer()
    fig9_full_json({"sim_tracer": tracer})
    assert tracer.steps > 0
    assert tracer.leaps > 0  # stall scenarios fast-forward
    assert tracer.counters()  # per-component tallies accumulated
