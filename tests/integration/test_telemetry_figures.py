"""Telemetry is observation, never perturbation.

The acceptance bar for the instrumentation layer: the Fig. 9 and
Fig. 11 campaign JSON must be byte-identical whether a kernel tracer
rides in the harness or a counter tallies the orchestration —
including the ``scheduler`` block, because tracing must not change
which cycles step, leap, or skip.
"""

import io
from collections import Counter

import pytest

import repro.orchestrate.batch as batch_module
import repro.orchestrate.executor as executor_module
from repro.analysis.export import campaign_dict, to_json, write_campaign_json
from repro.faults.campaign import run_campaign
from repro.faults.types import InjectionStage
from repro.orchestrate import (
    Pack,
    WorkerPoolExecutor,
    execute_run,
    run_campaign_spec,
)
from repro.orchestrate.serialize import SpecSerializationError
from repro.orchestrate.spec import CampaignSpec
from repro.telemetry import KernelTracer, Tracer
from repro.tmu.config import TmuConfig, Variant

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


def test_fig11_identical_with_kernel_tracer():
    assert fig11_full_json({"sim_tracer": KernelTracer()}) == fig11_full_json()


def ip_sweep(harness_kwargs=None):
    """Two write stages x 64 seeds on the default Full-Counter config:
    its counters, export text and results."""
    metrics = Counter()
    results = run_campaign(
        [TmuConfig(variant=Variant.FULL)],
        [InjectionStage.AW_READY_MISSING, InjectionStage.WLAST_TO_BVALID],
        seeds=range(64),
        harness_kwargs=harness_kwargs,
        metrics=metrics,
    )
    stream = io.StringIO()
    write_campaign_json(results, stream)
    return metrics, stream.getvalue(), results


def test_traced_campaign_does_the_untraced_work():
    # Tracing observes the campaign it rides: the traced sweep runs the
    # same packs and derives the same lanes as the untraced one.
    metrics, text, _ = ip_sweep()
    tracer = KernelTracer()
    traced_metrics, traced_text, results = ip_sweep({"sim_tracer": tracer})
    assert traced_metrics == metrics
    assert metrics["batch.derived"] == 120
    assert traced_text == text
    # The tracer stepped exactly the cycles of the runs that simulated.
    simulated = [item for item in results.lanes() if type(item) is not Pack]
    assert len(simulated) == 128 - 120
    assert tracer.steps == sum(r.sim_stepped_cycles for r in simulated)


def test_spec_campaigns_reject_live_tracers(tmp_path, monkeypatch):
    # A live tracer runs in-process, but a store row and a pool task
    # are data: the engine rejects the spec before any run simulates
    # (or the store is even opened).
    calls = []

    def counting_execute_run(*args, **kwargs):
        calls.append(args)
        return execute_run(*args, **kwargs)

    for module in (executor_module, batch_module):
        monkeypatch.setattr(module, "execute_run", counting_execute_run)
    spec = CampaignSpec.ip(
        [TmuConfig(variant=Variant.FULL)],
        [InjectionStage.AW_READY_MISSING],
        seeds=range(4),
        harness_kwargs={"sim_tracer": KernelTracer()},
    )
    for option in (
        {"store": tmp_path / "store"},
        {"workers": 2},
        {"executor": WorkerPoolExecutor(2)},
    ):
        with pytest.raises(SpecSerializationError):
            run_campaign_spec(spec, **option)
    assert calls == []
    assert not (tmp_path / "store").exists()


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
