"""Engine x store integration: frontier execution and byte-identity.

The acceptance bar for run-granular reuse: a sweep that supersets an
earlier one simulates *only* its frontier (asserted by counting actual
simulations), and the campaign JSON it exports — scheduler statistics
included — is byte-for-byte what an uninterrupted cold run produces.
"""

import io

import pytest

from tests.conftest import fast_budgets

from repro.analysis.export import campaign_dict, to_json, write_campaign_json
from repro.faults.campaign import run_campaign
from repro.faults.types import InjectionStage
from repro.orchestrate import CampaignSpec, ResultStore, run_campaign_spec
from repro.orchestrate import executor as executor_module
from repro.soc.experiment import FIG11_STAGES, run_fig11
from repro.telemetry import MetricsRegistry
from repro.tmu.config import Variant, full_config, tiny_config

FIG9_SUBSET = (
    InjectionStage.AW_READY_MISSING,
    InjectionStage.WLAST_TO_BVALID,
)


def fig9_configs():
    return [full_config(budgets=fast_budgets()), tiny_config(budgets=fast_budgets())]


@pytest.fixture
def simulated(monkeypatch):
    """Count every actual simulation, without changing any result."""
    calls = []
    real = executor_module.execute_run

    def counting(run, *args, **kwargs):
        calls.append(run.run_id)
        return real(run, *args, **kwargs)

    monkeypatch.setattr(executor_module, "execute_run", counting)
    return calls


def fig11_spec(seeds):
    return CampaignSpec.system(
        (Variant.FULL, Variant.TINY), FIG11_STAGES, seeds=seeds
    )


def flatten(series):
    """run_fig11's per-variant dict back to canonical flat run order."""
    return series[Variant.FULL.value] + series[Variant.TINY.value]


def test_fig11_superset_simulates_only_frontier(tmp_path, simulated):
    """Fig. 11, then the same sweep +2 seeds: only the new runs simulate."""
    store = tmp_path / "store"
    run_fig11(seeds=(0,), store=store)
    first = len(simulated)
    assert first == 2 * len(FIG11_STAGES)

    simulated.clear()
    metrics = MetricsRegistry()
    superset = run_fig11(seeds=(0, 1, 2), store=store, metrics=metrics)
    frontier = 2 * len(FIG11_STAGES) * 2  # the two new seeds, both variants
    assert len(simulated) == frontier
    assert all(run_id.endswith(("-s1", "-s2")) for run_id in simulated)
    counters = metrics.to_dict()["counters"]
    assert counters["store.frontier_runs"] == frontier
    assert counters["campaign.runs_executed"] == frontier
    assert counters["store.reused_runs"] == first

    # Byte-identity against a cold, storeless run — scheduler stats and
    # all, through both the dict exporter and the streamed writer.
    cold = run_fig11(seeds=(0, 1, 2))
    spec = fig11_spec((0, 1, 2))
    expected = to_json(campaign_dict(flatten(cold), spec=spec))
    assert to_json(campaign_dict(flatten(superset), spec=spec)) == expected
    stream = io.StringIO()
    write_campaign_json(flatten(superset), stream, spec=spec)
    assert stream.getvalue() == expected


def test_identical_rerun_has_empty_frontier(tmp_path, simulated):
    kwargs = dict(beats=4, seeds=(0, 1), store=tmp_path / "store")
    first = run_campaign(fig9_configs(), FIG9_SUBSET, **kwargs)
    simulated.clear()
    metrics = MetricsRegistry()
    second = run_campaign(fig9_configs(), FIG9_SUBSET, metrics=metrics, **kwargs)
    assert simulated == []
    assert second == first
    counters = metrics.to_dict()["counters"]
    assert counters["store.frontier_runs"] == 0
    assert counters["store.reused_runs"] == len(first)


def test_overlap_across_different_campaign_shapes(tmp_path, simulated):
    """Reuse crosses campaign boundaries, not just seed extensions."""
    store = tmp_path / "store"
    narrow = run_campaign(
        [full_config(budgets=fast_budgets())], FIG9_SUBSET, beats=4, store=store
    )
    simulated.clear()
    wide = run_campaign(fig9_configs(), FIG9_SUBSET, beats=4, store=store)
    # Only the tiny-variant half is new; the full-variant half is reused
    # even though its run_ids (campaign-local indices) differ.
    assert len(simulated) == len(FIG9_SUBSET)
    assert wide[: len(FIG9_SUBSET)] == narrow


def test_workers_with_store_equal_serial(tmp_path):
    store = tmp_path / "store"
    spec = CampaignSpec.ip(fig9_configs(), FIG9_SUBSET, beats=4, seeds=(0, 1))
    serial = run_campaign_spec(spec)
    sharded = run_campaign_spec(spec, workers=4, store=store)
    assert sharded == serial
    # And the parallel run's store holds every result.
    reopened = ResultStore.open(store)
    assert list(reopened.iter_results(spec.runs())) == serial


def test_collect_false_streams_through_store(tmp_path):
    spec = CampaignSpec.ip(fig9_configs(), FIG9_SUBSET, beats=4)
    expected = to_json(campaign_dict(run_campaign_spec(spec), spec=spec))
    store = ResultStore.open(tmp_path / "store")
    assert run_campaign_spec(spec, store=store, collect=False) is None
    stream = io.StringIO()
    write_campaign_json(
        lambda: store.iter_results(spec.runs()), stream, spec=spec
    )
    assert stream.getvalue() == expected


def test_collect_false_requires_store():
    spec = CampaignSpec.ip(fig9_configs(), FIG9_SUBSET[:1], beats=4)
    with pytest.raises(ValueError, match="store"):
        run_campaign_spec(spec, collect=False)
