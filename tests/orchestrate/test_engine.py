"""Engine tests: sharded determinism, store reuse, progress, executors.

The headline guarantees: a campaign sharded across 4 worker processes
returns the *identical* result list the serial path produces (for both
the Fig. 9 IP sweep and the Fig. 11 system sweep), and a warm result
store returns identical results without simulating anything.
"""

import dataclasses
import io
import sqlite3
from collections import Counter

import pytest

from tests.conftest import fast_budgets

from repro.faults.campaign import run_campaign
from repro.faults.types import FIG9_WRITE_STAGES, InjectionStage
from repro.analysis.export import campaign_dict, to_json, write_campaign_json
from repro.orchestrate import (
    BatchExecutor,
    CampaignResults,
    CampaignSpec,
    Pack,
    ProgressReporter,
    ResultStore,
    RunSpec,
    SerialExecutor,
    WorkerPoolExecutor,
    default_workers,
    make_executor,
    plan_shards,
    run_campaign_spec,
)
from repro.orchestrate import batch as batch_module
from repro.orchestrate import executor as executor_module
from repro.orchestrate.store import DB_NAME
from repro.soc.experiment import FIG11_STAGES, SystemInjectionResult, run_fig11
from repro.tmu.config import Variant, full_config, tiny_config

FIG9_SUBSET = (
    InjectionStage.AW_READY_MISSING,
    InjectionStage.DATA_TRANSFER_STALL,
    InjectionStage.WLAST_TO_BVALID,
)


def fig9_configs():
    return [full_config(budgets=fast_budgets()), tiny_config(budgets=fast_budgets())]


# ----------------------------------------------------------------------
# Determinism: sharded == serial
# ----------------------------------------------------------------------
def test_fig9_sweep_sharded_equals_serial():
    serial = run_campaign(fig9_configs(), FIG9_SUBSET, beats=4, seeds=(0, 1))
    sharded = run_campaign(
        fig9_configs(), FIG9_SUBSET, beats=4, seeds=(0, 1), workers=4
    )
    assert len(serial) == 2 * len(FIG9_SUBSET) * 2
    assert sharded == serial
    assert all(result.detected and result.recovered for result in serial)


def test_fig11_sweep_sharded_equals_serial():
    serial = run_fig11(beats=16)
    sharded = run_fig11(beats=16, workers=4)
    assert sharded == serial
    assert set(serial) == {"full", "tiny"}
    assert all(
        result.detected for series in serial.values() for result in series
    )


def test_sharded_campaign_under_verify_strategy():
    """The parallel path holds up the kernel's own correctness check."""
    results = run_campaign(
        [full_config(budgets=fast_budgets())],
        (InjectionStage.AW_READY_MISSING, InjectionStage.R_VALID_MISSING),
        beats=4,
        workers=2,
        harness_kwargs={"sim_strategy": "verify"},
    )
    assert all(result.detected for result in results)


def test_shard_size_does_not_change_results():
    spec = CampaignSpec.ip(
        fig9_configs(), FIG9_SUBSET, beats=4, recovery_timeout=2_000
    )
    fine = run_campaign_spec(spec, workers=1, shard_size=1)
    coarse = run_campaign_spec(spec, workers=2, shard_size=4)
    assert fine == coarse


# ----------------------------------------------------------------------
# Reuse through the result store
# ----------------------------------------------------------------------
def test_cache_hit_skips_simulation_and_matches(tmp_path, monkeypatch):
    kwargs = dict(beats=4, seeds=(0,), store=tmp_path / "store")
    first = run_campaign(fig9_configs(), FIG9_SUBSET, **kwargs)
    # Any attempt to simulate on the second pass is a test failure.
    for module in (executor_module, batch_module):
        monkeypatch.setattr(
            module,
            "execute_run",
            lambda *args, **kwargs: pytest.fail("store hit must not re-simulate"),
        )
    second = run_campaign(fig9_configs(), FIG9_SUBSET, **kwargs)
    assert second == first


def test_store_keys_follow_run_parameters(tmp_path):
    store = tmp_path / "store"
    run_campaign(fig9_configs(), FIG9_SUBSET[:1], beats=4, store=store)
    metrics = Counter()
    run_campaign(
        fig9_configs(), FIG9_SUBSET[:1], beats=8, store=store, metrics=metrics
    )
    # A changed parameter is a different run: nothing aliases.
    counters = dict(metrics)
    assert counters["store.frontier_runs"] == len(fig9_configs())
    assert ResultStore.open(store).stats()["warm_rows"] == 2 * len(fig9_configs())


def test_corrupt_cache_entry_is_re_executed(tmp_path):
    store = tmp_path / "store"
    first = run_campaign(fig9_configs(), FIG9_SUBSET[:1], beats=4, store=store)
    db = sqlite3.connect(store / DB_NAME)
    with db:
        db.execute("UPDATE results SET payload = '{not json'")
    db.close()
    metrics = Counter()
    second = run_campaign(
        fig9_configs(), FIG9_SUBSET[:1], beats=4, store=store, metrics=metrics
    )
    assert second == first
    counters = dict(metrics)
    assert counters["store.corrupt"] == len(first)
    assert counters["campaign.runs_executed"] == len(first)
    # The re-simulated results repaired the rows.
    third = run_campaign(fig9_configs(), FIG9_SUBSET[:1], beats=4, store=store)
    assert third == first


# ----------------------------------------------------------------------
# Executors and workers resolution
# ----------------------------------------------------------------------
def test_make_executor_selects_by_worker_count():
    # One process runs unbounded lockstep packs; a pool's workers run
    # the same packs, width cap and verify passed through.
    local = make_executor(1)
    assert type(local) is BatchExecutor
    assert local.lanes is None and not local.verify
    assert make_executor(1, batch_lanes=8, batch_verify=True).lanes == 8
    pool = make_executor(4, batch_lanes=8, batch_verify=True, shard_size=3)
    assert isinstance(pool, WorkerPoolExecutor)
    assert (pool.lanes, pool.verify, pool.shard_size) == (8, True, 3)
    # The scalar baseline is the width-1 batch executor, not a loop.
    assert "map" not in vars(SerialExecutor)
    assert SerialExecutor().lanes == 1
    with pytest.raises(ValueError):
        WorkerPoolExecutor(0)


def test_default_workers_env(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert default_workers() == 1
    monkeypatch.setenv("REPRO_WORKERS", "6")
    assert default_workers() == 6
    monkeypatch.setenv("REPRO_WORKERS", "0")
    with pytest.raises(ValueError):
        default_workers()


def test_worker_pool_reorders_are_invisible():
    """Unordered item completion must not leak into result order."""
    spec = CampaignSpec.ip(fig9_configs(), FIG9_SUBSET, beats=4)

    class Reversed(SerialExecutor):
        def map(self, pending):
            yield from reversed(list(super().map(pending)))

    in_order = run_campaign_spec(spec, workers=1)
    # Hand the engine a deliberately reversed completion stream.
    reordered = run_campaign_spec(spec, executor=Reversed())
    assert reordered == in_order
    assert len(in_order) == len(spec.runs())


# ----------------------------------------------------------------------
# Work counts: runs in, shards only for the pool, one item per pack
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", [False, True], ids=["no-store", "store"])
@pytest.mark.parametrize(
    "executor", [{}, {"batch_lanes": 8}, {"workers": 2}],
    ids=["serial", "batch", "pool"],
)
def test_shard_size_is_validated_on_every_path(tmp_path, executor, store):
    spec = CampaignSpec.ip(fig9_configs()[:1], FIG9_SUBSET[:1], beats=4)
    with pytest.raises(ValueError, match="shard_size"):
        run_campaign_spec(
            spec, shard_size=0, store=tmp_path / "store" if store else None,
            **executor,
        )
    with pytest.raises(ValueError, match="shard_size"):
        WorkerPoolExecutor(2, shard_size=0)


@pytest.fixture
def planned(monkeypatch):
    """Count every shard plan, wherever it is called from."""
    from repro.orchestrate import spec as spec_module

    calls = []

    def counting(points, shard_size=1):
        calls.append(len(points))
        return plan_shards(points, shard_size=shard_size)

    for module in (spec_module, executor_module):
        monkeypatch.setattr(module, "plan_shards", counting)
    return calls


def test_only_the_pool_plans_shards(planned):
    spec = CampaignSpec.ip(
        fig9_configs(), FIG9_SUBSET, beats=4, seeds=(0, 2, 3)
    )
    serial = run_campaign_spec(spec, executor=SerialExecutor())
    assert run_campaign_spec(spec) == serial
    assert run_campaign_spec(spec, batch_lanes=8) == serial
    assert planned == []
    assert run_campaign_spec(spec, workers=2, shard_size=4) == serial
    # The pool plans its shards over points: one per (config, stage).
    assert planned == [len(spec.configs) * len(spec.stages)]


class CountingItems:
    """Wraps an executor, recording the run count of every item."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.items = []

    def map(self, points):
        for indices, values in self.inner.map(points):
            assert len(values) == len(indices)
            self.items.append(len(indices))
            yield indices, values


def test_fig11_batch_sweep_yields_one_item_per_pack():
    spec = CampaignSpec.system(
        (Variant.FULL, Variant.TINY), FIG11_STAGES, seeds=range(64)
    )
    batch = BatchExecutor(64)
    counting = CountingItems(batch)
    results = run_campaign_spec(spec, executor=counting)
    # One pack per (variant, stage) point: its seeds share one class.
    # Each pack yields every run it simulated as it finishes (seeds 0
    # and 1 retire, seed 2 leads), then its derived lanes as one item.
    assert batch.stats.packs == 2 * len(FIG11_STAGES)
    assert counting.items == [1, 1, 1, 61] * batch.stats.packs
    assert batch.stats.derived == len(results) - batch.stats.simulated


def test_fig11_sweep_builds_a_run_spec_per_simulated_lane(monkeypatch):
    # Planning is per point: seed 0 retires (its onset is too early) and
    # one leader per (variant, stage) simulates; the other 62 lanes of
    # each point are seed deltas, never built as RunSpecs.
    from repro.orchestrate import spec as spec_module

    spec = CampaignSpec.system(
        (Variant.FULL, Variant.TINY), FIG11_STAGES, seeds=(0, *range(2, 65))
    )
    built = []

    class CountedRunSpec(RunSpec):
        def __new__(cls, *args, **kwargs):
            built.append(cls)
            return super().__new__(cls)

    monkeypatch.setattr(spec_module, "RunSpec", CountedRunSpec)
    executor = BatchExecutor()
    results = run_campaign_spec(spec, executor=executor)
    assert len(results) == 2 * len(FIG11_STAGES) * 64
    assert executor.stats.leaders + executor.stats.retired == 24
    assert len(built) == 24


def test_batch_counters_count_each_campaign_once():
    spec = CampaignSpec.system(
        (Variant.FULL,), FIG11_STAGES[:2], beats=16, seeds=range(8)
    )
    executor = BatchExecutor(8)
    first, second = Counter(), Counter()
    run_campaign_spec(spec, executor=executor, metrics=first)
    run_campaign_spec(spec, executor=executor, metrics=second)
    batch = {
        key: value for key, value in first.items() if key.startswith("batch.")
    }
    assert batch == {
        "batch.packs": 2, "batch.leaders": 2, "batch.derived": 10,
        "batch.retired": 4,
    }
    # The executor's stats accumulate; each campaign's counters do not.
    assert {key: second[key] for key in batch} == batch
    assert executor.stats.packs == 4


def test_pool_counts_and_exports_what_one_process_does():
    # Workers run the same packs and hand back their stats: the batch
    # counters and the export match in-process by construction.
    spec = lane_spec()
    exports, counters = [], []
    for kwargs in ({}, {"workers": 2}, {"workers": 2, "shard_size": 3}):
        metrics = Counter()
        buffer = io.StringIO()
        write_campaign_json(
            run_campaign_spec(spec, metrics=metrics, **kwargs), buffer,
            spec=spec,
        )
        exports.append(buffer.getvalue())
        counters.append(
            {k: v for k, v in metrics.items() if k.startswith("batch.")}
        )
    assert counters[0]["batch.derived"] > 0
    assert counters[0] == counters[1] == counters[2]
    assert exports[0] == exports[1] == exports[2]


def test_pool_cuts_fewer_points_than_workers_into_seed_slices():
    points = [list(range(8)), list(range(8, 11))]
    assert executor_module.slice_points(points, 2) == points
    assert executor_module.slice_points(points, 4) == [
        [0, 1, 2, 3], [4, 5, 6, 7], [8, 9], [10],
    ]
    assert executor_module.slice_points(points[1:], 8) == [[8], [9], [10]]
    # One point whose lanes all retire (a single-beat mid-burst stall
    # stamps its injection before the leader's onset) still reaches
    # both workers: each seed slice leads its own pack.
    spec = CampaignSpec.ip(
        [full_config(budgets=fast_budgets())],
        [InjectionStage.DATA_TRANSFER_STALL], beats=1, seeds=range(8),
    )
    serial = run_campaign_spec(spec, executor=SerialExecutor())
    metrics = Counter()
    assert run_campaign_spec(spec, workers=2, metrics=metrics) == serial
    assert metrics["batch.packs"] == metrics["batch.leaders"] == 2
    assert metrics["batch.retired"] == 6


def test_serial_items_stay_one_per_run():
    spec = CampaignSpec.ip(fig9_configs(), FIG9_SUBSET, beats=4)
    counting = CountingItems(SerialExecutor())
    run_campaign_spec(spec, executor=counting)
    assert counting.items == [1] * len(spec.runs())


# ----------------------------------------------------------------------
# The lazy result sequence
# ----------------------------------------------------------------------
def lane_spec():
    return CampaignSpec.system(
        (Variant.FULL, Variant.TINY), FIG11_STAGES[:2], beats=16,
        seeds=range(8),
    )


def test_campaign_results_read_as_a_list():
    lazy = run_campaign_spec(lane_spec(), batch_lanes=8)
    serial = list(run_campaign_spec(lane_spec(), executor=SerialExecutor()))
    assert isinstance(lazy, CampaignResults)
    lanes = [i for i, item in enumerate(lazy.lanes()) if type(item) is Pack]
    assert len(lanes) > 2
    first, second = lanes[:2]
    # A lane materializes once: the same object on every access, also
    # through a slice, which is a view over the same items.
    assert lazy[first] is lazy[first]
    view = lazy[second:]
    assert isinstance(view, CampaignResults)
    assert type(next(iter(lazy[second:].lanes()))) is Pack
    assert view[0] is lazy[second]
    assert lazy[first:second + 1:second - first] == [lazy[first], lazy[second]]
    assert lazy[-1] == serial[-1]
    with pytest.raises(IndexError):
        lazy[len(serial)]
    assert lazy == serial and serial == lazy
    assert not lazy != serial
    assert lazy != serial[:-1] and serial[1:] != lazy
    assert lazy == run_campaign_spec(lane_spec())
    for joined in (lazy + serial, serial + lazy, lazy + lazy):
        assert type(joined) is list
        assert joined == serial + serial


def test_store_keeps_materialized_lanes(tmp_path):
    # A stored result must be a result: the engine materializes each
    # lane before the store write, and keeps that object.
    stored = run_campaign_spec(lane_spec(), batch_lanes=8, store=tmp_path)
    assert not any(type(item) is Pack for item in stored.lanes())
    assert stored == list(
        run_campaign_spec(lane_spec(), executor=SerialExecutor())
    )


def test_mutating_a_leader_leaves_unmaterialized_lanes_alone():
    lazy = run_campaign_spec(lane_spec(), batch_lanes=8)
    expected = list(run_campaign_spec(lane_spec(), executor=SerialExecutor()))
    handed_out = [
        i for i, item in enumerate(lazy.lanes()) if type(item) is not Pack
    ]
    for i in handed_out:
        lazy[i].recovered = False
        lazy[i].fault_kind = "mutated"
        expected[i] = dataclasses.replace(
            expected[i], recovered=False, fault_kind="mutated"
        )
    buffer = io.StringIO()
    write_campaign_json(lazy, buffer)
    assert buffer.getvalue() == to_json(campaign_dict(expected))
    assert lazy == expected


def test_run_fig11_materializes_no_lane_until_indexed(monkeypatch):
    calls = Counter()
    shifted = SystemInjectionResult.shifted

    def counting(self, delta):
        calls["shifted"] += 1
        return shifted(self, delta)

    monkeypatch.setattr(SystemInjectionResult, "shifted", counting)
    series = run_fig11(seeds=range(64), batch_lanes=64)
    assert calls["shifted"] == 0
    full = series[Variant.FULL.value]
    assert isinstance(full, CampaignResults)
    block = full[64:128]
    assert calls["shifted"] == 0
    assert type(next(iter(block[5:].lanes()))) is Pack
    assert block[5] is full[69]
    assert calls["shifted"] == 1
    tiny = series[Variant.TINY.value]
    lanes = sum(type(item) is Pack for item in tiny.lanes())
    assert lanes > 300
    assert all(result.recovered for result in tiny)
    assert calls["shifted"] == 1 + lanes


# ----------------------------------------------------------------------
# Progress reporting
# ----------------------------------------------------------------------
def test_progress_reporter_eta_and_rendering():
    now = [0.0]
    stream = io.StringIO()
    reporter = ProgressReporter(4, stream=stream, clock=lambda: now[0])
    now[0] = 2.0
    reporter.shard_done(1)            # 1/4 executed in 2s -> eta 6s
    assert reporter.eta_seconds() == pytest.approx(6.0)
    reporter.shard_done(2, cached=True)  # cached runs don't skew ETA
    assert reporter.eta_seconds() == pytest.approx(2.0)
    reporter.shard_done(1)
    reporter.finish()
    output = stream.getvalue()
    assert "4/4 runs (100.0%)" in output
    assert "2 cached" in output
    assert output.endswith("\n")


def test_engine_reports_progress_through_stream():
    stream = io.StringIO()
    run_campaign(
        fig9_configs()[:1], FIG9_SUBSET[:1], beats=4, progress=stream
    )
    assert "campaign: 1/1 runs (100.0%)" in stream.getvalue()
