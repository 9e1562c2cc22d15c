"""Result-store hardening: tiers, concurrency, corruption.

The store is shared infrastructure — many campaigns, many processes,
any of which may die mid-write — so every defect a row or a database
file can exhibit must demote to a logged, run-granular miss
(re-simulated, repaired), never a crash, a wrong result, or a wedged
store.
"""

import dataclasses
import logging
import multiprocessing
import sqlite3
from collections import Counter

import pytest

from tests.conftest import fast_budgets

from repro.faults.types import InjectionStage
from repro.orchestrate import CampaignSpec, ResultStore
from repro.orchestrate.executor import execute_run
from repro.orchestrate.store import DB_NAME, STORE_FORMAT
from repro.tmu.config import full_config, tiny_config


@pytest.fixture
def spec():
    return CampaignSpec.ip(
        [full_config(budgets=fast_budgets())],
        [InjectionStage.AW_READY_MISSING, InjectionStage.WLAST_TO_BVALID],
        beats=4,
        seeds=(0, 1),
    )


@pytest.fixture
def executed(spec):
    """The spec's runs plus their simulated results, in canonical order."""
    runs = spec.runs()
    results = [execute_run(run) for run in runs]
    return runs, results


@pytest.fixture
def populated(tmp_path, executed):
    """A store holding every result of the executed spec."""
    store = ResultStore.open(tmp_path / "store")
    runs, results = executed
    for run, result in zip(runs, results):
        assert store.put(run, result)
    return store, runs, results


def corrupt_row(store, key, **columns):
    """Rewrite one warm row in place (simulating on-disk damage)."""
    sets = ", ".join(f"{name}=?" for name in columns)
    with store._db:
        store._db.execute(
            f"UPDATE results SET {sets} WHERE param_key=?",
            (*columns.values(), key),
        )


def fresh_view(store):
    """Reopen the same store directory with an empty hot tier."""
    return ResultStore.open(store.root, metrics=Counter())


# ----------------------------------------------------------------------
# Tiers
# ----------------------------------------------------------------------
def test_round_trip_preserves_results_exactly(populated):
    store, runs, results = populated
    for run, result in zip(runs, results):
        assert store.get(run) == result


def test_warm_tier_survives_reopen(populated):
    store, runs, results = populated
    view = fresh_view(store)
    for run, result in zip(runs, results):
        assert view.get(run) == result
    counters = dict(view.metrics)
    assert counters["store.warm_hit"] == len(runs)
    assert "store.hot_hit" not in counters


def test_hot_tier_serves_repeats(populated):
    store, runs, results = populated
    store.metrics = Counter()
    assert store.get(runs[0]) == results[0]
    counters = dict(store.metrics)
    assert counters == {"store.hot_hit": 1}


def test_scheduler_stats_round_trip(populated):
    store, runs, results = populated
    view = fresh_view(store)
    for run, fresh in zip(runs, results):
        loaded = view.get(run)
        assert loaded.sim_leaps == fresh.sim_leaps
        assert loaded.sim_cycles_leaped == fresh.sim_cycles_leaped


def test_lru_evicts_but_warm_backstops(tmp_path, executed):
    runs, results = executed
    store = ResultStore.open(
        tmp_path / "store", hot_capacity=1, metrics=Counter()
    )
    for run, result in zip(runs, results):
        store.put(run, result)
    assert len(store._hot) == 1
    # Every run still resolves — through the warm tier, not the LRU.
    for run, result in zip(runs, results):
        assert store.get(run) == result
    counters = dict(store.metrics)
    assert counters["store.warm_hit"] + counters.get("store.hot_hit", 0) == len(runs)


def test_zero_hot_capacity_is_valid(tmp_path, executed):
    runs, results = executed
    store = ResultStore.open(tmp_path / "store", hot_capacity=0)
    store.put(runs[0], results[0])
    assert store._hot == {}
    assert store.get(runs[0]) == results[0]


def test_param_key_ignores_campaign_index(spec):
    """The same parameters hash identically from different campaigns."""
    wider = CampaignSpec.ip(
        [tiny_config(budgets=fast_budgets()), full_config(budgets=fast_budgets())],
        [InjectionStage.AW_READY_MISSING, InjectionStage.WLAST_TO_BVALID],
        beats=4,
        seeds=(0, 1, 2),
    )
    narrow_keys = {run.param_key(): run.run_id for run in spec.runs()}
    wide_keys = {run.param_key(): run.run_id for run in wider.runs()}
    shared = set(narrow_keys) & set(wide_keys)
    # Every narrow run reappears in the superset under the same key,
    # even though its run_id (campaign-local index) differs.
    assert shared == set(narrow_keys)
    assert any(narrow_keys[key] != wide_keys[key] for key in shared)


def test_miss_returns_none_and_counts(tmp_path, spec):
    store = ResultStore.open(tmp_path / "store", metrics=Counter())
    assert store.get(spec.runs()[0]) is None
    assert dict(store.metrics) == {"store.miss": 1}


def test_iter_results_streams_in_order(populated):
    store, runs, results = populated
    assert list(store.iter_results(runs)) == results
    assert list(store.iter_results(list(reversed(runs)))) == list(
        reversed(results)
    )


def test_iter_results_raises_on_gap(populated, spec):
    store, runs, _results = populated
    stranger = dataclasses.replace(runs[0], seed=99)
    with pytest.raises(KeyError):
        list(store.iter_results([runs[0], stranger]))


# ----------------------------------------------------------------------
# First-result-wins
# ----------------------------------------------------------------------
def test_duplicate_put_keeps_first(populated):
    store, runs, results = populated
    impostor = dataclasses.replace(results[0], inject_cycle=123456)
    assert store.put(runs[0], impostor) is False
    assert fresh_view(store).get(runs[0]) == results[0]


def test_put_many_matches_a_sequence_of_puts(tmp_path, executed):
    # One transaction for a batch of rows must keep what per-run puts
    # do: the first result per key wins, whether the key was stored
    # before the call or earlier in the same batch; the put/duplicate
    # counts agree; and the hot tier ends in the same LRU order.
    runs, results = executed
    impostors = [
        dataclasses.replace(result, inject_cycle=999_999) for result in results
    ]
    batch_runs = runs[1:] + runs[:2]
    batch_results = results[1:] + impostors[:2]

    def fill(store, batch):
        store.put(runs[0], results[0])
        return batch(store)

    one_by_one = ResultStore.open(tmp_path / "puts", hot_capacity=4,
                                  metrics=Counter())
    inserted = fill(one_by_one, lambda store: sum(
        store.put(run, result)
        for run, result in zip(batch_runs, batch_results)
    ))
    together = ResultStore.open(tmp_path / "many", hot_capacity=4,
                                metrics=Counter())
    assert fill(together, lambda store: store.put_many(
        batch_runs, batch_results
    )) == inserted == len(runs) - 1
    assert together.metrics == one_by_one.metrics
    assert together.metrics["store.duplicate"] == 2
    assert list(together._hot) == list(one_by_one._hot)
    assert list(together._hot.values()) == list(one_by_one._hot.values())
    for run, result in zip(runs, results):
        assert fresh_view(together).get(run) == result
    assert together.stats()["warm_rows"] == len(runs)


def test_put_many_of_nothing_counts_nothing(tmp_path):
    store = ResultStore.open(tmp_path / "store", metrics=Counter())
    assert store.put_many([], []) == 0
    assert store.metrics == Counter()


def _racing_writer(root, runs, results, tag, wins):
    """Child process: put a tagged variant of every result."""
    store = ResultStore.open(root)
    for run, result in zip(runs, results):
        tagged = dataclasses.replace(result, inject_cycle=tag)
        if store.put(run, tagged):
            wins.append((run.param_key(), tag))


def test_two_processes_first_result_wins(tmp_path, executed):
    """Two writers race every key of a shared store; exactly one wins each."""
    runs, results = executed
    root = tmp_path / "store"
    ResultStore.open(root).close()  # create schema before the race
    context = multiprocessing.get_context("fork")
    with multiprocessing.Manager() as manager:
        wins = manager.list()
        writers = [
            context.Process(
                target=_racing_writer, args=(root, runs, results, tag, wins)
            )
            for tag in (1001, 2002)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        wins = list(wins)
    # Exactly one insert won per key, and the surviving row is the
    # winner's payload, untorn.
    assert len(wins) == len(runs)
    winner_by_key = dict(wins)
    assert len(winner_by_key) == len(runs)
    store = ResultStore.open(root)
    for run in runs:
        assert store.get(run).inject_cycle == winner_by_key[run.param_key()]


# ----------------------------------------------------------------------
# Row-granular corruption: logged miss, then repair
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "damage",
    [
        {"payload": '{"truncated'},
        {"payload": '"not a dict"'},
        {"payload": "{}"},
        {"format": STORE_FORMAT + 1},
        {"format": STORE_FORMAT - 1},
        {"format": 0},
    ],
    ids=["truncated", "wrong-shape", "empty-dict", "future-format",
         "previous-format", "foreign-format"],
)
def test_defective_row_is_logged_miss(populated, caplog, damage):
    store, runs, results = populated
    corrupt_row(store, runs[0].param_key(), **damage)
    view = fresh_view(store)
    with caplog.at_level(logging.WARNING, logger="repro.orchestrate.store"):
        assert view.get(runs[0]) is None
    assert caplog.records, "defective row must be logged"
    counters = dict(view.metrics)
    assert counters["store.corrupt"] == 1
    assert counters["store.miss"] == 1
    # Other rows are untouched...
    assert view.get(runs[1]) == results[1]
    # ...and the defective key is evicted, so a re-simulation repairs it.
    assert view.put(runs[0], results[0]) is True
    assert fresh_view(store).get(runs[0]) == results[0]


def test_wholly_corrupt_database_is_moved_aside(tmp_path, executed, caplog):
    runs, results = executed
    root = tmp_path / "store"
    root.mkdir()
    (root / DB_NAME).write_bytes(b"this is not a sqlite file at all")
    with caplog.at_level(logging.WARNING, logger="repro.orchestrate.store"):
        store = ResultStore.open(root)
    assert (root / "store.sqlite.corrupt").exists()
    assert any("unusable" in record.message for record in caplog.records)
    store.put(runs[0], results[0])
    assert fresh_view(store).get(runs[0]) == results[0]


def test_future_schema_version_is_refused_then_recovered(tmp_path):
    root = tmp_path / "store"
    ResultStore.open(root).close()
    db = sqlite3.connect(root / DB_NAME)
    db.execute("PRAGMA user_version=99")
    db.close()
    # A future schema is hopeless for this reader: moved aside, fresh start.
    store = ResultStore.open(root)
    assert (root / "store.sqlite.corrupt").exists()
    assert store.stats()["warm_rows"] == 0


def test_stats_reports_tiers(populated):
    store, runs, _results = populated
    stats = store.stats()
    assert stats["warm_rows"] == len(runs)
    assert stats["hot_entries"] == len(runs)
    assert stats["format"] == STORE_FORMAT
