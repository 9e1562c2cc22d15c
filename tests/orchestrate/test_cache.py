"""The result store as a resume cache: clean writes, defensive loads, repair.

Re-running a campaign against the same ``--store`` is how it resumes,
and any process holding that store may die mid-write — so every defect
a stored entry can exhibit must demote it to a miss (logged,
re-simulated, repaired), never a crash or a half-loaded result.
"""

import json
import logging

import pytest

from tests.conftest import fast_budgets
from tests.orchestrate.test_store import corrupt_row, fresh_view

from repro.faults.types import InjectionStage
from repro.orchestrate import CampaignSpec, ResultStore
from repro.orchestrate.executor import execute_run
from repro.orchestrate.store import STORE_FORMAT
from repro.tmu.config import full_config


@pytest.fixture
def spec():
    return CampaignSpec.ip(
        [full_config(budgets=fast_budgets())],
        [InjectionStage.AW_READY_MISSING, InjectionStage.WLAST_TO_BVALID],
        beats=4,
    )


@pytest.fixture
def populated(tmp_path, spec):
    """A store holding every run's result, plus the runs and results."""
    store = ResultStore.open(tmp_path / "store")
    runs = spec.runs()
    results = [execute_run(run) for run in runs]
    for run, result in zip(runs, results):
        store.put(run, result)
    return store, runs, results


def stored_payload(store, run):
    return store._db.execute(
        "SELECT payload FROM results WHERE param_key=?", (run.param_key(),)
    ).fetchone()[0]


# ----------------------------------------------------------------------
# Writes
# ----------------------------------------------------------------------
def test_store_leaves_no_temp_litter(populated):
    store, _runs, _results = populated
    assert list(store.root.glob("*.tmp")) == []


def test_temp_litter_is_not_counted_or_loaded(populated):
    store, runs, results = populated
    # Stray files beside the database are never read as results.
    (store.root / "shard-000000-of-000001.json.12345.tmp").write_text(
        "{half a paylo"
    )
    view = fresh_view(store)
    assert view.stats()["warm_rows"] == len(runs)
    assert view.get(runs[0]) == results[0]


def test_store_round_trips_scheduler_stats(populated):
    store, runs, results = populated
    view = fresh_view(store)
    for run, fresh in zip(runs, results):
        loaded = view.get(run)
        assert loaded == fresh
        assert loaded.sim_leaps == fresh.sim_leaps
        assert loaded.sim_cycles_leaped == fresh.sim_cycles_leaped


def test_overwrite_replaces_corrupt_entry(populated):
    store, runs, results = populated
    corrupt_row(store, runs[0].param_key(), payload="garbage")
    view = fresh_view(store)
    # The defective entry is a miss, and the re-simulated result repairs it.
    assert view.get(runs[0]) is None
    assert view.put(runs[0], results[0]) is True
    assert fresh_view(store).get(runs[0]) == results[0]


# ----------------------------------------------------------------------
# Defensive loads: every defect is a logged miss
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "content",
    [
        "",                                        # zero bytes (crash mid-write)
        "{not json",                               # hand-corrupted
        '{"kind": "ip", "stage": "aw_re',          # truncated mid-write
        '["a", "list"]',                           # valid JSON, wrong shape
        '{"format": 2}',                           # missing everything
    ],
    ids=["empty", "corrupt", "truncated", "wrong-shape", "missing-keys"],
)
def test_defective_entries_are_logged_misses(populated, caplog, content):
    store, runs, _results = populated
    corrupt_row(store, runs[0].param_key(), payload=content)
    with caplog.at_level(logging.INFO, logger="repro.orchestrate.store"):
        assert fresh_view(store).get(runs[0]) is None
    assert any("re-simulating" in record.message for record in caplog.records)


def test_result_entry_that_fails_deserialization_is_a_miss(populated, caplog):
    store, runs, _results = populated
    payload = json.loads(stored_payload(store, runs[0]))
    del payload["stage"]  # schema-mangled result
    corrupt_row(store, runs[0].param_key(), payload=json.dumps(payload))
    with caplog.at_level(logging.WARNING, logger="repro.orchestrate.store"):
        assert fresh_view(store).get(runs[0]) is None
    assert any("malformed" in record.message for record in caplog.records)


def test_result_count_mismatch_is_a_miss(populated):
    store, runs, _results = populated
    # An entry holds exactly one result; a payload carrying two is damage.
    payload = json.loads(stored_payload(store, runs[0]))
    corrupt_row(
        store, runs[0].param_key(), payload=json.dumps([payload, payload])
    )
    assert fresh_view(store).get(runs[0]) is None


def test_foreign_format_version_is_a_miss(populated):
    store, runs, _results = populated
    corrupt_row(store, runs[0].param_key(), format=STORE_FORMAT + 1)
    assert fresh_view(store).get(runs[0]) is None


def test_missing_file_is_a_silent_miss(tmp_path, spec, caplog):
    store = ResultStore.open(tmp_path / "store")
    with caplog.at_level(logging.DEBUG, logger="repro.orchestrate.store"):
        assert store.get(spec.runs()[0]) is None
    assert not caplog.records  # a plain miss is not worth a log line
