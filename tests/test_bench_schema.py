"""Schema guard for the benchmark records.

``benchmarks/BENCH_kernel.json`` is the committed ledger the README
quotes; ``benchmarks/out/BENCH_kernel.json`` is the record the
benchmark suite writes fresh (and CI uploads).  A benchmark that
records a malformed entry (nested dicts, NaN, a stringified number)
would silently corrupt them.  The shape contract, for both: a JSON
object mapping benchmark name -> flat object of finite numeric
measurements.
"""

import json
import math
from pathlib import Path

import pytest

BENCH_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "BENCH_kernel.json"
FRESH_PATH = BENCH_PATH.parent / "out" / BENCH_PATH.name

# Benchmarks that must not silently vanish from the record.
EXPECTED_ENTRIES = {
    "campaign_batch_lockstep",
    "campaign_store_reuse",
    "darkcorner_detection_gap",
    "settle_dirty_vs_exhaustive",
    "stall_campaign_time_leap",
    "stall_campaign_update_skip",
    "tracer_noop_overhead",
    "update_skip_idle_fraction",
}


@pytest.fixture(scope="module")
def bench():
    assert BENCH_PATH.exists(), f"missing benchmark record {BENCH_PATH}"
    with open(BENCH_PATH) as stream:
        return json.load(stream)


def _check_named_mapping(bench):
    assert isinstance(bench, dict) and bench
    assert all(isinstance(name, str) for name in bench)


def _check_flat_and_finite(bench):
    for name, entry in bench.items():
        assert isinstance(entry, dict) and entry, name
        for key, value in entry.items():
            assert isinstance(key, str), (name, key)
            assert isinstance(value, (int, float)) and not isinstance(
                value, bool
            ), f"{name}.{key} is {type(value).__name__}, want a number"
            assert math.isfinite(value), f"{name}.{key} is not finite"


def _check_positive(bench):
    for name, entry in bench.items():
        for key, value in entry.items():
            if key.endswith("_seconds") or key.endswith("seconds"):
                assert value > 0, f"{name}.{key} should be positive wall time"
            if key in ("runs", "cycles", "budget_cycles"):
                assert value > 0 and value == int(value), f"{name}.{key}"


def _check_round_trip(bench, path):
    # The file is machine-written with sort_keys; a hand edit that
    # breaks ordering would churn every future benchmark commit.
    assert json.dumps(bench, indent=2, sort_keys=True) + "\n" == path.read_text()


def test_record_is_a_named_mapping(bench):
    _check_named_mapping(bench)


def test_known_benchmarks_are_present(bench):
    missing = EXPECTED_ENTRIES - set(bench)
    assert not missing, f"benchmark entries disappeared: {sorted(missing)}"


def test_entries_are_flat_and_finite(bench):
    _check_flat_and_finite(bench)


def test_seconds_and_counts_are_positive(bench):
    _check_positive(bench)


def test_record_round_trips_deterministically(bench):
    _check_round_trip(bench, BENCH_PATH)


def test_fresh_record_is_well_formed():
    """The record the benchmark suite just wrote obeys the same contract."""
    if not FRESH_PATH.exists():
        pytest.skip("no fresh record: the benchmark suite has not run here")
    fresh = json.loads(FRESH_PATH.read_text())
    _check_named_mapping(fresh)
    _check_flat_and_finite(fresh)
    _check_positive(fresh)
    _check_round_trip(fresh, FRESH_PATH)
