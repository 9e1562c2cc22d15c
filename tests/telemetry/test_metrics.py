"""The telemetry.json artifact: a counters-only envelope."""

import json
from collections import Counter

import pytest

from repro.telemetry import read_telemetry, write_telemetry
from repro.telemetry.metrics import TELEMETRY_FORMAT, TELEMETRY_VERSION


def test_telemetry_file_round_trip(tmp_path):
    counters = Counter()
    counters["store.reused_runs"] += 0  # a zero count is still recorded
    counters["campaign.runs"] += 7
    path = tmp_path / "telemetry.json"
    write_telemetry(counters, path)
    assert read_telemetry(path) == {
        "counters": {"campaign.runs": 7, "store.reused_runs": 0}
    }
    # Keys are sorted, so the bytes do not depend on insertion order.
    payload = json.loads(path.read_text())
    assert list(payload["metrics"]["counters"]) == [
        "campaign.runs", "store.reused_runs"
    ]


def test_older_telemetry_files_still_load(tmp_path):
    # Files written before telemetry became counters-only also carried
    # gauges and histograms; they keep loading under the same envelope.
    path = tmp_path / "telemetry.json"
    path.write_text(json.dumps({
        "format": TELEMETRY_FORMAT,
        "version": TELEMETRY_VERSION,
        "metrics": {
            "counters": {"campaign.runs": 2},
            "gauges": {"campaign.elapsed_seconds": 0.5},
            "histograms": {},
        },
    }))
    assert read_telemetry(path)["counters"] == {"campaign.runs": 2}


def test_telemetry_reader_rejects_foreign_files(tmp_path):
    path = tmp_path / "telemetry.json"
    path.write_text('{"something": "else"}')
    with pytest.raises(ValueError, match=TELEMETRY_FORMAT):
        read_telemetry(path)
    path.write_text(
        '{"format": "%s", "version": %d, "metrics": {}}'
        % (TELEMETRY_FORMAT, TELEMETRY_VERSION + 1)
    )
    with pytest.raises(ValueError, match="version"):
        read_telemetry(path)
