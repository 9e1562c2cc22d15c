"""Exactness gate: one digest over both guards' logs on a 104-run grid.

The Fig. 9/11 exports carry only each run's tripping event, so a drift
in a non-tripping log entry, a phase latency or a perf record would go
unseen there.  This test hashes, for every IP injection of the grid
(13 stages x 2 variants x outstanding {1, 3} x issue delay {0, 5}), the
TMU's tripping events and, for each guard, its error log, perf phase
stats and history, and ``snapshot_state()``.

An injection stalls every transaction it issues, so the injection alone
completes none; after recovery each run therefore issues ``outstanding``
clean 4-beat writes and reads and runs until the manager is idle, which
puts every phase latency of both directions into the perf logs.

The pinned value was taken from the guards before they shared one
engine; a change that means to move any of these records must re-pin it
and say why.
"""

import dataclasses
import enum
import hashlib
import json

from repro.axi.traffic import read_spec, write_spec
from repro.faults.campaign import build_ip_harness, run_injection
from repro.faults.types import InjectionStage
from repro.tmu.config import full_config, tiny_config

PINNED = "714a335c0df5ce975f8d8b0238bc615cb72f110c5076763df3114bbc3fd607fc"


def _canon(value):
    """A JSON-able form that keeps enum names and dict insertion order."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value):
        return {f.name: _canon(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return [[_canon(k), _canon(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    return value


def _guard_record(guard):
    return {
        "log": _canon(guard.log.peek_all()),
        "dropped": guard.log.dropped,
        "phase_stats": _canon(guard.perf.phase_stats),
        "txn_latency": _canon(guard.perf.txn_latency),
        "history": _canon(guard.perf.history),
        "snapshot": _canon(guard.snapshot_state()),
    }


def _run_record(config, stage, outstanding, delay):
    harness = build_ip_harness(config, None, 0)
    run_injection(
        config, stage, outstanding=outstanding, issue_delay=delay,
        harness=harness,
    )
    for i in range(outstanding):
        harness.manager.submit(write_spec(i, 0x8000 + i * 0x1000, beats=4))
        harness.manager.submit(read_spec(i, 0x8000 + i * 0x1000, beats=4))
    harness.run_until(lambda h: h.manager.idle, timeout=5_000)
    tmu = harness.tmu
    return {
        "run": [config.variant.value, stage.value, outstanding, delay],
        "fault_events": _canon(tmu.fault_events),
        "completed": [tmu.write_guard.perf.completed, tmu.read_guard.perf.completed],
        "write": _guard_record(tmu.write_guard),
        "read": _guard_record(tmu.read_guard),
    }


def grid_records():
    for config in (full_config(), tiny_config()):
        for stage in InjectionStage:
            for outstanding in (1, 3):
                for delay in (0, 5):
                    yield _run_record(config, stage, outstanding, delay)


def test_guard_logs_match_the_pinned_digest():
    digest = hashlib.sha256()
    completed = 0
    for record in grid_records():
        completed += sum(record["completed"])
        digest.update(json.dumps(record, sort_keys=True).encode())
    # Every clean post-recovery transaction completes: 2 x outstanding
    # per run, so the phase latencies of both directions are covered.
    assert completed == 2 * 13 * 2 * 2 * (1 + 3)
    assert digest.hexdigest() == PINNED
