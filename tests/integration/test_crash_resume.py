"""Crash/resume integration: kill a campaign mid-run, resume from the store.

A campaign's crash-safety story is the result store: the engine commits
every completed run the moment the serial executor yields it, so a SIGKILLed
campaign process — the worst case, nothing gets to clean up — can be
resumed by any later campaign pointed at the same store, and the final
campaign JSON must be byte-identical to an uninterrupted serial run.

The scenario is gated, not timed: a forked child runs the campaign
through an executor that executes exactly three runs, then signals
and sleeps inside its fourth, so the campaign is provably mid-run —
some runs stored, some not — when the SIGKILL lands.
"""

import multiprocessing
import os
import signal
import sqlite3
import time

import pytest

from tests.conftest import fast_budgets

from repro.analysis.export import campaign_dict, to_json
from repro.faults.types import InjectionStage
from repro.orchestrate import (
    CampaignSpec,
    ResultStore,
    SerialExecutor,
    run_campaign_spec,
)
from repro.orchestrate.executor import execute_run
from repro.orchestrate.store import DB_NAME
from repro.tmu.config import full_config, tiny_config

#: Runs the gated executor completes before it freezes on the next one.
RUNS_BEFORE_FREEZE = 3


def crash_spec() -> CampaignSpec:
    return CampaignSpec.ip(
        [full_config(budgets=fast_budgets()), tiny_config(budgets=fast_budgets())],
        (
            InjectionStage.AW_READY_MISSING,
            InjectionStage.WLAST_TO_BVALID,
            InjectionStage.R_VALID_MISSING,
        ),
        beats=4,
        seeds=(0, 1),
    )


class Gated(SerialExecutor):
    """Executes RUNS_BEFORE_FREEZE runs for real, then freezes.

    The engine stores each yielded run before it pulls the next one,
    so by the time ``frozen`` fires every completed run is committed.
    """

    def __init__(self, frozen) -> None:
        self.frozen = frozen

    def map(self, runs):
        for executed, run in enumerate(runs):
            if executed >= RUNS_BEFORE_FREEZE:
                self.frozen.set()
                time.sleep(600)  # hold the campaign open until SIGKILLed
            yield (run.index,), [execute_run(run)]


def _campaign_victim(store_dir: str, frozen) -> None:
    run_campaign_spec(crash_spec(), store=store_dir, executor=Gated(frozen))


def _stored_rows(store_dir) -> int:
    with ResultStore.open(store_dir) as store:
        return store.stats()["warm_rows"]


def test_sigkilled_coordinator_resumes_byte_identical(tmp_path):
    spec = crash_spec()
    assert len(spec.runs()) > RUNS_BEFORE_FREEZE + 1
    serial_json = to_json(campaign_dict(run_campaign_spec(spec), spec=spec))

    store_dir = tmp_path / "store"
    context = multiprocessing.get_context("fork")
    frozen = context.Event()

    victim = context.Process(
        target=_campaign_victim, args=(str(store_dir), frozen), daemon=True
    )
    victim.start()
    if not frozen.wait(timeout=60):
        victim.kill()
        pytest.fail("campaign never reached its freeze point")
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
    assert victim.exitcode == -signal.SIGKILL

    stored_before_resume = _stored_rows(store_dir)
    total = len(spec.runs())
    assert RUNS_BEFORE_FREEZE <= stored_before_resume < total

    # Resume: same spec, same store, plain serial executor.
    executed = []

    class Counting(SerialExecutor):
        def map(self, pending):
            for run in pending:
                executed.append(run.run_id)
                yield (run.index,), [execute_run(run)]

    resumed = run_campaign_spec(spec, store=store_dir, executor=Counting())
    assert to_json(campaign_dict(resumed, spec=spec)) == serial_json
    assert len(executed) == total - stored_before_resume

    # And a damaged row is a miss, not a crash: trash one stored
    # payload, resume again, and exactly that run re-simulates with the
    # output still byte-identical.
    damaged = spec.runs()[0]
    db = sqlite3.connect(store_dir / DB_NAME)
    with db:
        db.execute(
            "UPDATE results SET payload = ? WHERE param_key = ?",
            ('{"truncated', damaged.param_key()),
        )
    db.close()
    executed.clear()
    re_resumed = run_campaign_spec(spec, store=store_dir, executor=Counting())
    assert to_json(campaign_dict(re_resumed, spec=spec)) == serial_json
    assert executed == [damaged.run_id]
