"""Crash/resume integration: kill a campaign mid-run, resume from the store.

A campaign's crash-safety story is the result store: the engine commits
every completed run the moment the scalar executor yields it, so a SIGKILLed
campaign process — the worst case, nothing gets to clean up — can be
resumed by any later campaign pointed at the same store, and the final
campaign JSON must be byte-identical to an uninterrupted serial run.

The scenario is gated, not timed: a forked child runs the campaign
through an executor that executes exactly a few runs, then signals
and sleeps before the next one, so the campaign is provably mid-run —
some runs stored, some not — when the SIGKILL lands.  It runs twice:
on the scalar executor, and on the default batch executor over a
point whose lanes all retire, which must commit each retired lane as
it finishes, not the point's runs at once.
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
    BatchExecutor,
    CampaignSpec,
    ResultStore,
    SerialExecutor,
    run_campaign_spec,
)
from repro.orchestrate.store import DB_NAME
from repro.tmu.config import full_config, tiny_config


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


def retiring_spec() -> CampaignSpec:
    # One point: a single-beat mid-burst stall records its injection
    # before the leader's onset, so seeds 0-2 run early, seed 3 leads
    # and seeds 4-7 retire — no lane derives.
    return CampaignSpec.ip(
        [full_config(budgets=fast_budgets())],
        (InjectionStage.DATA_TRANSFER_STALL,),
        beats=1,
        seeds=range(8),
    )


#: case -> (spec, executor class, runs completed before the freeze).
CASES = {
    "scalar": (crash_spec, SerialExecutor, 3),
    "retiring-lanes": (retiring_spec, BatchExecutor, 5),
}


def gated(base, runs_before_freeze, frozen):
    """A *base* executor that executes *runs_before_freeze* runs for
    real, then freezes.

    Every run the executor simulates is its own item, and the engine
    stores each item before it pulls the next one, so by the time
    ``frozen`` fires every completed run is committed.
    """

    class Gated(base):
        def map(self, points):
            items = super().map(points)
            for _ in range(runs_before_freeze):
                indices, values = next(items)
                assert len(indices) == 1
                yield indices, values
            frozen.set()
            time.sleep(600)  # hold the campaign open until SIGKILLed

    return Gated()


def _campaign_victim(case: str, store_dir: str, frozen) -> None:
    spec, base, runs_before_freeze = CASES[case]
    run_campaign_spec(
        spec(), store=store_dir,
        executor=gated(base, runs_before_freeze, frozen),
    )


def _stored_rows(store_dir) -> int:
    with ResultStore.open(store_dir) as store:
        return store.stats()["warm_rows"]


def test_sigkilled_coordinator_resumes_byte_identical(tmp_path):
    kill_and_resume(tmp_path, "scalar")


def test_sigkilled_batch_commits_each_retired_lane(tmp_path):
    kill_and_resume(tmp_path, "retiring-lanes")


def kill_and_resume(tmp_path, case):
    make_spec, base, runs_before_freeze = CASES[case]
    spec = make_spec()
    assert len(spec.runs()) > runs_before_freeze + 1
    serial_json = to_json(campaign_dict(
        run_campaign_spec(spec, executor=SerialExecutor()), spec=spec
    ))

    store_dir = tmp_path / "store"
    context = multiprocessing.get_context("fork")
    frozen = context.Event()

    victim = context.Process(
        target=_campaign_victim, args=(case, str(store_dir), frozen),
        daemon=True,
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
    assert runs_before_freeze <= stored_before_resume < total

    # Resume: same spec, same store, same executor, handed only the
    # missing runs of each point.
    executed = []

    class Counting(base):
        def map(self, points):
            for indices, values in super().map(points):
                executed.extend(runs[index].run_id for index in indices)
                yield indices, values

    runs = spec.runs()

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
