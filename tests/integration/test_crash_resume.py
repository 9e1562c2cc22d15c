"""Crash/resume integration: kill the coordinator, resume from the store.

The distributed executor's crash-safety story is the result store:
every completed run is committed there as it streams in, so a
SIGKILLed coordinator — the worst case, nothing gets to clean up — can
be resumed by any later campaign pointed at the same store, and the
final campaign JSON must be byte-identical to an uninterrupted serial
run.  (The worker-kill half of the story lives in
``tests/orchestrate/test_distributed.py``.)

The scenario is gated, not timed: a protocol-level worker executes
exactly three shards, then signals and sits on its fourth lease, so the
coordinator is provably mid-campaign — some runs stored, some not —
when the SIGKILL lands.
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
    DistributedExecutor,
    ResultStore,
    SerialExecutor,
    plan_shards,
    run_campaign_spec,
)
from repro.orchestrate.executor import execute_shard
from repro.orchestrate.store import DB_NAME
from repro.orchestrate.remote import (
    expect,
    hello_message,
    recv_frame,
    result_message,
    send_frame,
)
from repro.tmu.config import full_config, tiny_config

#: Shards the gated worker completes before it freezes on its next lease.
SHARDS_BEFORE_FREEZE = 3


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


def _coordinator_victim(store_dir: str, port_file: str) -> None:
    """Child-process coordinator: bind, announce the port, serve shards."""
    executor = DistributedExecutor(port=0, lease_timeout=600, result_timeout=120)
    _host, port = executor.bind()
    tmp = port_file + ".tmp"
    with open(tmp, "w") as stream:
        stream.write(str(port))
    os.replace(tmp, port_file)  # atomic: the parent never reads half a port
    run_campaign_spec(crash_spec(), store=store_dir, executor=executor)


def _gated_worker(port: int, frozen) -> None:
    """Execute SHARDS_BEFORE_FREEZE shards for real, then hold a lease."""
    import socket as socket_module

    sock = socket_module.create_connection(("127.0.0.1", port))
    from repro.orchestrate.serialize import shard_from_dict

    try:
        send_frame(sock, hello_message("gated"))
        expect(recv_frame(sock), "welcome")
        executed = 0
        while True:
            message = recv_frame(sock)
            if message is None or message["type"] == "done":
                break
            shard = shard_from_dict(message["shard"])
            if executed >= SHARDS_BEFORE_FREEZE:
                frozen.set()
                time.sleep(600)  # hold the lease until SIGKILLed
            index, results = execute_shard(shard)
            send_frame(sock, result_message(index, shard.run_ids, results))
            executed += 1
    finally:
        sock.close()


def _stored_rows(store_dir) -> int:
    with ResultStore.open(store_dir) as store:
        return store.stats()["warm_rows"]


def _wait_for(predicate, timeout: float, message: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(message)
        time.sleep(0.05)


def test_sigkilled_coordinator_resumes_byte_identical(tmp_path):
    spec = crash_spec()
    shards = plan_shards(spec.runs())
    assert len(shards) > SHARDS_BEFORE_FREEZE + 1
    serial_json = to_json(campaign_dict(run_campaign_spec(spec), spec=spec))

    store_dir = tmp_path / "store"
    port_file = str(tmp_path / "port")
    context = multiprocessing.get_context("fork")
    frozen = context.Event()

    victim = context.Process(
        target=_coordinator_victim, args=(str(store_dir), port_file), daemon=True
    )
    victim.start()
    _wait_for(
        lambda: os.path.exists(port_file), 30, "coordinator never announced a port"
    )
    with open(port_file) as stream:
        port = int(stream.read())

    worker = context.Process(target=_gated_worker, args=(port, frozen), daemon=True)
    worker.start()
    assert frozen.wait(timeout=60), "worker never reached its freeze point"

    # The coordinator must have stored the completed runs before we
    # murder it mid-campaign.
    _wait_for(
        lambda: _stored_rows(store_dir) >= SHARDS_BEFORE_FREEZE,
        30,
        "completed runs never reached the store",
    )
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
    assert victim.exitcode == -signal.SIGKILL
    os.kill(worker.pid, signal.SIGKILL)
    worker.join(timeout=10)

    stored_before_resume = _stored_rows(store_dir)
    total = len(spec.runs())
    assert SHARDS_BEFORE_FREEZE <= stored_before_resume < total

    # Resume: same spec, same store, plain serial executor.
    executed = []
    original = execute_shard

    class Counting(SerialExecutor):
        def map(self, pending):
            for shard in pending:
                executed.extend(shard.run_ids)
                yield original(shard)

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
