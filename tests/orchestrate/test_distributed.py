"""Fault-tolerance battery for the distributed campaign executor.

Three layers:

* :class:`ShardBoard` unit tests — the lease ledger in isolation, with
  a fake clock driving expiry.
* Executor integration — coordinator + real workers over loopback
  sockets, including a silent (lease-expired) worker and a SIGKILLed
  one, both of which must be invisible in the aggregated results.
* The acceptance bar — a Fig. 11-shaped campaign through coordinator +
  2 workers, one of them killed mid-shard, serializes byte-identically
  to the serial run, and a re-run against the same result store
  reproduces it without simulating anything.
"""

import os
import signal
import socket
import threading
import time

import pytest

from tests.conftest import fast_budgets

from repro.analysis.export import campaign_dict, to_json
from repro.faults.types import InjectionStage
from repro.orchestrate import (
    CampaignSpec,
    DistributedExecutor,
    DistributedTimeout,
    ProgressReporter,
    SerialExecutor,
    ShardBoard,
    make_executor,
    plan_shards,
    run_campaign_spec,
    worker_loop,
)
from repro.orchestrate import executor as executor_module
from repro.orchestrate.executor import execute_shard
from repro.orchestrate.remote import (
    expect,
    hello_message,
    recv_frame,
    result_message,
    send_frame,
)
from repro.soc.experiment import FIG11_STAGES
from repro.tmu.config import Variant, full_config, tiny_config

import io
import multiprocessing


def ip_spec(seeds=(0,), stages=None):
    return CampaignSpec.ip(
        [full_config(budgets=fast_budgets()), tiny_config(budgets=fast_budgets())],
        stages
        or (
            InjectionStage.AW_READY_MISSING,
            InjectionStage.WLAST_TO_BVALID,
            InjectionStage.R_VALID_MISSING,
        ),
        beats=4,
        seeds=seeds,
    )


def fig11_spec():
    return CampaignSpec.system((Variant.FULL, Variant.TINY), FIG11_STAGES, beats=16)


def campaign_json(spec, results):
    return to_json(campaign_dict(results, spec=spec))


# ----------------------------------------------------------------------
# ShardBoard: the lease ledger
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def shards():
    return plan_shards(ip_spec().runs())


def test_board_hands_out_pending_in_order(shards):
    board = ShardBoard(shards, lease_timeout=60)
    claimed = [board.claim("w0") for _ in shards]
    assert [shard.index for shard in claimed] == [s.index for s in shards]


def test_board_done_after_all_complete(shards):
    board = ShardBoard(shards, lease_timeout=60)
    for _ in shards:
        shard = board.claim("w0")
        assert board.complete(shard.index, "w0")
    assert board.all_done
    assert board.claim("w1") is None


def test_board_duplicate_completion_dropped(shards):
    board = ShardBoard(shards, lease_timeout=60)
    shard = board.claim("w0")
    assert board.complete(shard.index, "w0") is True
    assert board.complete(shard.index, "w1") is False


def test_board_release_requeues_at_front(shards):
    board = ShardBoard(shards, lease_timeout=60)
    first = board.claim("w0")
    second = board.claim("w0")
    assert board.release_worker("w0") == 2
    # Forfeited shards come back before the untouched tail, oldest first.
    assert board.claim("w1").index in (first.index, second.index)


def test_board_release_ignores_stolen_lease(shards):
    clock = FakeClock()
    board = ShardBoard(shards[:1], lease_timeout=1.0, clock=clock)
    stolen = board.claim("w0")
    clock.now = 2.0
    assert board.claim("w1").index == stolen.index  # stolen after expiry
    # The original holder dying must not requeue a shard it no longer owns.
    assert board.release_worker("w0") == 0
    assert board.complete(stolen.index, "w1")
    assert board.all_done


def test_board_lease_expiry_allows_steal(shards):
    clock = FakeClock()
    board = ShardBoard(shards, lease_timeout=5.0, clock=clock)
    held = board.claim("slow")
    for _ in shards[1:]:
        board.claim("fast")
    # Everything is leased; a fresh claim must wait...
    start = time.monotonic()
    assert board.claim("fast", should_stop=lambda: True) is None
    assert time.monotonic() - start < 1.0
    # ...until the slow worker's lease expires.
    clock.now = 6.0
    assert board.claim("fast").index == held.index
    assert board.reassignments == 1


def test_board_rejects_nonpositive_lease(shards):
    with pytest.raises(ValueError):
        ShardBoard(shards, lease_timeout=0)


def test_board_renew_extends_only_live_leases(shards):
    clock = FakeClock()
    board = ShardBoard(shards, lease_timeout=1.0, clock=clock)
    shard = board.claim("w0")
    clock.now = 0.8
    assert board.renew(shard.index, "w0") is True  # heartbeat arrived
    clock.now = 1.5  # would have expired without the renewal
    assert board._expired_lease() is None
    assert board.renew(shard.index, "thief") is False  # not the holder
    assert board.renew(99999, "w0") is False  # no such lease
    board.complete(shard.index, "w0")
    assert board.renew(shard.index, "w0") is False  # already done


def test_board_stale_pending_entry_is_not_rehanded(shards):
    """A requeued-then-completed shard must not burn another worker."""
    clock = FakeClock()
    board = ShardBoard(shards[:2], lease_timeout=1.0, clock=clock)
    s0 = board.claim("A")           # deadline 1.0
    clock.now = 0.9
    s1 = board.claim("B")           # deadline 1.9
    clock.now = 1.0                 # only A's lease has expired
    assert board.claim("C").index == s0.index  # C steals s0
    board.release_worker("C")       # C dies; s0 goes back to pending
    assert board.complete(s0.index, "A")  # ...but A finishes it first
    # The stale pending copy of s0 must be skipped: with s1 validly
    # leased, there is nothing claimable right now.
    assert board.claim("D", should_stop=lambda: True) is None
    board.complete(s1.index, "B")
    assert board.all_done


def test_board_claim_blocks_until_completion_unblocks(shards):
    board = ShardBoard(shards[:1], lease_timeout=60)
    shard = board.claim("w0")
    outcome = {}

    def late_claimer():
        outcome["shard"] = board.claim("w1")

    thread = threading.Thread(target=late_claimer)
    thread.start()
    time.sleep(0.1)
    board.complete(shard.index, "w0")
    thread.join(timeout=5)
    assert outcome["shard"] is None  # all work done, claimer released


# ----------------------------------------------------------------------
# Executor integration over loopback
# ----------------------------------------------------------------------
def test_make_executor_distributed_slot():
    executor = DistributedExecutor()
    assert make_executor(1, distributed=executor) is executor
    built = make_executor(1, distributed={"local_workers": 3})
    assert isinstance(built, DistributedExecutor)
    assert built.local_workers == 3
    assert isinstance(make_executor(1), SerialExecutor)


def test_empty_shard_list_never_binds():
    executor = DistributedExecutor(port=0)
    assert list(executor.map([])) == []
    assert executor._server is None


def test_distributed_matches_serial_with_local_workers():
    spec = ip_spec(seeds=(0, 1))
    serial = run_campaign_spec(spec)
    executor = DistributedExecutor(local_workers=2, result_timeout=120)
    distributed = run_campaign_spec(spec, executor=executor)
    assert distributed == serial


def test_distributed_with_external_worker_threads():
    spec = ip_spec()
    serial = run_campaign_spec(spec)
    executor = DistributedExecutor(result_timeout=120)
    host, port = executor.bind()
    workers = [
        threading.Thread(target=worker_loop, args=(host, port), daemon=True)
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    distributed = run_campaign_spec(spec, executor=executor)
    for worker in workers:
        worker.join(timeout=10)
    assert distributed == serial


def test_result_timeout_raises_without_workers():
    executor = DistributedExecutor(result_timeout=0.6)
    shards = plan_shards(ip_spec().runs())
    with pytest.raises(DistributedTimeout, match="0 worker"):
        list(executor.map(shards))


def test_progress_status_shows_workers():
    spec = ip_spec()
    stream = io.StringIO()
    reporter = ProgressReporter(len(spec.runs()), stream=stream)
    executor = DistributedExecutor(local_workers=1, result_timeout=120)
    run_campaign_spec(spec, executor=executor, progress=reporter)
    assert "worker(s)" in stream.getvalue()


def _hold_first_shard(port, claimed, release):
    """Protocol-level worker that leases one shard and sits on it."""
    sock = socket.create_connection(("127.0.0.1", port))
    try:
        send_frame(sock, hello_message("staller"))
        expect(recv_frame(sock), "welcome")
        message = recv_frame(sock)
        assert message["type"] == "shard"
        claimed.set()
        release.wait(timeout=120)
    finally:
        sock.close()


def test_heartbeat_keeps_slow_healthy_shard_leased(monkeypatch):
    """A shard slower than the lease timeout is not stolen from a live
    worker: heartbeats (at a third of the timeout) renew the lease."""
    from repro.orchestrate import distributed as distributed_module

    spec = ip_spec(stages=(InjectionStage.AW_READY_MISSING,))
    serial = run_campaign_spec(spec)
    original = distributed_module.execute_shard
    executions = []

    def slow_execute(shard):
        executions.append(shard.index)
        time.sleep(1.3)  # far past the 0.5s lease
        return original(shard)

    monkeypatch.setattr(distributed_module, "execute_shard", slow_execute)
    executor = DistributedExecutor(lease_timeout=0.5, result_timeout=120)
    host, port = executor.bind()
    workers = [
        threading.Thread(target=worker_loop, args=(host, port), daemon=True)
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    results = run_campaign_spec(spec, executor=executor)
    for worker in workers:
        worker.join(timeout=30)
    assert results == serial
    assert executor._board.reassignments == 0
    assert sorted(executions) == sorted(set(executions))  # nothing re-run


def test_worker_exits_cleanly_when_coordinator_offers_no_work():
    """A coordinator that hangs up before the welcome (campaign already
    satisfied from cache, or dead) is a clean zero-shard exit."""
    server = socket.create_server(("127.0.0.1", 0))
    _host, port = server.getsockname()
    outcome = {}

    def pull():
        outcome["executed"] = worker_loop("127.0.0.1", port)

    worker = threading.Thread(target=pull)
    worker.start()
    conn, _addr = server.accept()
    assert recv_frame(conn)["type"] == "hello"
    conn.close()  # no work for you — hang up instead of welcoming
    server.close()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert outcome["executed"] == 0


def test_fully_cached_campaign_closes_bound_server(tmp_path):
    """A resume whose store is complete must release the announced port
    immediately, so waiting workers see EOF instead of hanging."""
    from repro.orchestrate.distributed import connect_with_retry

    spec = ip_spec()
    store = tmp_path / "store"
    run_campaign_spec(spec, store=store)  # warm the store fully
    executor = DistributedExecutor(result_timeout=120)
    host, port = executor.bind()
    cached = run_campaign_spec(spec, store=store, executor=executor)
    assert executor._server is None
    with pytest.raises(OSError):
        connect_with_retry(host, port, retry_seconds=0.3)
    assert cached == run_campaign_spec(spec)


def test_silent_worker_lease_expires_and_campaign_completes():
    """A connected-but-hung worker only costs its lease, not the campaign."""
    spec = ip_spec()
    serial = run_campaign_spec(spec)
    executor = DistributedExecutor(lease_timeout=0.5, result_timeout=120)
    host, port = executor.bind()

    claimed, release = threading.Event(), threading.Event()
    staller = threading.Thread(
        target=_hold_first_shard, args=(port, claimed, release), daemon=True
    )
    results = {}

    def campaign():
        results["out"] = run_campaign_spec(spec, executor=executor)

    runner = threading.Thread(target=campaign)
    staller.start()
    runner.start()
    assert claimed.wait(timeout=30), "staller never got a lease"
    # Only now admit a real worker: the staller provably holds a shard
    # that the real worker can only obtain by expiring the lease.
    real = threading.Thread(target=worker_loop, args=(host, port), daemon=True)
    real.start()
    runner.join(timeout=120)
    release.set()
    assert not runner.is_alive(), "campaign did not complete"
    assert results["out"] == serial
    assert executor._board.reassignments >= 1


def _worker_process_loop(port):
    worker_loop("127.0.0.1", port, retry_seconds=30)


def test_sigkilled_worker_forfeits_lease_immediately():
    """SIGKILL (EOF), unlike silence, requeues without waiting the lease out."""
    spec = ip_spec(seeds=(0, 1))
    serial = run_campaign_spec(spec)
    # Lease far longer than the test: only the EOF path can requeue.
    executor = DistributedExecutor(lease_timeout=600, result_timeout=120)
    host, port = executor.bind()

    context = multiprocessing.get_context()
    claimed = context.Event()
    release = context.Event()
    victim = context.Process(
        target=_hold_first_shard, args=(port, claimed, release), daemon=True
    )
    results = {}

    def campaign():
        results["out"] = run_campaign_spec(spec, executor=executor)

    runner = threading.Thread(target=campaign)
    victim.start()
    runner.start()
    assert claimed.wait(timeout=30), "victim never got a lease"
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
    real = threading.Thread(target=worker_loop, args=(host, port), daemon=True)
    real.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "campaign did not complete after the kill"
    assert results["out"] == serial


# ----------------------------------------------------------------------
# Fleet health: board events, status snapshots, the status wire frame
# ----------------------------------------------------------------------
def test_board_narrates_lease_lifecycle(shards):
    from repro.telemetry import EventLog

    clock = FakeClock()
    log = EventLog()
    board = ShardBoard(
        shards[:2], lease_timeout=1.0, clock=clock, event_hook=log.append
    )
    first = board.claim("A")
    board.renew(first.index, "A")
    clock.now = 2.0  # A's lease expires silently
    stolen = board.claim("B")  # B steals A's expired shard or takes #2
    board.complete(stolen.index, "B")
    board.complete(stolen.index, "B")  # duplicate: dropped, narrated
    board.release_worker("B")

    kinds = [e["event"] for e in log.snapshot()]
    assert "lease_claimed" in kinds
    assert "lease_renewed" in kinds
    assert "shard_completed" in kinds
    assert "duplicate_dropped" in kinds
    claimed = next(e for e in log.snapshot() if e["event"] == "lease_claimed")
    assert claimed["worker"] == "A" and claimed["shard"] == first.index


def test_board_steal_emits_expired_and_stolen(shards):
    from repro.telemetry import EventLog

    clock = FakeClock()
    log = EventLog()
    board = ShardBoard(
        shards[:1], lease_timeout=1.0, clock=clock, event_hook=log.append
    )
    shard = board.claim("victim")
    clock.now = 5.0
    stolen = board.claim("thief")
    assert stolen.index == shard.index
    events = {e["event"]: e for e in log.snapshot()}
    assert events["lease_expired"]["worker"] == "victim"
    assert events["lease_stolen"]["worker"] == "thief"
    assert events["lease_stolen"]["shard"] == shard.index
    assert board.reassignments == 1


def test_board_snapshot_shows_expired_lease(shards):
    clock = FakeClock()
    board = ShardBoard(shards[:2], lease_timeout=1.0, clock=clock)
    shard = board.claim("gone")
    clock.now = 3.0
    snapshot = board.snapshot()
    assert snapshot["total"] == 2
    assert snapshot["completed"] == 0
    (lease,) = snapshot["leases"]
    assert lease["shard"] == shard.index
    assert lease["worker"] == "gone"
    assert lease["expired"] is True
    assert lease["expires_in"] <= 0


def test_status_frame_reflects_killed_workers_lease_expiry():
    """The acceptance scenario: a worker SIGKILLs mid-shard; a status
    poll against the live coordinator must show the forfeiture — the
    worker gone (EOF event) and its shard back in play."""
    from repro.orchestrate.distributed import request_status

    spec = ip_spec(seeds=(0, 1))
    executor = DistributedExecutor(lease_timeout=600, result_timeout=120)
    host, port = executor.bind()

    context = multiprocessing.get_context()
    claimed = context.Event()
    release = context.Event()
    victim = context.Process(
        target=_hold_first_shard, args=(port, claimed, release), daemon=True
    )
    shards = plan_shards(spec.runs())
    results = {}

    def campaign():
        results["out"] = run_campaign_spec(spec, executor=executor)

    runner = threading.Thread(target=campaign)
    victim.start()
    runner.start()
    try:
        assert claimed.wait(timeout=30), "victim never got a lease"
        before = request_status(host, port)
        assert before["connected_workers"] == 1
        assert "staller" in before["workers"]
        leased = {
            lease["shard"] for lease in before["campaign"]["leases"]
        }
        assert leased, "victim's lease must be visible"

        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        deadline = time.monotonic() + 30
        after = request_status(host, port)
        while time.monotonic() < deadline and (
            after["connected_workers"] or "worker_eof" not in
            {e["event"] for e in after["events"]}
        ):
            time.sleep(0.1)
            after = request_status(host, port)
        # The kill is an EOF: worker marked gone, leases released.
        assert after["connected_workers"] == 0
        assert after["workers"]["staller"]["connected"] is False
        kinds = {e["event"] for e in after["events"]}
        assert "worker_connect" in kinds
        assert "worker_eof" in kinds
        assert "leases_released" in kinds
        held = {lease["shard"] for lease in after["campaign"]["leases"]}
        assert not (leased & held), "forfeited lease still held"
    finally:
        real = threading.Thread(target=worker_loop, args=(host, port),
                                daemon=True)
        real.start()
        runner.join(timeout=120)
    assert not runner.is_alive()
    assert results["out"] == run_campaign_spec(spec)


def test_status_snapshot_counts_completed_shards():
    spec = ip_spec()
    executor = DistributedExecutor(local_workers=1, result_timeout=120)
    run_campaign_spec(spec, executor=executor)
    status = executor.status_snapshot()
    # The board survives the campaign for post-mortem polls: fully
    # completed, nothing pending or leased.
    campaign = status["campaign"]
    assert campaign["completed"] == campaign["total"]
    assert campaign["pending"] == 0 and campaign["leases"] == []
    assert status["connected_workers"] == 0
    total = sum(
        info["shards_completed"] for info in status["workers"].values()
    )
    assert total == len(plan_shards(spec.runs()))
    kinds = {e["event"] for e in status["events"]}
    assert {"worker_connect", "shard_completed", "worker_eof"} <= kinds


def test_executor_metrics_count_fleet_activity():
    from repro.telemetry import MetricsRegistry

    spec = ip_spec()
    metrics = MetricsRegistry()
    executor = DistributedExecutor(local_workers=1, result_timeout=120)
    results = run_campaign_spec(spec, executor=executor, metrics=metrics)
    assert results == run_campaign_spec(spec)
    snapshot = metrics.to_dict()
    shards = len(plan_shards(spec.runs()))
    assert snapshot["counters"]["fleet.shard_completed"] == shards
    assert snapshot["counters"]["fleet.worker_connect"] == 1
    assert snapshot["counters"]["campaign.runs_executed"] == len(spec.runs())


# ----------------------------------------------------------------------
# Acceptance: Fig. 11 byte-identity through kill and resume
# ----------------------------------------------------------------------
def test_fig11_distributed_byte_identical_with_worker_kill_and_resume(
    tmp_path, monkeypatch
):
    spec = fig11_spec()
    serial_json = campaign_json(spec, run_campaign_spec(spec))

    # Coordinator + 2 loopback workers; one is SIGKILLed while it holds
    # a shard lease, mid-campaign.
    executor = DistributedExecutor(lease_timeout=600, result_timeout=120)
    host, port = executor.bind()
    context = multiprocessing.get_context()
    claimed, release = context.Event(), context.Event()
    victim = context.Process(
        target=_hold_first_shard, args=(port, claimed, release), daemon=True
    )
    results = {}
    store = tmp_path / "store"

    def campaign():
        results["out"] = run_campaign_spec(spec, store=store, executor=executor)

    runner = threading.Thread(target=campaign)
    victim.start()
    runner.start()
    assert claimed.wait(timeout=30)
    os.kill(victim.pid, signal.SIGKILL)
    survivor = threading.Thread(target=worker_loop, args=(host, port), daemon=True)
    survivor.start()
    runner.join(timeout=120)
    assert not runner.is_alive()
    assert campaign_json(spec, results["out"]) == serial_json

    # Resume against the same store: every run is already there, so
    # nothing may simulate, and the JSON stays byte-identical.
    monkeypatch.setattr(
        executor_module,
        "execute_shard",
        lambda shard: pytest.fail("resume must not re-simulate"),
    )
    resumed = run_campaign_spec(spec, store=store)
    assert campaign_json(spec, resumed) == serial_json


def test_partial_cache_resume_only_runs_missing_shards(tmp_path):
    """Crash-shaped store state: some shards present, the rest missing."""
    from repro.orchestrate import ResultStore

    spec = ip_spec(seeds=(0, 1))
    serial_json = campaign_json(spec, run_campaign_spec(spec))
    shards = plan_shards(spec.runs())

    # Simulate a campaign killed after three shards: only they are stored.
    store = ResultStore.open(tmp_path / "store")
    for shard in shards[:3]:
        for run, result in zip(shard.runs, execute_shard(shard)[1]):
            store.put(run, result)

    executed = []
    original = execute_shard

    class Counting(SerialExecutor):
        def map(self, pending):
            for shard in pending:
                executed.extend(shard.run_ids)
                yield original(shard)

    resumed = run_campaign_spec(spec, store=store, executor=Counting())
    assert campaign_json(spec, resumed) == serial_json
    assert executed == [
        run_id for shard in shards[3:] for run_id in shard.run_ids
    ]


# ----------------------------------------------------------------------
# Shared result store: workers short-circuit runs another worker pushed
# ----------------------------------------------------------------------
def test_worker_with_store_skips_prepopulated_runs(tmp_path, monkeypatch):
    """A worker handed runs already in the shared store must not
    re-simulate them — the reassigned-shard reuse path."""
    from repro.orchestrate import ResultStore
    from repro.orchestrate import executor as executor_module

    spec = ip_spec(seeds=(0, 1))
    serial = run_campaign_spec(spec)
    store_dir = tmp_path / "store"
    store = ResultStore.open(store_dir)
    runs = spec.runs()
    for run, result in zip(runs, serial):
        store.put(run, result)
    store.close()

    simulated = []
    real = executor_module.execute_run

    def counting(run, trace=None):
        simulated.append(run.run_id)
        return real(run, trace)

    monkeypatch.setattr(executor_module, "execute_run", counting)

    executor = DistributedExecutor(result_timeout=120)
    host, port = executor.bind()
    worker = threading.Thread(
        target=worker_loop,
        args=(host, port),
        kwargs={"store": str(store_dir)},
        daemon=True,
    )
    worker.start()
    distributed = run_campaign_spec(spec, executor=executor)
    worker.join(timeout=10)
    assert distributed == serial
    assert simulated == []  # every run came out of the shared store


def test_local_workers_inherit_store_dir(tmp_path):
    """DistributedExecutor(store_dir=...) hands the store to the loopback
    workers it spawns; results land in it for the next campaign."""
    from repro.orchestrate import ResultStore

    store_dir = tmp_path / "store"
    spec = ip_spec()
    executor = DistributedExecutor(
        local_workers=2, result_timeout=120, store_dir=str(store_dir)
    )
    results = run_campaign_spec(spec, executor=executor)
    store = ResultStore.open(store_dir)
    assert list(store.iter_results(spec.runs())) == results
