"""Unit tests for the Outstanding Transaction Table (HT/LD/EI)."""

import pytest

from repro.axi.types import AxiDir
from repro.tmu.ott import OttFullError, OutstandingTransactionTable


def make(max_ids=4, per_id=4):
    return OutstandingTransactionTable(max_ids, per_id)


def enq(table, tid, cycle=0, **kwargs):
    defaults = dict(
        orig_id=tid + 100, direction=AxiDir.WRITE, addr=0x100, beats=4
    )
    defaults.update(kwargs)
    return table.enqueue(tid, cycle=cycle, **defaults)


def test_dimensions_validated():
    with pytest.raises(ValueError):
        OutstandingTransactionTable(0, 4)
    with pytest.raises(ValueError):
        OutstandingTransactionTable(4, 0)


def test_capacity_is_product():
    table = make(4, 8)
    assert table.capacity == 32


def test_enqueue_links_per_id_fifo():
    table = make()
    first = enq(table, 1, addr=0xA)
    second = enq(table, 1, addr=0xB)
    assert table.head_of(1) is first
    assert first.next == second.index


def test_head_of_unknown_tid_is_none():
    table = make()
    assert table.head_of(2) is None
    assert table.head_of(99) is None


def test_dequeue_preserves_fifo_order():
    table = make()
    entries = [enq(table, 0, addr=addr) for addr in (1, 2, 3)]
    dequeued = [table.dequeue_head(0).index for _ in range(3)]
    assert dequeued == [entry.index for entry in entries]


def test_dequeue_empty_raises():
    table = make()
    with pytest.raises(KeyError):
        table.dequeue_head(0)


def test_per_id_limit_enforced():
    table = make(4, 2)
    enq(table, 0)
    enq(table, 0)
    assert not table.can_enqueue(0)
    assert table.can_enqueue(1)
    with pytest.raises(OttFullError):
        enq(table, 0)


def test_total_capacity_enforced():
    table = make(2, 2)
    for tid in (0, 0, 1, 1):
        enq(table, tid)
    assert table.full
    assert not table.can_enqueue(0)


def test_out_of_range_tid_rejected():
    table = make(2, 2)
    assert not table.can_enqueue(2)
    assert not table.can_enqueue(-1)


def test_free_list_recycled():
    table = make(2, 2)
    for _ in range(10):
        enq(table, 0)
        enq(table, 1)
        table.dequeue_head(0)
        table.dequeue_head(1)
    assert table.occupancy == 0


def test_ei_front_follows_acceptance_order_across_ids():
    table = make()
    first = enq(table, 0)
    second = enq(table, 1)
    assert table.ei_front() is first
    table.ei_advance()
    assert table.ei_front() is second


def test_ei_skips_dequeued_entries():
    table = make()
    enq(table, 0)
    second = enq(table, 1)
    # Complete the first entirely (dequeue also removes it from EI).
    table.dequeue_head(0)
    assert table.ei_front() is second


def test_ei_position_counts_queue_ahead():
    table = make()
    first = enq(table, 0)
    second = enq(table, 1)
    third = enq(table, 2)
    assert table.ei_position(first.index) == 0
    assert table.ei_position(second.index) == 1
    assert table.ei_position(third.index) == 2
    assert table.ei_position(999) is None


def test_interleaved_ids_keep_independent_fifos():
    table = make()
    a1 = enq(table, 0, addr=0xA1)
    b1 = enq(table, 1, addr=0xB1)
    a2 = enq(table, 0, addr=0xA2)
    assert table.dequeue_head(0).index == a1.index
    assert table.head_of(0).index == a2.index
    assert table.head_of(1).index == b1.index


def test_id_count_tracks_occupancy_per_id():
    table = make()
    enq(table, 3)
    enq(table, 3)
    assert table.id_count(3) == 2
    table.dequeue_head(3)
    assert table.id_count(3) == 1


def test_clear_releases_everything():
    table = make(2, 2)
    for tid in (0, 1):
        enq(table, tid)
    table.clear()
    assert table.occupancy == 0
    assert table.ei_front() is None
    assert table.head_of(0) is None
    assert table.can_enqueue(0)


def test_live_entries_iterates_used_only():
    table = make()
    enq(table, 0)
    enq(table, 1)
    table.dequeue_head(0)
    live = list(table.live_entries())
    assert len(live) == 1
    assert live[0].tid == 1


def test_entry_fields_initialized_on_enqueue():
    table = make()
    entry = enq(table, 2, cycle=42, beats=8)
    assert entry.used
    assert entry.enqueue_cycle == 42
    assert entry.phase_start_cycle == 42
    assert entry.beats == 8
    assert entry.beats_seen == 0
    assert not entry.w_done
    assert not entry.timeout
    assert entry.phase_latencies == {}


def test_reused_entry_matches_entry_built_on_first_use():
    table = make(4, 1)
    # Dirty every entry, then free them all: index 0 comes back first.
    for tid in range(4):
        stale = enq(table, tid, cycle=7, beats=2)
        stale.state, stale.beats_seen, stale.next = 3, 2, 1
        stale.w_done = stale.timeout = True
        stale.phase_latencies = {"aw": 5}
    for tid in range(4):
        table.dequeue_head(tid)
    reused = enq(table, 2, cycle=42, beats=8)
    assert reused.index == 0
    assert reused == enq(make(4, 1), 2, cycle=42, beats=8)


def test_large_table_builds_entries_on_first_use():
    table = make(16, 256)
    assert table.capacity == 4096
    assert table._ld.count(None) == 4096  # nothing built at construction
    first = [enq(table, tid).index for tid in (0, 1, 0)]
    assert first == [0, 1, 2]
    assert table._ld.count(None) == 4096 - 3
    assert table.dequeue_head(0).index == 0
    # Freed indices rejoin the free list at the back.
    assert [enq(table, 3).index for _ in range(2)] == [3, 4]
    table.clear()
    assert [enq(table, tid).index for tid in (5, 6)] == [0, 1]
    assert table._ld.count(None) == 4096 - 5
