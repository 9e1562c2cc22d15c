"""Outstanding Transaction Table (paper §II-C, Fig. 3).

The OTT is the TMU's bookkeeping core, split into three linked subtables
exactly as the paper describes:

* **HT (ID Head-Tail) table** — one entry per tracked unique ID, holding
  head/tail pointers into the LD table.  This gives each ID a FIFO so
  same-ID transactions complete in order, as AXI4 requires.
* **LD (Linked Data) table** — one entry per outstanding transaction:
  ID, address, burst geometry, state, budget counter, latency record,
  timeout status, and the ``next`` link forming the per-ID FIFO.
* **EI (Enqueue Index) table** — the global AW/AR acceptance order.  For
  writes it associates each W beat with the correct transaction (the W
  channel carries no ID in AXI4, so W bursts follow AW order); for reads
  it aligns AR with the R data phase.

Capacity is ``MaxUniqIDs × TxnPerUniqID``; enqueue fails (and the TMU
stalls the request) when either the per-ID FIFO or the LD free list is
exhausted.
"""

from __future__ import annotations

import dataclasses
from bisect import insort
from collections import deque
from typing import Iterator, Optional

from ..axi.types import AxiDir
from ..sim.component import RegisteredState
from .counters import PrescaledCounter


@dataclasses.dataclass
class LdEntry:
    """One Linked-Data table entry: a tracked outstanding transaction."""

    index: int
    used: bool = False
    tid: int = 0
    orig_id: int = 0
    direction: AxiDir = AxiDir.WRITE
    addr: int = 0
    beats: int = 1
    state: int = 0
    counter: Optional[PrescaledCounter] = None
    next: Optional[int] = None
    enqueue_cycle: int = 0
    phase_start_cycle: int = 0
    beats_seen: int = 0
    w_done: bool = False
    timeout: bool = False
    phase_latencies: Optional[dict] = None

    def release(self) -> None:
        self.used = False
        self.next = None
        self.counter = None
        self.beats_seen = 0
        self.w_done = False
        self.timeout = False
        self.phase_latencies = None


@dataclasses.dataclass
class _HtEntry:
    """One Head-Tail table entry: the FIFO anchor for a unique ID."""

    valid: bool = False
    head: Optional[int] = None
    tail: Optional[int] = None
    count: int = 0


class OttFullError(Exception):
    """Raised by strict enqueue when the table cannot accept the request."""


class OutstandingTransactionTable(RegisteredState):
    """HT + LD + EI linked tables tracking outstanding transactions.

    One OTT instance serves one guard (one direction); the TMU has a
    write OTT and a read OTT, mirroring the paper's independent Write
    Guard and Read Guard.
    """

    registered = {
        # LD entries are built the first time the free list hands out
        # their index, so a reset does not scale with capacity.
        "_ld": lambda self: [None] * self.capacity,
        "_free": lambda self: deque(range(self.capacity)),
        "_ht": lambda self: [_HtEntry() for _ in range(self.max_uniq_ids)],
        "_ei": deque,
        # Sorted indices of in-use LD entries, so per-cycle iteration
        # (live_entries) costs O(occupancy), not O(capacity).
        "_live": list,
    }

    def __init__(self, max_uniq_ids: int, txn_per_id: int) -> None:
        if max_uniq_ids <= 0 or txn_per_id <= 0:
            raise ValueError("table dimensions must be positive")
        self.max_uniq_ids = max_uniq_ids
        self.txn_per_id = txn_per_id
        self.capacity = max_uniq_ids * txn_per_id
        self.reset()

    # ------------------------------------------------------------------
    # Capacity queries
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return self.capacity - len(self._free)

    @property
    def full(self) -> bool:
        return not self._free

    def id_count(self, tid: int) -> int:
        return self._ht[tid].count

    def can_enqueue(self, tid: int) -> bool:
        """True when a new transaction with *tid* can be tracked."""
        if not 0 <= tid < self.max_uniq_ids:
            return False
        return bool(self._free) and self._ht[tid].count < self.txn_per_id

    # ------------------------------------------------------------------
    # Enqueue / dequeue
    # ------------------------------------------------------------------
    def enqueue(
        self,
        tid: int,
        orig_id: int,
        direction: AxiDir,
        addr: int,
        beats: int,
        cycle: int,
    ) -> LdEntry:
        """Allocate and link an LD entry for a newly accepted transaction."""
        if not self.can_enqueue(tid):
            raise OttFullError(
                f"cannot enqueue tid {tid}: "
                f"{'LD table full' if self.full else 'per-ID limit reached'}"
            )
        index = self._free.popleft()
        entry = self._ld[index]
        if entry is None:
            entry = self._ld[index] = LdEntry(index)
        entry.used = True
        entry.tid = tid
        entry.orig_id = orig_id
        entry.direction = direction
        entry.addr = addr
        entry.beats = beats
        entry.state = 0
        entry.counter = None
        entry.next = None
        entry.enqueue_cycle = cycle
        entry.phase_start_cycle = cycle
        entry.beats_seen = 0
        entry.w_done = False
        entry.timeout = False
        entry.phase_latencies = {}

        ht = self._ht[tid]
        if ht.valid and ht.tail is not None:
            self._ld[ht.tail].next = index
            ht.tail = index
        else:
            ht.valid = True
            ht.head = index
            ht.tail = index
        ht.count += 1
        self._ei.append(index)
        insort(self._live, index)
        return entry

    def head_of(self, tid: int) -> Optional[LdEntry]:
        """The oldest outstanding transaction for *tid*, if any."""
        if not 0 <= tid < self.max_uniq_ids:
            return None
        ht = self._ht[tid]
        if not ht.valid or ht.head is None:
            return None
        return self._ld[ht.head]

    def dequeue_head(self, tid: int) -> LdEntry:
        """Complete the oldest transaction of *tid* and free its entry."""
        ht = self._ht[tid]
        if not ht.valid or ht.head is None:
            raise KeyError(f"no outstanding transaction for tid {tid}")
        index = ht.head
        entry = self._ld[index]
        ht.head = entry.next
        ht.count -= 1
        if ht.head is None:
            ht.valid = False
            ht.tail = None
        if index in self._ei:
            self._ei.remove(index)
        entry.release()
        self._free.append(index)
        self._live.remove(index)
        return entry

    # ------------------------------------------------------------------
    # EI (enqueue-order) queries — W-beat association
    # ------------------------------------------------------------------
    def ei_front(self) -> Optional[LdEntry]:
        """The transaction whose data phase is next in AW/AR order."""
        while self._ei and not self._ld[self._ei[0]].used:
            self._ei.popleft()
        if not self._ei:
            return None
        return self._ld[self._ei[0]]

    def ei_advance(self) -> None:
        """Retire the EI front (its data phase is complete)."""
        if self._ei:
            self._ei.popleft()

    def ei_pending_beats(self) -> int:
        """Data beats still owed by transactions in the EI queue.

        This is the "accumulated outstanding traffic" the adaptive
        budget mechanism (§II-F) charges against a new transaction's
        queue-waiting-time budget: every beat ahead of it must transfer
        before its own data phase can begin.
        """
        total = 0
        for ld_index in self._ei:
            entry = self._ld[ld_index]
            if entry.used and not entry.w_done:
                total += max(0, entry.beats - entry.beats_seen)
        return total

    def ei_position(self, index: int) -> Optional[int]:
        """Queue depth ahead of LD entry *index* in acceptance order."""
        for position, ld_index in enumerate(self._ei):
            if ld_index == index:
                return position
        return None

    # ------------------------------------------------------------------
    # Iteration / maintenance
    # ------------------------------------------------------------------
    def live_entries(self) -> Iterator[LdEntry]:
        ld = self._ld
        for index in self._live:
            yield ld[index]

    def clear(self) -> None:
        """Abort everything (fault recovery path)."""
        for index in self._live:
            self._ld[index].release()
        self._free = deque(range(self.capacity))
        for ht in self._ht:
            ht.valid = False
            ht.head = None
            ht.tail = None
            ht.count = 0
        self._ei.clear()
        self._live.clear()

    def __len__(self) -> int:
        return self.occupancy
