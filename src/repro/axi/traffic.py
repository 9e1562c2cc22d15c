"""Workload generation: transaction specs and stochastic traffic models.

A :class:`TransactionSpec` fully describes one AXI4 transaction the
manager will issue — direction, ID, address, burst geometry, data, and
pacing (inter-beat gaps, issue delay).  Generators build spec streams
matching the paper's evaluation workloads: random mixes over a handful of
IDs, long DMA-style bursts, and the 250-beat Ethernet frame of the
system-level experiment.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Sequence

from ..sim.component import shared_in_checkpoints
from .types import (
    MAX_BURST_LEN,
    AxiDir,
    BurstType,
    axlen_of,
    beat_lane,
    burst_addresses,
    bytes_per_beat,
    wrap_boundary,
)


@shared_in_checkpoints
class WireBeats(tuple):
    """A write burst's ``(data, strb)`` beats as the W channel carries
    them; immutable, so checkpoints share them."""


@shared_in_checkpoints
@dataclasses.dataclass
class TransactionSpec:
    """One transaction to be issued by a traffic-generating manager.

    Parameters
    ----------
    direction:
        Write or read.
    txn_id:
        AXI ID as seen on the manager's port (before any remapping).
    addr:
        Start address.
    len:
        AxLEN (beats - 1).
    size:
        AxSIZE (log2 bytes per beat).
    burst:
        Burst type.
    data:
        Write data beats; generated deterministically when ``None``.
    issue_delay:
        Idle cycles the manager waits before presenting the address beat.
    w_gap:
        Idle cycles between consecutive W beats (models source stalls).
    resp_ready_delay:
        Cycles the manager delays ``b.ready``/``r.ready`` per beat.
    qos:
        AxQOS priority (0-15); honoured by QoS-arbitrating crossbars.
    bus_bytes:
        Width of the data bus the transaction travels on.  Narrow beats
        (``size`` < bus width) occupy the byte lanes their addresses
        select; a beat wider than the bus is rejected outright.
    """

    direction: AxiDir
    txn_id: int
    addr: int
    len: int = 0
    size: int = 3
    burst: BurstType = BurstType.INCR
    data: Optional[List[int]] = None
    issue_delay: int = 0
    w_gap: int = 0
    resp_ready_delay: int = 0
    qos: int = 0
    bus_bytes: int = 8

    def __post_init__(self) -> None:
        if bytes_per_beat(self.size) > self.bus_bytes:
            raise ValueError(
                f"AxSIZE {self.size} ({bytes_per_beat(self.size)} bytes/beat) "
                f"exceeds the {self.bus_bytes}-byte data bus"
            )

    @property
    def beats(self) -> int:
        return self.len + 1

    def write_data(self) -> List[int]:
        """Concrete write beats: supplied data or a deterministic pattern."""
        if self.data is not None:
            if len(self.data) != self.beats:
                raise ValueError(
                    f"spec carries {len(self.data)} data beats but AxLEN "
                    f"implies {self.beats}"
                )
            return list(self.data)
        mask = (1 << (8 * bytes_per_beat(self.size))) - 1
        return [
            ((self.addr + i) * 0x9E3779B97F4A7C15 + self.txn_id) & mask
            for i in range(self.beats)
        ]

    def full_strb(self) -> int:
        """Write strobe with every lane enabled for this beat size."""
        return (1 << bytes_per_beat(self.size)) - 1

    def beat_addresses(self) -> List[int]:
        """Per-beat addresses following AXI4 address arithmetic."""
        return burst_addresses(self.addr, self.len, self.size, self.burst)

    def beat_address(self, index: int) -> int:
        """Address of beat *index* (O(1), unlike :meth:`beat_addresses`)."""
        width = bytes_per_beat(self.size)
        if self.burst == BurstType.FIXED:
            return self.addr
        if self.burst == BurstType.INCR:
            return self.addr + index * width
        low = wrap_boundary(self.addr, self.len, self.size)
        span = self.beats * width
        return low + ((self.addr - low + index * width) % span)

    def lane(self, index: int) -> int:
        """Byte lane of beat *index* on the ``bus_bytes``-wide data bus."""
        return beat_lane(self.beat_address(index), self.bus_bytes)

    def beat_strb(self, index: int) -> int:
        """Write strobe of beat *index*, positioned on its byte lanes."""
        return self.full_strb() << self.lane(index)

    def wire_write_beats(self) -> WireBeats:
        """``(data, strb)`` per beat, as they appear on the W channel.

        Full-width aligned bursts sit on lane 0 and come out exactly as
        :meth:`write_data`/:meth:`full_strb` always produced; narrow
        beats are shifted onto the byte lanes their addresses select.
        """
        values = self.write_data()
        full = self.full_strb()
        if (
            bytes_per_beat(self.size) == self.bus_bytes
            and self.addr % self.bus_bytes == 0
        ):
            return WireBeats([(value, full) for value in values])
        return WireBeats([
            (value << (8 * lane), full << lane)
            for value, lane in (
                (values[i], self.lane(i)) for i in range(self.beats)
            )
        ])


def write_spec(
    txn_id: int,
    addr: int,
    beats: int = 1,
    size: int = 3,
    **kwargs,
) -> TransactionSpec:
    """Convenience constructor for an INCR write burst of *beats* beats."""
    return TransactionSpec(
        AxiDir.WRITE, txn_id, addr, len=axlen_of(beats), size=size, **kwargs
    )


def read_spec(
    txn_id: int,
    addr: int,
    beats: int = 1,
    size: int = 3,
    **kwargs,
) -> TransactionSpec:
    """Convenience constructor for an INCR read burst of *beats* beats."""
    return TransactionSpec(
        AxiDir.READ, txn_id, addr, len=axlen_of(beats), size=size, **kwargs
    )


class RandomTraffic:
    """Random mixed read/write traffic over a configurable ID set.

    Mirrors the paper's IP-level setup: a few unique IDs (default 4),
    bounded burst lengths, interleaved reads and writes, each burst in
    a 4 KiB page drawn from the flat ``addr_space``.
    """

    def __init__(
        self,
        ids: Sequence[int] = (0, 1, 2, 3),
        max_beats: int = 16,
        size: int = 3,
        write_fraction: float = 0.5,
        addr_space: int = 1 << 20,
        max_issue_delay: int = 4,
        max_w_gap: int = 2,
        seed: int = 0,
        bus_bytes: int = 8,
    ) -> None:
        if not ids:
            raise ValueError("at least one ID is required")
        self.ids = list(ids)
        self.max_beats = max_beats
        self.size = size
        self.write_fraction = write_fraction
        self.addr_space = addr_space
        self.max_issue_delay = max_issue_delay
        self.max_w_gap = max_w_gap
        self.bus_bytes = bus_bytes
        self.seed = seed
        self._rng = random.Random(seed)

    def restart(self) -> None:
        """Rewind the stream: the next draws repeat those after construction."""
        self._rng.seed(self.seed)

    def checkpoint(self):
        """The stream's position, to :meth:`restore` later."""
        return self._rng.getstate()

    def restore(self, state) -> None:
        self._rng.setstate(state)

    def next_spec(self) -> TransactionSpec:
        rng = self._rng
        beats = rng.randint(1, self.max_beats)
        width = bytes_per_beat(self.size)
        # Clamp to an AXI-legal burst: AxLEN caps at 256 beats and an
        # INCR burst must fit inside one 4 KiB page.  Clamping after the
        # draw keeps the RNG stream identical for in-range parameters.
        beats = min(beats, MAX_BURST_LEN, 0x1000 // width)
        span = beats * width
        page = rng.randrange(0, self.addr_space, 0x1000)
        offset = rng.randrange(0, 0x1000 - span + 1, width)
        direction = (
            AxiDir.WRITE if rng.random() < self.write_fraction else AxiDir.READ
        )
        return TransactionSpec(
            direction,
            rng.choice(self.ids),
            page + offset,
            len=beats - 1,
            size=self.size,
            issue_delay=rng.randint(0, self.max_issue_delay),
            w_gap=rng.randint(0, self.max_w_gap),
            bus_bytes=self.bus_bytes,
        )

    def take(self, count: int) -> List[TransactionSpec]:
        return [self.next_spec() for _ in range(count)]


def dma_stream(
    txn_id: int,
    base_addr: int,
    frames: int,
    beats_per_frame: int = 64,
    size: int = 3,
    direction: AxiDir = AxiDir.WRITE,
) -> List[TransactionSpec]:
    """Back-to-back long bursts, the shape an iDMA engine produces."""
    width = bytes_per_beat(size)
    specs = []
    for frame in range(frames):
        specs.append(
            TransactionSpec(
                direction,
                txn_id,
                base_addr + frame * beats_per_frame * width,
                len=beats_per_frame - 1,
                size=size,
            )
        )
    return specs


def chained_bursts(
    txn_id: int,
    base_addr: int,
    chain: Sequence[int],
    size: int = 3,
    direction: AxiDir = AxiDir.WRITE,
    issue_delay: int = 0,
) -> List[TransactionSpec]:
    """Burst chaining (paper §II-F): back-to-back dependent bursts.

    Each entry of *chain* is a burst length in beats; bursts are issued
    with no idle gap and contiguous addresses — the pattern that makes
    fixed time budgets produce false timeouts and that the adaptive
    queue-waiting bonus exists to absorb.
    """
    width = bytes_per_beat(size)
    specs: List[TransactionSpec] = []
    addr = base_addr
    for index, beats in enumerate(chain):
        if not 1 <= beats <= 256:
            raise ValueError(f"chain element {beats} out of range [1, 256]")
        specs.append(
            TransactionSpec(
                direction,
                txn_id,
                addr,
                len=beats - 1,
                size=size,
                issue_delay=issue_delay if index == 0 else 0,
            )
        )
        addr += beats * width
    return specs


def ethernet_frame_spec(
    txn_id: int = 0,
    addr: int = 0x3000_0000,
    beats: int = 250,
    size: int = 3,
) -> TransactionSpec:
    """The system-level experiment's workload: a 250-beat, 64-bit write.

    The paper stresses the Ethernet interface with a single 250-beat
    transaction on a 64-bit bus (§III-B).
    """
    return TransactionSpec(
        AxiDir.WRITE, txn_id, addr, len=beats - 1, size=size
    )
