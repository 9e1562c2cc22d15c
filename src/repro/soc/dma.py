"""iDMA-like block-transfer engine (paper Fig. 10 lists an iDMA manager).

A thin specialization of the traffic :class:`~repro.axi.manager.Manager`
that exposes a descriptor-style API: software enqueues transfers
(source/destination/length) and the engine splits them into AXI bursts
respecting the 256-beat AXI4 limit and 4 KiB boundaries.
"""

from __future__ import annotations

import dataclasses

from ..axi.manager import Manager
from ..axi.traffic import TransactionSpec
from ..axi.types import MAX_BURST_LEN, AxiDir, bytes_per_beat


@dataclasses.dataclass(frozen=True)
class DmaDescriptor:
    """One software-visible DMA job."""

    dst: int
    length_bytes: int
    direction: AxiDir = AxiDir.WRITE
    beat_size: int = 3  # AxSIZE: 8-byte beats on Cheshire's 64-bit bus
    txn_id: int = 0


class DmaEngine(Manager):
    """Descriptor-driven AXI manager producing long back-to-back bursts."""

    registered = {
        "descriptors_done": 0,
        # Bursts still to complete, per queued descriptor.
        "_descriptor_txns": list,
    }

    def enqueue_descriptor(self, descriptor: DmaDescriptor) -> int:
        """Split *descriptor* into AXI bursts and queue them; returns burst count."""
        width = bytes_per_beat(descriptor.beat_size)
        if descriptor.length_bytes <= 0 or descriptor.length_bytes % width:
            raise ValueError(
                f"DMA length must be a positive multiple of {width} bytes"
            )
        total_beats = descriptor.length_bytes // width
        addr = descriptor.dst
        bursts = 0
        while total_beats > 0:
            beats = min(total_beats, MAX_BURST_LEN)
            # Do not cross a 4 KiB boundary within one burst.
            room = (0x1000 - (addr & 0xFFF)) // width
            beats = min(beats, max(1, room))
            self.submit(
                TransactionSpec(
                    descriptor.direction,
                    descriptor.txn_id,
                    addr,
                    len=beats - 1,
                    size=descriptor.beat_size,
                )
            )
            addr += beats * width
            total_beats -= beats
            bursts += 1
        self._descriptor_txns.append(bursts)
        return bursts

    def update(self) -> None:
        before = len(self.completed)
        super().update()
        finished = len(self.completed) - before
        while finished > 0 and self._descriptor_txns:
            if self._descriptor_txns[0] <= finished:
                finished -= self._descriptor_txns.pop(0)
                self.descriptors_done += 1
            else:
                self._descriptor_txns[0] -= finished
                finished = 0
