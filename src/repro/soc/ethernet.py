"""RGMII-Ethernet-like AXI subordinate (paper §III-B).

The system-level experiment monitors "an RGMII Ethernet peripheral"
whose AXI window receives frame data for transmission.  This model is a
memory-mapped MAC: writes land in a TX buffer and are drained to the
(virtual) line at a configurable rate; reads return RX/status data.
What matters for the TMU is the AXI-side timing — handshake delays,
a frame-sized transfer of hundreds of beats, and fault hooks — all of
which the base :class:`~repro.axi.subordinate.Subordinate` provides.
"""

from __future__ import annotations

from typing import Optional

from ..axi.interface import AxiInterface
from ..axi.memory import SparseMemory
from ..axi.subordinate import Subordinate
from ..sim.component import power_on_writer, uncompared


class EthernetMac(Subordinate):
    """Ethernet MAC endpoint with TX-drain bookkeeping.

    Parameters
    ----------
    line_rate_beats_per_cycle:
        How many buffered TX beats the (virtual) RGMII line drains per
        clock cycle; only statistics depend on it.
    """

    # AXI window layout (offsets into the peripheral's range).
    TX_BUFFER_OFFSET = 0x0000
    TX_BUFFER_SIZE = 0x4000
    RX_BUFFER_OFFSET = 0x4000
    STATUS_OFFSET = 0x8000

    # The TX drain is a pure function of the clock between beat
    # arrivals, so it is accounted lazily against a stamp instead of
    # ticking every cycle — a draining (but AXI-idle) MAC is
    # update-quiescent and its idle span can be leaped.  Both are
    # clock-derived; the beat arrivals that feed them are compared
    # through beats_received and the subordinate's own fields.
    in_flight = {**Subordinate.in_flight, "_tx_buffered": uncompared(0.0)}
    _drop_in_flight = power_on_writer(in_flight)
    registered = {
        **in_flight,
        "_tx_stamp": uncompared(0),
        "frames_sent": 0,
        "beats_received": 0,
    }

    def __init__(
        self,
        name: str,
        bus: AxiInterface,
        memory: Optional[SparseMemory] = None,
        line_rate_beats_per_cycle: float = 0.25,
        **kwargs,
    ) -> None:
        kwargs.setdefault("b_latency", 2)
        kwargs.setdefault("r_latency", 2)
        kwargs.setdefault("max_outstanding", 8)
        self.line_rate = line_rate_beats_per_cycle
        super().__init__(name, bus, memory, **kwargs)

    # ------------------------------------------------------------------
    # Lazy line-drain accounting
    # ------------------------------------------------------------------
    def _sync_tx(self, stamp: int) -> None:
        """Apply the per-cycle drain for every update stamped <= *stamp*.

        Idempotent reconstruction from the clock: ``k`` skipped cycles
        drain ``k * line_rate`` (clamped at zero), exactly what ``k``
        per-cycle subtractions of an always-on update would have done.
        """
        elapsed = stamp - self._tx_stamp
        if elapsed > 0 and self._tx_buffered > 0:
            self._tx_buffered = max(
                0.0, self._tx_buffered - self.line_rate * elapsed
            )
        if elapsed > 0:
            self._tx_stamp = stamp

    @property
    def tx_beats_buffered(self) -> float:
        """TX beats awaiting the line, including any quiescent tail."""
        if self._sim is not None:
            self._sync_tx(self._sim.cycle)
        return self._tx_buffered

    def _on_w_fired(self, beat) -> None:
        super()._on_w_fired(beat)
        self.beats_received += 1
        self._tx_buffered += 1
        if beat.last:
            self.frames_sent += 1

    def update(self) -> None:
        now = self._sim.cycle + 1 if self._sim is not None else self._tx_stamp + 1
        self._sync_tx(now - 1)  # catch up any slept span first
        super().update()
        if self._tx_buffered > 0:
            self._tx_buffered = max(0.0, self._tx_buffered - self.line_rate)
        self._tx_stamp = now

    def stream(self, cycles: int) -> None:
        super().stream(cycles)
        self.beats_received += cycles
        # Each streamed update buffers its beat, then drains one cycle.
        buffered, rate = self._tx_buffered, self.line_rate
        for _ in range(cycles):
            buffered = max(0.0, buffered + 1 - rate)
        self._tx_buffered = buffered
        self._tx_stamp = self._sim.cycle + cycles

    # quiescent() and stream_horizon() are inherited unchanged: the TX
    # drain no longer needs the update phase, so only the AXI-side
    # conditions matter.

    def _take_reset(self) -> None:
        super()._take_reset()  # drops the TX buffer with the jobs
        if self._sim is not None:
            self._tx_stamp = self._sim.cycle + 1
