"""AXI performance-monitor baseline (paper refs. [7], [8], [10], [12], [14]).

Represents the AMD AXI Performance Monitor / Synopsys Smart Monitor
class of IP: rich transaction-level statistics — counts, byte volumes,
latency min/max/mean, windowed throughput — but **no** fault detection,
protocol checking, or recovery hooks (their Table II profile).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Dict, List

from ..axi.interface import AxiInterface
from ..sim.component import Component
from ..tmu.perf import LatencyStat


@dataclasses.dataclass
class TrafficCounters:
    """Aggregate statistics for one direction."""

    transactions: int = 0
    beats: int = 0
    bytes: int = 0
    latency: LatencyStat = dataclasses.field(default_factory=LatencyStat)


class AxiPerfMonitor(Component):
    """Statistics-only observer on one AXI interface.

    Update-quiescent while the bus is idle: idle cycles contribute only
    zeros to the windowed-throughput accumulator, so a skipped span is
    reconstructed exactly (same window boundaries, same averages) from
    the simulator clock on wake.
    """

    demand_update = True

    def __init__(
        self, name: str, bus: AxiInterface, window: int = 1024
    ) -> None:
        super().__init__(name)
        self.bus = bus
        self.window = window
        self.write = TrafficCounters()
        self.read = TrafficCounters()
        self._cycle = 0
        # Per-ID FIFO of (start_cycle, bytes_per_beat) for latency pairing.
        self._w_pending: Dict[int, Deque[int]] = {}
        self._r_pending: Dict[int, Deque[int]] = {}
        # Windowed throughput as a running (sum, count) pair — O(1) to
        # fast-forward over skipped idle cycles.
        self._window_sum = 0
        self._window_count = 0
        self._window_history: List[float] = []

    def wires(self):
        return self.bus.wires()

    def update_inputs(self):
        # Valids and readys: the monitor observes fires only, so it may
        # sleep through a held-valid (stalled) span — the only event
        # that can complete such a handshake is its ready rising.
        bus = self.bus
        wires = []
        for ch in (bus.aw, bus.ar, bus.w, bus.b, bus.r):
            wires.extend((ch.valid, ch.ready))
        return tuple(wires)

    def quiescent(self):
        # No handshake can fire next edge: every skipped cycle
        # contributes zero beats, which _sync() reconstructs exactly
        # into the throughput window on wake.
        bus = self.bus
        return not any(
            ch.valid._value and ch.ready._value
            for ch in (bus.aw, bus.ar, bus.w, bus.b, bus.r)
        )

    def snapshot_state(self):
        # The window accumulator and _cycle are clock-derived (resynced
        # on wake) and excluded; window_history flushes driven purely by
        # idle cycles are likewise reconstruction, not new information.
        return (
            self.write.transactions, self.write.beats, self.write.bytes,
            self.read.transactions, self.read.beats, self.read.bytes,
            tuple(sorted(
                (tid, tuple(queue)) for tid, queue in self._w_pending.items()
            )),
            tuple(sorted(
                (tid, tuple(queue)) for tid, queue in self._r_pending.items()
            )),
        )

    @property
    def window_history(self) -> List[float]:
        """Completed window averages, including any quiescent tail."""
        self._sync()
        return self._window_history

    def _tick_window(self, beats: int) -> None:
        self._window_sum += beats
        self._window_count += 1
        if self._window_count >= self.window:
            self._window_history.append(self._window_sum / self._window_count)
            self._window_sum = 0
            self._window_count = 0

    def _sync(self) -> None:
        """Account every skipped idle (zero-beat) cycle into the window.

        Idempotent reconstruction from the simulator clock — called on
        wake and before any windowed read, so observers cannot tell the
        monitor ever slept.
        """
        sim = self._sim
        if sim is None:
            return
        skipped = sim.cycle - self._cycle
        if skipped <= 0:
            return
        self._cycle = sim.cycle
        fill = self.window - self._window_count
        if skipped >= fill:
            self._window_history.append(self._window_sum / self.window)
            skipped -= fill
            full_windows, skipped = divmod(skipped, self.window)
            self._window_history.extend([0.0] * full_windows)
            self._window_sum = 0
            self._window_count = 0
        self._window_count += skipped

    def update(self) -> None:
        self._sync()
        self._cycle += 1
        bus = self.bus
        beats_this_cycle = 0
        if bus.aw.fired():
            beat = bus.aw.payload.value
            self._w_pending.setdefault(beat.id, deque()).append(self._cycle)
            self.write.transactions += 1
        if bus.ar.fired():
            beat = bus.ar.payload.value
            self._r_pending.setdefault(beat.id, deque()).append(self._cycle)
            self.read.transactions += 1
        if bus.w.fired():
            beat = bus.w.payload.value
            self.write.beats += 1
            self.write.bytes += bin(beat.strb).count("1")
            beats_this_cycle += 1
        if bus.b.fired():
            beat = bus.b.payload.value
            queue = self._w_pending.get(beat.id)
            if queue:
                self.write.latency.record(self._cycle - queue.popleft())
        if bus.r.fired():
            beat = bus.r.payload.value
            self.read.beats += 1
            beats_this_cycle += 1
            if beat.last:
                queue = self._r_pending.get(beat.id)
                if queue:
                    self.read.latency.record(self._cycle - queue.popleft())
        self._tick_window(beats_this_cycle)

    def throughput(self) -> float:
        """Beats per cycle observed so far."""
        self._sync()
        if self._cycle == 0:
            return 0.0
        return (self.write.beats + self.read.beats) / self._cycle

    def reset(self) -> None:
        self.write = TrafficCounters()
        self.read = TrafficCounters()
        self._cycle = 0
        self._w_pending.clear()
        self._r_pending.clear()
        self._window_sum = 0
        self._window_count = 0
        self._window_history.clear()
        self.schedule_update()
