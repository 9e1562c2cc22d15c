"""Performance logging (paper §II-H: latency metrics, bottleneck analysis).

The Full-Counter variant records per-phase latencies for every completed
transaction; both variants record whole-transaction latency and
throughput.  The log exposes summary statistics (count/min/max/mean) per
phase, the raw material for the paper's "detailed error logs for
performance and bottleneck analysis".
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..axi.types import AxiDir
from ..sim.component import RegisteredState, shared_in_checkpoints
from .phases import ReadPhase, WritePhase


@dataclasses.dataclass
class LatencyStat:
    """Streaming min/max/mean accumulator for one metric."""

    count: int = 0
    total: int = 0
    minimum: Optional[int] = None
    maximum: Optional[int] = None

    def record(self, value: int) -> None:
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "LatencyStat") -> None:
        self.count += other.count
        self.total += other.total
        for bound in (other.minimum, other.maximum):
            if bound is None:
                continue
            self.minimum = bound if self.minimum is None else min(self.minimum, bound)
            self.maximum = bound if self.maximum is None else max(self.maximum, bound)


class LatencyHistogram:
    """Power-of-two-bucketed latency distribution.

    Hardware-friendly (bucket index = position of the highest set bit),
    the same structure Kyung et al.'s PMU uses for its read/write
    latency distributions.
    """

    __slots__ = ("counts",)

    def __init__(self, buckets: int = 12) -> None:
        if buckets <= 0:
            raise ValueError("buckets must be positive")
        self.counts = [0] * buckets

    def record(self, value: int) -> None:
        if value < 0:
            raise ValueError("latency cannot be negative")
        index = min(value.bit_length(), len(self.counts) - 1)
        self.counts[index] += 1

    @property
    def total(self) -> int:
        return sum(self.counts)

    def bucket_bounds(self, index: int):
        """(low, high) inclusive latency range of a bucket."""
        if index == 0:
            return (0, 0)
        low = 1 << (index - 1)
        if index == len(self.counts) - 1:
            return (low, None)  # overflow bucket
        return (low, (1 << index) - 1)

    def percentile(self, fraction: float) -> int:
        """Upper bound of the bucket containing the given percentile."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if self.total == 0:
            return 0
        target = fraction * self.total
        running = 0
        for index, count in enumerate(self.counts):
            running += count
            if running >= target:
                low, high = self.bucket_bounds(index)
                return high if high is not None else low
        return self.bucket_bounds(len(self.counts) - 1)[0]

    def nonzero(self):
        """(bounds, count) for every populated bucket."""
        return [
            (self.bucket_bounds(i), count)
            for i, count in enumerate(self.counts)
            if count
        ]


@shared_in_checkpoints
@dataclasses.dataclass
class TxnRecord:
    """Completed-transaction record kept in the bounded history ring."""

    direction: AxiDir
    orig_id: int
    addr: int
    beats: int
    start_cycle: int
    end_cycle: int
    phase_latencies: Dict[object, int]

    @property
    def latency(self) -> int:
        return self.end_cycle - self.start_cycle


class PerfLog(RegisteredState):
    """Accumulates latency and throughput statistics for one guard."""

    registered = {
        "txn_latency": LatencyStat,
        "latency_histogram": LatencyHistogram,
        "phase_stats": lambda self: {
            phase: LatencyStat() for phase in self._phases
        },
        "completed": 0,
        "beats_transferred": 0,
        "history": list,
    }

    def __init__(self, direction: AxiDir, history_depth: int = 64) -> None:
        self.direction = direction
        self.history_depth = history_depth
        phases = WritePhase if direction == AxiDir.WRITE else ReadPhase
        self._phases = tuple(phases)
        self.reset()

    def record_completion(
        self,
        orig_id: int,
        addr: int,
        beats: int,
        start_cycle: int,
        end_cycle: int,
        phase_latencies: Optional[Dict[object, int]] = None,
    ) -> None:
        self.completed += 1
        self.beats_transferred += beats
        self.txn_latency.record(end_cycle - start_cycle)
        self.latency_histogram.record(end_cycle - start_cycle)
        phase_latencies = phase_latencies or {}
        for phase, latency in phase_latencies.items():
            if phase in self.phase_stats:
                self.phase_stats[phase].record(latency)
        record = TxnRecord(
            direction=self.direction,
            orig_id=orig_id,
            addr=addr,
            beats=beats,
            start_cycle=start_cycle,
            end_cycle=end_cycle,
            phase_latencies=dict(phase_latencies),
        )
        self.history.append(record)
        if len(self.history) > self.history_depth:
            self.history.pop(0)

    def throughput(self, window_cycles: int) -> float:
        """Beats per cycle over *window_cycles* of observation."""
        if window_cycles <= 0:
            raise ValueError("window must be positive")
        return self.beats_transferred / window_cycles

    def phase_summary(self) -> Dict[str, LatencyStat]:
        """Phase-label-keyed statistics, for report rendering."""
        return {phase.label: stat for phase, stat in self.phase_stats.items()}

    clear = RegisteredState.reset
