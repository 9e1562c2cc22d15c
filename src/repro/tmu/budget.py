"""Adaptive time-budget allocation (paper §II-F).

Budgets scale with burst length and with the traffic already queued in
the OTT, so long bursts and deep queues do not trigger false timeouts.
The paper splits each budget into *queue waiting time* (address handshake
to first data beat) and *data transfer time* (first to last beat); the
policies here expose exactly those components.

Two policies are provided:

* :class:`AdaptiveBudgetPolicy` — the paper's mechanism: budgets grow
  with burst length and OTT occupancy.
* :class:`FixedBudgetPolicy` — the ablation baseline: constant budgets
  regardless of geometry, as a naive watchdog would use.
"""

from __future__ import annotations

import dataclasses
from typing import Union

from .phases import ReadPhase, WritePhase

PhaseType = Union[WritePhase, ReadPhase]


@dataclasses.dataclass(frozen=True)
class PhaseBudgets:
    """Per-phase budget parameters for the Full-Counter variant.

    All values are in clock cycles.  ``*_per_beat`` terms implement the
    burst-length adaptation; ``queue_factor`` adds waiting time per
    transaction already outstanding ahead in the queue.
    """

    aw_handshake: int = 16
    w_entry: int = 32
    w_first_hs: int = 16
    w_data_base: int = 16
    w_data_per_beat: int = 2
    b_wait: int = 32
    b_handshake: int = 16
    ar_handshake: int = 16
    r_entry: int = 32
    r_first_hs: int = 16
    r_data_base: int = 16
    r_data_per_beat: int = 2
    queue_factor: int = 2


@dataclasses.dataclass(frozen=True)
class SpanBudgets:
    """Whole-transaction budget parameters for the Tiny-Counter variant
    (the power-on values of the TMU's SPAN_* registers)."""

    base: int = 64
    per_beat: int = 2
    queue_factor: int = 2


class AdaptiveBudgetPolicy:
    """Burst-length- and occupancy-aware budgets (the paper's mechanism)."""

    def __init__(
        self,
        phases: PhaseBudgets = None,
        span: SpanBudgets = None,
    ) -> None:
        self.phases = phases if phases is not None else PhaseBudgets()
        self.span = span if span is not None else SpanBudgets()

    # Policies compare and print by value (same type, same fields), so a
    # TmuConfig does too.  Their parameter blocks are frozen: a register
    # write lands in the TMU's registered state, never in the config.
    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{key}={value!r}" for key, value in vars(self).items()
        )
        return f"{type(self).__name__}({fields})"

    # -- Full-Counter ---------------------------------------------------
    def write_phase_budget(
        self, phase: WritePhase, beats: int, queued_ahead: int = 0
    ) -> int:
        p = self.phases
        wait_bonus = p.queue_factor * queued_ahead
        if phase == WritePhase.AW_HANDSHAKE:
            return p.aw_handshake
        if phase == WritePhase.W_ENTRY:
            return p.w_entry + wait_bonus
        if phase == WritePhase.W_FIRST_HS:
            return p.w_first_hs
        if phase == WritePhase.W_DATA:
            return p.w_data_base + p.w_data_per_beat * beats
        if phase == WritePhase.B_WAIT:
            return p.b_wait + wait_bonus
        return p.b_handshake

    def read_phase_budget(
        self, phase: ReadPhase, beats: int, queued_ahead: int = 0
    ) -> int:
        p = self.phases
        wait_bonus = p.queue_factor * queued_ahead
        if phase == ReadPhase.AR_HANDSHAKE:
            return p.ar_handshake
        if phase == ReadPhase.R_ENTRY:
            return p.r_entry + wait_bonus
        if phase == ReadPhase.R_FIRST_HS:
            return p.r_first_hs
        return p.r_data_base + p.r_data_per_beat * beats

    # -- Tiny-Counter ---------------------------------------------------
    def span_budget(self, beats: int, queued_ahead: int = 0, span=None) -> int:
        """Tc budget; the TMU passes its register-written *span* terms."""
        s = self.span if span is None else span
        return s.base + s.per_beat * beats + s.queue_factor * queued_ahead

    def max_budget(self, max_beats: int, max_outstanding: int) -> int:
        """Largest budget any counter must represent (sizes counter width)."""
        widest_phase = max(
            self.write_phase_budget(phase, max_beats, max_outstanding)
            for phase in WritePhase
        )
        widest_read = max(
            self.read_phase_budget(phase, max_beats, max_outstanding)
            for phase in ReadPhase
        )
        return max(
            widest_phase,
            widest_read,
            self.span_budget(max_beats, max_outstanding),
        )


class FixedBudgetPolicy(AdaptiveBudgetPolicy):
    """Constant budgets, the naive baseline for the ablation bench.

    Whatever the burst geometry, every phase gets ``phase_budget`` cycles
    and every Tc span gets ``span_budget_cycles``.  Long bursts then
    falsely time out — exactly the failure mode adaptive budgeting
    prevents.
    """

    def __init__(self, phase_budget: int = 64, span_budget_cycles: int = 128) -> None:
        super().__init__()
        self.phase_budget = phase_budget
        self.span_budget_cycles = span_budget_cycles

    def write_phase_budget(self, phase, beats, queued_ahead=0):
        return self.phase_budget

    def read_phase_budget(self, phase, beats, queued_ahead=0):
        return self.phase_budget

    def span_budget(self, beats, queued_ahead=0, span=None):
        return self.span_budget_cycles

    def max_budget(self, max_beats, max_outstanding):
        return max(self.phase_budget, self.span_budget_cycles)
