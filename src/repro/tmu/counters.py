"""Timeout counters with prescaler and sticky-bit support (paper §II-G).

A :class:`Prescaler` is the guard's single free-running divider: it emits
an *edge* every ``step`` cycles.  Each :class:`PrescaledCounter` counts
elapsed time in prescaled units and expires when it reaches its budget
(rounded up to whole units).  The *sticky bit* latches an enable seen
between edges, so a stall that appears and disappears between counter
updates is still registered — the paper's guarantee that "critical events
remain detectable" under prescaling.

Counter width (``ceil(log2(units + 1))`` bits) is what the prescaler
trades against detection latency; the area model consumes
:func:`counter_width`.

The module-level helpers (:func:`edges_to_expiry_array`,
:func:`catch_up_array`) apply the per-counter methods across every armed
counter of a guard in one call (the property tests in
``tests/properties/test_batch_properties.py`` pin them against
tick-by-tick replay).  They are plain loops: a guard holds at most a
few dozen counters, and at that size array setup costs more than the
loop it would replace.
"""

from __future__ import annotations

import math

from ..sim.component import RegisteredState, uncompared


def units_for(budget: int, step: int) -> int:
    """Budget expressed in prescaled units (rounded up, minimum 1)."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if step <= 0:
        raise ValueError(f"prescaler step must be positive, got {step}")
    return max(1, math.ceil(budget / step))


def counter_width(budget: int, step: int) -> int:
    """Flip-flop width of a counter sized for *budget* at *step*."""
    return max(1, math.ceil(math.log2(units_for(budget, step) + 1)))


class Prescaler(RegisteredState):
    """Free-running clock divider shared by all counters of one guard."""

    registered = {"_phase": uncompared(0)}  # a function of the clock

    def __init__(self, step: int = 1, phase: int = 0) -> None:
        if step <= 0:
            raise ValueError(f"prescaler step must be positive, got {step}")
        if not 0 <= phase < step:
            raise ValueError(f"phase {phase} out of range [0, {step})")
        self.step = step
        self.reset()
        self.skip(phase)  # start *phase* cycles into the period

    def advance(self) -> bool:
        """Advance one cycle; return True on the counting edge."""
        edge = self._phase == self.step - 1
        self._phase = 0 if edge else self._phase + 1
        return edge

    def skip(self, cycles: int) -> None:
        """Fast-forward *cycles* idle advances in O(1).

        Exactly equivalent to calling :meth:`advance` *cycles* times and
        discarding the edges — valid only when no counter is armed to
        consume them (the guard's update-quiescence precondition).
        Armed counters fast-forward through :meth:`edges_in` +
        :meth:`PrescaledCounter.catch_up` instead.
        """
        if cycles < 0:
            raise ValueError(f"cannot skip {cycles} cycles")
        self._phase = (self._phase + cycles) % self.step

    def edges_in(self, cycles: int) -> int:
        """Edges the next *cycles* advances would fire, without advancing.

        An advance fires when its pre-advance phase is ``step - 1``, so
        the count is over phases ``phase .. phase + cycles - 1``.
        """
        return (self._phase + cycles) // self.step

    def cycles_to_edge(self, edges: int) -> int:
        """Advances until the *edges*-th future edge fires (edges >= 1)."""
        if edges <= 0:
            raise ValueError(f"edges must be positive, got {edges}")
        return (self.step - self._phase) + (edges - 1) * self.step

    @property
    def phase(self) -> int:
        return self._phase


class PrescaledCounter:
    """One timeout counter: counts prescaled units toward a budget.

    Counting is *conservative*: only complete prescaler intervals are
    counted (the partial interval between the phase start and the first
    edge is discarded), so a prescaled counter never expires before its
    budget has truly elapsed — no false-early timeouts.  The cost is the
    Fig. 8 trade-off: worst-case detection latency grows by up to two
    prescaler periods.

    Parameters
    ----------
    budget:
        Allotted time in clock cycles.
    step:
        The shared prescaler step (used only to convert the budget to
        units; edges arrive from the guard's :class:`Prescaler`).
    sticky:
        Sticky-bit interval accumulation: with it, an interval counts if
        the monitored condition was observed at *any* cycle within it
        (OR-latching, the paper's "near-timeout condition remains
        recorded even if the counter update is delayed"); without it, an
        interval counts only if the condition held *throughout*
        (AND-accumulation), so pulses between edges are lost.
    """

    __slots__ = ("units", "step", "sticky", "count", "_armed", "_accum")

    def __init__(self, budget: int, step: int = 1, sticky: bool = True) -> None:
        self.units = units_for(budget, step)
        self.step = step
        self.sticky = sticky
        self.count = 0
        # step 1 has no partial interval; arm immediately for exactness.
        self._armed = step == 1
        self._accum = not sticky

    def tick(self, enabled: bool, edge: bool) -> bool:
        """One clock cycle; return True when the counter has expired.

        Parameters
        ----------
        enabled:
            Whether the monitored phase is in progress this cycle.
        edge:
            The shared prescaler's counting edge.
        """
        if self.sticky:
            if enabled:
                self._accum = True
        elif not enabled:
            self._accum = False
        if edge:
            if self._armed and self._accum and self.count < self.units:
                self.count += 1
            self._armed = True
            self._accum = not self.sticky
        return self.expired

    def edges_to_expiry(self) -> int:
        """Counting edges still needed to expire, assuming the monitored
        condition holds every cycle until then (a frozen-channel stall).

        The first future edge only *arms* a counter created mid-interval
        (step > 1), so an unarmed counter needs one extra edge.
        """
        remaining = max(0, self.units - self.count)
        return remaining + (0 if self._armed else 1)

    def catch_up(self, edges: int, end_on_edge: bool) -> None:
        """Replay a frozen span of *edges* edges in O(1).

        Exactly equivalent to ``tick(enabled=True, edge=...)`` once per
        skipped cycle: the first edge arms an unarmed counter, every
        armed edge counts (the sticky/AND accumulators are continuously
        satisfied while the condition holds), and the accumulator ends
        reset when the span's last cycle was an edge.  Valid only while
        no expiry falls inside the span — the wake computed from
        :meth:`edges_to_expiry` guarantees that.
        """
        if edges > 0:
            increments = edges if self._armed else edges - 1
            self._armed = True
            if increments > 0:
                self.count = min(self.units, self.count + increments)
        self._accum = (not self.sticky) if end_on_edge else True

    @property
    def expired(self) -> bool:
        return self.count >= self.units

    @property
    def elapsed_estimate(self) -> int:
        """Elapsed phase time estimate in cycles (count × step)."""
        return self.count * self.step

    def rearm(self, budget: int) -> None:
        """Restart the counter for a new phase with a new budget."""
        self.units = units_for(budget, self.step)
        self.count = 0
        self._armed = self.step == 1
        self._accum = not self.sticky

    @property
    def width(self) -> int:
        return max(1, math.ceil(math.log2(self.units + 1)))


# ----------------------------------------------------------------------
# Counter-population helpers
# ----------------------------------------------------------------------
def edges_to_expiry_array(counters) -> list:
    """Per-counter :meth:`PrescaledCounter.edges_to_expiry`, as a list."""
    return [counter.edges_to_expiry() for counter in counters]


def catch_up_array(counters, edges: int, end_on_edge: bool) -> None:
    """Apply :meth:`PrescaledCounter.catch_up` to every counter of
    *counters* — same preconditions (no expiry inside the span) and
    same post-state as the per-counter calls."""
    for counter in counters:
        counter.catch_up(edges, end_on_edge)
