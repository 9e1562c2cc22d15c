"""Kernel tracing: per-component schedule counters + Chrome trace spans.

The :class:`~repro.sim.kernel.Simulator` accepts a *tracer* object and
calls a small hook set around its scheduling decisions.  The default is
``None`` — every hook site is a ``tracer is not None`` branch on a
hoisted local, the same idiom as the kernel's probe guard, so the
un-traced hot path pays nothing.

Two verbosity tiers keep even an *installed* tracer cheap when only
cycle-level data is wanted:

* ``trace_components = False`` (the :class:`Tracer` base): the kernel
  calls only the per-*step* hooks (``step_begin``/``step_end``) plus
  ``wake_fired``, ``leap`` and ``stream``.  Inner settle/update loops stay
  untouched — this is the "no-op tracer" tier the benchmark gate holds
  to ≤5% overhead.
* ``trace_components = True`` (:class:`KernelTracer`): the kernel
  additionally times every executed ``drive()`` / ``update()`` with
  ``perf_counter_ns`` and reports them per component.

:class:`KernelTracer` aggregates both tiers into per-component
drive/update/skip/wake counters and (optionally) a Chrome trace-event
timeline loadable in Perfetto / ``chrome://tracing``.  The timeline's
timebase is *simulated* time — one cycle is one microsecond of trace
time — so the schedule is inspected in the clock domain the figures are
measured in; measured wall-clock nanoseconds ride along in each span's
``args``.  A clock fast-forward renders as a single ``leap`` span
covering the whole jumped region, which is exactly how a 60k-cycle
stall should look: one span, not sixty thousand.  A streamed write
burst renders the same way, as one ``stream`` span.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

#: Trace-time microseconds per simulated cycle (Chrome trace ``ts`` is
#: in microseconds; one cycle maps to 1.0 so ts values read as cycles).
_CYCLE_US = 1.0


class Tracer:
    """Base tracer: cycle-level hooks only, all of them no-ops.

    Subclass and override what you need.  Set ``trace_components = True``
    to additionally receive the timed per-component hooks — that is the
    expensive tier; leave it False for cycle-granularity observers.
    """

    #: When False, the kernel skips the per-component hooks entirely —
    #: the settle/update inner loops run exactly as if untraced.
    trace_components: bool = False

    def step_begin(self, sim) -> None:
        """A stepped (never leaped) cycle is about to run its phases."""

    def step_end(self, sim) -> None:
        """The stepped cycle finished; ``sim.cycle`` already advanced."""

    def wake_fired(self, component, cycle: int) -> None:
        """A timed wake moved *component* into the live updater set."""

    def leap(self, sim, start: int, dest: int) -> None:
        """The clock fast-forwarded from *start* to *dest* in one jump."""

    def stream(self, sim, start: int, end: int) -> None:
        """A steady write burst streamed from *start* to *end* in bulk."""

    def drive_executed(self, component, elapsed_ns: int) -> None:
        """One ``drive()`` ran (``trace_components`` tier only)."""

    def update_executed(self, component, elapsed_ns: int) -> None:
        """One ``update()`` ran (``trace_components`` tier only)."""


class _ComponentCounters:
    """Mutable per-component tally (kept dict-free for speed)."""

    __slots__ = ("drives", "updates", "skips", "wakes", "drive_ns", "update_ns")

    def __init__(self) -> None:
        self.drives = 0
        self.updates = 0
        self.skips = 0
        self.wakes = 0
        self.drive_ns = 0
        self.update_ns = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "drives": self.drives,
            "updates": self.updates,
            "skips": self.skips,
            "wakes": self.wakes,
            "drive_ns": self.drive_ns,
            "update_ns": self.update_ns,
        }


class KernelTracer(Tracer):
    """Full-fat tracer: counters plus a Chrome trace-event timeline.

    Parameters
    ----------
    events:
        When False, only the counters are kept — no span timeline, no
        per-cycle allocation beyond the tallies.  Counter-only tracing
        is what campaign-wide byte-identity tests run with.
    max_events:
        Upper bound on recorded trace events; once reached, further
        spans are dropped (counted in ``dropped_events``) so a
        pathological run cannot exhaust memory.  Metadata (thread
        names) is exempt.
    """

    trace_components = True

    def __init__(self, events: bool = True, max_events: int = 1_000_000) -> None:
        self.counters_by_name: Dict[str, _ComponentCounters] = {}
        self.steps = 0
        self.leaps = 0
        self.cycles_leaped = 0
        self.cycles_streamed = 0
        self.record_events = events
        self.max_events = max_events
        self.dropped_events = 0
        self._events: List[Dict[str, Any]] = []
        self._tids: Dict[str, int] = {}
        #: Per-cycle scratch: component -> [count, ns], flushed at step_end.
        self._cycle_drives: Dict[Any, List[int]] = {}
        self._cycle_updates: Dict[Any, List[int]] = {}
        self._cycle_wakes: List[Any] = []
        self._cycle_start: Optional[int] = None
        self._demand_updaters = ()

    # ------------------------------------------------------------------
    # Hook implementations
    # ------------------------------------------------------------------
    def step_begin(self, sim) -> None:
        self._cycle_start = sim.cycle
        self._demand_updaters = sim._demand_updaters
        if self._cycle_drives:
            self._cycle_drives.clear()
        if self._cycle_updates:
            self._cycle_updates.clear()

    def step_end(self, sim) -> None:
        self.steps += 1
        cycle = self._cycle_start
        if cycle is None:  # step_end without step_begin: tolerate
            cycle = sim.cycle - 1
        updated = self._cycle_updates
        # A demand updater that did not run this stepped cycle was
        # skipped by quiescence (or slept through it on a timed wake).
        for component in self._demand_updaters:
            if component not in updated:
                self._tally(component).skips += 1
        for component, (count, ns) in self._cycle_drives.items():
            tally = self._tally(component)
            tally.drives += count
            tally.drive_ns += ns
            if self.record_events:
                self._span(
                    component.name,
                    "drive",
                    cycle * _CYCLE_US + 0.05,
                    0.40,
                    {"runs": count, "wall_ns": ns},
                )
        for component, (count, ns) in updated.items():
            tally = self._tally(component)
            tally.updates += count
            tally.update_ns += ns
            if self.record_events:
                self._span(
                    component.name,
                    "update",
                    cycle * _CYCLE_US + 0.55,
                    0.40,
                    {"runs": count, "wall_ns": ns},
                )
        if self.record_events:
            for component in self._cycle_wakes:
                self._instant(component.name, "wake", cycle * _CYCLE_US)
        self._cycle_wakes.clear()
        self._cycle_drives.clear()
        self._cycle_updates.clear()
        self._cycle_start = None

    def wake_fired(self, component, cycle: int) -> None:
        self._tally(component).wakes += 1
        if self.record_events:
            self._cycle_wakes.append(component)

    def leap(self, sim, start: int, dest: int) -> None:
        self.leaps += 1
        self.cycles_leaped += dest - start
        if self.record_events:
            self._span(
                None,
                "leap",
                start * _CYCLE_US,
                (dest - start) * _CYCLE_US,
                {"from_cycle": start, "to_cycle": dest, "cycles": dest - start},
            )

    def stream(self, sim, start: int, end: int) -> None:
        self.cycles_streamed += end - start
        if self.record_events:
            self._span(
                None,
                "stream",
                start * _CYCLE_US,
                (end - start) * _CYCLE_US,
                {"from_cycle": start, "to_cycle": end, "cycles": end - start},
            )

    def drive_executed(self, component, elapsed_ns: int) -> None:
        entry = self._cycle_drives.get(component)
        if entry is None:
            self._cycle_drives[component] = [1, elapsed_ns]
        else:
            entry[0] += 1
            entry[1] += elapsed_ns

    def update_executed(self, component, elapsed_ns: int) -> None:
        entry = self._cycle_updates.get(component)
        if entry is None:
            self._cycle_updates[component] = [1, elapsed_ns]
        else:
            entry[0] += 1
            entry[1] += elapsed_ns

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _tally(self, component) -> _ComponentCounters:
        tally = self.counters_by_name.get(component.name)
        if tally is None:
            tally = self.counters_by_name[component.name] = _ComponentCounters()
        return tally

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Per-component ``{drives, updates, skips, wakes, *_ns}`` dicts."""
        return {
            name: tally.as_dict()
            for name, tally in sorted(self.counters_by_name.items())
        }

    # ------------------------------------------------------------------
    # Chrome trace-event timeline
    # ------------------------------------------------------------------
    def _tid(self, name: Optional[str]) -> int:
        """Stable per-track thread id; track 0 is the kernel itself."""
        if name is None:
            name = "kernel"
        tid = self._tids.get(name)
        if tid is None:
            tid = self._tids[name] = len(self._tids)
            self._events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        return tid

    def _span(
        self,
        track: Optional[str],
        name: str,
        ts: float,
        dur: float,
        args: Dict[str, Any],
    ) -> None:
        if len(self._events) >= self.max_events:
            self.dropped_events += 1
            return
        self._events.append(
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": self._tid(track),
                "ts": ts,
                "dur": dur,
                "args": args,
            }
        )

    def _instant(self, track: Optional[str], name: str, ts: float) -> None:
        if len(self._events) >= self.max_events:
            self.dropped_events += 1
            return
        self._events.append(
            {
                "name": name,
                "ph": "i",
                "s": "t",
                "pid": 1,
                "tid": self._tid(track),
                "ts": ts,
            }
        )

    def chrome_trace(self) -> Dict[str, Any]:
        """The recorded timeline in Chrome trace-event JSON form.

        Load the serialized form in Perfetto (https://ui.perfetto.dev)
        or ``chrome://tracing``.  ``ts``/``dur`` are microseconds of
        *simulated* time (1 cycle = 1µs); one track per component plus
        the ``kernel`` track carrying leap and stream spans.
        """
        # The kernel track always exists, even for an event-free run, so
        # an empty trace still names its process/track structure.
        self._tid(None)
        return {
            "traceEvents": list(self._events),
            "displayTimeUnit": "ms",
            "otherData": {
                "source": "repro.telemetry.KernelTracer",
                "timebase": "simulated cycles (1 cycle = 1us of trace time)",
                "steps": self.steps,
                "leaps": self.leaps,
                "cycles_leaped": self.cycles_leaped,
                "cycles_streamed": self.cycles_streamed,
                "dropped_events": self.dropped_events,
            },
        }


def write_chrome_trace(tracer: KernelTracer, path) -> None:
    """Serialize *tracer*'s timeline to *path* as Perfetto-loadable JSON."""
    with open(path, "w") as stream:
        json.dump(tracer.chrome_trace(), stream, indent=2, sort_keys=True)
        stream.write("\n")
