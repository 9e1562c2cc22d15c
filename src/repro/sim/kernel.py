"""The simulation kernel: a two-phase (settle / update) synchronous engine.

One simulated clock cycle proceeds as:

1. **Settle** — component ``drive()`` methods run until every wire holds
   its fixed-point value.  This resolves combinational chains (e.g. a
   subordinate asserting ``ready`` in response to a manager's ``valid``
   routed through a crossbar and a TMU passthrough) exactly as a
   delta-cycle RTL simulator would.
2. **Update** — component ``update()`` methods run once against the
   settled wire values; registered state advances.  Handshakes "fire"
   here: both endpoints of a channel observe ``valid & ready``.  The
   kernel maintains a *live updater set*: components that opted into the
   quiescence contract (``demand_update = True``) leave it when their
   ``quiescent()`` predicate holds — their ``update()`` is provably a
   no-op — and re-arm when a declared ``update_inputs()`` wire changes
   or ``schedule_update()`` is called.  Components that did not opt in
   run every cycle, interleaved in registration order.

Timed wakes and clock fast-forward ("time leap")
------------------------------------------------

A quiescent component whose only future work is a *countdown* — a
watchdog expiry, a timeout-counter budget, a handshake-delay crossing —
declares the cycle that work falls due via
:meth:`~repro.sim.component.Component.wake_at`.  Wakes live in a min-
heap; at the start of each step every wake due at the current cycle
moves its component back into the live updater set, exactly as a
``schedule_update()`` at that instant would.  Cancellation and re-arm
are lazy: a component carries its single authoritative ``_wake_cycle``
and superseded heap entries are discarded when they surface.

``run()`` / ``run_until()`` exploit the heap: when a step ends with the
settle worklist empty, the live updater set empty, no always-scheduled
drives, no static updaters, and only timed wakes pending, every
intervening cycle is provably a no-op — no drive can run, no update can
run, no wire can change — so the clock *leaps* directly to
``min(next_wake, target)`` instead of ticking through the span.  Probes
pin the clock (no leap happens while one is registered) unless they
declare ``leap_aware = True``; a leap-aware probe that also declares
``leap_resample = True`` is invoked once more at the end of each jump
(the VCD writer's flush), and the tracer's ``leap(sim, start, end)``
hook sees the jump's boundary.
``Simulator(time_leaping=False)`` disables the fast-forward for A/B
ablations while keeping the wake heap as a plain re-arm mechanism.

The kernel keeps the run's first *inert span*: the first leap since the
last reset sets it, and a leap starting exactly where it ends extends
it (the clock did not move in between, so nothing stepped).
:meth:`Simulator.inert_before` reads it, and a checkpoint carries it.
The batch executor derives a pack's lanes from its leader only when
the leader's span covers the gap up to the stimulus onset (see
:mod:`repro.sim.batch`).

Burst streaming
---------------

A long write burst fires a W handshake every cycle, so the clock cannot
leap over it, yet each of its middle beats does the same closed-form
work on every component it crosses.  When every awake component
implements the streaming contract (:meth:`~repro.sim.component.
Component.stream_horizon`) and reports that the next *H* cycles only
stream mid-burst W beats through it, ``run()``/``run_until()`` advance
those *H* cycles in one call: each component applies *H* beats in bulk
through :meth:`~repro.sim.component.Component.stream` (the manager moves
its burst index, the forwarders commit nothing, the TMU counts the
beats and replays its counters, the subordinate stores the words as one
slice), and no drive runs — the only wires a stepped span would have
moved are the forwarded W payloads, re-driven by the first stepped
cycle after the span.

A span is bounded by every component's horizon (the first and last beat
of a burst, counter expiries, response countdowns and fault thresholds
are always stepped), by the next armed timed wake and by the run
target.  It needs every pending drive to belong to an awake streaming
component, and every reader of a streamed wire (``readers`` and
``update_readers``) to be a streaming component or one of its
children.  Streaming rides on leaping: it runs only where leaping does
(``dirty`` with update skipping and ``time_leaping`` on), never under
``exhaustive`` or ``verify``, and it is additionally pinned by change
tracking (:meth:`Simulator.track_changes`, used by the VCD writer),
whose per-cycle change sets a span cannot reproduce.  Leap-aware probes
are called once per streamed cycle, with ``sim.cycle`` stepping through
the span as if it had been stepped; the tracer's ``stream(sim, start,
end)`` hook sees the span once.  A streamed cycle counts as simulated:
``stepped_cycles + cycles_streamed + cycles_leaped`` is the clock's
advance since the last reset.

Island streaming
----------------

Busy traffic elsewhere pins whole spans.  When some awake component
cannot stream, the awake ones that can may still form an *island*: the
kernel holds them out of the settle and update loops for up to *H*
cycles while the rest of the simulation steps normally, then brings
them current with ``stream(k)`` for the *k* cycles that elapsed.  Their
W payloads stay frozen at one beat, so every component that may read
one (a drive reader, an update reader, or one naming the wire in
``wires()``) must be a member, a member's child, or a stepped component
passing the beat on unchanged to wires closed the same way
(:meth:`~repro.sim.component.Component.forwards_w`; the crossbar
declares it).  The island forms at a step boundary, lets that step
settle as usual and is held from its update phase on, unless a member
wire other than the frozen payloads moved in that settle.

The island is brought current at its horizon, at a member's timed wake,
at the run target, when ``run()``/``run_until()`` return, and — *catch
up on touch* — as soon as a member or a member's child is scheduled
(a wire it reads moved, ``schedule_drive()``/``schedule_update()``), or
a shared wire only a member's update reads moved, before that member's
drive or update runs.  ``reset()`` simply drops it.  Where the stepped
rest could stream too, the whole simulation streams with the members
still held, so stepped, streamed and leaped cycles are exactly those of
a kernel without islands.  Island cycles are stepped cycles (``step()``
runs, probes see them, members' drives and updates are just skipped);
``island_cycles`` counts them.  Islands ride on leaping like whole
spans, and change tracking pins them.

Three settle strategies share those semantics:

``dirty`` (default)
    A dependency-aware worklist scheduler in the style of event-driven
    RTL simulators (cocotb et al.): only components whose input wires
    changed — or that invalidated themselves via
    :meth:`~repro.sim.component.Component.schedule_drive` — are
    re-evaluated.  Components that do not opt into demand-driven
    scheduling are conservatively re-seeded every cycle.
``exhaustive``
    The original brute-force fixed point: sweep every component and
    snapshot every wire until nothing changes.  Kept as the reference
    implementation for differential testing.
``verify``
    Runs the dirty scheduler, then replays one exhaustive sweep and
    raises :class:`SchedulerDivergenceError` if any wire moves — i.e.
    the dirty scheduler skipped a component it should not have.  It
    also covers the update phase: every cycle, the updates of skipped
    (quiescent) components are differentially replayed against their
    declared state snapshots, so an under-declared wake path raises
    :class:`SchedulerDivergenceError` instead of silently dropping a
    clock edge.  Slower than both; meant for tests and debugging of
    sensitivity and quiescence contracts.

A combinational loop (no fixed point) raises :class:`SettleError` under
every strategy rather than silently oscillating.
"""

from __future__ import annotations

import heapq
import operator
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from .component import Component
from .signal import _ACTIVE_READER, Wire

#: Valid values for ``Simulator(strategy=...)``.
STRATEGIES = ("dirty", "exhaustive", "verify")

_BY_ORDER = operator.attrgetter("_order")


class _Island:
    """An island streaming while the rest of the simulation steps.

    ``start``/``end`` bound its span and ``members`` are its streaming
    components in registration order; ``watch`` adds their children (any
    scheduling of one ends the span).  An island *forms* at a step
    boundary and is held from the end of that step's settle on, once no
    member wire but the frozen W payloads moved in it (``inputs``: the
    (wire, value) pairs to compare).  Held, ``inputs`` are the wires
    the members share with the rest that no member or child reads
    through the worklists — ones an ``update()`` reads undeclared —
    whose values it watches instead.
    """

    __slots__ = (
        "start", "end", "members", "watch", "shared", "inputs", "forming",
        "streamed",
    )

    def __init__(self, start, end, members, watch, shared, inputs) -> None:
        self.start = start
        self.end = end
        self.members = members
        self.watch = watch
        self.shared = shared
        self.inputs = inputs
        self.forming = True
        #: Cycles of whole-simulation spans streamed while it was held.
        self.streamed = 0

    def copy(self) -> "_Island":
        """An island equal to this one; its lists are never mutated in
        place, so they are shared."""
        island = _Island(
            self.start, self.end, self.members, self.watch, self.shared,
            self.inputs,
        )
        island.forming = self.forming
        island.streamed = self.streamed
        return island

    def moved(self) -> bool:
        """Whether a watched input wire changed value."""
        for wire, value in self.inputs:
            if wire._value is not value:
                return True
        return False

    def touched(self, pending: set, awake: set, settled: bool) -> bool:
        """Whether the island must end (or, forming, not form).

        Held: a member or child was scheduled, or (once *settled*) a
        watched input moved.  Forming: (once *settled*) an input moved.
        """
        if self.forming:
            return settled and self.moved()
        watch = self.watch
        if not (watch.isdisjoint(pending) and watch.isdisjoint(awake)):
            return True
        return settled and self.moved()


class _Topology:
    """Which components name which wires in ``wires()``, for islands.

    Built once per simulator (registration voids it): ``observers`` maps
    each wire to the components naming it, ``wires_of`` each component
    to its wires, and :meth:`island_wires` memoises, per island, the
    members' wires and those some component outside the island names.
    """

    __slots__ = ("observers", "wires_of", "_islands")

    def __init__(self, components) -> None:
        self.observers: Dict[Wire, List[Component]] = {}
        self.wires_of: Dict[Component, frozenset] = {}
        for component in components:
            wires = frozenset(component.wires())
            self.wires_of[component] = wires
            for wire in wires:
                self.observers.setdefault(wire, []).append(component)
        self._islands: Dict[frozenset, Tuple[frozenset, Tuple[Wire, ...]]] = {}

    def island_wires(self, watch: frozenset, members):
        """The members' wires, and those a component outside *watch*
        names too."""
        wires = self._islands.get(watch)
        if wires is None:
            every = frozenset().union(
                *(self.wires_of[component] for component in members)
            )
            observers = self.observers
            shared = tuple(
                wire for wire in every if not watch.issuperset(observers[wire])
            )
            wires = self._islands[watch] = (every, shared)
        return wires


class Checkpoint(NamedTuple):
    """What :meth:`Simulator.checkpoint` saves (see there)."""

    cycle: int
    stats: Tuple[int, ...]
    wake_heap: List[Tuple[int, int, Component]]
    wakes: List[Optional[int]]
    pending: set
    update_pending: set
    island: Optional[_Island]
    island_retry: int
    wires: List[Tuple[Any, set]]
    changed_wires: set
    inert: Optional[Tuple[int, int]]
    components: List[tuple]


class _Redecide(Exception):
    """Raised by a span gate that changed state (see ``span_gate``)."""


class SettleError(RuntimeError):
    """Raised when the combinational phase fails to reach a fixed point."""


class SchedulerDivergenceError(RuntimeError):
    """Raised by ``strategy="verify"`` when the dirty-set scheduler left a
    wire short of its exhaustive-sweep fixed point — i.e. a component's
    sensitivity declaration (``inputs()`` / ``schedule_drive()`` calls)
    missed a dependency."""


def _never(sim: "Simulator") -> bool:
    """The condition of a plain :meth:`Simulator.run`."""
    return False


class Simulator:
    """Owns components and advances simulated time cycle by cycle.

    Parameters
    ----------
    max_settle_iterations:
        Upper bound on drive sweeps (exhaustive) or worklist rounds
        (dirty) per cycle before declaring a combinational loop.  Deep
        hierarchies (manager → crossbar → TMU → fault injector →
        subordinate and back) need one round per level; the default is
        generous.
    strategy:
        One of :data:`STRATEGIES`; see the module docstring.
    update_skipping:
        When False, every ``update()`` runs every cycle even for
        components that opted into the quiescence contract — the
        pre-quiescence behaviour, kept for A/B debugging and benchmark
        ablations.  ``exhaustive`` simulators never skip regardless.
    time_leaping:
        When False, ``run()``/``run_until()`` never fast-forward the
        clock over idle spans nor stream write bursts; timed wakes still
        re-arm components at their declared cycles, just via ordinary
        per-cycle stepping.
        Leaping is only ever active on the ``dirty`` strategy with
        update skipping on — ``verify`` deliberately replays would-be
        leaped spans cycle by cycle so its differential checks can
        catch an under-declared wake, and ``exhaustive`` runs
        everything everywhere anyway.
    """

    def __init__(
        self,
        max_settle_iterations: int = 64,
        strategy: str = "dirty",
        update_skipping: bool = True,
        time_leaping: bool = True,
        tracer=None,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self.components: List[Component] = []
        self.cycle = 0
        self.max_settle_iterations = max_settle_iterations
        self.strategy = strategy
        self.update_skipping = update_skipping and strategy != "exhaustive"
        self.time_leaping = (
            time_leaping and self.update_skipping and strategy == "dirty"
        )
        self._wires: Dict[int, Wire] = {}
        self._probes: List[Callable[["Simulator"], None]] = []
        #: Worklist of components whose drive() must (re)run.  Shared by
        #: identity with every registered wire's dirty sink and every
        #: component's schedule_drive().
        self._pending: set = set()
        #: Components re-seeded every cycle (not demand-driven).
        self._always: List[Component] = []
        #: All components with a real drive(), for reset re-seeding.
        self._drivers: List[Component] = []
        #: Live updater set: demand_update components currently awake.
        #: Shared by identity with every registered wire's update sink
        #: and every component's schedule_update().
        self._update_pending: set = set()
        #: Components whose update() runs unconditionally every cycle
        #: (did not opt into quiescence), in registration order, plus
        #: their pre-bound update() methods for the statics-only path.
        self._static_updaters: List[Component] = []
        self._static_updates: List[Callable[[], None]] = []
        #: Every demand_update component, for reset re-seeding and the
        #: verify strategy's differential update replay.
        self._demand_updaters: List[Component] = []
        #: Ordered update queue cache, valid while the awake membership
        #: recorded in _update_queue_key holds.
        self._update_queue: List[Component] = []
        self._update_queue_key: Optional[set] = None
        #: Flat wire list for the verify settle check; None until built.
        self._verify_wires: Optional[List[Wire]] = None
        #: Which components name which wires in ``wires()``, for
        #: islands; None until the first island attempt needs it.
        self._topology: Optional[_Topology] = None
        #: Wires that changed since the end of the last step's probes;
        #: only populated once track_changes() has been called.
        self._changed_wires: set = set()
        self._track_changes = False
        #: Timed-wake min-heap of (cycle, registration order, component).
        #: Entries are superseded lazily: only an entry matching its
        #: component's current _wake_cycle is honoured when it surfaces.
        self._wake_heap: List[Tuple[int, int, Component]] = []
        #: Scheduler statistics (see STAT_KEYS): clock fast-forwards,
        #: the cycles they covered, cycles streamed in bulk, cycles
        #: stepped through both phases, and the stepped cycles in which
        #: an island streamed.
        self.leaps = 0
        self.cycles_leaped = 0
        self.cycles_streamed = 0
        self.stepped_cycles = 0
        self.island_cycles = 0
        #: The first inert span since the last reset, ``(start, end)``:
        #: the first leap's, grown by each leap starting at its end
        #: (see inert_before).  Not a statistic: it never exports.
        self._inert: Optional[Tuple[int, int]] = None
        #: The streaming island held out of stepping, or None, and the
        #: stepped-cycle count from which another may form (see
        #: MIN_ISLAND_SPAN).
        self._island: Optional[_Island] = None
        self._island_retry = 0
        #: Consulted right before a streamed span or an island of
        #: ``horizon`` cycles starts, as ``gate(components, horizon,
        #: island)`` with the components that would stream: a gate
        #: returning True has changed their state (armed a fault whose
        #: effect the span would cross), and the kernel decides the
        #: step boundary again.  A checkpoint the gate takes is a point
        #: of the ``run_until`` loop like one taken from its condition.
        #: None (the default) gates nothing.
        self.span_gate: Optional[Callable[[Any, int, bool], bool]] = None
        #: Optional telemetry tracer (see :mod:`repro.telemetry.tracer`).
        #: Every hook site guards on a hoisted ``tracer is not None``
        #: local — the probe-guard idiom — so the default costs nothing.
        #: Tracers observing only step/wake/leap boundaries leave
        #: ``trace_components`` False and the settle/update inner loops
        #: run exactly as untraced; ``trace_components = True`` opts into
        #: the timed per-component drive/update hooks.
        self._tracer = tracer

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, component: Component) -> Component:
        """Register *component* (and its wires) with the simulator.

        A wire already pointing at this simulator's worklists (shared
        with a component registered earlier) is not adopted again, so
        the readers declared or traced so far are kept.
        """
        component._order = len(self.components)
        self.components.append(component)
        self._verify_wires = None
        self._topology = None
        # A new updater (static or demand) invalidates the queue cache.
        self._update_queue_key = None
        incremental = self.strategy != "exhaustive"
        # Repoint (or, for exhaustive simulators, detach) each wire's
        # dirty sink: a wire feeds the worklist of the simulator it was
        # most recently registered with, and only that one.
        sink = self._pending if incremental else None
        usink = self._update_pending if self.update_skipping else None
        log = self._changed_wires if self._track_changes else None
        wires = self._wires
        adopt = self._adopt_wire
        for wire in component.wires():
            wires[id(wire)] = wire
            if wire._dirty_sink is not sink or wire._change_log is not log:
                adopt(wire, sink, usink, log)

        declared = component.inputs()
        component._auto_trace = declared is None
        if declared is not None:
            for wire in declared:
                wires[id(wire)] = wire
                if wire._dirty_sink is not sink or wire._change_log is not log:
                    adopt(wire, sink, usink, log)
                if incremental:
                    wire.readers.add(component)

        # Like the wires, a component invalidates the worklist of the
        # simulator it was most recently registered with — or none, when
        # that simulator sweeps exhaustively.
        component._scheduler = sink
        component._sim = self
        # A fresh registration voids any wake armed under a previous
        # simulator; stale heap entries there are discarded lazily.
        component._wake_cycle = None
        component._streams = (
            type(component).stream_horizon is not Component.stream_horizon
        )
        if type(component).drive is not Component.drive:
            self._drivers.append(component)
            if incremental:
                if component.demand_driven:
                    self._pending.add(component)
                else:
                    self._always.append(component)
        if type(component).update is not Component.update:
            if usink is not None and component.demand_update:
                component._update_scheduler = usink
                self._demand_updaters.append(component)
                # Seed awake: the first cycle after registration always
                # runs, and quiescence is re-judged from there.
                usink.add(component)
                declared_wakes = component.update_inputs()
                if declared_wakes is not None:
                    for wire in declared_wakes:
                        wires[id(wire)] = wire
                        if (
                            wire._dirty_sink is not sink
                            or wire._change_log is not log
                        ):
                            adopt(wire, sink, usink, log)
                        wire.update_readers.add(component)
            else:
                component._update_scheduler = None
                self._static_updaters.append(component)
                self._static_updates.append(component.update)
        for child in component.children():
            self.add(child)
        return component

    @staticmethod
    def _adopt_wire(
        wire: Wire,
        sink: Optional[set],
        usink: Optional[set],
        log: Optional[set],
    ) -> None:
        """Point *wire* at this simulator's worklists (or detach it).

        Changing owners also drops the reader sets: readers accumulated
        under a previous simulator would otherwise be scheduled — and
        executed — by this one.  The new owner's components re-trace (or
        re-declare) their reads on their first evaluation here.  The
        update sink and change log follow ownership the same way.
        ``add`` calls this only for a wire whose dirty sink or change
        log is not already this simulator's; the update sink follows
        the dirty sink, so matching those two means nothing would move.
        """
        if wire._dirty_sink is not sink:
            wire._dirty_sink = sink
            wire.readers.clear()
            wire.update_readers.clear()
        wire._update_sink = usink
        wire._change_log = log

    def track_changes(self) -> set:
        """Start recording which wires change each cycle; return the live set.

        The returned set always holds the wires that changed since the
        end of the previous step's probes (the kernel clears it after
        each step's probes run), so a probe reading it sees every
        settle-, update- and between-cycle change of the step it is
        observing — a superset of the wires whose settled values differ.
        Wires registered after this call are tracked too.  Probes such
        as the VCD writer use this instead of re-formatting every wire
        every cycle.
        """
        if not self._track_changes:
            self._track_changes = True
            for wire in self._wires.values():
                wire._change_log = self._changed_wires
        return self._changed_wires

    def add_probe(self, probe: Callable[["Simulator"], None]) -> None:
        """Register a callable invoked after every cycle's update phase.

        Probes are for measurement only (stepped-cycle counters, VCD
        writers); they must not mutate simulation state.
        """
        self._probes.append(probe)

    def remove_probe(self, probe: Callable[["Simulator"], None]) -> None:
        """Unregister a probe added by :meth:`add_probe`."""
        self._probes.remove(probe)

    @property
    def wires(self) -> List[Wire]:
        return list(self._wires.values())

    # ------------------------------------------------------------------
    # Timed wakes
    # ------------------------------------------------------------------
    def _register_wake(self, component: Component, cycle: int) -> None:
        """Arm *component*'s update to run in the step starting at *cycle*.

        The latest call wins: re-arming with a different cycle (earlier
        or later) supersedes the previous wake, whose heap entry is
        discarded lazily when it surfaces.  ``cycle == self.cycle``
        degenerates to :meth:`Component.schedule_update` — the step at
        the current cycle has not run yet when called between cycles,
        and mid-phase the ordinary wake-splicing rules apply.
        """
        if cycle < self.cycle:
            raise ValueError(
                f"wake-in-the-past: {component!r} asked to wake at cycle "
                f"{cycle} but the simulator is already at {self.cycle}"
            )
        if cycle == self.cycle:
            component._wake_cycle = None
            component.schedule_update()
            return
        if component._wake_cycle == cycle:
            return  # already armed for exactly that cycle
        component._wake_cycle = cycle
        heapq.heappush(self._wake_heap, (cycle, component._order, component))

    def _pop_due_wakes(self) -> None:
        """Move every wake due at the current cycle into the live set."""
        heap = self._wake_heap
        now = self.cycle
        awake = self._update_pending
        tracer = self._tracer
        while heap and heap[0][0] <= now:
            cycle, _, component = heapq.heappop(heap)
            if component._wake_cycle == cycle and component._sim is self:
                component._wake_cycle = None
                awake.add(component)
                if tracer is not None:
                    tracer.wake_fired(component, cycle)

    def _next_wake(self) -> Optional[int]:
        """Earliest still-armed wake cycle, pruning superseded entries."""
        heap = self._wake_heap
        while heap:
            cycle, _, component = heap[0]
            if component._wake_cycle == cycle and component._sim is self:
                return cycle
            heapq.heappop(heap)
        return None

    def _leap_ready(self) -> bool:
        """Whether this simulator is ever allowed to fast-forward.

        Any always-scheduled drive or static updater produces real work
        every cycle, and a probe that did not opt in via ``leap_aware``
        expects to observe every cycle — each of them pins the clock.
        """
        return (
            self.time_leaping
            and not self._always
            and not self._static_updaters
            and all(getattr(probe, "leap_aware", False) for probe in self._probes)
        )

    def _leap_to(self, cycle: int) -> None:
        """Jump the clock to *cycle* across a provably inert span."""
        start = self.cycle
        self.cycle = cycle
        self.leaps += 1
        self.cycles_leaped += cycle - start
        inert = self._inert
        if inert is None:
            self._inert = (start, cycle)
        elif inert[1] == start:
            self._inert = (inert[0], cycle)
        tracer = self._tracer
        if tracer is not None:
            tracer.leap(self, start, cycle)
        for probe in self._probes:
            if getattr(probe, "leap_resample", False):
                # The probe asked to be invoked once per jump (e.g. the
                # VCD writer's initial-value flush).
                probe(self)

    def inert_before(self, onset: int) -> bool:
        """Whether the run leaped every cycle from the end of its
        start-up transient up to *onset*: the first inert span since the
        last reset starts before *onset* and reaches it.

        False when nothing leaped (``exhaustive``, ``verify`` and
        ``time_leaping=False`` kernels never do).
        """
        inert = self._inert
        return inert is not None and inert[0] < onset <= inert[1]

    #: The shortest horizon an island forms for: a shorter one would
    #: not win back the cost of forming it.  An attempt that forms no
    #: island, or an island ending sooner, also holds off the next
    #: attempt for this many stepped cycles.
    MIN_ISLAND_SPAN = 8

    def _stream(self, target: int) -> bool:
        """Advance a steady W burst in bulk; False when it cannot.

        Called at a step boundary of a leap-ready run, due wakes already
        popped and no island held.  The span is the minimum of the run
        *target*, the next armed wake and every awake component's
        horizon; see "Burst streaming" in the module docstring for the
        preconditions.  When some awake component cannot stream, the
        ones that can may still form an island that streams while the
        rest steps (:meth:`_start_island`); the caller then steps.
        """
        awake = self._update_pending
        if not awake or self._track_changes:
            return False
        islands = self.stepped_cycles >= self._island_retry
        if not islands and not self._pending <= awake:
            return False
        start = self.cycle
        limit = target - start
        horizons: Dict[Component, int] = {}
        whole = True
        traffic = False
        # In schedule order, not set order: the loop may return at the
        # first component that cannot stream, so the horizons queried
        # must not depend on object ids.
        ordered = sorted(awake, key=_BY_ORDER) if len(awake) > 1 else awake
        for component in ordered:
            if component._streams:
                span = component.stream_horizon(limit)
                if span > 0:
                    horizons[component] = span
                    continue
                traffic = True
            if not islands:
                return False
            whole = False
        if whole:
            # Every awake component streams: a whole span or nothing (an
            # island would leave no updates to step beside it).
            return self._pending <= awake and self._stream_whole(
                horizons, min(horizons.values())
            )
        # An island needs a source and a sink of the burst, and pays off
        # beside traffic that cannot stream now (a streaming component
        # with other handshakes in flight); beside controllers alone (an
        # interrupt controller, a CPU, a reset unit) it is the recovery
        # path answering the island's own monitor, which touches it
        # within a few cycles.
        if (
            traffic
            and len(horizons) > 1
            and max(horizons.values()) >= self.MIN_ISLAND_SPAN
        ):
            self._start_island(horizons, start)
        if self._island is None:
            self._island_retry = self.stepped_cycles + self.MIN_ISLAND_SPAN
        return False

    def _stream_whole(self, streamers, horizon: int) -> bool:
        """Stream every awake component up to *horizon* cycles in one call.

        *streamers* are the awake components outside the island, if one
        is held; its members keep lagging through the span (they are
        brought current when the island ends).  False when a reader of
        a streamed wire is neither streaming nor a streaming child.
        """
        start = self.cycle
        nxt = self._next_wake()
        if nxt is not None and nxt - start < horizon:
            horizon = nxt - start
        members = set(streamers)
        for component in streamers:
            members.update(component.children())
        sources = list(streamers)
        island = self._island
        if island is not None:
            members.update(island.watch)
            sources.extend(island.members)
        for component in sources:
            for wire in component.stream_wires():
                if not (
                    wire.readers <= members and wire.update_readers <= members
                ):
                    return False
        gate = self.span_gate
        if gate is not None and gate(streamers, horizon, False):
            raise _Redecide
        for component in sorted(streamers, key=_BY_ORDER):
            component.stream(horizon)
        end = start + horizon
        self.cycles_streamed += horizon
        if island is not None:
            island.streamed += horizon
        tracer = self._tracer
        if tracer is not None:
            tracer.stream(self, start, end)
        probes = self._probes
        if probes:
            # A streamed cycle counts as simulated: each probe observes
            # it, with the clock where stepping would have left it.
            for cycle in range(start + 1, end + 1):
                self.cycle = cycle
                for probe in probes:
                    probe(self)
        self.cycle = end
        return True

    def _start_island(self, horizons: Dict[Component, int], start: int) -> None:
        """Form an island of streaming components for the coming step.

        The candidates are the awake components with a positive horizon
        (*horizons*).  A candidate stays only while the island closes
        over its frozen W payloads (:meth:`_island_closed`) and it reads
        no W payload a streaming component outside moves every cycle
        (that island would end at once).  The step about to run settles
        as usual and then holds the island (see :meth:`_hold_island`);
        see "Island streaming" in the module docstring.
        """
        topology = self._topology
        if topology is None:
            topology = self._topology = _Topology(self.components)
        observers, wires_of = topology.observers, topology.wires_of
        awake = self._update_pending
        members = set(horizons)
        while True:
            watch = set(members)
            for component in members:
                watch.update(component.children())
            frozen: set = set()
            kept = {
                component
                for component in members
                if self._island_closed(component, watch, observers, frozen)
            }
            moving = set()
            for component in awake:
                if component._streams and component not in members:
                    moving.update(component.stream_wires())
            moving -= frozen
            if moving:
                kept = {
                    component
                    for component in kept
                    if wires_of[component].isdisjoint(moving)
                }
            if kept == members:
                break
            members = kept
            if len(members) < 2:
                return
        horizon = min(horizons[component] for component in members)
        for component in watch:
            wake = component._wake_cycle
            if wake is not None and wake - start < horizon:
                horizon = wake - start
        if horizon < self.MIN_ISLAND_SPAN:
            return
        gate = self.span_gate
        if gate is not None and gate(members, horizon, True):
            raise _Redecide
        watch = frozenset(watch)
        every, shared = topology.island_wires(watch, members)
        self._island = _Island(
            start,
            start + horizon,
            sorted(members, key=_BY_ORDER),
            watch,
            shared,
            [(wire, wire._value) for wire in every if wire not in frozen],
        )

    def _hold_island(self) -> None:
        """Hold the forming island out of stepping from this update on.

        Called once the forming step has settled with no member wire
        moved but the frozen W payloads: every member drive has run for
        this cycle, so what the members show the rest stays exact while
        they are held.
        """
        island = self._island
        island.forming = False
        watch = island.watch
        island.inputs = [
            (wire, wire._value)
            for wire in island.shared
            if watch.isdisjoint(wire.readers)
            and watch.isdisjoint(wire.update_readers)
        ]
        self._update_pending.difference_update(island.members)

    @staticmethod
    def _island_closed(
        member: Component, watch: set, observers, frozen: set
    ) -> bool:
        """Whether only the island can see *member*'s frozen W payloads.

        Every component that may read one of its ``stream_wires()`` — a
        drive reader, an update reader, or one naming the wire in
        ``wires()``, since ``update()`` reads go undeclared — must be in
        *watch* or pass the beat on unchanged
        (:meth:`~repro.sim.component.Component.forwards_w`), and then
        the wires it forwards the beat to must be closed the same way.
        The wires reached are added to *frozen*.
        """
        frontier = list(member.stream_wires())
        seen = set(frontier)
        while frontier:
            wire = frontier.pop()
            for readers in (
                wire.readers, wire.update_readers, observers.get(wire, ())
            ):
                for reader in readers:
                    if reader in watch:
                        continue
                    forwarded = reader.forwards_w(wire)
                    if forwarded is None:
                        return False
                    for out in forwarded:
                        if out not in seen:
                            seen.add(out)
                            frontier.append(out)
        frozen.update(seen)
        return True

    def _island_boundary(self) -> bool:
        """At a step boundary with an island held: end it or stream on.

        The island ends at its horizon and when a member or a member's
        child was scheduled since the last check (by a wake, an update,
        a ``run_until`` condition or a poke between ``run()`` calls).
        Otherwise, when the rest could stream too, the whole simulation
        streams with the members still held — exactly where a span
        would have started without the island — and True is returned.
        """
        island = self._island
        pending, awake = self._pending, self._update_pending
        horizon = island.end - self.cycle
        if horizon <= 0 or island.touched(pending, awake, False):
            self._end_island()
            return False
        if not pending <= awake:
            return False
        for component in awake:
            if not component._streams:
                return False
            horizon = component.stream_horizon(horizon)
            if horizon <= 0:
                return False
        return self._stream_whole(list(awake), horizon)

    def _end_island(self) -> None:
        """Bring the island current and return its members to stepping.

        The members stream the cycles elapsed since the island formed,
        in registration order with the clock at the island's first
        cycle (the ``stream()`` convention), and rejoin the live updater
        set.  A forming island is simply dropped.
        """
        island = self._island
        self._island = None
        now = self.cycle
        cycles = now - island.start
        if cycles < self.MIN_ISLAND_SPAN:
            self._island_retry = self.stepped_cycles + self.MIN_ISLAND_SPAN
        if cycles:
            self.cycle = island.start
            for component in island.members:
                component.stream(cycles)
            self.cycle = now
            self.island_cycles += cycles - island.streamed
        self._update_pending.update(island.members)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    #: Scalar scheduler statistics, in the order they export.  This is
    #: the single authority consumed by ``stats()``, the campaign result
    #: dataclasses (as ``sim_<key>`` fields) and
    #: ``analysis.export.scheduler_stats_dict`` — adding a key here is
    #: what extends the exported ``scheduler`` JSON block.
    STAT_KEYS: Tuple[str, ...] = (
        "leaps", "cycles_leaped", "cycles_streamed", "stepped_cycles",
        "island_cycles",
    )

    def stats(self) -> Dict[str, Any]:
        """Scheduler statistics as one dict.

        Always carries the scalar ``STAT_KEYS`` counters; when the
        installed tracer aggregates per-component counters (it has a
        ``counters()`` method, as :class:`~repro.telemetry.KernelTracer`
        does), they ride along under ``"components"``.
        """
        stats: Dict[str, Any] = {
            key: getattr(self, key) for key in self.STAT_KEYS
        }
        counters = getattr(self._tracer, "counters", None)
        if counters is not None:
            stats["components"] = counters()
        return stats

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Synchronously reset every wire and component; rewind the clock.

        Each component's ``reset()`` writes its power-on state and
        schedules nothing; this method then drops every timed wake and
        re-seeds every drive and demand update.  The ``STAT_KEYS``
        counters restart at zero, the inert span is dropped and the
        change log is emptied, so statistics always describe the time
        since the last rewind.
        Probes and the tracer stay attached.
        """
        for wire in self._wires.values():
            wire.reset()
        for component in self.components:
            component.reset()
            component._wake_cycle = None
        self._wake_heap.clear()
        # The members rewind below like everything else; nothing of a
        # span in flight needs applying first.
        self._island = None
        self._island_retry = 0
        self.cycle = 0
        for key in self.STAT_KEYS:
            setattr(self, key, 0)
        self._inert = None
        self._changed_wires.clear()
        self._update_queue_key = None
        # Registered state moved arbitrarily: every drive is stale and
        # every quiescence judgment is void.
        self._pending.update(self._drivers)
        self._update_pending.update(self._demand_updaters)

    def checkpoint(self) -> "Checkpoint":
        """The whole simulation state, to :meth:`restore` later.

        Beside every component's registered state (its
        :meth:`~repro.sim.component.RegisteredState.checkpoint`), it
        holds the kernel's exactly: the clock, the ``STAT_KEYS``
        counters, the wake heap and each component's armed wake, the
        drive and update worklists, the island and its retry mark,
        every wire's value and traced readers, and the inert span.
        Probes and the tracer are not state: a restore leaves them
        attached, as a reset does.
        Taken between steps, or from a ``run_until`` condition (see
        :meth:`run_until`).
        """
        memo: dict = {}
        island = self._island
        return Checkpoint(
            self.cycle,
            tuple([getattr(self, key) for key in self.STAT_KEYS]),
            list(self._wake_heap),
            [component._wake_cycle for component in self.components],
            set(self._pending),
            set(self._update_pending),
            None if island is None else island.copy(),
            self._island_retry,
            [
                (wire._value, wire.readers.copy())
                for wire in self._wires.values()
            ],
            set(self._changed_wires),
            self._inert,
            [component.checkpoint(memo) for component in self.components],
        )

    def restore(self, checkpoint: "Checkpoint") -> None:
        """Return to the state *checkpoint* holds; it stays reusable.

        Nothing is notified or scheduled beyond what the checkpoint
        holds: the worklists, wakes and island come back as they were.
        """
        memo: dict = {}
        for component, state, wake in zip(
            self.components, checkpoint.components, checkpoint.wakes
        ):
            component.restore(state, memo)
            component._wake_cycle = wake
        for wire, (value, readers) in zip(
            self._wires.values(), checkpoint.wires
        ):
            wire._value = value
            if len(wire.readers) != len(readers):
                # Readers are only ever added: equal sizes, equal sets.
                wire.readers.clear()
                wire.readers.update(readers)
        self.cycle = checkpoint.cycle
        for key, value in zip(self.STAT_KEYS, checkpoint.stats):
            setattr(self, key, value)
        self._wake_heap[:] = checkpoint.wake_heap
        # The worklists are shared by identity with every wire and
        # component: refill them in place.
        for live, saved in (
            (self._pending, checkpoint.pending),
            (self._update_pending, checkpoint.update_pending),
            (self._changed_wires, checkpoint.changed_wires),
        ):
            live.clear()
            live.update(saved)
        self._update_queue_key = None
        island = checkpoint.island
        self._island = None if island is None else island.copy()
        self._island_retry = checkpoint.island_retry
        self._inert = checkpoint.inert

    @property
    def island_start(self) -> Optional[int]:
        """The cycle the held island formed at, or None."""
        island = self._island
        return None if island is None or island.forming else island.start

    def cap_island(self, end: int) -> None:
        """End the held island's span by cycle *end* at the latest: what
        a fault armed now would have capped its horizon to when it
        formed."""
        island = self._island
        island.end = min(island.end, end)

    def lag(self, component: Component) -> int:
        """Cycles *component* trails the clock by: those a held island
        it belongs to has streamed so far (its state catches up when the
        island ends), else 0."""
        island = self._island
        if island is None or island.forming or component not in island.watch:
            return 0
        return self.cycle - island.start

    def resettle(self, components) -> bool:
        """Re-drive *components*, and every drive a moved wire reaches,
        to a fixed point, scheduling nothing.

        For a switch flipped between steps whose only effect so far
        would have been on the wires its owner drives (a ready held low
        while no valid is up): the wires take the values they would
        have had with the switch on all along, while the worklists and
        the wakes stay as they were, and a held island's watched inputs
        take their new values.  False, with the wires part-way, when a
        drive to run has registered state newer than its outputs (it is
        scheduled) or lags in a held island, or when the kernel sweeps
        exhaustively (it knows no readers): its outputs would run ahead.
        """
        if self.strategy == "exhaustive":
            return False
        pending, awake, log = (
            self._pending, self._update_pending, self._changed_wires,
        )
        saved = set(pending), set(awake), set(log)
        stale = saved[0] | set(self._always)
        island = self._island
        if island is not None:
            stale |= island.watch
        settled = True
        pending.clear()
        pending.update(components)
        rounds = self.max_settle_iterations
        while pending and settled:
            if not rounds:
                raise SettleError(
                    f"combinational loop: wires did not resettle within "
                    f"{self.max_settle_iterations} iterations at cycle "
                    f"{self.cycle}"
                )
            rounds -= 1
            for component in sorted(pending, key=_BY_ORDER):
                if component in stale:
                    settled = False
                    break
                pending.discard(component)
                self._run_drive(component)
        for live, before in zip((pending, awake, log), saved):
            live.clear()
            live.update(before)
        if island is not None and settled:
            island.inputs = [(wire, wire._value) for wire, _ in island.inputs]
        return settled

    def _snapshot(self) -> Tuple[Any, ...]:
        return tuple(wire._value for wire in self._wires.values())

    def _verify_watch_wires(self) -> List[Wire]:
        """Every wire, as a cached flat list, for the verify settle check.

        Deliberately *not* narrowed to the wires a drive is expected to
        write — the verify strategy exists to distrust declarations, so
        a drive writing any registered wire must still trip the
        cross-check.  The cached list plus the caller's in-place
        slot comparison is what replaced the old per-cycle double
        ``_snapshot()`` tuple rebuild.
        """
        wires = self._verify_wires
        if wires is None:
            wires = list(self._wires.values())
            self._verify_wires = wires
        return wires

    def _run_drive(self, component: Component) -> None:
        if component._auto_trace:
            _ACTIVE_READER[0] = component
            try:
                component.drive()
            finally:
                _ACTIVE_READER[0] = None
        else:
            component.drive()

    def _timed_drive(self, component: Component) -> None:
        """`_run_drive` wrapped in the tracer's wall-clock measurement."""
        start = perf_counter_ns()
        self._run_drive(component)
        self._tracer.drive_executed(component, perf_counter_ns() - start)

    def _drive_runner(self) -> Callable[[Component], None]:
        """The drive executor for this settle: timed only when a
        component-tier tracer is installed, so the untraced (and the
        cycle-tier traced) hot path keeps the direct call."""
        tracer = self._tracer
        if tracer is not None and tracer.trace_components:
            return self._timed_drive
        return self._run_drive

    def _settle_exhaustive(self) -> None:
        previous = self._snapshot()
        tracer = self._tracer
        timed = tracer is not None and tracer.trace_components
        for _ in range(self.max_settle_iterations):
            if timed:
                for component in self.components:
                    start = perf_counter_ns()
                    component.drive()
                    tracer.drive_executed(
                        component, perf_counter_ns() - start
                    )
            else:
                for component in self.components:
                    component.drive()
            current = self._snapshot()
            if current == previous:
                return
            previous = current
        raise SettleError(
            f"combinational loop: wires did not settle within "
            f"{self.max_settle_iterations} iterations at cycle {self.cycle}"
        )

    def _settle_dirty(self) -> None:
        pending = self._pending
        # Seed: conservatively-scheduled components, plus everything
        # invalidated since the last settle (update-phase state changes,
        # schedule_drive() calls, wires poked between cycles).
        if self._always:
            pending.update(self._always)
        tracer = self._tracer
        timed = tracer is not None and tracer.trace_components
        island = self._island
        rounds = self.max_settle_iterations
        while True:
            if island is not None and island.touched(
                pending, self._update_pending, not pending
            ):
                # Catch up on touch: a wire a member reads moved (or it
                # was scheduled), so it steps again from this cycle on.
                self._end_island()
                island = None
            if not pending:
                if island is not None and island.forming:
                    self._hold_island()
                return
            if not rounds:
                raise SettleError(
                    f"combinational loop: wires did not settle within "
                    f"{self.max_settle_iterations} iterations at cycle "
                    f"{self.cycle}"
                )
            rounds -= 1
            if len(pending) == 1:
                batch = tuple(pending)
            else:
                batch = sorted(pending, key=_BY_ORDER)
            for component in batch:
                # Discard before running: any write *after* this run —
                # by a later batch member or the component itself —
                # legitimately re-queues it for the next round.
                pending.discard(component)
                if timed:
                    self._timed_drive(component)
                elif component._auto_trace:
                    self._run_drive(component)
                else:
                    # Declared inputs: never read-traced, called direct.
                    component.drive()

    def _settle_verify(self) -> None:
        self._settle_dirty()
        watched = self._verify_watch_wires()
        before = [wire._value for wire in watched]
        run = self._drive_runner()
        for component in self.components:
            run(component)
        moved = [
            wire.name
            for wire, old in zip(watched, before)
            if old is not wire._value and old != wire._value
        ]
        if moved:
            raise SchedulerDivergenceError(
                f"dirty-set scheduler under-evaluated at cycle {self.cycle}: "
                f"an exhaustive sweep still changed {moved}; a component is "
                f"missing an inputs() entry or a schedule_drive() call"
            )

    def _settle(self) -> None:
        if self.strategy == "dirty":
            self._settle_dirty()
        elif self.strategy == "exhaustive":
            self._settle_exhaustive()
        else:
            self._settle_verify()

    @staticmethod
    def _merge_by_order(
        left: List[Component], right: List[Component]
    ) -> List[Component]:
        """Merge two `_order`-sorted component lists into one."""
        return list(heapq.merge(left, right, key=_BY_ORDER))

    def _update_phase(self) -> None:
        """Run the sequential phase: static updaters plus the live set.

        All updates run in registration (`_order`) sequence, exactly as
        the pre-quiescence static list did.
        """
        awake = self._update_pending
        if not awake:
            tracer = self._tracer
            if tracer is not None and tracer.trace_components:
                # Component-tier tracing forgoes the pre-bound statics
                # fast path: the general queue runner (of which this
                # path is a pure optimization — statics never quiesce,
                # and its splice handles mid-phase wakes identically)
                # carries the per-update timing.
                self._run_update_queue(self._static_updaters)
                return
            statics = self._static_updaters
            for i, update in enumerate(self._static_updates):
                update()
                if awake:
                    # Rare: this static update woke demand components
                    # (e.g. a stimulus component submitting traffic).
                    # Finish the phase through the general path so wakes
                    # whose registration slot has not yet passed still
                    # run this cycle, exactly as the static order would.
                    last_order = statics[i]._order
                    self._run_update_queue(
                        self._merge_by_order(
                            statics[i + 1:],
                            sorted(
                                (c for c in awake if c._order > last_order),
                                key=_BY_ORDER,
                            ),
                        )
                    )
                    return
            return
        # Stall-dominated runs keep the same components awake for
        # thousands of cycles; reuse the ordered queue until the set
        # actually changes (any wake, sleep or registration rebuilds).
        if awake == self._update_queue_key:
            queue = self._update_queue
        else:
            queue = sorted(awake, key=_BY_ORDER)
            if self._static_updaters:
                queue = self._merge_by_order(self._static_updaters, queue)
            self._update_queue = queue
            self._update_queue_key = set(awake)
        self._run_update_queue(queue)

    def _run_update_queue(self, queue: List[Component]) -> None:
        """Run *queue* (order-sorted) with mid-phase wake splicing.

        Never mutates *queue* in place (the caller may be handing over
        the cached ordered queue); a splice rebinds to a fresh list.
        """
        awake = self._update_pending
        expected = len(awake)
        tracer = self._tracer
        if tracer is not None and not tracer.trace_components:
            tracer = None  # cycle-tier tracer: skip per-update hooks
        i = 0
        n = len(queue)
        while i < n:
            component = queue[i]
            i += 1
            if tracer is None:
                component.update()
            else:
                start = perf_counter_ns()
                component.update()
                tracer.update_executed(component, perf_counter_ns() - start)
            # Registration truth, not the class attribute: statics (and
            # everything under update_skipping=False) never quiesce.
            if component._update_scheduler is not None and component.quiescent():
                awake.discard(component)
                expected -= 1
            if len(awake) != expected:
                # Rare: this update() woke components mid-phase.  To
                # match the static reference exactly, only wakes whose
                # registration-order turn has not yet passed run this
                # cycle; an earlier-ordered wake was quiescent when its
                # turn came (its update would have been the no-op it
                # declared) and keeps its arming for the next cycle.
                known = set(queue)
                island = self._island
                if island is not None:
                    # An island member woken here keeps this cycle
                    # streamed; the run loop brings it current next.
                    known.update(island.watch)
                late = [
                    c
                    for c in awake
                    if c not in known and c._order > component._order
                ]
                expected = len(awake)
                if late:
                    queue = queue[:i] + sorted(
                        queue[i:] + late, key=_BY_ORDER
                    )
                    n = len(queue)

    def _update_phase_verify(self) -> None:
        """Update phase with in-slot differential replay of skipped work.

        Every updater — static, awake, or quiescent — runs at its
        registration-order slot, so a replayed (skipped) update observes
        exactly the state its real counterpart would have: earlier
        components' mutations applied, later components' not.  Awake
        components run normally; quiescent components run under the
        no-op contract — any state-snapshot movement or newly scheduled
        drive/update work raises :class:`SchedulerDivergenceError`.
        Clock-derived state (cycle stamps, prescaler phases, idle window
        accumulators) is excluded by the components' ``snapshot_state()``
        and resyncs idempotently, so a legitimate replay leaves no trace.
        """
        awake = self._update_pending
        queue = self._merge_by_order(
            self._static_updaters, self._demand_updaters
        )
        pending = self._pending
        tracer = self._tracer
        if tracer is not None and not tracer.trace_components:
            tracer = None  # cycle-tier tracer: skip per-update hooks
        for component in queue:
            # Classify by how the component was *registered*, not by its
            # class attribute: with update_skipping=False every updater
            # (demand_update or not) is a static and must simply run.
            if component._update_scheduler is None:
                if tracer is None:
                    component.update()
                else:
                    start = perf_counter_ns()
                    component.update()
                    tracer.update_executed(
                        component, perf_counter_ns() - start
                    )
                continue
            if component in awake:
                if tracer is None:
                    component.update()
                else:
                    start = perf_counter_ns()
                    component.update()
                    tracer.update_executed(
                        component, perf_counter_ns() - start
                    )
                if component.quiescent():
                    awake.discard(component)
                continue
            # Quiescence replays below run under the no-op contract and
            # are deliberately *not* reported as executed updates.
            # Skipped by quiescence: replay it in place and require a
            # provable no-op.
            before = component.snapshot_state()
            drives_before = len(pending)
            awake_before = len(awake)
            component.update()
            if component.snapshot_state() != before:
                raise SchedulerDivergenceError(
                    f"update-quiescence under-declared at cycle "
                    f"{self.cycle}: {component!r} was skipped but replaying "
                    f"its update() changed registered state; a wake path "
                    f"(update_inputs() wire or schedule_update() call) is "
                    f"missing"
                )
            if len(pending) != drives_before or len(awake) != awake_before:
                raise SchedulerDivergenceError(
                    f"update-quiescence under-declared at cycle "
                    f"{self.cycle}: replaying {component!r} scheduled new "
                    f"work; its quiescent() returned True while sequential "
                    f"work was still pending"
                )

    def step(self) -> None:
        """Advance simulated time by one clock cycle."""
        tracer = self._tracer
        if tracer is not None:
            tracer.step_begin(self)
        if self._wake_heap:
            self._pop_due_wakes()
        self._settle()
        if self.strategy == "verify":
            self._update_phase_verify()
        else:
            self._update_phase()
        self.cycle += 1
        self.stepped_cycles += 1
        if self._probes:
            for probe in self._probes:
                probe(self)
        if self._track_changes:
            self._changed_wires.clear()
        if tracer is not None:
            tracer.step_end(self)

    def run(self, cycles: int) -> None:
        """Advance simulated time by *cycles* clock cycles.

        With time leaping active, spans where nothing can happen — no
        pending drives, empty live updater set, only timed wakes ahead —
        are crossed in one jump to ``min(next_wake, target)`` instead of
        being ticked through, and the middle of a steady write burst is
        streamed in bulk; the observable end state is identical.
        """
        self._advance(self.cycle + cycles, _never)

    def run_until(
        self,
        condition: Callable[["Simulator"], bool],
        timeout: int = 100_000,
        resume: bool = False,
    ) -> Optional[int]:
        """Step until *condition* holds; return the cycle it first held.

        Returns ``None`` if *timeout* cycles elapse first.  The condition
        is evaluated after each cycle's update phase.  Under time
        leaping the condition must be a function of simulation state
        (wires, component state): such a condition cannot change across
        a leaped span — nothing runs and no wire moves — so it is
        additionally consulted once *before* each jump (skipping the
        jump when it already holds) and not re-evaluated inside the
        span.  A streamed burst span is bounded the same way: the
        condition is consulted at its boundaries only, so it must not
        be able to flip inside one — a function of handshakes other
        than mid-burst W beats, of wire levels and of component state
        qualifies; one counting fired beats on the wires (whose payload
        keeps the beat fired just before a span) does not.  Inside an
        island span the condition is still consulted every stepped
        cycle, but the island's members lag behind the clock there
        (they are brought current when the span ends, and before this
        returns): the same rule keeps such a condition exact.  A
        condition that mutates a member mid-span (a fault switch, a
        submission) ends the span, and the member's streamed cycles
        are applied after the mutation.  Conditions keyed on
        wall-clock cycle counts or on per-cycle wire events alone, or
        mutating streaming components at exact cycles, should run with
        ``time_leaping=False``.

        A :meth:`checkpoint` taken inside the condition (which then
        returned false) is a point of this loop: after :meth:`restore`,
        ``run_until(condition, remaining, resume=True)`` goes on exactly
        as the loop would have, the condition counting as consulted at
        the restored cycle.
        """
        return self._advance(self.cycle + timeout, condition, resume)

    def _advance(
        self,
        target: int,
        condition: Callable[["Simulator"], bool],
        consulted: bool = False,
    ) -> Optional[int]:
        """Step, leap and stream toward *target* until *condition* holds:
        the loop of :meth:`run` (*condition* :func:`_never`) and
        :meth:`run_until`.  Returns the cycle *condition* first held,
        or ``None`` once *target* is reached.  *consulted* says the
        condition already held false at the current cycle.
        """
        step = self.step
        if not self._leap_ready():
            while self.cycle < target:
                step()
                if condition(self):
                    return self.cycle
            return None
        # A span may only start where the condition has been consulted
        # (and found false): stepping would return one cycle later.
        # A plain run has nothing to consult.
        consulted = consulted or condition is _never
        try:
            while self.cycle < target:
                if self._wake_heap:
                    self._pop_due_wakes()
                try:
                    if self._island is not None:
                        if self._island_boundary():
                            if condition(self):
                                return self.cycle
                            continue
                        if self._island is not None:
                            step()
                            if condition(self):
                                return self.cycle
                            continue
                    if (
                        not self._pending
                        and not self._update_pending
                        and not condition(self)
                        # Re-checked *after* the condition ran: a side-
                        # effecting condition (fault injection,
                        # schedule_update) may have just created work,
                        # which must be stepped, not leaped.
                        and not self._pending
                        and not self._update_pending
                    ):
                        nxt = self._next_wake()
                        dest = target if nxt is None else min(nxt, target)
                        if dest > self.cycle:
                            self._leap_to(dest)
                            continue
                    elif consulted and self._stream(target):
                        if condition(self):
                            return self.cycle
                        continue
                except _Redecide:
                    continue  # the span gate changed state: decide again
                step()
                if condition(self):
                    return self.cycle
                consulted = True
            return None
        finally:
            if self._island is not None:
                self._end_island()
