"""Component base class for the two-phase synchronous simulation kernel.

Every hardware block in this reproduction — managers, subordinates, the
TMU, crossbars, reset units — subclasses :class:`Component` and follows a
strict discipline:

* :meth:`drive` is the *combinational* phase.  It may read any wire and
  any of the component's registered state, and may write only the wires
  the component sources.  It must be idempotent: given unchanged inputs
  and state, re-running it must write the same values.
* :meth:`update` is the *sequential* phase (the clock edge).  It may read
  the settled wires and mutate registered state, but must not write
  wires.

This mirrors how synthesizable RTL separates combinational logic from
flip-flops and is what makes the TMU's cycle-level detection latencies
directly comparable with the paper's RTL measurements.

Power-on state
--------------

A component names each registered field once, in its class-level
:attr:`~RegisteredState.registered` table: its power-on value and how
``strategy="verify"`` compares it::

    registered = {
        "count": 0,                     # compared
        "_queue": deque,                # compared, frozen to a tuple
        "_rr": lambda self: [0] * len(self.ports),
        "_stamp": uncompared(0),        # clock-derived
        "_jobs": projected(deque, lambda jobs: tuple(j.index for j in jobs)),
    }

A power-on value is an immutable constant or a factory: a type is
called with no argument, any other callable with the instance.  Tables
merge along the MRO once per class, so ``reset()`` and
``snapshot_state()`` do no introspection.  ``reset()`` is the only
place registered state is written: ``__init__`` sets configuration and
wiring, then calls it, so a reset component is exactly a fresh one —
what lets a harness be reused through ``Simulator.reset()``.  An
override adds only behaviour that is not a field (clearing a
:class:`DriveSensitiveState` fault block) and schedules nothing;
``Simulator.reset()`` re-seeds every drive, demand update and timed
wake right after it resets the components.

Scheduling contract (dirty-set kernel)
--------------------------------------

The default kernel (``Simulator(strategy="dirty")``) re-runs a
component's ``drive()`` only when it might produce different outputs:

* **Wire sensitivity.**  If :meth:`inputs` returns ``None`` (the
  default), the kernel traces every wire the drive actually reads and
  re-runs the component whenever one of those wires changes.  A
  component may instead *declare* its input wires by overriding
  :meth:`inputs`; declared components skip the (cheap) read tracing.
  Over-declaring is harmless; under-declaring silently produces stale
  outputs — when in doubt, leave :meth:`inputs` returning ``None``.
* **State sensitivity.**  By default (``demand_driven = False``) the
  kernel conservatively re-runs ``drive()`` at the start of every
  cycle's settle, because ``update()`` may have changed registered state
  that ``drive()`` reads.  A component that sets ``demand_driven =
  True`` promises to call :meth:`schedule_drive` from every code path
  that mutates *drive-visible* state: inside ``update()``, and from any
  software-facing API (``submit()``, fault switches, register writes)
  that callers may invoke between cycles.  Missing a path is a
  correctness bug; ``Simulator(strategy="verify")`` and the
  scheduler-equivalence tests exist to catch it.

Components that never override :meth:`drive` (pure update-phase models
such as the PLIC or the recovery CPU) are excluded from the settle
worklist entirely.

Quiescence contract (update phase)
----------------------------------

Symmetric to the drive contract, a component may opt out of running
``update()`` on cycles where it is provably a no-op — no in-flight
transactions, no armed counters, no pending interrupts.  A component
that sets ``demand_update = True`` promises:

* :meth:`quiescent` returns ``True`` only when the *next* ``update()``
  would change nothing — neither registered state nor future behaviour
  — given that none of its :meth:`update_inputs` wires change and no
  one calls :meth:`schedule_update` in the meantime.  The kernel checks
  it after every ``update()`` run and removes quiescent components from
  the live updater set.
* :meth:`update_inputs` declares every wire whose *change* must re-arm
  the component (the update-phase analogue of ``inputs()``; there is no
  traced fallback — updates read wire slots directly).
* every software-facing API that re-enables update work (``submit()``,
  fault switches, register writes, ``connect``-style wiring) calls
  :meth:`schedule_update`.

State that is a pure function of the global clock — private cycle
counters used for timestamps, free-running prescaler phases, windowed
statistics over idle cycles — is exempt from the no-op requirement
*provided* the component resynchronizes it from ``self._sim.cycle`` at
the start of ``update()``; skipped spans are then reconstructed exactly
on wake.  Its table entry must be :func:`uncompared`, because
``Simulator(strategy="verify")`` replays the updates of every skipped
component each cycle and raises ``SchedulerDivergenceError`` when a
replay moves the :meth:`~RegisteredState.snapshot_state` tuple (an
under-declared wake path).

Timed wakes
-----------

A component whose only pending sequential work is a *countdown* — a
watchdog deadline, a timeout budget, a ready-delay crossing — may be
quiescent through the countdown **provided** it declares the cycle the
countdown falls due with :meth:`wake_at` before sleeping, and
reconstructs the elapsed span from ``self._sim.cycle`` when it next
updates.  ``wake_at(c)`` guarantees the component is back in the live
updater set for the step that starts at ``sim.cycle == c`` (whose
update is stamped ``c + 1``).  The armed
wake is a single value: the latest ``wake_at`` supersedes any earlier
one, waking earlier than necessary is harmless (the update simply
re-arms), and :meth:`cancel_wake` drops it.  Waking in the past raises
``ValueError``; ``wake_at(sim.cycle)`` degenerates to
:meth:`schedule_update`.  The standard conversion keeps one
``_stamp``-style field holding the stamp of the last real update and
applies ``elapsed = now - stamp`` ticks on wake — under an always-on
update phase ``elapsed`` is 1 every cycle, so one implementation serves
both modes and ``strategy="verify"`` replays remain exact.

Burst streaming
---------------

A component on the path of a steady write burst — the manager sourcing
it, the forwarders in between, the subordinate storing it — may let the
kernel advance several mid-burst W beats in one call.  It overrides:

* :meth:`stream_horizon` — how many of the next cycles, up to a limit,
  only stream mid-burst W beats through it: no other handshake, no
  counter expiry, no countdown crossing, no fault transition.  ``0``
  (the default) pins the clock to stepping.
* :meth:`stream` — apply that many cycles in bulk, leaving exactly the
  registered state *cycles* ordinary updates would have left.
* :meth:`stream_wires` — the wires its drives would rewrite every
  streamed cycle (the forwarded W payloads).  A component reading one
  of them without implementing the contract pins streaming.

The kernel streams the whole simulation while every awake component
reports a horizon and every pending drive belongs to one of them.
Otherwise the components that do report one may still stream as an
*island* while the rest steps, provided every component that may read
their stream wires is one of them, one of their children, or a stepped
component passing the beat on unchanged to wires closed the same way
(:meth:`Component.forwards_w`; the crossbar declares it: it re-forwards
a repeated beat as an equal value and commits nothing on a mid-burst
beat).  See "Burst streaming" and "Island streaming" in
:mod:`repro.sim.kernel`.

Phase periodicity (lockstep batching)
-------------------------------------

The lockstep batch executor (:mod:`repro.sim.batch`) runs one *leader*
simulation per pack of same-config campaign runs and derives the other
lanes' results by shifting the leader's cycle stamps.  That is only
sound when every component's *autonomous* behaviour — what it does as a
function of absolute time, independent of stimulus — is periodic.  A
component declares this with the :attr:`Component.phase_period` class
attribute:

* ``phase_period = 1`` promises the component is *translation
  invariant*: given identical stimulus shifted by any number of cycles,
  it produces identically shifted behaviour.  Purely reactive blocks
  (managers, subordinates, crossbars, reset units) qualify — all their
  countdowns are relative (``wake_at(now + delta)``), never anchored to
  absolute cycle numbers.
* ``phase_period = p`` promises invariance under shifts that are
  multiples of ``p`` — the TMU declares its free-running prescaler
  step, whose phase is ``cycle % step``.
* ``phase_period = None`` (the default) makes no promise; a simulation
  containing such a component is never batched (every lane runs
  scalar).

The pack period is the least common multiple over all registered
components (:func:`repro.sim.batch.lockstep_period`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .signal import Wire


def freeze(value):
    """*value* as a comparable copy: lists and deques become tuples, a
    dict its sorted items, and a holder with a ``snapshot_state()`` (a
    guard, a remap table) that snapshot, recursively."""
    if isinstance(value, (list, deque, tuple)):
        return tuple(map(freeze, value))
    if isinstance(value, dict):
        return tuple(sorted((key, freeze(item)) for key, item in value.items()))
    snapshot = getattr(value, "snapshot_state", None)
    return value if snapshot is None else snapshot()


class _Field(NamedTuple):
    power_on: Any
    view: Optional[Callable[[Any], Any]]  # None: not compared


def uncompared(power_on) -> _Field:
    """A field verify does not compare: clock-derived state the owner
    resyncs on wake, or a drive memo."""
    return _Field(power_on, None)


def projected(power_on, view: Callable[[Any], Any]) -> _Field:
    """A field verify compares through ``view(value)``."""
    return _Field(power_on, view)


def _fields(table):
    """``(name, power_on, view)`` per entry; a bare value is frozen."""
    for name, spec in table.items():
        yield (name, *spec) if isinstance(spec, _Field) else (name, spec, freeze)


def power_on_writer(table):
    """A function that writes *table*'s power-on values into the instance
    it is called with (assigned in a class body, a method).

    Generated once per table, as :mod:`dataclasses` generates
    ``__init__``: one plain attribute store per field, so a reset costs
    what hand-written assignments cost.  A ``setattr`` loop costs
    several times as much per field, and writing through ``__dict__``
    would slow every later attribute read of the instance.
    """
    namespace: dict = {}
    lines = ["def write(self):", "    pass"]
    for i, (name, power_on, _) in enumerate(_fields(table)):
        namespace[f"_{i}"] = power_on
        call = (
            "()" if isinstance(power_on, type)
            else "(self)" if callable(power_on) else ""
        )
        lines.append(f"    self.{name} = _{i}{call}")
    exec("\n".join(lines), namespace)
    return namespace["write"]


class RegisteredState:
    """Registered state declared once, in the :attr:`registered` table
    (see "Power-on state" above).  Components inherit it; a holder that
    is not a component (an ID remap table, a prescaler) mixes it in."""

    #: Field name -> power-on value, :func:`uncompared` or :func:`projected`;
    #: a class lists its own fields, and a base's entry may be replaced.
    registered: dict = {}
    _power_on = power_on_writer({})
    _compared: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        table: dict = {}
        for klass in reversed(cls.__mro__):
            table.update(klass.__dict__.get("registered", ()))
        cls._power_on = power_on_writer(table)
        cls._compared = tuple(
            (name, view) for name, _, view in _fields(table) if view is not None
        )

    def reset(self) -> None:
        """Synchronous reset: write every registered field's power-on
        value (see "Power-on state" above)."""
        self._power_on()

    def snapshot_state(self):
        """The compared fields, frozen or projected, for verify's diff.

        ``Simulator(strategy="verify")`` replays the update of every
        skipped component and raises ``SchedulerDivergenceError`` when
        the replay moves this snapshot.
        """
        return tuple([view(getattr(self, name)) for name, view in self._compared])


class DriveSensitiveState:
    """Mixin for mutable blocks (fault switches, knobs) read by a drive().

    Campaign and test code flips these attributes directly between
    cycles (``subordinate.faults.deaf_aw = True``), bypassing any
    component API that could uphold the demand-driven contract.  The
    owning component assigns itself to ``_owner`` after construction;
    every subsequent attribute write then notifies the owner's
    scheduler.
    """

    def __setattr__(self, key: str, value) -> None:
        object.__setattr__(self, key, value)
        self._notify_owner()

    def _notify_owner(self) -> None:
        owner = getattr(self, "_owner", None)
        if owner is not None:
            owner.schedule_drive()
            owner.schedule_update()

    def clear(self) -> None:
        """Return every field of the (dataclass) block to its default.

        The owner is notified once for the whole block, not per field.
        """
        for name, field in self.__dataclass_fields__.items():
            object.__setattr__(self, name, field.default)
        self._notify_owner()


class Component(RegisteredState):
    """Base class for synchronous hardware models."""

    #: When True, the kernel only re-runs ``drive()`` after an input wire
    #: change or an explicit :meth:`schedule_drive` — see the scheduling
    #: contract in the module docstring.  The default (False) re-runs
    #: every cycle, which is always safe.
    demand_driven: bool = False

    #: When True, the kernel runs ``update()`` only while the component
    #: is *awake*: it leaves the live updater set when :meth:`quiescent`
    #: returns True and re-arms on an :meth:`update_inputs` wire change
    #: or an explicit :meth:`schedule_update` — see the quiescence
    #: contract in the module docstring.  The default (False) runs
    #: ``update()`` every cycle, which is always safe.
    demand_update: bool = False

    #: Period (in cycles) of this component's autonomous, absolute-time
    #: behaviour — see "Phase periodicity" in the module docstring.
    #: ``1`` declares full translation invariance (purely reactive),
    #: ``p`` invariance under shifts by multiples of ``p``, and ``None``
    #: (the default) opts the whole simulation out of lockstep batching.
    phase_period: Optional[int] = None

    #: Whether this component implements the burst-streaming contract
    #: (overrides :meth:`stream_horizon`); set by ``Simulator.add()``.
    _streams: bool = False

    def __init__(self, name: str) -> None:
        self.name = name
        # Set by Simulator.add(): the simulator's pending worklist, the
        # live updater set, the simulator itself (for clock resync), and
        # this component's deterministic evaluation rank.
        self._scheduler: Optional[set] = None
        self._update_scheduler: Optional[set] = None
        self._sim = None
        self._order: int = 0
        # The single armed timed-wake cycle, or None.  Owned jointly
        # with the simulator's wake heap (lazy-cancellation protocol).
        self._wake_cycle: Optional[int] = None

    def wires(self) -> Iterable[Wire]:
        """Wires sourced or observed by this component.

        The kernel registers these for tracing, reset, and VCD dumps.
        Subclasses should yield every wire of every interface they touch,
        the ones :meth:`drive` writes included — the kernel keeps no
        separate write set.  Duplicates across components are harmless:
        a wire is registered once, by the first component naming it.
        """
        return ()

    def children(self) -> Iterable["Component"]:
        """Sub-components registered automatically alongside this one.

        Lets a block expose finer scheduling granularity — e.g. the
        crossbar registers one drive-only child per AXI channel so a W
        beat does not re-arbitrate the address channels.  Children are
        full components: the kernel schedules their ``drive()`` and runs
        their ``update()`` like any other.
        """
        return ()

    def inputs(self) -> Optional[Iterable[Wire]]:
        """Wires whose value changes require re-running :meth:`drive`.

        Return ``None`` (the default) to let the kernel trace actual
        reads automatically.  Return an iterable (possibly empty) to
        declare the sensitivity list explicitly and skip tracing.
        """
        return None

    def update_inputs(self) -> Optional[Iterable[Wire]]:
        """Wires whose value changes must re-arm :meth:`update`.

        Only consulted for ``demand_update`` components.  Return ``None``
        (the default) when no wire change can end the component's
        quiescence — it then relies solely on :meth:`schedule_update`.
        There is no traced fallback: clock-edge code reads wire slots
        directly, so the sensitivity list must be declared.
        """
        return None

    def quiescent(self) -> bool:
        """Whether the next :meth:`update` is provably a no-op.

        Called by the kernel right after this component's ``update()``
        ran, with the cycle's settled wires still in place.  Returning
        True removes the component from the live updater set until an
        :meth:`update_inputs` wire changes or :meth:`schedule_update` is
        called.  The default (False) keeps the component always on.
        """
        return False

    def schedule_drive(self) -> None:
        """Mark this component's combinational outputs as possibly stale.

        Demand-driven components call this whenever registered state read
        by :meth:`drive` may have changed.  Safe to call at any time; a
        no-op until the component is registered with a simulator.
        """
        scheduler = self._scheduler
        if scheduler is not None:
            scheduler.add(self)

    def schedule_update(self) -> None:
        """Re-arm this component's :meth:`update` (end its quiescence).

        Demand-update components call this from every software-facing
        path that creates new sequential work (traffic submission, fault
        switches, register writes).  Safe to call at any time; a no-op
        until the component is registered with a simulator, and for
        components that did not opt into ``demand_update``.
        """
        scheduler = self._update_scheduler
        if scheduler is not None:
            scheduler.add(self)

    def wake_at(self, cycle: int) -> None:
        """Arm a timed wake: re-enter the live updater set for the step
        that starts at ``sim.cycle == cycle``.

        The latest call wins (re-arming with an earlier or later cycle
        supersedes the previous wake).  ``cycle`` in the past raises
        ``ValueError``; the current cycle degenerates to
        :meth:`schedule_update`.  A no-op for unregistered components
        and for registrations whose update runs every cycle anyway
        (``exhaustive`` simulators, ``update_skipping=False``, or
        components that never opted into ``demand_update``).
        """
        sim = self._sim
        if sim is None or self._update_scheduler is None:
            return
        sim._register_wake(self, cycle)

    def cancel_wake(self) -> None:
        """Drop the armed timed wake, if any (lazy heap cancellation)."""
        self._wake_cycle = None

    def stream_horizon(self, limit: int) -> int:
        """Cycles, at most *limit*, this component can be streamed now.

        Called at a step boundary, with the previous cycle's settled
        wires in place, only while the component is awake.  A nonzero
        answer promises that each of the next that many cycles would
        only fire a mid-burst W beat through this component and change
        nothing else it owns but what :meth:`stream` applies.  The
        default never streams.
        """
        return 0

    def stream(self, cycles: int) -> None:
        """Apply *cycles* streamed cycles in bulk (see :meth:`stream_horizon`).

        Called with ``sim.cycle`` still at the span's first cycle; the
        kernel advances the clock afterwards.
        """

    def stream_wires(self) -> Iterable[Wire]:
        """Wires this component's drives rewrite in every streamed cycle."""
        return ()

    def forwards_w(self, wire: Wire) -> Optional[Iterable[Wire]]:
        """Where this component, stepped, passes a W beat read on *wire*.

        Consulted for a reader of a streaming island's frozen W payload
        (see "Burst streaming" above).  ``None`` (the default) means the
        component may consume the beat — store it, count it — so a
        frozen beat must never reach it.  Returning wires declares that
        it passes mid-burst beats read on *wire* through unchanged: a
        drive re-run on a repeated beat writes the same values, its
        update commits nothing on one, and the beat reappears only on
        the returned wires (empty when it goes nowhere).
        """
        return None

    def drive(self) -> None:
        """Combinational phase: compute outputs from inputs + state."""

    def update(self) -> None:
        """Sequential phase: commit registered state at the clock edge."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
