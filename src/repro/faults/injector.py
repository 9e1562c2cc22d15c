"""Signal-level fault injector: a forcing passthrough between interfaces.

:class:`FaultInjector` sits on an AXI link and forwards all five
channels transparently until a force is applied.  Forces override
individual handshake signals (``valid``/``ready``) or rewrite payloads,
modelling pin-level fault injection exactly as the paper's testbench
does.  Because it is an ordinary component, it can be placed on either
side of the TMU: upstream to model manager faults, downstream to model
subordinate faults.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional

from ..axi.interface import AxiInterface
from ..sim.component import Component, projected

PayloadMutator = Callable[[Any], Any]


@dataclasses.dataclass
class ChannelForce:
    """Active overrides on one channel.

    ``None`` means "pass through unchanged".
    """

    valid: Optional[bool] = None
    ready: Optional[bool] = None
    mutate: Optional[PayloadMutator] = None

    def clear(self) -> None:
        self.valid = None
        self.ready = None
        self.mutate = None

    @property
    def any_active(self) -> bool:
        return (
            self.valid is not None
            or self.ready is not None
            or self.mutate is not None
        )


class FaultInjector(Component):
    """Transparent AXI passthrough with per-channel signal forcing.

    Parameters
    ----------
    upstream:
        Interface toward the manager/TMU side.
    downstream:
        Interface toward the subordinate side.
    """

    CHANNELS = ("aw", "w", "b", "ar", "r")
    _REQUEST_CHANNELS = ("aw", "w", "ar")

    demand_driven = True
    demand_update = True

    registered = {
        "forces": lambda self: {
            channel: ChannelForce() for channel in self.CHANNELS
        },
        # forced_cycles is accounted lazily against the clock: while a
        # force is applied the count is `_forced_base + (now - since)`,
        # so a forced-but-frozen interface needs no per-cycle update
        # (its idle span can be leaped).  force()/release() move the
        # base at the transitions; verify watches only those.
        "_forced_base": 0,
        "_forced_since": projected(None, lambda since: since is not None),
    }

    def __init__(
        self, name: str, upstream: AxiInterface, downstream: AxiInterface
    ) -> None:
        super().__init__(name)
        self.upstream = upstream
        self.downstream = downstream
        self.reset()

    # ------------------------------------------------------------------
    # Force API
    # ------------------------------------------------------------------
    def force(
        self,
        channel: str,
        valid: Optional[bool] = None,
        ready: Optional[bool] = None,
        mutate: Optional[PayloadMutator] = None,
    ) -> None:
        """Apply overrides to *channel* (one of aw/w/b/ar/r)."""
        if channel not in self.forces:
            raise KeyError(f"unknown channel {channel!r}")
        entry = self.forces[channel]
        was_active = self.any_force_active
        entry.valid = valid
        entry.ready = ready
        entry.mutate = mutate
        if not was_active and self.any_force_active:
            self._forced_since = self._now()
        elif was_active and not self.any_force_active:
            self._forced_base = self._forced_base + max(
                0, self._now() - (self._forced_since or 0)
            )
            self._forced_since = None
        self.schedule_drive()
        self.schedule_update()

    def release(self, channel: Optional[str] = None) -> None:
        """Remove overrides from *channel*, or from all channels."""
        was_active = self.any_force_active
        if channel is None:
            for entry in self.forces.values():
                entry.clear()
        else:
            self.forces[channel].clear()
        if was_active and not self.any_force_active:
            self._forced_base = self._forced_base + max(
                0, self._now() - (self._forced_since or 0)
            )
            self._forced_since = None
        self.schedule_drive()
        self.schedule_update()

    def _now(self) -> int:
        return self._sim.cycle if self._sim is not None else 0

    @property
    def forced_cycles(self) -> int:
        """Cycles a force has been applied, accounted lazily."""
        if self._forced_since is None:
            return self._forced_base
        return self._forced_base + max(0, self._now() - self._forced_since)

    @property
    def any_force_active(self) -> bool:
        return any(entry.any_active for entry in self.forces.values())

    # ------------------------------------------------------------------
    # Component protocol
    # ------------------------------------------------------------------
    def wires(self):
        yield from self.upstream.wires()
        yield from self.downstream.wires()

    def _endpoints(self, channel: str):
        """(source, destination) channel pair honoring AXI direction."""
        src_if, dst_if = (
            (self.upstream, self.downstream)
            if channel in self._REQUEST_CHANNELS
            else (self.downstream, self.upstream)
        )
        return getattr(src_if, channel), getattr(dst_if, channel)

    def inputs(self):
        for channel in self.CHANNELS:
            src, dst = self._endpoints(channel)
            yield from (src.valid, src.payload, dst.ready)

    def drive(self) -> None:
        for channel in self.CHANNELS:
            src, dst = self._endpoints(channel)
            force = self.forces[channel]
            valid = src.valid.value if force.valid is None else force.valid
            payload = src.payload.value
            if force.mutate is not None and payload is not None:
                payload = force.mutate(payload)
            dst.valid.value = bool(valid)
            dst.payload.value = payload if valid else None
            ready = dst.ready.value if force.ready is None else force.ready
            src.ready.value = bool(ready)

    def update(self) -> None:
        # forced_cycles is derived lazily from the clock; nothing
        # remains for the sequential phase to do.
        pass

    def quiescent(self):
        # Pure passthrough state machine: force()/release() are the
        # only transitions, and both wake us explicitly.
        return True
