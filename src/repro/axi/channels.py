"""Beat payload dataclasses for the five AXI4 channels.

Each dataclass is one *flit*: the payload carried by a single handshake
on the corresponding channel.  Fields mirror the AXI4 signal names with
the ``Ax``/``x`` prefix dropped (``AWADDR`` → ``AwBeat.addr``).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from .types import BurstType, Resp, beats_of, bytes_per_beat


@dataclasses.dataclass(frozen=True)
class AwBeat:
    """Write-address channel payload (AW)."""

    id: int
    addr: int
    len: int = 0
    size: int = 3
    burst: BurstType = BurstType.INCR
    lock: bool = False
    cache: int = 0
    prot: int = 0
    qos: int = 0
    user: int = 0

    @property
    def beats(self) -> int:
        return beats_of(self.len)

    @property
    def bytes_per_beat(self) -> int:
        return bytes_per_beat(self.size)


@dataclasses.dataclass(frozen=True)
class WBeat:
    """Write-data channel payload (W).  AXI4 W channel carries no ID."""

    data: int
    strb: int
    last: bool
    user: int = 0
    #: Not a signal: the sourcing burst's ``(data, strb)`` beats and this
    #: beat's position in them, so a subordinate storing a streamed
    #: span (see "Burst streaming" in :mod:`repro.sim.kernel`) can reach
    #: the words after it.  Excluded from equality, hashing and repr.
    burst: Optional[list] = dataclasses.field(
        default=None, compare=False, repr=False
    )
    index: int = dataclasses.field(default=0, compare=False, repr=False)


@dataclasses.dataclass(frozen=True)
class BBeat:
    """Write-response channel payload (B)."""

    id: int
    resp: Resp = Resp.OKAY
    user: int = 0


@dataclasses.dataclass(frozen=True)
class ArBeat:
    """Read-address channel payload (AR)."""

    id: int
    addr: int
    len: int = 0
    size: int = 3
    burst: BurstType = BurstType.INCR
    lock: bool = False
    cache: int = 0
    prot: int = 0
    qos: int = 0
    user: int = 0

    @property
    def beats(self) -> int:
        return beats_of(self.len)

    @property
    def bytes_per_beat(self) -> int:
        return bytes_per_beat(self.size)


@dataclasses.dataclass(frozen=True)
class RBeat:
    """Read-data channel payload (R)."""

    id: int
    data: int
    resp: Resp
    last: bool
    user: int = 0


def remap_id(beat, new_id: int):
    """Return an ID-carrying beat with its ID replaced.

    Used by the crossbar's ID extension and the TMU's remapper; works
    for AW/AR/B/R beats.  Beats are frozen, so a beat whose ID already
    matches is returned as is, and a remapped copy takes the fields
    directly rather than through :func:`dataclasses.replace` (which
    re-runs ``__init__``, a hot cost on forwarded traffic).
    """
    if beat.id == new_id:
        return beat
    copy = object.__new__(beat.__class__)
    fields = beat.__dict__.copy()
    fields["id"] = new_id
    object.__setattr__(copy, "__dict__", fields)
    return copy


AddressBeat = Optional[object]  # AwBeat | ArBeat; py3.9-compatible alias
