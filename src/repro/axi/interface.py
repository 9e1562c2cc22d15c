"""AXI4 interface bundle: the five channels of one manager↔subordinate link.

An :class:`AxiInterface` is a passive bundle of wires; components on
either side drive the appropriate sides (request-channel sources drive
``valid``/``payload``, sinks drive ``ready``; response channels are
mirrored).
"""

from __future__ import annotations

from typing import Tuple

from ..sim.signal import Channel, Wire


#: Default bus data width in bytes (Cheshire's 64-bit bus).
DEFAULT_DATA_BYTES = 8


class AxiInterface:
    """The five AXI4 channels between one manager port and one subordinate.

    Channels
    --------
    aw, w, ar:
        Request channels — manager side is the source.
    b, r:
        Response channels — subordinate side is the source.

    ``data_bytes`` is the W/R data bus width in bytes.  Narrow transfers
    (AxSIZE smaller than the bus) place their data and write strobes on
    the byte lanes the beat address selects, exactly as AXI4 specifies;
    components on both sides consult this width for the lane math.
    """

    def __init__(self, name: str, data_bytes: int = DEFAULT_DATA_BYTES) -> None:
        if data_bytes <= 0 or data_bytes & (data_bytes - 1):
            raise ValueError(f"data_bytes must be a power of two, got {data_bytes}")
        self.name = name
        self.data_bytes = data_bytes
        self.aw = Channel(f"{name}.aw")
        self.w = Channel(f"{name}.w")
        self.b = Channel(f"{name}.b")
        self.ar = Channel(f"{name}.ar")
        self.r = Channel(f"{name}.r")
        # The channel set is fixed from here on; every component sharing
        # this link hands the kernel the same tuple.
        self._wires = tuple(
            wire for channel in self.channels for wire in channel.wires()
        )

    @property
    def channels(self):
        return (self.aw, self.w, self.b, self.ar, self.r)

    def wires(self) -> Tuple[Wire, ...]:
        return self._wires

    def reset(self) -> None:
        for channel in self.channels:
            channel.reset()

    def idle_requests(self) -> None:
        """Manager-side helper: deassert all request valids."""
        self.aw.idle()
        self.w.idle()
        self.ar.idle()

    def idle_responses(self) -> None:
        """Subordinate-side helper: deassert all response valids."""
        self.b.idle()
        self.r.idle()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AxiInterface({self.name!r})"
