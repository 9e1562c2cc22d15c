"""Register bus: the lightweight configuration interconnect of Fig. 10.

Cheshire exposes peripheral configuration registers through a *Regbus*
demultiplexer.  This module models that path so recovery software can
reach the TMU's register file the way a real driver would — through an
addressed bus transaction with a ready/error handshake — instead of
calling Python methods directly.

The bus is deliberately simple (single outstanding request, combinational
grant, registered response) which matches the real Regbus protocol's
spirit: low-cost, low-throughput configuration access.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from ..sim.component import Component, projected
from ..sim.signal import Wire
from ..tmu.registers import TmuRegisters


@dataclasses.dataclass(frozen=True)
class RegRequest:
    """One register-bus request."""

    addr: int
    write: bool = False
    wdata: int = 0


@dataclasses.dataclass(frozen=True)
class RegResponse:
    """One register-bus response."""

    rdata: int = 0
    error: bool = False


class RegBusPort:
    """Wire bundle for one register-bus link."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.req_valid = Wire(f"{name}.req_valid", False)
        self.req = Wire(f"{name}.req", None, width=64)
        self.rsp_valid = Wire(f"{name}.rsp_valid", False)
        self.rsp = Wire(f"{name}.rsp", None, width=64)

    def wires(self):
        yield self.req_valid
        yield self.req
        yield self.rsp_valid
        yield self.rsp


class RegBusTarget:
    """Interface every register-bus endpoint implements."""

    def reg_read(self, offset: int) -> int:
        raise NotImplementedError

    def reg_write(self, offset: int, value: int) -> None:
        raise NotImplementedError


class TmuRegbusAdapter(RegBusTarget):
    """Exposes a :class:`TmuRegisters` file as a register-bus target."""

    def __init__(self, registers: TmuRegisters) -> None:
        self.registers = registers

    def reg_read(self, offset: int) -> int:
        return self.registers.read(offset)

    def reg_write(self, offset: int, value: int) -> None:
        self.registers.write(offset, value)


class RegBusDemux(Component):
    """Address-decoded register-bus demultiplexer (one cycle per access).

    Unmapped addresses or endpoint exceptions return an error response,
    mirroring the real Regbus's error signal.
    """

    demand_driven = True
    demand_update = True
    phase_period = 1

    registered = {
        "_pending": None,  # the registered response, one cycle long
        "accesses": 0,
        "errors": 0,
    }

    def __init__(
        self,
        name: str,
        port: RegBusPort,
        targets: List[Tuple[int, int, RegBusTarget]],
    ) -> None:
        super().__init__(name)
        self.port = port
        self.targets = list(targets)  # (base, size, target)
        self.reset()

    def wires(self):
        yield from self.port.wires()

    def inputs(self):
        # drive() publishes the registered response; the request wires
        # are sampled in update() only.
        return ()

    def update_inputs(self):
        return (self.port.req_valid, self.port.req)

    def quiescent(self):
        return self._pending is None and not self.port.req_valid._value

    def _decode(self, addr: int) -> Optional[Tuple[int, RegBusTarget]]:
        for base, size, target in self.targets:
            if base <= addr < base + size:
                return addr - base, target
        return None

    def drive(self) -> None:
        if self._pending is not None:
            self.port.rsp_valid.value = True
            self.port.rsp.value = self._pending
        else:
            self.port.rsp_valid.value = False
            self.port.rsp.value = None

    def update(self) -> None:
        # Response consumed (single-outstanding: requester must sample it).
        if self._pending is not None:
            self._pending = None
            self.schedule_drive()
            return
        if not self.port.req_valid.value:
            return
        request: RegRequest = self.port.req.value
        if request is None:
            return
        self.accesses += 1
        decoded = self._decode(request.addr)
        if decoded is None:
            self.errors += 1
            self._pending = RegResponse(error=True)
            self.schedule_drive()
            return
        offset, target = decoded
        try:
            if request.write:
                target.reg_write(offset, request.wdata)
                self._pending = RegResponse()
            else:
                self._pending = RegResponse(rdata=target.reg_read(offset))
        except KeyError:
            self.errors += 1
            self._pending = RegResponse(error=True)
        self.schedule_drive()


class RegBusMaster(Component):
    """Blocking register-bus requester with a scripted access queue.

    Software models push (request, callback) pairs; the master issues
    them one at a time and invokes the callback with the response.
    """

    demand_driven = True
    demand_update = True
    phase_period = 1

    registered = {
        "_queue": list,  # (request, callback) pairs, in issue order
        "_inflight": None,
        "responses": projected(list, len),
    }

    def __init__(self, name: str, port: RegBusPort) -> None:
        super().__init__(name)
        self.port = port
        self.reset()

    def wires(self):
        yield from self.port.wires()

    def inputs(self):
        return (self.port.rsp_valid,)

    def update_inputs(self):
        return (self.port.rsp_valid, self.port.rsp)

    def quiescent(self):
        return self._inflight is None and not self._queue

    def submit(self, request: RegRequest, callback=None) -> None:
        self._queue.append((request, callback))
        self.schedule_update()

    def read(self, addr: int, callback=None) -> None:
        self.submit(RegRequest(addr=addr, write=False), callback)

    def write(self, addr: int, value: int, callback=None) -> None:
        self.submit(RegRequest(addr=addr, write=True, wdata=value), callback)

    @property
    def idle(self) -> bool:
        return self._inflight is None and not self._queue

    def drive(self) -> None:
        # drive() must be idempotent: issue selection happens in update().
        if self._inflight is not None and not self.port.rsp_valid.value:
            self.port.req_valid.value = True
            self.port.req.value = self._inflight[0]
        else:
            self.port.req_valid.value = False
            self.port.req.value = None

    def update(self) -> None:
        changed = False
        if self._inflight is not None and self.port.rsp_valid.value:
            response: RegResponse = self.port.rsp.value
            self.responses.append(response)
            callback = self._inflight[1]
            self._inflight = None
            changed = True
            if callback is not None:
                callback(response)
        if self._inflight is None and self._queue:
            self._inflight = self._queue.pop(0)
            changed = True
        if changed:
            self.schedule_drive()
