"""Sparse byte-addressable memory model backing AXI subordinates.

Pages are allocated lazily so a 64-bit address space costs nothing until
written.  Reads of unwritten bytes return a configurable fill byte,
making "read garbage" bugs deterministic in tests.
"""

from __future__ import annotations

from typing import Dict


class SparseMemory:
    """Lazily-paged byte memory.

    Parameters
    ----------
    page_bits:
        log2 of the page size in bytes.
    fill:
        Byte value returned for never-written locations.
    """

    def __init__(self, page_bits: int = 12, fill: int = 0) -> None:
        if not 0 <= fill <= 0xFF:
            raise ValueError("fill must be a byte value")
        self._page_bits = page_bits
        self._page_size = 1 << page_bits
        self._fill = fill
        self._pages: Dict[int, bytearray] = {}
        self._watchers: tuple = ()

    def watch(self, callback) -> None:
        """Invoke *callback* after every store (once per store, not per byte).

        Subordinates register their scheduler invalidation here so a
        testbench writing memory mid-simulation (while a read burst is
        in flight) re-evaluates the R datapath — the demand-driven
        contract for state mutated behind the component's back.
        """
        if callback not in self._watchers:
            self._watchers = (*self._watchers, callback)

    def clear(self) -> None:
        """Forget every store: all bytes read back as the fill byte again.

        Watchers are notified as for a store and stay registered.
        """
        self._pages.clear()
        for watcher in self._watchers:
            watcher()

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def allocated_pages(self) -> int:
        return len(self._pages)

    def _page_for(self, addr: int) -> bytearray:
        page_index = addr >> self._page_bits
        page = self._pages.get(page_index)
        if page is None:
            page = bytearray([self._fill]) * self._page_size
            self._pages[page_index] = page
        return page

    def read_byte(self, addr: int) -> int:
        page = self._pages.get(addr >> self._page_bits)
        if page is None:
            return self._fill
        return page[addr & (self._page_size - 1)]

    def write_byte(self, addr: int, value: int) -> None:
        self._page_for(addr)[addr & (self._page_size - 1)] = value & 0xFF
        for watcher in self._watchers:
            watcher()

    def read(self, addr: int, length: int) -> bytes:
        """Read *length* bytes starting at *addr*."""
        return bytes(self.read_byte(addr + i) for i in range(length))

    def write(self, addr: int, data: bytes) -> None:
        """Write *data* starting at *addr*."""
        for i, byte in enumerate(data):
            self.write_byte(addr + i, byte)

    def read_word(self, addr: int, width: int) -> int:
        """Read a little-endian integer of *width* bytes."""
        offset = addr & (self._page_size - 1)
        if offset + width > self._page_size:
            return int.from_bytes(self.read(addr, width), "little")
        page = self._pages.get(addr >> self._page_bits)
        if page is None:
            return int.from_bytes(bytes((self._fill,)) * width, "little")
        return int.from_bytes(page[offset:offset + width], "little")

    def write_word(self, addr: int, value: int, width: int) -> None:
        """Write a little-endian integer of *width* bytes."""
        self.write(addr, (value & ((1 << (8 * width)) - 1)).to_bytes(width, "little"))

    def write_block(self, addr: int, data: bytes) -> None:
        """Store *data* at consecutive addresses from *addr*.

        One slice assignment per page touched, and one watcher
        notification for the whole block — a streamed write burst's
        middle beats land here together.
        """
        mask = self._page_size - 1
        position = 0
        while position < len(data):
            offset = (addr + position) & mask
            chunk = min(len(data) - position, self._page_size - offset)
            page = self._page_for(addr + position)
            page[offset:offset + chunk] = data[position:position + chunk]
            position += chunk
        for watcher in self._watchers:
            watcher()

    def write_masked(self, addr: int, value: int, strb: int, width: int) -> None:
        """Apply a write-strobe-masked store, as the W channel requires.

        A store inside one page is one slice assignment when every
        strobe is set, a per-lane write into the page otherwise; a
        page-crossing store goes byte by byte.  Either way the watchers
        fire once per store that writes at least one byte.
        """
        full = (1 << width) - 1
        strb &= full
        if not strb:
            return
        data = (value & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
        mask = self._page_size - 1
        offset = addr & mask
        if offset + width <= self._page_size:
            page = self._page_for(addr)
            if strb == full:
                page[offset:offset + width] = data
            else:
                for lane in range(width):
                    if strb >> lane & 1:
                        page[offset + lane] = data[lane]
        else:
            for lane in range(width):
                if strb >> lane & 1:
                    byte_addr = addr + lane
                    self._page_for(byte_addr)[byte_addr & mask] = data[lane]
        for watcher in self._watchers:
            watcher()
