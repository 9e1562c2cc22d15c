"""Unit tests for the sparse memory model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axi.memory import SparseMemory


def test_unwritten_reads_return_fill():
    mem = SparseMemory(fill=0xAB)
    assert mem.read_byte(0x1234) == 0xAB
    assert mem.read(0, 4) == b"\xab\xab\xab\xab"
    assert mem.allocated_pages == 0  # reads allocate nothing


def test_fill_must_be_byte():
    with pytest.raises(ValueError):
        SparseMemory(fill=256)


def test_write_read_roundtrip():
    mem = SparseMemory()
    mem.write(0x100, b"hello")
    assert mem.read(0x100, 5) == b"hello"


def test_write_across_page_boundary():
    mem = SparseMemory(page_bits=4)  # 16-byte pages
    mem.write(14, b"abcd")
    assert mem.read(14, 4) == b"abcd"
    assert mem.allocated_pages == 2


def test_word_roundtrip_little_endian():
    mem = SparseMemory()
    mem.write_word(0x40, 0x1122334455667788, 8)
    assert mem.read_word(0x40, 8) == 0x1122334455667788
    assert mem.read_byte(0x40) == 0x88  # little-endian low byte first


def test_word_write_truncates_to_width():
    mem = SparseMemory()
    mem.write_word(0, 0x1FF, 1)
    assert mem.read_word(0, 1) == 0xFF


def test_masked_write_touches_enabled_lanes_only():
    mem = SparseMemory(fill=0)
    mem.write_word(0, 0xFFFFFFFFFFFFFFFF, 8)
    mem.write_masked(0, 0, strb=0x0F, width=8)
    assert mem.read_word(0, 8) == 0xFFFFFFFF00000000


def test_masked_write_single_lane():
    mem = SparseMemory(fill=0)
    mem.write_masked(0, 0xAABBCCDD, strb=0b0100, width=4)
    assert mem.read(0, 4) == bytes([0, 0, 0xBB, 0])


def test_pages_allocated_lazily_on_write():
    mem = SparseMemory(page_bits=12)
    mem.write_byte(0x0, 1)
    mem.write_byte(0x1000_0000, 2)
    assert mem.allocated_pages == 2


#: 16-byte pages, so page-crossing stores are common in the draws below.
PAGE_BITS = 4


@st.composite
def masked_stores(draw):
    width = draw(st.sampled_from((1, 2, 4, 8)))
    # In-page offsets and offsets whose store straddles the page end.
    addr = draw(st.integers(0, 4)) * (1 << PAGE_BITS) + draw(
        st.integers(0, (1 << PAGE_BITS) - 1)
    )
    value = draw(st.integers(0, (1 << (8 * width + 8)) - 1))
    strb = draw(st.integers(0, (1 << width) - 1))
    return addr, value, strb, width


class ByteReference:
    """Byte-wise model of a strobed store: one dict entry per byte."""

    def __init__(self, fill):
        self.fill = fill
        self.bytes = {}

    def write_masked(self, addr, value, strb, width):
        data = (value & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
        for lane in range(width):
            if strb & (1 << lane):
                self.bytes[addr + lane] = data[lane]

    def read_word(self, addr, width):
        return int.from_bytes(
            bytes(self.bytes.get(addr + i, self.fill) for i in range(width)),
            "little",
        )


@given(
    fill=st.integers(0, 0xFF),
    stores=st.lists(masked_stores(), min_size=1, max_size=12),
    reads=st.lists(
        st.tuples(st.integers(0, 5 << PAGE_BITS), st.sampled_from((1, 2, 4, 8))),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=200, deadline=None)
def test_masked_stores_match_bytewise_reference(fill, stores, reads):
    mem = SparseMemory(page_bits=PAGE_BITS, fill=fill)
    reference = ByteReference(fill)
    fired = []
    mem.watch(lambda: fired.append(1))
    for addr, value, strb, width in stores:
        before = len(fired)
        mem.write_masked(addr, value, strb, width)
        reference.write_masked(addr, value, strb, width)
        # One watcher call per store that writes a byte, none otherwise.
        assert len(fired) - before == (1 if strb else 0)
        assert mem.read_word(addr, width) == reference.read_word(addr, width)
    for addr, width in reads:
        assert mem.read_word(addr, width) == reference.read_word(addr, width)
    for addr in range(6 << PAGE_BITS):
        assert mem.read_byte(addr) == reference.bytes.get(addr, fill)


@pytest.mark.parametrize("width", (1, 2, 4, 8))
def test_every_strobe_mask_matches_bytewise_reference(width):
    value = int.from_bytes(bytes(range(0xA0, 0xA0 + width)), "little")
    # In-page, then straddling the page end (width 1 sits on the last byte).
    for addr in (0, (1 << PAGE_BITS) - width // 2 - 1):
        for strb in range(1 << width):
            mem = SparseMemory(page_bits=PAGE_BITS, fill=0x5A)
            reference = ByteReference(0x5A)
            fired = []
            mem.watch(lambda: fired.append(1))
            mem.write_masked(addr, value, strb, width)
            reference.write_masked(addr, value, strb, width)
            assert len(fired) == (1 if strb else 0)
            assert mem.read_word(addr, width) == reference.read_word(addr, width)
            if strb == 0:
                assert mem.allocated_pages == 0


def test_all_zero_strobe_writes_nothing_and_fires_nothing():
    mem = SparseMemory(fill=0x11)
    fired = []
    mem.watch(lambda: fired.append(1))
    mem.write_masked(0x20, 0xFFFF_FFFF, strb=0, width=4)
    assert fired == []
    assert mem.allocated_pages == 0
    assert mem.read_word(0x20, 4) == 0x1111_1111
