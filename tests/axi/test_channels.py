"""Unit tests for channel beat payloads."""

import dataclasses

import pytest

from repro.axi.channels import ArBeat, AwBeat, BBeat, RBeat, WBeat, remap_id
from repro.axi.types import BurstType, Resp


def test_aw_beat_derived_geometry():
    beat = AwBeat(id=3, addr=0x100, len=7, size=2)
    assert beat.beats == 8
    assert beat.bytes_per_beat == 4


def test_ar_beat_defaults():
    beat = ArBeat(id=0, addr=0x0)
    assert beat.beats == 1
    assert beat.burst == BurstType.INCR
    assert beat.size == 3


def test_beats_are_frozen():
    beat = AwBeat(id=0, addr=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        beat.addr = 5


def test_beats_compare_by_value():
    a = WBeat(data=1, strb=0xFF, last=False)
    b = WBeat(data=1, strb=0xFF, last=False)
    assert a == b
    assert a != WBeat(data=2, strb=0xFF, last=False)


def test_remap_id_preserves_other_fields():
    beat = AwBeat(id=0xBEEF, addr=0x40, len=3, size=2, burst=BurstType.WRAP)
    remapped = remap_id(beat, 2)
    assert remapped.id == 2
    assert remapped.addr == beat.addr
    assert remapped.len == beat.len
    assert remapped.burst == beat.burst
    assert beat.id == 0xBEEF  # original untouched


def test_remap_id_works_for_all_id_carrying_beats():
    for beat in (
        AwBeat(id=1, addr=0),
        ArBeat(id=1, addr=0),
        BBeat(id=1),
        RBeat(id=1, data=0, resp=Resp.OKAY, last=True),
    ):
        assert remap_id(beat, 9).id == 9


ID_CARRYING_BEATS = (
    AwBeat(id=0xBEEF, addr=0x40, len=3, size=2, burst=BurstType.WRAP, qos=5),
    ArBeat(id=7, addr=0x1000, len=255, lock=True, cache=3, prot=2, user=1),
    BBeat(id=3, resp=Resp.SLVERR, user=9),
    RBeat(id=0x1_0002, data=0xDEADBEEF, resp=Resp.EXOKAY, last=False, user=4),
)


@pytest.mark.parametrize("beat", ID_CARRYING_BEATS, ids=lambda b: type(b).__name__)
@pytest.mark.parametrize("new_id", [0, 2, 0xFFFF, 0x2_0001])
def test_remap_id_equals_dataclasses_replace(beat, new_id):
    remapped = remap_id(beat, new_id)
    expected = dataclasses.replace(beat, id=new_id)
    assert type(remapped) is type(beat)
    assert remapped == expected
    assert hash(remapped) == hash(expected)
    assert dataclasses.asdict(remapped) == dataclasses.asdict(expected)
    with pytest.raises(dataclasses.FrozenInstanceError):
        remapped.id = 1


@pytest.mark.parametrize("beat", ID_CARRYING_BEATS, ids=lambda b: type(b).__name__)
def test_remap_id_to_same_id_returns_the_beat_itself(beat):
    assert remap_id(beat, beat.id) is beat


def test_b_beat_default_okay():
    assert BBeat(id=0).resp == Resp.OKAY


def test_r_beat_fields():
    beat = RBeat(id=2, data=0x1234, resp=Resp.SLVERR, last=True)
    assert beat.resp.is_error
    assert beat.last
