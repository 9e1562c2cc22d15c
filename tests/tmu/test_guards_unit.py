"""Unit-level guard tests: scripted channel sequences, no manager/subordinate.

Drives the Write/Read Guard FSMs directly through
:class:`~repro.sim.signal.Channel` objects to pin down state-machine
corners that closed-loop tests reach only probabilistically.
"""

import pytest

from tests.conftest import fast_budgets

from repro.axi.channels import ArBeat, AwBeat, BBeat, RBeat, WBeat
from repro.sim.signal import Channel
from repro.tmu.config import full_config, tiny_config
from repro.tmu.events import FaultKind
from repro.tmu.phases import ReadPhase, TxnSpan, WritePhase
from repro.tmu.read_guard import ReadGuard
from repro.tmu.write_guard import WriteGuard
from repro.axi.types import Resp


class _Rig:
    def step_addr(self, beat, ready=True, **channels):
        """One cycle with *beat* on the address channel."""
        return self.step(
            **{self.ADDR: beat, f"{self.ADDR}_ready": ready}, **channels
        )

    def kinds(self):
        return [event.kind for event in self.events]


class WriteRig(_Rig):
    ADDR = "aw"
    ADDR_BEAT = AwBeat
    ADDR_PHASE = WritePhase.AW_HANDSHAKE
    SPAN = TxnSpan.WRITE

    def __init__(self, config=None):
        self.guard = WriteGuard(config or full_config(budgets=fast_budgets()))
        self.aw = Channel("aw")
        self.w = Channel("w")
        self.b = Channel("b")
        self.cycle = 0
        self.events = []

    def step(self, aw=None, w=None, b=None, aw_ready=True, w_ready=True, b_ready=True):
        """One observed cycle; channel args are payloads (None = idle)."""
        for channel, beat, ready in (
            (self.aw, aw, aw_ready),
            (self.w, w, w_ready),
            (self.b, b, b_ready),
        ):
            channel.valid.value = beat is not None
            channel.payload.value = beat
            channel.ready.value = ready
        self.cycle += 1
        out = self.guard.observe(self.aw, self.w, self.b, cycle=self.cycle)
        self.events.extend(out)
        return out


class ReadRig(_Rig):
    ADDR = "ar"
    ADDR_BEAT = ArBeat
    ADDR_PHASE = ReadPhase.AR_HANDSHAKE
    SPAN = TxnSpan.READ

    def __init__(self, config=None):
        self.guard = ReadGuard(config or full_config(budgets=fast_budgets()))
        self.ar = Channel("ar")
        self.r = Channel("r")
        self.cycle = 0
        self.events = []

    def step(self, ar=None, r=None, ar_ready=True, r_ready=True):
        for channel, beat, ready in ((self.ar, ar, ar_ready), (self.r, r, r_ready)):
            channel.valid.value = beat is not None
            channel.payload.value = beat
            channel.ready.value = ready
        self.cycle += 1
        out = self.guard.observe(self.ar, self.r, cycle=self.cycle)
        self.events.extend(out)
        return out


RIGS = pytest.mark.parametrize("Rig", [WriteRig, ReadRig], ids=["write", "read"])


def w_beat(last=False):
    return WBeat(data=0, strb=0xFF, last=last)


def test_full_write_lifecycle_clean():
    rig = WriteRig()
    rig.step(aw=AwBeat(id=1, addr=0x100, len=1))
    rig.step(w=w_beat())
    rig.step(w=w_beat(last=True))
    rig.step(b=BBeat(id=1))
    assert rig.events == []
    assert rig.guard.perf.completed == 1
    assert rig.guard.ott.occupancy == 0
    latencies = rig.guard.perf.history[0].phase_latencies
    assert set(latencies) == set(WritePhase)


def test_write_early_wlast_flags_wrong_last():
    rig = WriteRig()
    rig.step(aw=AwBeat(id=0, addr=0, len=3))  # expects 4 beats
    rig.step(w=w_beat(last=True))             # last after 1
    assert FaultKind.WRONG_LAST in rig.kinds()


def test_write_missing_wlast_flags_on_final_beat():
    rig = WriteRig()
    rig.step(aw=AwBeat(id=0, addr=0, len=1))  # 2 beats
    rig.step(w=w_beat())
    events = rig.step(w=w_beat(last=False))   # 2nd beat without last
    assert any(e.kind == FaultKind.WRONG_LAST for e in events)


def test_b_before_wlast_flagged_as_id_mismatch_class():
    rig = WriteRig()
    rig.step(aw=AwBeat(id=2, addr=0, len=3))
    rig.step(b=BBeat(id=2))  # response while data still owed
    assert FaultKind.ID_MISMATCH in rig.kinds()


def test_tiny_flags_b_before_wlast_when_it_fires():
    # The Full-Counter flags an early B while it is only valid; the
    # Tiny-Counter waits for the handshake.
    rig = WriteRig(tiny_config(budgets=fast_budgets()))
    rig.step(aw=AwBeat(id=2, addr=0, len=3))
    rig.step(b=BBeat(id=2), b_ready=False)
    assert FaultKind.ID_MISMATCH not in rig.kinds()
    rig.step(b=BBeat(id=2))
    assert rig.kinds() == [FaultKind.ID_MISMATCH]


def test_unrequested_b_flagged_once_per_assertion():
    rig = WriteRig()
    rig.step(b=BBeat(id=5), b_ready=False)
    rig.step(b=BBeat(id=5), b_ready=False)  # still the same assertion
    assert rig.kinds().count(FaultKind.UNREQUESTED_RESPONSE) == 1


def test_error_response_logged_on_completion():
    rig = WriteRig()
    rig.step(aw=AwBeat(id=1, addr=0, len=0))
    rig.step(w=w_beat(last=True))
    rig.step(b=BBeat(id=1, resp=Resp.SLVERR))
    assert FaultKind.ERROR_RESPONSE in rig.kinds()
    assert rig.guard.perf.completed == 1  # still completes (logged, not lost)


def test_error_response_does_not_trip_by_default():
    rig = WriteRig()
    rig.step(aw=AwBeat(id=1, addr=0, len=0))
    rig.step(w=w_beat(last=True))
    events = rig.step(b=BBeat(id=1, resp=Resp.SLVERR))
    error_events = [e for e in events if e.kind == FaultKind.ERROR_RESPONSE]
    assert error_events and not rig.guard.should_trip(error_events[0])


def test_same_id_b_responses_complete_in_fifo_order():
    rig = WriteRig()
    rig.step(aw=AwBeat(id=1, addr=0xA, len=0))
    rig.step(aw=AwBeat(id=1, addr=0xB, len=0), w=w_beat(last=True))
    rig.step(w=w_beat(last=True))
    rig.step(b=BBeat(id=1))
    rig.step(b=BBeat(id=1))
    assert rig.guard.perf.completed == 2
    assert [r.addr for r in rig.guard.perf.history] == [0xA, 0xB]


@RIGS
def test_addr_timeout_attributed_to_front_phase(Rig):
    rig = Rig()
    beat = Rig.ADDR_BEAT(id=0, addr=0, len=0)
    tripped = None
    for _ in range(50):
        events = rig.step_addr(beat, ready=False)
        if events:
            tripped = events[0]
            break
    assert tripped is not None
    assert tripped.kind == FaultKind.TIMEOUT
    assert tripped.phase == Rig.ADDR_PHASE
    assert tripped.detect_cycle == 10  # aw/ar_handshake budget, from valid


@RIGS
@pytest.mark.parametrize("hold", [0, 5])
def test_tiny_single_counter_spans_whole_transaction(Rig, hold):
    rig = Rig(tiny_config(budgets=fast_budgets()))
    beat = Rig.ADDR_BEAT(id=0, addr=0, len=0)
    # The address waits *hold* cycles for ready; the front watch's
    # counter then becomes the entry's, so the span still counts from
    # the first valid cycle.
    for _ in range(hold):
        rig.step_addr(beat, ready=False)
    # A write's single W beat moves with its handshake; the transaction
    # then waits for its response until the span budget expires.
    data = {"w": w_beat(last=True)} if Rig is WriteRig else {}
    rig.step_addr(beat, **data)
    assert rig.guard.ott.occupancy == 1
    tripped = None
    for _ in range(100):
        events = rig.step()
        if events:
            tripped = events[0]
            break
    assert tripped is not None
    assert tripped.phase == Rig.SPAN
    # Span budget counts from the first valid: 60 base + 2*1 beat = 62.
    assert tripped.detect_cycle == 62


_AW = AwBeat(id=1, addr=0x100, len=1)
_B = BBeat(id=1)
_AR = ArBeat(id=1, addr=0x100, len=1)


def _r_beat(last=False):
    return RBeat(id=1, data=0, resp=Resp.OKAY, last=last)


# (cycles, channels) per stretch; each phase lasts a different number
# of cycles, so a latency recorded under the wrong phase shows.
_PHASED_SCRIPTS = {
    WriteRig: (
        [(1, dict(aw=_AW, aw_ready=False)), (1, dict(aw=_AW)),
         (1, {}), (3, dict(w=w_beat(), w_ready=False)), (1, dict(w=w_beat())),
         (3, {}), (1, dict(w=w_beat(last=True))),
         (4, {}), (6, dict(b=_B, b_ready=False)), (1, dict(b=_B))],
        {WritePhase.AW_HANDSHAKE: 1, WritePhase.W_ENTRY: 2,
         WritePhase.W_FIRST_HS: 3, WritePhase.W_DATA: 4,
         WritePhase.B_WAIT: 5, WritePhase.B_HANDSHAKE: 6},
    ),
    ReadRig: (
        [(1, dict(ar=_AR, ar_ready=False)), (1, dict(ar=_AR)),
         (1, {}), (3, dict(r=_r_beat(), r_ready=False)), (1, dict(r=_r_beat())),
         (3, {}), (1, dict(r=_r_beat(last=True)))],
        {ReadPhase.AR_HANDSHAKE: 1, ReadPhase.R_ENTRY: 2,
         ReadPhase.R_FIRST_HS: 3, ReadPhase.R_DATA: 4},
    ),
}


@RIGS
def test_full_counter_records_every_phase_latency(Rig):
    script, expected = _PHASED_SCRIPTS[Rig]
    rig = Rig()
    for cycles, channels in script:
        for _ in range(cycles):
            rig.step(**channels)
    assert rig.events == []
    assert rig.guard.perf.completed == 1
    stats = rig.guard.perf.phase_stats
    assert {phase: (stat.count, stat.total) for phase, stat in stats.items()} == {
        phase: (1, latency) for phase, latency in expected.items()
    }
    assert rig.guard.perf.history[0].phase_latencies == expected


def test_full_read_lifecycle_clean():
    rig = ReadRig()
    rig.step(ar=ArBeat(id=2, addr=0x40, len=1))
    rig.step(r=RBeat(id=2, data=1, resp=Resp.OKAY, last=False))
    rig.step(r=RBeat(id=2, data=2, resp=Resp.OKAY, last=True))
    assert rig.events == []
    assert rig.guard.perf.completed == 1
    latencies = rig.guard.perf.history[0].phase_latencies
    assert set(latencies) == set(ReadPhase)


def test_read_interleaved_ids_tracked_independently():
    rig = ReadRig()
    rig.step(ar=ArBeat(id=0, addr=0, len=1))
    rig.step(ar=ArBeat(id=1, addr=0x100, len=1))
    rig.step(r=RBeat(id=0, data=0, resp=Resp.OKAY, last=False))
    rig.step(r=RBeat(id=1, data=0, resp=Resp.OKAY, last=False))
    rig.step(r=RBeat(id=1, data=0, resp=Resp.OKAY, last=True))
    rig.step(r=RBeat(id=0, data=0, resp=Resp.OKAY, last=True))
    assert rig.events == []
    assert rig.guard.perf.completed == 2


def test_read_unrequested_id_flagged():
    rig = ReadRig()
    rig.step(ar=ArBeat(id=0, addr=0, len=0))
    rig.step(r=RBeat(id=3, data=0, resp=Resp.OKAY, last=True))
    assert FaultKind.UNREQUESTED_RESPONSE in rig.kinds()


def test_read_extra_beats_flag_wrong_last():
    rig = ReadRig()
    rig.step(ar=ArBeat(id=0, addr=0, len=0))  # expects exactly 1 beat
    rig.step(r=RBeat(id=0, data=0, resp=Resp.OKAY, last=False))
    assert FaultKind.WRONG_LAST in rig.kinds()


def test_read_error_response_logged_once_per_txn():
    rig = ReadRig()
    rig.step(ar=ArBeat(id=0, addr=0, len=3))
    for i in range(4):
        rig.step(r=RBeat(id=0, data=0, resp=Resp.SLVERR, last=i == 3))
    assert rig.kinds().count(FaultKind.ERROR_RESPONSE) == 1
    assert rig.guard.perf.completed == 1


def test_guard_clear_releases_everything_mid_flight():
    rig = WriteRig()
    rig.step(aw=AwBeat(id=1, addr=0, len=3))
    rig.step(w=w_beat())
    assert rig.guard.ott.occupancy == 1
    rig.guard.clear()
    assert rig.guard.ott.occupancy == 0
    assert rig.guard.outstanding_orig_ids() == []
    # After clear, new transactions track cleanly.
    rig.step(aw=AwBeat(id=1, addr=0x50, len=0))
    rig.step(w=w_beat(last=True))
    rig.step(b=BBeat(id=1))
    assert rig.guard.perf.completed == 1
