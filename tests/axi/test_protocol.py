"""Tests for the rule-based AXI4 protocol checker."""

from types import SimpleNamespace

import pytest

from repro.axi import protocol as P
from repro.axi.channels import ArBeat, AwBeat, BBeat, RBeat, WBeat
from repro.axi.interface import AxiInterface
from repro.axi.manager import Manager
from repro.axi.subordinate import Subordinate
from repro.axi.traffic import RandomTraffic, write_spec
from repro.axi.types import BurstType, Resp
from repro.sim.kernel import Simulator


def checked_loop(**sub_kwargs):
    sim = Simulator()
    bus = AxiInterface("bus")
    manager = Manager("manager", bus)
    subordinate = Subordinate("subordinate", bus, **sub_kwargs)
    checker = P.ProtocolChecker("checker", bus)
    for component in (manager, subordinate, checker):
        sim.add(component)
    return SimpleNamespace(
        sim=sim, bus=bus, manager=manager, subordinate=subordinate, checker=checker
    )


class ScriptedChecker:
    """Drives a bare interface through the checker cycle by cycle."""

    def __init__(self):
        self.sim = Simulator()
        self.bus = AxiInterface("bus")
        self.checker = P.ProtocolChecker("checker", self.bus)
        self.sim.add(self.checker)

    def cycle(self, **signals):
        """Set channel signals, then step; e.g. aw_valid=True, aw_payload=...

        Channels not mentioned are idled, so each call describes the full
        interface state for that cycle.
        """
        explicit = {name.rsplit("_", 1)[0] for name in signals}
        for channel in ("aw", "w", "b", "ar", "r"):
            if channel not in explicit:
                ch = getattr(self.bus, channel)
                ch.valid.value = False
                ch.payload.value = None
                ch.ready.value = False
        for name, value in signals.items():
            channel, wire = name.rsplit("_", 1)
            setattr(getattr(getattr(self.bus, channel), wire), "value", value)
        self.sim.step()


def test_clean_on_legal_random_traffic():
    env = checked_loop(aw_ready_delay=1, b_latency=2, r_latency=2, r_gap=1)
    env.manager.submit_all(RandomTraffic(seed=5, max_beats=8).take(30))
    assert env.sim.run_until(lambda s: env.manager.idle, timeout=20_000)
    assert env.checker.clean, env.checker.violations[:3]


def test_awvalid_drop_flagged():
    s = ScriptedChecker()
    beat = AwBeat(id=0, addr=0x100)
    s.cycle(aw_valid=True, aw_payload=beat, aw_ready=False)
    s.cycle(aw_valid=False, aw_payload=None)
    assert s.checker.count(P.ERRM_AWVALID_STABLE) == 1


def test_aw_payload_change_while_stalled_flagged():
    s = ScriptedChecker()
    s.cycle(aw_valid=True, aw_payload=AwBeat(id=0, addr=0x100), aw_ready=False)
    s.cycle(aw_valid=True, aw_payload=AwBeat(id=0, addr=0x200), aw_ready=False)
    assert s.checker.count(P.ERRM_AW_PAYLOAD_STABLE) == 1


def test_handshake_completion_not_flagged():
    s = ScriptedChecker()
    beat = AwBeat(id=0, addr=0x100)
    s.cycle(aw_valid=True, aw_payload=beat, aw_ready=False)
    s.cycle(aw_valid=True, aw_payload=beat, aw_ready=True)
    s.cycle(aw_valid=False, aw_payload=None, aw_ready=False)
    assert s.checker.count(P.ERRM_AWVALID_STABLE) == 0


def test_wrap_alignment_and_length_rules():
    s = ScriptedChecker()
    bad = AwBeat(id=0, addr=0x104, len=2, size=3, burst=BurstType.WRAP)
    s.cycle(aw_valid=True, aw_payload=bad, aw_ready=True)
    assert s.checker.count(P.ERRM_AWLEN_WRAP) == 1  # 3 beats illegal
    assert s.checker.count(P.ERRM_AWADDR_ALIGNED_WRAP) == 1  # unaligned


def test_4k_boundary_rule_write_and_read():
    s = ScriptedChecker()
    aw = AwBeat(id=0, addr=0xFE0, len=7, size=3)  # crosses 0x1000
    s.cycle(aw_valid=True, aw_payload=aw, aw_ready=True)
    ar = ArBeat(id=0, addr=0xFE0, len=7, size=3)
    s.cycle(ar_valid=True, ar_payload=ar, ar_ready=True)
    assert s.checker.count(P.ERRM_AW_4K_BOUNDARY) == 1
    assert s.checker.count(P.ERRM_AR_4K_BOUNDARY) == 1


@pytest.mark.parametrize("channel", ["aw", "ar"])
@pytest.mark.parametrize(
    "len_, size, burst, rule",
    [
        (-1, 3, BurstType.INCR, "LEN_RANGE"),
        (256, 3, BurstType.INCR, "LEN_RANGE"),
        (256, 3, BurstType.WRAP, "LEN_RANGE"),
        (256, 3, BurstType.FIXED, "LEN_RANGE"),
        (3, 9, BurstType.INCR, "ERRM_AXSIZE_RANGE"),
    ],
    ids=["len-1", "len256-incr", "len256-wrap", "len256-fixed", "size9"],
)
def test_out_of_range_length_or_size_is_flagged_not_raised(
    channel, len_, size, burst, rule
):
    # The range rules fire alone: the WRAP and 4 KiB rules need a
    # defined burst and are skipped, and nothing raises mid-simulation.
    if rule == "LEN_RANGE":
        rule = f"ERRM_{channel.upper()}LEN_RANGE"
    beat_type = AwBeat if channel == "aw" else ArBeat
    beat = beat_type(id=0, addr=0xFF0, len=len_, size=size, burst=burst)
    s = ScriptedChecker()
    s.cycle(**{f"{channel}_valid": True, f"{channel}_payload": beat,
               f"{channel}_ready": True})
    assert [violation.rule.name for violation in s.checker.violations] == [rule]


def test_write_data_of_a_burst_wider_than_the_bus_is_not_lane_checked():
    s = ScriptedChecker()
    aw = AwBeat(id=0, addr=0x100, len=1, size=4)  # 16-byte beats, 8-byte bus
    s.cycle(aw_valid=True, aw_payload=aw, aw_ready=True)
    for last in (False, True):
        s.cycle(w_valid=True, w_payload=WBeat(data=0, strb=0xFF, last=last),
                w_ready=True)
    assert [violation.rule for violation in s.checker.violations] == [
        P.ERRM_AXSIZE_RANGE
    ]


def test_w_without_outstanding_aw_flagged():
    s = ScriptedChecker()
    s.cycle(w_valid=True, w_payload=WBeat(data=0, strb=0xFF, last=True), w_ready=True)
    assert s.checker.count(P.ERRM_W_NO_OUTSTANDING) == 1


def test_early_wlast_flagged():
    s = ScriptedChecker()
    s.cycle(aw_valid=True, aw_payload=AwBeat(id=0, addr=0, len=3), aw_ready=True)
    s.cycle(
        aw_valid=False,
        aw_payload=None,
        w_valid=True,
        w_payload=WBeat(data=0, strb=0xFF, last=True),
        w_ready=True,
    )
    assert s.checker.count(P.ERRM_WLAST_POSITION) == 1


def test_b_before_wlast_flagged():
    s = ScriptedChecker()
    s.cycle(aw_valid=True, aw_payload=AwBeat(id=4, addr=0, len=3), aw_ready=True)
    s.cycle(
        aw_valid=False,
        aw_payload=None,
        b_valid=True,
        b_payload=BBeat(id=4),
        b_ready=True,
    )
    assert s.checker.count(P.ERRS_B_BEFORE_WLAST) == 1


def test_unrequested_b_flagged():
    s = ScriptedChecker()
    s.cycle(b_valid=True, b_payload=BBeat(id=9), b_ready=True)
    assert s.checker.count(P.ERRS_B_UNREQUESTED) == 1


def test_unrequested_r_flagged():
    s = ScriptedChecker()
    s.cycle(
        r_valid=True,
        r_payload=RBeat(id=2, data=0, resp=Resp.OKAY, last=True),
        r_ready=True,
    )
    assert s.checker.count(P.ERRS_R_UNREQUESTED) == 1


def test_rlast_early_flagged():
    s = ScriptedChecker()
    s.cycle(ar_valid=True, ar_payload=ArBeat(id=1, addr=0, len=3), ar_ready=True)
    s.cycle(
        ar_valid=False,
        ar_payload=None,
        r_valid=True,
        r_payload=RBeat(id=1, data=0, resp=Resp.OKAY, last=True),
        r_ready=True,
    )
    assert s.checker.count(P.ERRS_RLAST_POSITION) == 1


def test_rlast_missing_flagged():
    s = ScriptedChecker()
    s.cycle(ar_valid=True, ar_payload=ArBeat(id=1, addr=0, len=0), ar_ready=True)
    s.cycle(
        ar_valid=False,
        ar_payload=None,
        r_valid=True,
        r_payload=RBeat(id=1, data=0, resp=Resp.OKAY, last=False),
        r_ready=True,
    )
    assert s.checker.count(P.ERRS_RLAST_POSITION) == 1


def test_faulty_subordinate_dropping_rlast_detected_end_to_end():
    env = checked_loop()
    env.subordinate.faults.drop_r_last = True
    env.manager.submit_all([write_spec(0, 0x100)])
    from repro.axi.traffic import read_spec

    env.manager.submit(read_spec(0, 0x100, beats=2))
    env.sim.run(200)
    assert env.checker.count(P.ERRS_RLAST_POSITION) >= 1


def test_reset_clears_violations():
    s = ScriptedChecker()
    s.cycle(b_valid=True, b_payload=BBeat(id=9), b_ready=True)
    assert not s.checker.clean
    s.checker.reset()
    assert s.checker.clean


def test_rule_registry_contains_all_rules():
    assert len(P.RULES) >= 25
    assert all(rule.name in P.RULES for rule in P.RULES.values())
