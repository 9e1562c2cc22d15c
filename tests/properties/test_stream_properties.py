"""Differential battery: burst streaming ≡ stepping, faults landing mid-span.

Every draw runs one Fig. 9 (IP) or Fig. 11 (system) write-stage
injection with the kernel free to stream steady W bursts — the whole
simulation, or an island of it while busy background traffic steps —
and again with ``time_leaping=False``, which also disables streaming,
and requires the two results to be equal field for field (the ``sim_*``
scheduler diagnostics are excluded from equality by construction).
Smaller draws also replay on the ``exhaustive`` kernel.  The busy axes
reach the ``system_busy`` shape: background traffic up to 32
transactions, up to 6 outstanding reads and a reorder window up to 4.

The mid-burst stage's beat threshold is drawn at random instead of the
runners' ``beats // 2``, so the W fault lands anywhere inside a span the
kernel would otherwise stream; a second property flips an arbitrary
fault switch between ``run()`` calls at a random cycle.  Pinned cases
assert the battery really streams and really forms islands, so it
cannot pass vacuously.
"""

import contextlib
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import campaign
from repro.faults.campaign import run_injection
from repro.faults.types import FIG9_WRITE_STAGES, InjectionStage
from repro.soc.cheshire import CheshireSoC, system_tmu_config
from repro.soc.experiment import FIG11_STAGES, run_system_injection
from repro.tmu.config import TmuConfig, Variant

WRITE_STAGES = sorted(
    set(FIG9_WRITE_STAGES) | set(FIG11_STAGES), key=lambda stage: stage.value
)


@contextlib.contextmanager
def deaf_w_threshold(threshold):
    """Arm the W-stall stage after *threshold* beats instead of half."""
    original = campaign.arm_stage_fault

    def arm(sub_faults, mgr_faults, corrupt_id, stage, beats):
        if stage == InjectionStage.DATA_TRANSFER_STALL:
            sub_faults.deaf_w_after = threshold
        else:
            original(sub_faults, mgr_faults, corrupt_id, stage, beats)

    with mock.patch.object(campaign, "arm_stage_fault", arm):
        yield


@st.composite
def injections(draw):
    beats = draw(st.integers(2, 256))
    return {
        "kind": draw(st.sampled_from(["ip", "system"])),
        "variant": draw(st.sampled_from([Variant.FULL, Variant.TINY])),
        "stage": draw(st.sampled_from(WRITE_STAGES)),
        "beats": beats,
        "size": draw(st.integers(0, 3)),
        "delay": draw(st.integers(0, 40)),
        "background": draw(st.integers(0, 32)),
        "outstanding": draw(st.integers(1, 6)),
        "reorder_depth": draw(st.integers(0, 4)),
        "threshold": draw(st.integers(1, beats - 1)),
    }


def run(draw, **sim_kwargs):
    with deaf_w_threshold(draw["threshold"]):
        if draw["kind"] == "ip":
            return run_injection(
                TmuConfig(variant=draw["variant"], max_uniq_ids=4, txn_per_id=4),
                draw["stage"],
                beats=draw["beats"],
                issue_delay=draw["delay"],
                size=draw["size"],
                outstanding=draw["outstanding"],
                reorder_depth=draw["reorder_depth"],
                harness_kwargs=sim_kwargs or None,
            )
        return run_system_injection(
            draw["variant"],
            draw["stage"],
            beats=draw["beats"],
            background=draw["background"],
            start_delay=draw["delay"],
            size=draw["size"],
            outstanding=draw["outstanding"],
            reorder_depth=draw["reorder_depth"],
            **sim_kwargs,
        )


@given(injections())
@settings(max_examples=40, deadline=None)
def test_streamed_injection_equals_stepped(draw):
    streamed = run(draw)
    assert streamed == run(draw, sim_time_leaping=False)
    if draw["beats"] <= 48 and draw["background"] <= 2:
        assert streamed == run(draw, sim_strategy="exhaustive")


def test_battery_streams():
    draw = {
        "kind": "system",
        "variant": Variant.FULL,
        "stage": InjectionStage.DATA_TRANSFER_STALL,
        "beats": 250,
        "size": 3,
        "delay": 5,
        "background": 4,
        "outstanding": 2,
        "reorder_depth": 0,
        "threshold": 177,
    }
    streamed = run(draw)
    assert streamed.sim_cycles_streamed > 0
    assert streamed.detect_cycle is not None and streamed.recovered
    assert streamed == run(draw, sim_time_leaping=False)
    draw["kind"] = "ip"
    streamed = run(draw)
    assert streamed.sim_cycles_streamed > 0
    assert streamed == run(draw, sim_time_leaping=False)


def test_battery_forms_islands():
    # The system_busy shape: the DMA burst streams as an island while
    # the background DRAM traffic steps.
    draw = {
        "kind": "system",
        "variant": Variant.FULL,
        "stage": InjectionStage.DATA_TRANSFER_STALL,
        "beats": 250,
        "size": 3,
        "delay": 3,
        "background": 32,
        "outstanding": 6,
        "reorder_depth": 4,
        "threshold": 125,
    }
    streamed = run(draw)
    assert streamed.sim_island_cycles > 0
    assert streamed.sim_island_cycles <= streamed.sim_stepped_cycles
    assert streamed.detect_cycle is not None and streamed.recovered
    assert streamed == run(draw, sim_time_leaping=False)


FAULT_SWITCHES = (
    ("ethernet", "deaf_w"),
    ("ethernet", "mute_b"),
    ("ethernet", "error_resp"),
    ("dma", "freeze_w"),
    ("dma", "deaf_b"),
)


def soc_outcome(
    variant,
    beats,
    size,
    background,
    outstanding,
    reorder,
    cut,
    switch,
    **sim_kwargs,
):
    """Frame + busy traffic; flip *switch* after *cut* cycles."""
    soc = CheshireSoC(
        system_tmu_config(variant, frame_beats=beats),
        reorder_depth=reorder,
        **sim_kwargs,
    )
    soc.send_ethernet_frame(beats, size=size)
    soc.submit_background_traffic(background)
    if outstanding > 1:
        soc.submit_outstanding_reads(outstanding - 1)
    soc.run(cut)
    owner, flag = switch
    setattr(getattr(soc, owner).faults, flag, True)
    detect = soc.sim.run_until(lambda s: bool(soc.tmu.irq.value), timeout=2_000)
    soc.dma.faults.clear()
    soc.run(600)
    return (
        soc.sim.cycle,
        detect,
        [(e.kind, e.phase_label, e.detect_cycle) for e in soc.tmu.fault_events],
        [
            (t.txn_id, t.resp, t.resp_cycle, t.last_data_cycle)
            for m in soc.managers
            for t in m.completed
        ],
        soc.ethernet.beats_received,
        soc.ethernet.memory.read(0x3000_0000, beats * 8),
        soc.ethernet.resets_taken,
        soc.cpu.recoveries,
    )


@given(
    st.sampled_from([Variant.FULL, Variant.TINY]),
    st.integers(2, 256),
    st.integers(0, 3),
    st.integers(0, 32),
    st.integers(1, 6),
    st.integers(0, 4),
    st.integers(0, 300),
    st.sampled_from(FAULT_SWITCHES),
)
@settings(max_examples=25, deadline=None)
def test_fault_flipped_mid_span_equals_stepped(
    variant, beats, size, background, outstanding, reorder, cut, switch
):
    args = (
        variant, beats, size, background, outstanding, reorder, cut, switch
    )
    assert soc_outcome(*args) == soc_outcome(*args, sim_time_leaping=False)
