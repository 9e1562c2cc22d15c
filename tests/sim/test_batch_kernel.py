"""Contracts of the lockstep-batch kernel primitives.

Unit-level coverage of :mod:`repro.sim.batch` (the period algebra and
the congruence classes), of the kernel's inert span
(:meth:`~repro.sim.kernel.Simulator.inert_before`, which decides
whether a pack leader's lanes derive) and of the batch executor's
verify mode — the extension of
``strategy="verify"`` to the derived-lane path, which must raise
:class:`SchedulerDivergenceError` naming the offending lane when a
derivation is wrong.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.types import InjectionStage
from repro.orchestrate import BatchExecutor, CampaignSpec, run_campaign_spec
from repro.sim import SchedulerDivergenceError, Simulator
from repro.sim.batch import lane_classes, lockstep_period
from repro.tmu.budget import AdaptiveBudgetPolicy, PhaseBudgets, SpanBudgets
from repro.tmu.config import TmuConfig, Variant
from tests.sim.test_timed_wake import Alarm


class _Stub:
    def __init__(self, phase_period):
        self.phase_period = phase_period


# ----------------------------------------------------------------------
# lockstep_period
# ----------------------------------------------------------------------
def test_lockstep_period_is_lcm():
    assert lockstep_period([_Stub(1), _Stub(4), _Stub(6)]) == 12


def test_lockstep_period_of_reactive_components_is_one():
    assert lockstep_period([_Stub(1), _Stub(1)]) == 1


def test_lockstep_period_empty_design_is_one():
    assert lockstep_period([]) == 1


def test_lockstep_period_undeclared_component_poisons():
    assert lockstep_period([_Stub(1), _Stub(None), _Stub(4)]) is None


def test_lockstep_period_rejects_non_positive():
    with pytest.raises(ValueError):
        lockstep_period([_Stub(0)])


def test_harness_periods_reflect_prescaler():
    # The IP harness's only absolute-time-periodic component is the
    # TMU prescaler, so the pack period equals its step.
    from repro.faults.campaign import IpHarness

    config = TmuConfig(variant=Variant.FULL, prescale_step=3)
    assert lockstep_period(IpHarness(config).sim.components) == 3


# ----------------------------------------------------------------------
# lane_classes
# ----------------------------------------------------------------------
def test_lane_classes_partitions_by_residue():
    assert lane_classes(range(8), 2) == {0: [0, 2, 4, 6], 1: [1, 3, 5, 7]}


def test_lane_classes_period_one_is_one_pack():
    assert lane_classes([5, 1, 3], 1) == {0: [1, 3, 5]}


def test_lane_classes_orders_each_class_ascending():
    classes = lane_classes([9, 2, 7, 0, 4, 11], 2)
    assert classes == {0: [0, 2, 4], 1: [7, 9, 11]}


def test_lane_classes_rejects_non_positive_period():
    with pytest.raises(ValueError):
        lane_classes([0, 1], 0)


# ----------------------------------------------------------------------
# The kernel's inert span
# ----------------------------------------------------------------------
def _alarms(*deadlines, **sim_kwargs):
    """A simulator whose only work is alarms firing at *deadlines*:
    cycle 0 steps (every update starts awake), then it leaps from wake
    to wake."""
    sim = Simulator(**sim_kwargs)
    for index, deadline in enumerate(deadlines):
        sim.add(Alarm(f"a{index}", deadline=deadline))
    return sim


def _inert_onsets(sim, horizon):
    return [onset for onset in range(horizon + 1) if sim.inert_before(onset)]


def test_contiguous_transient_then_one_leap_is_inert():
    # Cycle 0 steps, 1 .. 98 leap, cycle 99 fires the alarm (stamp 100).
    sim = _alarms(100)
    sim.run(200)
    assert sim.leaps == 2  # the gap, then the idle tail after the alarm
    assert _inert_onsets(sim, 200) == list(range(2, 100))


def test_leap_trace_contiguous_prefix_is_inert():
    # Cycles 0 .. 2 step (three alarms), 3 .. 8 leap, cycle 9 fires the
    # last alarm: an onset the gap reaches is inert.
    sim = _alarms(1, 2, 3, 10)
    sim.run(20)
    assert sim.inert_before(9)
    assert _inert_onsets(sim, 20) == list(range(4, 10))


def test_leap_trace_transient_reaching_onset_is_not_inert():
    # An onset at the end of the transient has no leaped gap before it.
    sim = _alarms(1, 2, 3, 10)
    sim.run(3)
    assert not sim.inert_before(3)  # nothing leaped yet
    sim.run(17)
    assert not sim.inert_before(3)  # the gap starts at the onset


def test_leap_trace_recheck_with_earlier_onset():
    # One run answers any onset, asked in any order.
    sim = _alarms(1, 2, 3, 10)
    sim.run(20)
    assert sim.inert_before(9)
    assert sim.inert_before(4)
    assert not sim.inert_before(3)


def test_leap_trace_ignores_post_onset_steps():
    # Cycle 0 steps, 1 .. 4 leap, 5 .. 7 step: the steps after the span
    # and the leap after them leave the span's answers as they were.
    sim = _alarms(6, 7, 8)
    sim.run(5)
    assert _inert_onsets(sim, 20) == [2, 3, 4, 5]
    sim.run(30)
    assert sim.leaps == 2  # the span, then the idle tail after cycle 7
    assert sim.inert_before(2)
    assert _inert_onsets(sim, 20) == [2, 3, 4, 5]


def test_a_wake_inside_the_gap_ends_the_span():
    # The first alarm's step at cycle 49 lies between two leaps: an
    # onset past it is not inert, though the clock leaped on after it.
    sim = _alarms(50, 100)
    sim.run(200)
    assert sim.leaps == 3
    assert sim.inert_before(49)
    assert not sim.inert_before(50)
    assert not sim.inert_before(99)


def test_back_to_back_leaps_across_runs_extend_the_span():
    # The first run's target splits the gap into two leaps; nothing
    # stepped between them, so the span covers both.
    sim = _alarms(100)
    sim.run(40)
    assert sim.inert_before(40) and not sim.inert_before(41)
    sim.run(160)
    assert sim.leaps == 3
    assert _inert_onsets(sim, 200) == list(range(2, 100))


def test_reset_drops_and_restore_returns_the_span():
    sim = _alarms(100)
    sim.run(40)
    checkpoint = sim.checkpoint()
    sim.run(160)
    assert sim.inert_before(99)
    sim.restore(checkpoint)
    assert _inert_onsets(sim, 200) == list(range(2, 41))
    sim.reset()
    assert _inert_onsets(sim, 200) == []
    # A statistic it is not: the exported scheduler block stays as is.
    assert set(sim.stats()) == set(Simulator.STAT_KEYS)


@pytest.mark.parametrize(
    "sim_kwargs", [{"strategy": "exhaustive"}, {"time_leaping": False}],
    ids=["exhaustive", "no-leaping"],
)
def test_a_kernel_that_never_leaps_records_no_span(sim_kwargs):
    sim = _alarms(100, **sim_kwargs)
    sim.run(200)
    assert sim.leaps == 0
    assert _inert_onsets(sim, 200) == []


# ----------------------------------------------------------------------
# Result derivation (shifted)
# ----------------------------------------------------------------------
def _one_result(seed):
    from repro.faults.campaign import run_injection

    return run_injection(
        _config(), InjectionStage.AW_READY_MISSING, beats=4, issue_delay=seed
    )


def _config():
    return TmuConfig(
        variant=Variant.FULL,
        max_uniq_ids=4,
        txn_per_id=4,
        prescale_step=2,
        budgets=AdaptiveBudgetPolicy(
            PhaseBudgets(aw_handshake=24), SpanBudgets(base=48, per_beat=1)
        ),
        max_txn_cycles=96,
    )


def test_shifted_matches_scalar_rerun_exactly():
    # Seeds 3 and 7: the leader's pre-onset gap contains a real leap,
    # which is exactly the evidence regime (`inert_before`) the batch
    # executor derives under — there the leap statistics shift exactly.
    leader, follower = _one_result(3), _one_result(7)
    derived = leader.shifted(4)
    assert dataclasses.asdict(derived) == dataclasses.asdict(follower)


def test_shifted_moves_stamps_and_leap_cycles_only():
    result = _one_result(2)
    derived = result.shifted(10)
    assert derived.detect_cycle == result.detect_cycle + 10
    assert derived.inject_cycle == result.inject_cycle + 10
    assert derived.sim_cycles_leaped == result.sim_cycles_leaped + 10
    assert derived.sim_leaps == result.sim_leaps
    assert derived.recovered == result.recovered
    assert derived.stage == result.stage


_STAMP = st.none() | st.integers(min_value=0, max_value=1 << 40)


def _replace_reference(result, delta, stamps):
    """The derivation spelled out with ``dataclasses.replace``."""
    return dataclasses.replace(
        result,
        **{
            name: None if getattr(result, name) is None
            else getattr(result, name) + delta
            for name in stamps
        },
        sim_cycles_leaped=result.sim_cycles_leaped + delta,
    )


def _assert_same_derivation(derived, reference):
    assert type(derived) is type(reference)
    # == skips the compare=False scheduler diagnostics: check them too.
    assert derived == reference
    assert derived.sim_leaps == reference.sim_leaps
    assert derived.sim_cycles_leaped == reference.sim_cycles_leaped
    assert dataclasses.asdict(derived) == dataclasses.asdict(reference)


@settings(max_examples=200, deadline=None)
@given(
    stamps=st.tuples(_STAMP, _STAMP, _STAMP),
    delta=st.integers(min_value=-(1 << 20), max_value=1 << 40),
    leaps=st.integers(min_value=0, max_value=1 << 20),
    leaped=st.integers(min_value=0, max_value=1 << 40),
    recovered=st.booleans(),
)
def test_injection_result_shifted_equals_replace(
    stamps, delta, leaps, leaped, recovered
):
    from repro.faults.campaign import InjectionResult

    start, inject, detect = stamps
    result = InjectionResult(
        stage=InjectionStage.WLAST_TO_BVALID,
        variant="full",
        txn_start_cycle=start,
        inject_cycle=inject,
        detect_cycle=detect,
        fault_kind=None if detect is None else "timeout",
        fault_phase=None if detect is None else "WLAST_BVLD",
        recovered=recovered,
        resets_taken=int(recovered),
        sim_leaps=leaps,
        sim_cycles_leaped=leaped,
    )
    _assert_same_derivation(
        result.shifted(delta),
        _replace_reference(
            result, delta, ("txn_start_cycle", "inject_cycle", "detect_cycle")
        ),
    )


@settings(max_examples=200, deadline=None)
@given(
    stamps=st.tuples(_STAMP, _STAMP, _STAMP, _STAMP),
    delta=st.integers(min_value=-(1 << 20), max_value=1 << 40),
    leaps=st.integers(min_value=0, max_value=1 << 20),
    leaped=st.integers(min_value=0, max_value=1 << 40),
    resets=st.integers(min_value=0, max_value=3),
)
def test_system_injection_result_shifted_equals_replace(
    stamps, delta, leaps, leaped, resets
):
    from repro.soc.experiment import SystemInjectionResult

    start, inject, w_first, detect = stamps
    result = SystemInjectionResult(
        stage=InjectionStage.W_READY_MISSING,
        variant="tiny",
        txn_start_cycle=start,
        inject_cycle=inject,
        w_first_cycle=w_first,
        detect_cycle=detect,
        fault_phase=None if detect is None else "WFIRST_WLAST",
        fault_kind=None if detect is None else "timeout",
        ethernet_resets=resets,
        cpu_recoveries=resets,
        recovered=resets > 0,
        sim_leaps=leaps,
        sim_cycles_leaped=leaped,
    )
    _assert_same_derivation(
        result.shifted(delta),
        _replace_reference(
            result,
            delta,
            ("txn_start_cycle", "inject_cycle", "w_first_cycle", "detect_cycle"),
        ),
    )


# ----------------------------------------------------------------------
# Batch verify mode
# ----------------------------------------------------------------------
def _ip_spec():
    return CampaignSpec.ip(
        [_config()],
        [InjectionStage.AW_READY_MISSING],
        beats=4,
        seeds=tuple(range(8)),
    )


def test_batch_verify_catches_corrupted_derivation():
    # Plant a wrong derivation through the test seam: the verify replay
    # must catch it and name the offending lane.
    def corrupt(run, derived):
        return dataclasses.replace(derived, detect_cycle=derived.detect_cycle + 1)

    executor = BatchExecutor(8, verify=True, derive_hook=corrupt)
    with pytest.raises(SchedulerDivergenceError) as excinfo:
        run_campaign_spec(_ip_spec(), executor=executor)
    message = str(excinfo.value)
    assert "lane" in message and "seed" in message


def test_batch_verify_names_the_divergent_lane():
    # Corrupt exactly one lane; the error must carry that lane's seed.
    def corrupt(run, derived):
        if run.seed == 6:
            return dataclasses.replace(derived, recovered=not derived.recovered)
        return derived

    executor = BatchExecutor(8, verify=True, derive_hook=corrupt)
    with pytest.raises(SchedulerDivergenceError) as excinfo:
        run_campaign_spec(_ip_spec(), executor=executor)
    assert "seed 6" in str(excinfo.value)


def test_batch_verify_passes_honest_derivations():
    executor = BatchExecutor(8, verify=True)
    batch = run_campaign_spec(_ip_spec(), executor=executor)
    serial = run_campaign_spec(_ip_spec())
    assert executor.stats.derived > 0
    assert [dataclasses.asdict(r) for r in batch] == [
        dataclasses.asdict(r) for r in serial
    ]
