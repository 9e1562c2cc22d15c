"""Property-based equivalence of lockstep batch execution.

Four randomized laws behind the batch executor:

* a batched campaign equals its scalar rerun for arbitrary small
  configs, seed sets and pack widths;
* over the legal axis product (kind, variant, stage, beats, narrow
  size, outstanding, reorder depth, prescale step, background), the
  default campaign — unbounded lanes — exports byte for byte what
  width-1 packs export, and a sampled point replays clean under
  ``batch_verify``;
* forcibly retiring an arbitrary subset of lanes mid-pack never changes
  a single result;
* the guard's vectorized counter catch-up equals a tick-by-tick replay
  of the same span for arbitrary counter populations.
"""

import dataclasses
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import write_campaign_json
from repro.faults.types import InjectionStage
from repro.orchestrate import (
    BatchExecutor,
    CampaignSpec,
    SerialExecutor,
    run_campaign_spec,
)
from repro.soc.experiment import FIG11_STAGES
from repro.tmu.budget import AdaptiveBudgetPolicy, PhaseBudgets, SpanBudgets
from repro.tmu.config import TmuConfig, Variant
from repro.tmu.counters import (
    Prescaler,
    PrescaledCounter,
    catch_up_array,
    edges_to_expiry_array,
)

STAGES = (
    InjectionStage.AW_READY_MISSING,
    InjectionStage.WLAST_TO_BVALID,
)


def _config(variant: Variant, prescale_step: int) -> TmuConfig:
    return TmuConfig(
        variant=variant,
        max_uniq_ids=4,
        txn_per_id=4,
        prescale_step=prescale_step,
        budgets=AdaptiveBudgetPolicy(
            PhaseBudgets(aw_handshake=24), SpanBudgets(base=48, per_beat=1)
        ),
        max_txn_cycles=96,
    )


def _spec(variant, prescale_step, seeds):
    return CampaignSpec.ip(
        [_config(variant, prescale_step)],
        STAGES,
        beats=4,
        seeds=tuple(seeds),
    )


def _dicts(results):
    return [dataclasses.asdict(result) for result in results]


campaign_axes = dict(
    variant=st.sampled_from([Variant.FULL, Variant.TINY]),
    prescale_step=st.sampled_from([1, 2, 3, 4]),
    seeds=st.sets(st.integers(0, 16), min_size=2, max_size=6),
    lanes=st.sampled_from([2, 4, 8, 64]),
)


@given(**campaign_axes)
@settings(max_examples=10, deadline=None)
def test_batched_campaign_equals_scalar(variant, prescale_step, seeds, lanes):
    executor = BatchExecutor(lanes)
    batch = run_campaign_spec(_spec(variant, prescale_step, seeds), executor=executor)
    serial = run_campaign_spec(
        _spec(variant, prescale_step, seeds), executor=SerialExecutor()
    )
    assert _dicts(batch) == _dicts(serial)


@given(
    retire=st.sets(st.integers(0, 16), min_size=1, max_size=5),
    seeds=st.sets(st.integers(0, 16), min_size=3, max_size=6),
    prescale_step=st.sampled_from([1, 2]),
)
@settings(max_examples=10, deadline=None)
def test_random_lane_retirement_preserves_results(retire, seeds, prescale_step):
    executor = BatchExecutor(8, force_retire=lambda run: run.seed in retire)
    batch = run_campaign_spec(
        _spec(Variant.FULL, prescale_step, seeds), executor=executor
    )
    serial = run_campaign_spec(
        _spec(Variant.FULL, prescale_step, seeds), executor=SerialExecutor()
    )
    assert _dicts(batch) == _dicts(serial)


@st.composite
def axis_specs(draw):
    """A small campaign anywhere on the legal axis product, with the
    index of one of its stages."""
    kind = draw(st.sampled_from(("ip", "system")))
    variant = draw(st.sampled_from([Variant.FULL, Variant.TINY]))
    pool = list(InjectionStage) if kind == "ip" else list(FIG11_STAGES)
    stages = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2,
                           unique=True))
    axes = dict(
        seeds=sorted(draw(st.sets(st.integers(0, 24), min_size=3, max_size=6))),
        size=draw(st.integers(0, 3)),
        outstanding=draw(st.integers(1, 3)),
        reorder_depth=draw(st.integers(0, 3)),
    )
    if kind == "ip":
        prescale_step = draw(st.sampled_from([1, 2, 4]))
        spec = CampaignSpec.ip(
            [_config(variant, prescale_step)], stages,
            beats=draw(st.integers(1, 8)), **axes,
        )
    else:
        spec = CampaignSpec.system(
            [variant], stages, beats=draw(st.integers(4, 16)),
            background=draw(st.integers(0, 4)), **axes,
        )
    return spec, draw(st.integers(0, len(stages) - 1))


def _export(results, spec) -> str:
    buffer = io.StringIO()
    write_campaign_json(results, buffer, spec=spec)
    return buffer.getvalue()


@given(axis_specs())
@settings(max_examples=40, deadline=None)
def test_default_lanes_export_equals_width_one(drawn):
    spec, sampled = drawn
    scalar = run_campaign_spec(spec, executor=SerialExecutor())
    assert _export(run_campaign_spec(spec), spec) == _export(scalar, spec)
    # One point, replayed: every derived lane against the verify kernel.
    point = dataclasses.replace(spec, stages=[spec.stages[sampled]])
    width = len(spec.seeds)
    verified = run_campaign_spec(point, batch_verify=True)
    assert _dicts(verified) == _dicts(
        scalar[sampled * width : (sampled + 1) * width]
    )


# ----------------------------------------------------------------------
# Vectorized counter catch-up ≡ tick-by-tick replay
# ----------------------------------------------------------------------
counter_specs = st.lists(
    st.tuples(st.integers(1, 200), st.booleans()),  # (budget, sticky)
    min_size=1,
    max_size=12,
)


@given(
    step=st.sampled_from([1, 2, 3, 4, 8, 16]),
    phase=st.integers(0, 15),
    specs=counter_specs,
    warm=st.integers(0, 40),
    span=st.integers(1, 400),
)
@settings(max_examples=120, deadline=None)
def test_catch_up_array_equals_tick_replay(step, phase, specs, warm, span):
    phase %= step

    def population():
        prescaler = Prescaler(step, phase=phase)
        counters = [
            PrescaledCounter(budget, step=step, sticky=sticky)
            for budget, sticky in specs
        ]
        for _ in range(warm):
            edge = prescaler.advance()
            for counter in counters:
                counter.tick(True, edge)
        return prescaler, counters

    pre_a, counters_a = population()
    pre_b, counters_b = population()

    # Clamp the span below the earliest expiry — catch_up's (and the
    # timed wake's) precondition that no counter fires inside it.
    min_edges = min(edges_to_expiry_array(counters_a))
    if min_edges == 0:
        return  # a counter already expired during warm-up
    cycles = min(span, pre_a.cycles_to_edge(min_edges) - 1)
    if cycles <= 0:
        return

    # Path A: the guard's O(#counters) vectorized fast-forward.
    edges = pre_a.edges_in(cycles)
    end_on_edge = edges > 0 and (pre_a.phase + cycles) % step == 0
    pre_a.skip(cycles)
    catch_up_array(counters_a, edges, end_on_edge)

    # Path B: the exhaustive cycle-by-cycle reference.
    for _ in range(cycles):
        edge = pre_b.advance()
        for counter in counters_b:
            counter.tick(True, edge)

    assert pre_a.phase == pre_b.phase
    for a, b in zip(counters_a, counters_b):
        assert (a.count, a._armed, a._accum) == (b.count, b._armed, b._accum)
        assert a.expired == b.expired


@given(
    step=st.sampled_from([1, 2, 4, 8]),
    specs=counter_specs,
    warm=st.integers(0, 60),
)
@settings(max_examples=100, deadline=None)
def test_edges_to_expiry_array_matches_scalar(step, specs, warm):
    prescaler = Prescaler(step)
    counters = [
        PrescaledCounter(budget, step=step, sticky=sticky)
        for budget, sticky in specs
    ]
    for _ in range(warm):
        edge = prescaler.advance()
        for counter in counters:
            counter.tick(True, edge)
    assert edges_to_expiry_array(counters) == [
        counter.edges_to_expiry() for counter in counters
    ]
