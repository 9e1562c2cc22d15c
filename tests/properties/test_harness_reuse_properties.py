"""Property-based equivalence of harness reuse.

Executors hand every run a harness from a one-slot
:class:`~repro.orchestrate.executor.HarnessCache`: same-shape runs get
the held harness back, reset.  The law: any sequence of runs through one
cache gives exactly the results of running each on a freshly built
harness — scheduler statistics (the ``sim_`` fields) included.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.types import InjectionStage
from repro.orchestrate import CampaignSpec
from repro.orchestrate.executor import HarnessCache, execute_run
from repro.soc.experiment import FIG11_STAGES
from repro.tmu.budget import AdaptiveBudgetPolicy, PhaseBudgets, SpanBudgets
from repro.tmu.config import TmuConfig, Variant

VARIANTS = (Variant.FULL, Variant.TINY)


def _ip_config(variant: Variant, prescale_step: int) -> TmuConfig:
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


def _run(shape, stage, seed, outstanding, background):
    """The single run of a one-point campaign of *shape*."""
    kind, variant, prescale_step, beats, strategy, reorder_depth = shape
    common = dict(
        beats=beats,
        seeds=(seed,),
        harness_kwargs={"sim_strategy": strategy},
        outstanding=outstanding,
        reorder_depth=reorder_depth,
    )
    if kind == "ip":
        spec = CampaignSpec.ip(
            [_ip_config(variant, prescale_step)], [stage], **common
        )
    else:
        spec = CampaignSpec.system(
            [variant], [stage], background=background, **common
        )
    return spec.runs()[0]


shapes = st.one_of(
    st.tuples(
        st.just("ip"),
        st.sampled_from(VARIANTS),
        st.sampled_from([1, 2, 4]),
        st.sampled_from([1, 2, 4]),
        st.sampled_from(["dirty", "dirty", "exhaustive", "verify"]),
        st.sampled_from([0, 2]),
    ),
    st.tuples(
        st.just("system"),
        st.sampled_from(VARIANTS),
        st.just(1),
        st.sampled_from([4, 16]),
        st.sampled_from(["dirty", "dirty", "verify"]),
        st.sampled_from([0, 2]),
    ),
)


@st.composite
def run_sequences(draw):
    """2-5 runs; each keeps the previous run's harness shape (a cache
    hit) or, half the time, draws a new one."""
    shape = draw(shapes)
    runs = []
    for position in range(draw(st.integers(2, 5))):
        if position and draw(st.booleans()):
            shape = draw(shapes)
        stages = list(InjectionStage) if shape[0] == "ip" else FIG11_STAGES
        runs.append(
            _run(
                shape,
                draw(st.sampled_from(stages)),
                seed=draw(st.integers(0, 12)),
                outstanding=draw(st.integers(1, 3)),
                background=draw(st.sampled_from([0, 3])),
            )
        )
    return runs


def _through_one_cache(runs):
    cache = HarnessCache()
    return [dataclasses.astuple(execute_run(run, cache=cache)) for run in runs]


def _each_fresh(runs):
    return [dataclasses.astuple(execute_run(run)) for run in runs]


@given(runs=run_sequences())
@settings(max_examples=15, deadline=None)
def test_reused_harness_equals_fresh_harness(runs):
    assert _through_one_cache(runs) == _each_fresh(runs)


def test_reused_soc_restarts_background_traffic():
    """Back-to-back system runs with background traffic: the second run
    must draw the same random transactions as on a fresh SoC."""
    runs = CampaignSpec.system(
        [Variant.FULL],
        [InjectionStage.WLAST_TO_BVALID],
        beats=16,
        seeds=(0, 5),
        background=8,
    ).runs()
    assert _through_one_cache(runs) == _each_fresh(runs)
