"""Hypothesis properties for the orchestration contract.

Every executor's correctness leans on three invariants, so they get
property coverage rather than examples:

* a spec's **points enumerate exactly its runs**, before and after the
  pool cuts them into seed slices, and shard planning is a **disjoint,
  complete partition** of them, with stable run IDs — what lets each
  run execute and be stored exactly once per campaign;
* the **spec hash** is invariant to dict key order (two processes
  building "the same" campaign label their exports alike) and
  sensitive to every parameter (no two sweeps share a label);
* **aggregation is index-ordered** no matter what order executor items
  arrive in — what makes worker count and scheduling jitter invisible
  in the output.
"""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.orchestrate import (
    CampaignSpec, RunSpec, plan_shards, run_campaign_spec,
)
from repro.orchestrate.executor import slice_points

STAGE_POOL = (
    "aw_stage_error",
    "w_stage_timeout",
    "wlast_bvalid_error",
    "b_handshake_ready_missing",
)
#: Read-path stages: IP specs only (system runs never manifest them).
READ_STAGE_POOL = ("r_stage_timeout",)

config_extras = st.dictionaries(
    st.sampled_from(("prescale_step", "max_uniq_ids", "budget", "sticky")),
    st.integers(0, 64),
    max_size=3,
)


@st.composite
def specs(draw, seeds=st.lists(st.integers(0, 7), min_size=1, max_size=4,
                               unique=True)):
    """Small synthetic campaign specs spanning both kinds and all axes,
    with seed lists drawn from *seeds*."""
    n_configs = draw(st.integers(1, 3))
    configs = [
        {"variant": draw(st.sampled_from(("full", "tiny"))), "n": i,
         **draw(config_extras)}
        for i in range(n_configs)
    ]
    kind = draw(st.sampled_from(("ip", "system")))
    pool = STAGE_POOL + (READ_STAGE_POOL if kind == "ip" else ())
    stages = list(
        draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)
        )
    )
    return CampaignSpec(
        kind=kind,
        configs=configs,
        stages=stages,
        beats=draw(st.integers(1, 250)),
        seeds=list(draw(seeds)),
        background=draw(st.integers(0, 3)),
        detect_timeout=draw(st.integers(1, 50_000)),
        recovery_timeout=draw(st.integers(1, 10_000)),
        harness_kwargs=draw(
            st.dictionaries(
                st.sampled_from(("sim_strategy", "sim_time_leaping", "x")),
                st.sampled_from(("dirty", "verify", True, False, 3)),
                max_size=2,
            )
        ),
    )


# ----------------------------------------------------------------------
# Shard planning: disjoint, complete, stable
# ----------------------------------------------------------------------
#: Seed lists as users write them: unsorted, with duplicates, and with
#: seeds 0 and 1, whose lanes the batch executor retires.
raw_seeds = st.lists(st.integers(0, 9), min_size=1, max_size=6)


def flat_runs(points):
    """The runs of *points*, as (index, run_id, seed, param_key)."""
    return [
        (run.index, run.run_id, run.seed, run.param_key())
        for point in points for run in point
    ]


@given(specs(seeds=raw_seeds), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_points_enumerate_exactly_the_runs(spec, count):
    # The reference enumerates the sweep itself, each run built by the
    # dataclass constructor.
    harness_kwargs = tuple(sorted(spec.harness_kwargs.items()))
    expected = [
        RunSpec(
            kind=spec.kind, index=index, config=config, stage=stage,
            seed=seed, beats=spec.beats, background=spec.background,
            detect_timeout=spec.detect_timeout,
            recovery_timeout=spec.recovery_timeout,
            harness_kwargs=harness_kwargs, size=spec.size,
            outstanding=spec.outstanding, reorder_depth=spec.reorder_depth,
        )
        for index, (config, stage, seed) in enumerate(
            itertools.product(spec.configs, spec.stages, spec.seeds)
        )
    ]
    points = spec.points()
    assert [run for point in points for run in point] == expected
    assert spec.runs() == expected
    assert flat_runs(points) == flat_runs([expected])
    # The pool's seed slices are points of the same runs, in order.
    sliced = slice_points(points, count)
    assert flat_runs(sliced) == flat_runs([expected])
    assert all(len(point) for point in sliced)


@given(specs(), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_shard_plan_is_disjoint_complete_partition(spec, shard_size):
    runs = spec.runs()
    points = spec.points()
    # Each point is one (config, stage) — every seed of it, in order.
    for number, point in enumerate(points):
        config, stage = divmod(number, len(spec.stages))
        assert [run.seed for run in point] == spec.seeds
        assert all(run.config == spec.configs[config] for run in point)
        assert all(run.stage == spec.stages[stage] for run in point)
    shards = plan_shards(points, shard_size=shard_size)
    # Complete and in canonical order once flattened…
    flattened = [run for shard in shards for point in shard.points
                 for run in point]
    assert flattened == runs
    # …disjoint (every run exactly once, by identity-bearing index)…
    indexes = [run.index for run in flattened]
    assert indexes == list(range(len(runs)))
    # …with a consistent self-describing plan.
    assert [shard.index for shard in shards] == list(range(len(shards)))
    assert all(shard.count == len(shards) for shard in shards)
    assert all(len(shard.points) <= shard_size for shard in shards)


@given(specs())
@settings(max_examples=60, deadline=None)
def test_run_ids_stable_and_unique(spec):
    ids_a = [run.run_id for run in spec.runs()]
    ids_b = [run.run_id for run in spec.runs()]
    assert ids_a == ids_b
    assert len(set(ids_a)) == len(ids_a)


# ----------------------------------------------------------------------
# Spec hash: key-order invariant, parameter sensitive
# ----------------------------------------------------------------------
@given(specs())
@settings(max_examples=60, deadline=None)
def test_spec_hash_invariant_to_dict_key_order(spec):
    def reordered(mapping):
        return dict(reversed(list(mapping.items())))

    permuted = CampaignSpec(
        kind=spec.kind,
        configs=[reordered(config) for config in spec.configs],
        stages=list(spec.stages),
        beats=spec.beats,
        seeds=list(spec.seeds),
        background=spec.background,
        detect_timeout=spec.detect_timeout,
        recovery_timeout=spec.recovery_timeout,
        harness_kwargs=reordered(spec.harness_kwargs),
    )
    assert permuted.spec_hash() == spec.spec_hash()
    assert permuted.canonical_dict() == spec.canonical_dict()


MUTATIONS = {
    "kind": lambda d: d.update(kind="system" if d["kind"] == "ip" else "ip"),
    "configs": lambda d: d["configs"].append({"variant": "full", "mut": 1}),
    "config_value": lambda d: d["configs"][0].update(variant="mutated"),
    "stages": lambda d: d["stages"].append("mutated_stage"),
    "stage_order": lambda d: d["stages"].reverse(),
    "beats": lambda d: d.update(beats=d["beats"] + 1),
    "seeds": lambda d: d["seeds"].append(max(d["seeds"]) + 1),
    "background": lambda d: d.update(background=d["background"] + 1),
    "detect_timeout": lambda d: d.update(detect_timeout=d["detect_timeout"] + 1),
    "recovery_timeout": lambda d: d.update(
        recovery_timeout=d["recovery_timeout"] + 1
    ),
    "harness_kwargs": lambda d: d["harness_kwargs"].update(mutated=True),
}


@given(specs(), st.sampled_from(sorted(MUTATIONS)))
@settings(max_examples=80, deadline=None)
def test_spec_hash_sensitive_to_every_parameter(spec, field):
    # An IP spec with a read-path stage has no valid system twin.
    assume(field != "kind" or not set(spec.stages) & set(READ_STAGE_POOL))
    mutated = spec.canonical_dict()
    MUTATIONS[field](mutated)
    if field == "stage_order" and len(mutated["stages"]) < 2:
        mutated["stages"].append("mutated_stage")  # order needs two entries
    remade = CampaignSpec(**mutated)
    assert remade.spec_hash() != spec.spec_hash()


# ----------------------------------------------------------------------
# Aggregation: arrival order is invisible
# ----------------------------------------------------------------------
@given(specs(), st.integers(1, 5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_aggregation_is_index_ordered_for_any_arrival_order(
    spec, shard_size, rng
):
    runs = spec.runs()

    class Scrambled:
        """Completes items of up to *shard_size* runs in a
        hypothesis-chosen order, results tagged."""

        def map(self, points):
            order = plan_shards(points, shard_size=shard_size)
            rng.shuffle(order)
            for shard in order:
                shard_runs = [run for point in shard.points for run in point]
                yield (
                    tuple(run.index for run in shard_runs),
                    [f"result-{run.index}" for run in shard_runs],
                )

    ordered = run_campaign_spec(spec, executor=Scrambled())
    assert ordered == [f"result-{index}" for index in range(len(runs))]
