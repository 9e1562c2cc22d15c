"""Byte-identity of trunk-shared (forked) campaigns.

The batch executor runs the stages of one (config, seed) as a family
sharing one unarmed trunk: each stage goes on from the previous
stage's checkpoint to its own branch, arms there and finishes.  One
``map()`` over all of a campaign's points forks; one ``map([point])``
per point has no family, so nothing forks.  The two must export
byte-identical campaign JSON, ``scheduler`` block included, over the
Fig. 9 IP sweeps (both directions) and the Fig. 11 sweep, forced to fork
at their scale, the busy axes, a non-leaping kernel and a store frontier
that holds partial families.  ``BatchExecutor(verify=True)`` re-runs
every branched run from cycle 0 and must catch a planted late branch.
"""

import pytest

from repro.analysis.export import campaign_dict, to_json
from repro.faults import campaign as campaign_module
from repro.faults.campaign import Trunk
from repro.faults.types import FIG9_WRITE_STAGES, InjectionStage
from repro.orchestrate import (
    BatchExecutor,
    CampaignSpec,
    ResultStore,
    SerialExecutor,
    run_campaign_spec,
)
from repro.sim.kernel import SchedulerDivergenceError
from repro.soc.experiment import FIG11_STAGES
from repro.tmu.config import Variant, full_config, tiny_config

FIG9_READ_STAGES = (
    InjectionStage.AR_READY_MISSING,
    InjectionStage.R_VALID_MISSING,
    InjectionStage.R_MID_BURST_STALL,
    InjectionStage.R_ID_MISMATCH,
    InjectionStage.R_LAST_DROPPED,
    InjectionStage.R_READY_MISSING,
)


class PointByPoint:
    """The unforked reference: one ``map([point])`` per point."""

    def __init__(self, make) -> None:
        self.make = make

    def map(self, points):
        for point in points:
            yield from self.make().map([point])


class Counting:
    """Counts the runs that start from a trunk checkpoint."""

    def __init__(self, monkeypatch) -> None:
        self.resumed = 0
        enter = Trunk.enter

        def counting(trunk, harness, stage):
            resumed = enter(trunk, harness, stage)
            self.resumed += resumed
            return resumed

        monkeypatch.setattr(Trunk, "enter", counting)


def _json(spec, executor) -> str:
    results = run_campaign_spec(spec, executor=executor)
    return to_json(campaign_dict(results, spec=spec))


def assert_forks_identically(spec, make, monkeypatch, resumes=True):
    counting = Counting(monkeypatch)
    forked = _json(spec, make())
    assert bool(counting.resumed) == resumes, counting.resumed
    assert forked == _json(spec, PointByPoint(make))


EXECUTORS = {"serial": SerialExecutor, "batch": BatchExecutor}


@pytest.fixture
def always_fork(monkeypatch):
    # An IP trunk, or a quiet SoC's streamed frame, is cheaper than a
    # checkpoint: force forking at that scale, where every stage of
    # both directions branches.
    monkeypatch.setattr(Trunk, "MIN_CYCLES", 0)
    monkeypatch.setattr(Trunk, "pays", classmethod(lambda cls, run: True))


@pytest.mark.parametrize("make", EXECUTORS.values(), ids=EXECUTORS.keys())
@pytest.mark.parametrize(
    "stages", [FIG9_WRITE_STAGES, FIG9_READ_STAGES], ids=["write", "read"]
)
def test_fig9_sweep_forks_identically(make, stages, always_fork, monkeypatch):
    spec = CampaignSpec.ip(
        [full_config(prescale_step=4), tiny_config(prescale_step=4)],
        stages, seeds=(0, 3, 8, 13),
    )
    assert_forks_identically(spec, make, monkeypatch)


def test_exhaustive_kernel_forks_identically(always_fork, monkeypatch):
    # An exhaustive sweep knows no readers to re-drive a ready through:
    # those stages start over from cycle 0 (Unforkable), the rest fork.
    spec = CampaignSpec.ip(
        [full_config(), tiny_config()],
        list(FIG9_WRITE_STAGES) + list(FIG9_READ_STAGES),
        seeds=(0, 6), harness_kwargs={"sim_strategy": "exhaustive"},
    )
    assert_forks_identically(spec, SerialExecutor, monkeypatch)


def test_fig9_axes_fork_identically(always_fork, monkeypatch):
    spec = CampaignSpec.ip(
        [full_config(), tiny_config()],
        list(FIG9_WRITE_STAGES) + list(FIG9_READ_STAGES),
        beats=16, seeds=(0, 5), size=2, outstanding=3, reorder_depth=2,
    )
    assert_forks_identically(spec, SerialExecutor, monkeypatch)


@pytest.mark.parametrize("make", EXECUTORS.values(), ids=EXECUTORS.keys())
def test_fig11_sweep_forks_identically(make, always_fork, monkeypatch):
    spec = CampaignSpec.system(
        (Variant.FULL, Variant.TINY), FIG11_STAGES, seeds=(0, 4, 9, 30)
    )
    assert_forks_identically(spec, make, monkeypatch)


@pytest.mark.parametrize("make", EXECUTORS.values(), ids=EXECUTORS.keys())
def test_busy_axes_fork_identically(make, monkeypatch):
    # Busy traffic steps the frame's path as an island: it forks by
    # itself.  Batched, pack leaders resume from trunk checkpoints and
    # derive their lanes from the inert span the checkpoint carries.
    spec = CampaignSpec.system(
        (Variant.FULL, Variant.TINY), FIG11_STAGES, beats=96,
        seeds=(0, 7, 23), background=32, outstanding=6, reorder_depth=4,
    )
    assert_forks_identically(spec, make, monkeypatch)


def test_reversed_stages_fork_identically(monkeypatch):
    # Later-branching stages first: each checkpoint lies past the
    # other stages' branches (the mid-burst one's included, though no
    # span gate speaks for it there), so every one starts from cycle 0.
    spec = CampaignSpec.system(
        (Variant.FULL,), FIG11_STAGES[::-1], beats=96, seeds=(0, 11),
        background=32, outstanding=6, reorder_depth=4,
    )
    assert_forks_identically(spec, SerialExecutor, monkeypatch, resumes=False)


@pytest.mark.parametrize("background", [8, 0])
def test_non_leaping_kernel_forks_identically(background, monkeypatch):
    # Only background traffic pays for a checkpoint (Trunk.pays): a
    # quiet SoC runs unforked, whatever its kernel.
    spec = CampaignSpec.system(
        (Variant.FULL, Variant.TINY), FIG11_STAGES, beats=64, seeds=(0, 6),
        background=background, harness_kwargs={"sim_time_leaping": False},
    )
    assert_forks_identically(
        spec, SerialExecutor, monkeypatch, resumes=background > 0
    )


def test_store_frontier_of_partial_families_forks_identically(
    tmp_path, always_fork, monkeypatch
):
    # The first campaign stores some stages at some seeds; the wide one
    # then simulates a frontier whose points hold different seeds.
    narrow = CampaignSpec.system(
        (Variant.FULL,), FIG11_STAGES[2:5], beats=64, seeds=(0, 9)
    )
    wide = CampaignSpec.system(
        (Variant.FULL, Variant.TINY), FIG11_STAGES, beats=64,
        seeds=(0, 4, 9, 17),
    )
    counting = Counting(monkeypatch)
    with ResultStore.open(tmp_path / "store") as store:
        run_campaign_spec(narrow, store=store, executor=SerialExecutor())
        forked = to_json(campaign_dict(
            run_campaign_spec(wide, store=store, executor=BatchExecutor()),
            spec=wide,
        ))
    assert counting.resumed
    assert forked == _json(wide, PointByPoint(SerialExecutor))


def test_verify_accepts_true_branches(always_fork, monkeypatch):
    spec = CampaignSpec.system(
        (Variant.FULL,), FIG11_STAGES, beats=64, seeds=(0, 5)
    )
    counting = Counting(monkeypatch)
    verified = _json(spec, BatchExecutor(verify=True))
    assert counting.resumed
    assert verified == _json(spec, PointByPoint(SerialExecutor))


def test_verify_catches_a_late_branch(always_fork, monkeypatch):
    # Plant a branch one step late: mute_b armed after the last W beat
    # has queued the B response the unforked run never saw unmuted.
    monkeypatch.setitem(
        campaign_module._BRANCH,
        InjectionStage.WLAST_TO_BVALID,
        lambda t: t.w_last is not None,
    )
    spec = CampaignSpec.system(
        (Variant.FULL,), FIG11_STAGES, beats=64, seeds=(0,)
    )
    with pytest.raises(SchedulerDivergenceError, match="wlast_bvalid_error"):
        run_campaign_spec(spec, executor=BatchExecutor(verify=True))
