"""ProgressReporter ETA accounting.

The estimate must extrapolate from the runs that actually consumed
wall-clock — weighted by runs (not shards, which vary in size), and
excluding both cache hits and lanes the batch executor derived without
simulating.  Either class of free run projected into the rate would
under-report the time remaining for the genuinely simulated work.
"""

import io

from repro.orchestrate import ProgressReporter


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_reporter(total):
    clock = FakeClock()
    return ProgressReporter(total, stream=io.StringIO(), clock=clock), clock


def test_eta_weighted_by_runs_not_shards():
    reporter, clock = make_reporter(10)
    # Two shards of very different sizes, completing out of order: the
    # rate must come from the 4 runs done, not from "2 of N shards".
    clock.advance(4.0)
    reporter.shard_done(3)
    clock.advance(1.0)
    reporter.shard_done(1)
    # 4 runs in 5s -> 1.25 s/run; 6 remaining -> 7.5s.
    assert reporter.eta_seconds() == 7.5


def test_cached_runs_do_not_skew_eta():
    reporter, clock = make_reporter(8)
    reporter.shard_done(4, cached=True)  # instant, free
    clock.advance(6.0)
    reporter.shard_done(2)
    # 2 executed runs in 6s -> 3 s/run; 2 remaining -> 6s.
    assert reporter.eta_seconds() == 6.0


def test_derived_runs_do_not_skew_eta():
    reporter, clock = make_reporter(64)
    # A 32-lane pack: one leader simulated, 31 lanes derived for free.
    reporter.runs_derived(31)
    clock.advance(10.0)
    reporter.shard_done(32)
    # 1 simulated run in 10s; 32 remaining -> 320s.  Counting the 31
    # derived lanes as executed would claim ~10s instead.
    assert reporter.eta_seconds() == 320.0
    assert reporter.derived == 31


def test_eta_unknowable_before_any_simulated_run():
    reporter, clock = make_reporter(16)
    reporter.runs_derived(7)
    reporter.shard_done(8, cached=True)
    clock.advance(3.0)
    assert reporter.eta_seconds() is None


def test_eta_zero_when_done():
    reporter, clock = make_reporter(2)
    clock.advance(1.0)
    reporter.shard_done(2)
    assert reporter.eta_seconds() == 0.0


def test_render_and_finish_stream_shape():
    reporter, clock = make_reporter(4)
    clock.advance(2.0)
    reporter.shard_done(2)
    reporter.set_status("batch: 1 pack(s)")
    reporter.finish()
    text = reporter.stream.getvalue()
    assert "2/4 runs" in text
    assert "batch: 1 pack(s)" in text
    assert text.endswith("\n")


# ----------------------------------------------------------------------
# Edge cases: empty campaigns, rate-window races, live status
# ----------------------------------------------------------------------
def test_zero_run_campaign_final_line_is_sane():
    # An empty stage filter produces a 0-run campaign; the final line
    # must read as vacuously complete, not divide by zero or show NaN.
    reporter, clock = make_reporter(0)
    reporter.finish()
    text = reporter.stream.getvalue()
    assert "0/0 runs (100.0%)" in text
    assert "nan" not in text.lower()
    assert reporter.eta_seconds() == 0.0


def test_eta_never_negative_when_derived_outpaces_done():
    # The batch executor flags derived lanes *before* their shard
    # reports done, so mid-pack executed = done - cached - derived can
    # dip below zero.  That window has no rate information — eta must
    # be None, never a negative projection.
    reporter, clock = make_reporter(64)
    reporter.runs_derived(31)
    clock.advance(5.0)
    assert reporter.eta_seconds() is None
    reporter.shard_done(32)  # the pack lands; executed is positive again
    eta = reporter.eta_seconds()
    assert eta is not None and eta >= 0.0


def test_eta_clamped_against_clock_regression():
    # A non-monotonic clock hiccup must surface as eta 0, not eta -0.3s.
    reporter, clock = make_reporter(8)
    reporter.shard_done(4)
    clock.now = -1.0
    eta = reporter.eta_seconds()
    assert eta is not None and eta == 0.0


def test_set_status_renders_immediately():
    reporter, clock = make_reporter(10)
    assert reporter.stream.getvalue() == ""
    reporter.set_status("2 worker(s)")
    text = reporter.stream.getvalue()
    # One redraw happened without waiting for a shard completion…
    assert "2 worker(s)" in text
    assert "0/10 runs" in text
    # …and the next shard keeps the status segment on the line.
    reporter.shard_done(1)
    assert reporter.stream.getvalue().count("2 worker(s)") == 2


class RecordingReporter(ProgressReporter):
    """Logs every completion event, next to the executor's leader runs."""

    def __init__(self, total, log):
        super().__init__(total, stream=io.StringIO())
        self.log = log

    def shard_done(self, runs, cached=False):
        self.log.append(("done", runs))
        super().shard_done(runs, cached=cached)

    def set_status(self, status):
        self.log.append(("status", status))
        super().set_status(status)


def test_batched_campaign_progress_advances_once_per_pack(monkeypatch):
    # A batched campaign's status line must move while it runs: each
    # simulated run reports done (and the executor its pack counts) as
    # it finishes, and each pack's derived lanes once, right after
    # their leader — not every run at once after the last pack.
    from repro.orchestrate import (
        BatchExecutor, CampaignSpec, run_campaign_spec,
    )
    from repro.orchestrate import batch as batch_module
    from repro.soc.experiment import FIG11_STAGES
    from repro.tmu.config import Variant

    log = []
    real = batch_module.execute_run

    def logging_run(run, cache=None):
        if run.seed >= 2:  # seeds 0 and 1 retire: the rest lead
            log.append(("leader", run.index))
        return real(run, cache=cache)

    monkeypatch.setattr(batch_module, "execute_run", logging_run)
    spec = CampaignSpec.system(
        (Variant.FULL,), FIG11_STAGES[:3], beats=16, seeds=range(16)
    )
    reporter = RecordingReporter(len(spec.runs()), log)
    executor = BatchExecutor(16)
    run_campaign_spec(spec, executor=executor, progress=reporter)

    def events(kind):
        return [i for i, (event, _) in enumerate(log) if event == kind]

    leaders, dones = events("leader"), events("done")
    assert len(leaders) == executor.stats.packs == 3
    assert dones and dones[0] < leaders[-1]
    assert events("status")[0] < leaders[-1]
    assert log[events("status")[0]][1].startswith("batch: 1 pack(s)")
    # Per pack: seeds 0 and 1 retire, seed 2 leads, 13 lanes derive.
    assert [log[i][1] for i in dones] == [1, 1, 1, 13] * executor.stats.packs
    assert reporter.done == reporter.total
