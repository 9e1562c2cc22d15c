"""Sharded campaign orchestration — scaling harness (not in the paper).

Runs the Fig. 11 system sweep (both variants × six write stages ×
phase-offset seeds) through the orchestration engine — serially and
across a 4-process pool — verifies the result lists are *identical*,
and reports the wall-clock for each.  The speedup column is the
thousands-of-runs scaling story of `repro.orchestrate`; on single-core
CI runners the parallel path can only demonstrate correctness, so the
speedup assertion is gated on available cores.
"""

import os
import time

from conftest import report, run_once

from repro.analysis.report import render_table
from repro.orchestrate import CampaignSpec, run_campaign_spec
from repro.soc.experiment import FIG11_STAGES
from repro.tmu.config import Variant

WORKERS = 4
SEEDS = (0, 1)
BEATS = 64


def spec():
    return CampaignSpec.system(
        (Variant.FULL, Variant.TINY), FIG11_STAGES, beats=BEATS, seeds=SEEDS
    )


def run():
    timings = {}
    start = time.perf_counter()
    serial = run_campaign_spec(spec(), workers=1)
    timings["serial"] = time.perf_counter() - start
    start = time.perf_counter()
    sharded = run_campaign_spec(spec(), workers=WORKERS)
    timings[f"{WORKERS} workers"] = time.perf_counter() - start
    return serial, sharded, timings


def test_sharded_campaign_identical_and_scales(benchmark):
    serial, sharded, timings = run_once(benchmark, run)

    assert len(serial) == 2 * len(FIG11_STAGES) * len(SEEDS)
    assert sharded == serial  # determinism: full dataclass equality
    assert all(r.detected and r.recovered for r in serial)

    speedup = timings["serial"] / timings[f"{WORKERS} workers"]
    rows = [[label, f"{seconds * 1000:.1f}"] for label, seconds in timings.items()]
    usable_cores = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )
    rows.append(["speedup", f"{speedup:.2f}x"])
    rows.append(["usable cores", usable_cores])
    report(
        f"Campaign sharding: Fig. 11 sweep x {len(SEEDS)} seeds "
        f"({len(serial)} runs), serial vs {WORKERS}-process pool",
        render_table(["path", "wall [ms]"], rows),
    )

    # Pool overhead must never dominate; real speedup needs real
    # *usable* cores (cpu_count ignores cgroup quotas/affinity masks).
    if usable_cores >= 4:
        assert speedup > 1.2
