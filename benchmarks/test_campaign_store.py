"""Run-granular store reuse — incremental sweep harness (not in the paper).

Two measurements of `repro.orchestrate.store`:

* **Superset sweep wall-time.**  A system campaign runs cold into a
  store, then a superset of it (one extra seed) runs against the same
  store.  The superset must simulate only its frontier, so its
  wall-time collapses from "all runs" to "new runs plus lookups" —
  the incremental-reuse story, asserted at >= 5x.
* **Lookup throughput.**  Point `get`s against the hot LRU and the warm
  SQLite tier, in lookups/second — the overhead a store hit charges a
  campaign compared to the milliseconds a simulation costs.

Both land in ``BENCH_kernel.json`` under ``campaign_store_reuse``.
"""

import gc
import time
from collections import Counter

from conftest import record_json, report, run_once

from repro.orchestrate import (
    CampaignSpec,
    ResultStore,
    SerialExecutor,
    run_campaign_spec,
)
from repro.soc.experiment import FIG11_STAGES
from repro.tmu.config import Variant

BEATS = 250
STAGES = FIG11_STAGES[:3]
SUBSET_SEEDS = 15
SUPERSET_SEEDS = 16
LOOKUPS = 2000


def spec(seed_count):
    return CampaignSpec.system(
        (Variant.FULL,), STAGES, beats=BEATS, seeds=range(seed_count)
    )


def measure(tmp_root):
    store_dir = tmp_root / "store"
    timings = {}

    # Each timed campaign starts from a fresh collection: in a full-suite
    # run the heap holds every collected test module, and one full
    # collection of it (tens of ms) owed by earlier tests could
    # otherwise land in the short warm region and swamp it.
    gc.collect()
    start = time.perf_counter()
    # Every campaign runs scalar (width-1 packs): the bar measures what
    # reuse saves over simulating, not what lockstep lanes save by
    # deriving seeds instead (the default, a separate mechanism).
    run_campaign_spec(
        spec(SUBSET_SEEDS), executor=SerialExecutor(), store=store_dir
    )
    timings["cold_subset_seconds"] = time.perf_counter() - start

    metrics = Counter()
    gc.collect()
    start = time.perf_counter()
    superset = run_campaign_spec(
        spec(SUPERSET_SEEDS), executor=SerialExecutor(), store=store_dir,
        metrics=metrics,
    )
    timings["warm_superset_seconds"] = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    cold = run_campaign_spec(spec(SUPERSET_SEEDS), executor=SerialExecutor())
    timings["cold_superset_seconds"] = time.perf_counter() - start
    assert superset == cold  # reuse must be invisible in the results

    counters = dict(metrics)

    # Lookup throughput: hot (in-process LRU), then warm (fresh view,
    # hot tier disabled so every get pays the SQLite round trip).
    runs = spec(SUBSET_SEEDS).runs()
    hot = ResultStore.open(store_dir)
    for run in runs:
        hot.get(run)  # prime the LRU
    start = time.perf_counter()
    for index in range(LOOKUPS):
        hot.get(runs[index % len(runs)])
    timings["hot_lookup_seconds"] = (time.perf_counter() - start) / LOOKUPS

    warm = ResultStore.open(store_dir, hot_capacity=0)
    start = time.perf_counter()
    for index in range(LOOKUPS):
        warm.get(runs[index % len(runs)])
    timings["warm_lookup_seconds"] = (time.perf_counter() - start) / LOOKUPS

    return timings, counters


def test_store_superset_reuse_speedup(benchmark, tmp_path):
    timings, counters = run_once(benchmark, lambda: measure(tmp_path))

    total = len(STAGES) * SUPERSET_SEEDS
    frontier = len(STAGES) * (SUPERSET_SEEDS - SUBSET_SEEDS)
    assert counters["store.frontier_runs"] == frontier
    assert counters["campaign.runs_executed"] == frontier
    assert counters["store.reused_runs"] == total - frontier

    speedup = timings["cold_superset_seconds"] / timings["warm_superset_seconds"]
    hot_rate = 1.0 / timings["hot_lookup_seconds"]
    warm_rate = 1.0 / timings["warm_lookup_seconds"]
    body = "\n".join(
        [
            f"system sweep, {len(STAGES)} stages x seeds, {BEATS} beats",
            f"cold subset  ({len(STAGES) * SUBSET_SEEDS} runs): "
            f"{1000 * timings['cold_subset_seconds']:7.1f} ms",
            f"cold superset ({total} runs): "
            f"{1000 * timings['cold_superset_seconds']:7.1f} ms",
            f"warm superset ({frontier} simulated): "
            f"{1000 * timings['warm_superset_seconds']:7.1f} ms  "
            f"({speedup:.2f}x)",
            f"store lookups: hot {hot_rate:,.0f}/s | warm {warm_rate:,.0f}/s",
        ]
    )
    report("Result store: superset-sweep reuse and lookup throughput", body)

    record_json(
        "campaign_store_reuse",
        {
            "runs_superset": total,
            "frontier_runs": frontier,
            "beats": BEATS,
            "cold_subset_seconds": timings["cold_subset_seconds"],
            "cold_superset_seconds": timings["cold_superset_seconds"],
            "warm_superset_seconds": timings["warm_superset_seconds"],
            "superset_speedup": speedup,
            "hot_lookups_per_second": hot_rate,
            "warm_lookups_per_second": warm_rate,
        },
    )

    # Acceptance bar: a one-seed-wider sweep over a warm store must be
    # at least 5x faster than running it cold (typically ~10x: 3 of 48
    # runs simulate).
    assert speedup >= 5.0
    # A store lookup must stay orders of magnitude under a simulation.
    assert timings["warm_lookup_seconds"] < 0.005
