"""Kernel scheduling micro-benchmarks: settle worklist + update live set.

Four experiments on the same kernel:

* **settle** — the original dirty-set-vs-exhaustive comparison on a
  manager↔subordinate farm at dense and sparse activity;
* **update skip (idle-fraction sweep)** — the quiescence-aware update
  phase against the pre-quiescence static updater list (``Simulator
  (update_skipping=False)``) as the idle fraction of the farm grows;
* **stall-dominated campaign** — the paper's Fig. 9/11 regime: a muted
  response channel hangs the Cheshire SoC for thousands of cycles while
  only the TMU's armed counters tick.  This is the scenario the
  quiescence contract exists for; asserts the ≥1.5x win.
* **time leap** — the same stall under the timed-wake queue: with only
  countdowns pending, ``run_until`` fast-forwards the clock to the
  TMU's declared expiry instead of ticking the empty cycles, so the
  stall costs one heap pop however long the budget.  Asserts ≥3x over
  the quiescence-only kernel (typically far more: the leaped span is
  O(1) instead of O(budget)).
* **lockstep batch campaign** — the seed axis itself: a 64-seed stall
  campaign through the lockstep batch executor, which simulates one
  leader per congruence pack and derives the other lanes in O(1).
  Measures a runs/sec series over pack widths against the PR 4 scalar
  path; asserts byte-equal results and the ≥3x throughput bar at 64
  lanes.

All variants must complete identical architectural work; each test also
records machine-readable metrics (cycles/sec, speedups, leap counts) in
``BENCH_kernel.json`` via ``record_json``.
"""

import gc
import time

from conftest import record_json, report, run_once

from repro.axi.interface import AxiInterface
from repro.axi.manager import Manager
from repro.axi.subordinate import Subordinate
from repro.axi.traffic import write_spec
from repro.sim import Simulator

LINKS = 8
CYCLES = 1500
BURSTS = 40

STALL_BUDGET = 6000  # long-timeout Fig. 9/11 point: detection after ~6k cycles

#: Budget for the time-leap bench: long enough that the run is utterly
#: stall-dominated (the paper's watchdog-class budgets), so the win
#: measures the leap itself rather than the surrounding traffic.
LEAP_BUDGET = 60_000


def build_farm(strategy, active_links, update_skipping=True):
    sim = Simulator(strategy=strategy, update_skipping=update_skipping)
    managers = []
    for i in range(LINKS):
        bus = AxiInterface(f"link{i}")
        manager = Manager(f"mgr{i}", bus)
        sim.add(manager)
        sim.add(Subordinate(f"sub{i}", bus, b_latency=2))
        managers.append(manager)
    for i in range(active_links):
        for n in range(BURSTS):
            managers[i].submit(write_spec(n % 4, 0x100 + 0x40 * n, beats=4))
    return sim, managers


def run_farm(strategy, active_links, update_skipping=True):
    sim, managers = build_farm(strategy, active_links, update_skipping)
    # Start from a fresh collection, as measure_batch_campaign does: a
    # full-suite heap's pending collection would otherwise land in one
    # of these ~10 ms regions and swamp it.
    gc.collect()
    start = time.perf_counter()
    sim.run(CYCLES)
    elapsed = time.perf_counter() - start
    completed = sum(len(m.completed) for m in managers)
    return elapsed, completed


def build_stalled_soc(update_skipping, time_leaping=False, budget=STALL_BUDGET):
    """Cheshire SoC hung by a mute-B Ethernet fault under a long budget."""
    import dataclasses

    from repro.soc.cheshire import CheshireSoC, system_tmu_config
    from repro.tmu.budget import AdaptiveBudgetPolicy, PhaseBudgets, SpanBudgets
    from repro.tmu.config import Variant

    phases = PhaseBudgets(
        aw_handshake=budget, w_entry=budget, w_first_hs=budget,
        w_data_base=budget, b_wait=budget, b_handshake=budget,
        ar_handshake=budget, r_entry=budget, r_first_hs=budget,
        r_data_base=budget,
    )
    config = dataclasses.replace(
        system_tmu_config(Variant.FULL),
        budgets=AdaptiveBudgetPolicy(phases, SpanBudgets(base=budget, per_beat=1)),
    )
    soc = CheshireSoC(
        config,
        sim_update_skipping=update_skipping,
        sim_time_leaping=time_leaping,
    )
    soc.ethernet.faults.mute_b = True
    soc.send_ethernet_frame(64)
    return soc


def run_stalled_soc(update_skipping, time_leaping=False, budget=STALL_BUDGET):
    soc = build_stalled_soc(update_skipping, time_leaping, budget)
    timeout = max(20_000, 2 * budget)
    gc.collect()  # see run_farm
    start = time.perf_counter()
    detect = soc.sim.run_until(lambda _s: soc.tmu.irq.value, timeout=timeout)
    elapsed = time.perf_counter() - start
    return elapsed, detect, soc.sim.leaps, soc.sim.cycles_leaped


def measure():
    results = {}
    for label, active in (("dense", LINKS), ("sparse", 1)):
        for strategy in ("dirty", "exhaustive"):
            results[(label, strategy)] = run_farm(strategy, active)
    return results


def measure_update_skip():
    results = {}
    for label, active in (("0/8 idle", 8), ("4/8 idle", 4), ("7/8 idle", 1)):
        for skipping in (True, False):
            results[(label, skipping)] = run_farm("dirty", active, skipping)
    return results


def measure_stall():
    return {
        skipping: run_stalled_soc(skipping) for skipping in (True, False)
    }


def measure_time_leap():
    results = {}
    for label, skipping, leaping in (
        ("leap", True, True),
        ("no-leap", True, False),
        ("static", False, False),
    ):
        results[label] = run_stalled_soc(skipping, leaping, budget=LEAP_BUDGET)
    return results


def test_kernel_scheduling(benchmark):
    results = run_once(benchmark, measure)

    rows = []
    for label in ("dense", "sparse"):
        dirty_s, dirty_done = results[(label, "dirty")]
        exact_s, exact_done = results[(label, "exhaustive")]
        # Same architectural work under both strategies.
        assert dirty_done == exact_done, label
        rows.append(
            f"{label:<7}| {1000 * dirty_s:8.1f} ms | {1000 * exact_s:8.1f} ms "
            f"| {exact_s / dirty_s:5.1f}x"
        )
    body = "\n".join(
        [
            f"{LINKS} manager/subordinate links, {CYCLES} cycles",
            "activity | dirty-set   | exhaustive  | speedup",
            "---------+-------------+-------------+--------",
            *rows,
        ]
    )
    report("Kernel scheduling: dirty-set worklist vs exhaustive sweep", body)

    record_json(
        "settle_dirty_vs_exhaustive",
        {
            "cycles": CYCLES,
            "links": LINKS,
            "dense_dirty_seconds": results[("dense", "dirty")][0],
            "dense_exhaustive_seconds": results[("dense", "exhaustive")][0],
            "sparse_dirty_seconds": results[("sparse", "dirty")][0],
            "sparse_exhaustive_seconds": results[("sparse", "exhaustive")][0],
            "sparse_speedup": (
                results[("sparse", "exhaustive")][0]
                / results[("sparse", "dirty")][0]
            ),
        },
    )

    # The dirty scheduler's reason to exist: sparse activity must be
    # decisively cheaper than a full sweep (typically >5x; assert a
    # conservative margin so loaded CI machines stay green).
    sparse_dirty = results[("sparse", "dirty")][0]
    sparse_exact = results[("sparse", "exhaustive")][0]
    assert sparse_exact > 1.5 * sparse_dirty
    # Dense activity must not regress past the exhaustive sweep.
    dense_dirty = results[("dense", "dirty")][0]
    dense_exact = results[("dense", "exhaustive")][0]
    assert dense_dirty < 1.5 * dense_exact


def test_update_skip_idle_fraction(benchmark):
    results = run_once(benchmark, measure_update_skip)

    rows = []
    for label in ("0/8 idle", "4/8 idle", "7/8 idle"):
        skip_s, skip_done = results[(label, True)]
        static_s, static_done = results[(label, False)]
        assert skip_done == static_done, label
        rows.append(
            f"{label:<9}| {1000 * skip_s:8.1f} ms | {1000 * static_s:8.1f} ms "
            f"| {static_s / skip_s:5.2f}x"
        )
    body = "\n".join(
        [
            f"{LINKS} links (dirty settle in both), {CYCLES} cycles",
            "idle     | live set    | static list | speedup",
            "---------+-------------+-------------+--------",
            *rows,
        ]
    )
    report("Update-phase quiescence: live updater set vs static list", body)

    record_json(
        "update_skip_idle_fraction",
        {
            "cycles": CYCLES,
            "links": LINKS,
            "idle_7_8_live_seconds": results[("7/8 idle", True)][0],
            "idle_7_8_static_seconds": results[("7/8 idle", False)][0],
            "busy_live_seconds": results[("0/8 idle", True)][0],
            "busy_static_seconds": results[("0/8 idle", False)][0],
            "idle_speedup": (
                results[("7/8 idle", False)][0] / results[("7/8 idle", True)][0]
            ),
        },
    )

    # Mostly-idle farms are where quiescence pays; fully-busy ones must
    # not regress materially (every component stays in the live set).
    idle_skip = results[("7/8 idle", True)][0]
    idle_static = results[("7/8 idle", False)][0]
    assert idle_static > 1.3 * idle_skip
    busy_skip = results[("0/8 idle", True)][0]
    busy_static = results[("0/8 idle", False)][0]
    assert busy_skip < 1.3 * busy_static


def test_update_skip_stall_campaign(benchmark):
    results = run_once(benchmark, measure_stall)

    skip_s, skip_detect, _, _ = results[True]
    static_s, static_detect, _, _ = results[False]
    # Identical physics: the detection cycle must not move.
    assert skip_detect == static_detect
    body = "\n".join(
        [
            f"Cheshire SoC, mute-B Ethernet stall, {STALL_BUDGET}-cycle budget",
            f"detected at cycle {skip_detect} under both update phases",
            "update phase | wall clock | speedup",
            "-------------+------------+--------",
            f"live set     | {1000 * skip_s:7.1f} ms |"
            f" {static_s / skip_s:5.2f}x",
            f"static list  | {1000 * static_s:7.1f} ms |  1.00x",
        ]
    )
    report(
        "Update-phase quiescence: stall-dominated campaign (Fig. 9/11 regime)",
        body,
    )
    record_json(
        "stall_campaign_update_skip",
        {
            "budget_cycles": STALL_BUDGET,
            "detect_cycle": skip_detect,
            "live_set_seconds": skip_s,
            "static_list_seconds": static_s,
            "speedup": static_s / skip_s,
        },
    )

    # The acceptance bar for the quiescence contract: a stall-dominated
    # campaign runs at least 1.5x faster end to end.
    assert static_s > 1.5 * skip_s


BATCH_SEEDS = 64
BATCH_LANES = (1, 8, 64)
BATCH_BUDGET = 2000  # per-run stall long enough that simulating dominates


def build_batch_campaign_spec():
    """64-seed AW-stall campaign: one config, one stage, the seed axis."""
    from repro.faults.types import InjectionStage
    from repro.orchestrate import CampaignSpec
    from repro.tmu.budget import AdaptiveBudgetPolicy, PhaseBudgets, SpanBudgets
    from repro.tmu.config import TmuConfig, Variant

    config = TmuConfig(
        variant=Variant.FULL,
        max_uniq_ids=4,
        txn_per_id=4,
        prescale_step=4,
        budgets=AdaptiveBudgetPolicy(
            PhaseBudgets(aw_handshake=BATCH_BUDGET),
            SpanBudgets(base=2 * BATCH_BUDGET, per_beat=1),
        ),
        max_txn_cycles=4 * BATCH_BUDGET,
    )
    return CampaignSpec.ip(
        [config],
        [InjectionStage.AW_READY_MISSING],
        beats=4,
        seeds=tuple(range(BATCH_SEEDS)),
    )


def measure_batch_campaign():
    import dataclasses

    from repro.orchestrate import BatchExecutor, SerialExecutor, run_campaign_spec

    spec = build_batch_campaign_spec()
    # Each timed region starts from a fresh collection: in a full-suite
    # run the heap holds every collected test module, and one full
    # collection of it (tens of ms) owed by earlier tests could
    # otherwise land in any one of these short regions and swamp it.
    gc.collect()
    start = time.perf_counter()
    serial = run_campaign_spec(spec, executor=SerialExecutor())
    serial_s = time.perf_counter() - start

    results = {"serial": (serial_s, None)}
    reference = [dataclasses.asdict(result) for result in serial]
    for lanes in BATCH_LANES:
        executor = BatchExecutor(lanes)
        gc.collect()
        start = time.perf_counter()
        batched = run_campaign_spec(spec, executor=executor)
        elapsed = time.perf_counter() - start
        # Identical physics: batching must not move a single field,
        # scheduler statistics included.
        assert [dataclasses.asdict(r) for r in batched] == reference, lanes
        results[lanes] = (elapsed, executor.stats)
    return results


def test_batch_campaign_throughput(benchmark):
    results = run_once(benchmark, measure_batch_campaign)

    serial_s, _ = results["serial"]
    serial_rps = BATCH_SEEDS / serial_s
    rows = [f"scalar (PR 4)  | {1000 * serial_s:7.1f} ms | {serial_rps:7.1f} |   1.00x"]
    series = {"serial_runs_per_second": serial_rps, "serial_seconds": serial_s}
    for lanes in BATCH_LANES:
        elapsed, stats = results[lanes]
        rps = BATCH_SEEDS / elapsed
        rows.append(
            f"batch lanes={lanes:<3}| {1000 * elapsed:7.1f} ms | {rps:7.1f} |"
            f" {serial_s / elapsed:6.2f}x  ({stats.simulated} simulated,"
            f" {stats.derived} derived)"
        )
        series[f"lanes_{lanes}_runs_per_second"] = rps
        series[f"lanes_{lanes}_seconds"] = elapsed
        series[f"lanes_{lanes}_simulated"] = stats.simulated
        series[f"lanes_{lanes}_derived"] = stats.derived
    body = "\n".join(
        [
            f"{BATCH_SEEDS}-seed AW-stall campaign, {BATCH_BUDGET}-cycle budget,"
            " prescale step 4",
            "executor       | wall clock | runs/s  | speedup",
            "---------------+------------+---------+--------",
            *rows,
        ]
    )
    report("Lockstep batch execution: campaign runs/sec over pack width", body)

    record_json(
        "campaign_batch_lockstep",
        {
            "runs": BATCH_SEEDS,
            "budget_cycles": BATCH_BUDGET,
            "prescale_step": 4,
            **series,
            "speedup_64_lanes": serial_s / results[64][0],
        },
    )

    # Acceptance bar: 64-lane packs must deliver at least 3x runs/sec
    # over the scalar executor on the stall campaign (typically far
    # more — a 16-lane congruence class costs ~2 simulations).
    assert BATCH_SEEDS / results[64][0] >= 3.0 * serial_rps
    # Width-1 packs are the scalar degenerate: no material regression.
    assert results[1][0] < 1.5 * serial_s


def test_time_leap_stall_campaign(benchmark):
    results = run_once(benchmark, measure_time_leap)

    leap_s, leap_detect, leaps, cycles_leaped = results["leap"]
    tick_s, tick_detect, tick_leaps, _ = results["no-leap"]
    static_s, static_detect, _, _ = results["static"]
    # Identical physics across all three kernels — the leap must not
    # move the detection cycle by even one.
    assert leap_detect == tick_detect == static_detect
    assert tick_leaps == 0
    # The whole stall collapses into a handful of heap pops.
    assert leaps >= 1
    assert cycles_leaped > 0.9 * LEAP_BUDGET
    body = "\n".join(
        [
            f"Cheshire SoC, mute-B Ethernet stall, {LEAP_BUDGET}-cycle budget",
            f"detected at cycle {leap_detect} under all kernels; "
            f"{leaps} leaps covered {cycles_leaped} cycles",
            "kernel             | wall clock | speedup",
            "-------------------+------------+--------",
            f"timed-wake leap    | {1000 * leap_s:7.1f} ms |"
            f" {tick_s / leap_s:6.2f}x",
            f"quiescence (PR 3)  | {1000 * tick_s:7.1f} ms |   1.00x",
            f"static updates     | {1000 * static_s:7.1f} ms |"
            f" {tick_s / static_s:6.2f}x",
        ]
    )
    report(
        "Timed-wake queue: clock fast-forward over a stall-dominated campaign",
        body,
    )
    record_json(
        "stall_campaign_time_leap",
        {
            "budget_cycles": LEAP_BUDGET,
            "detect_cycle": leap_detect,
            "leaps": leaps,
            "cycles_leaped": cycles_leaped,
            "leap_seconds": leap_s,
            "no_leap_seconds": tick_s,
            "static_seconds": static_s,
            "speedup_vs_quiescence": tick_s / leap_s,
            "speedup_vs_static": static_s / leap_s,
            "cycles_per_second_leap": leap_detect / leap_s,
            "cycles_per_second_no_leap": tick_detect / tick_s,
        },
    )

    # Acceptance bar: the timed-wake queue must deliver at least 3x on
    # top of PR 3's quiescence kernel for a stall-dominated campaign
    # (typically far more — the leaped span costs O(1), not O(budget)).
    assert tick_s > 3.0 * leap_s


#: Interleaved repeats per arm of the tracer-overhead comparison: the
#: true cost is a few percent, so the best-of estimate must be tighter
#: than that on a shared host.
TRACER_REPEATS = 15


def measure_tracer_overhead():
    """Min-of-repeats wall clock for the 64-seed stall campaign, bare
    vs with a no-op base :class:`Tracer` riding in every simulator.

    Both arms run ``run_campaign`` on a :class:`SerialExecutor`, with
    the *same* config/stage/seed axis as ``build_batch_campaign_spec``.
    The two arms interleave so drift hits both equally, and each takes
    its best of several repeats — the standard noise floor for
    sub-100ms timings.
    """
    from repro.faults.campaign import run_campaign
    from repro.faults.types import InjectionStage
    from repro.orchestrate import SerialExecutor
    from repro.telemetry import Tracer
    from repro.tmu.budget import AdaptiveBudgetPolicy, PhaseBudgets, SpanBudgets
    from repro.tmu.config import TmuConfig, Variant

    config = TmuConfig(
        variant=Variant.FULL,
        max_uniq_ids=4,
        txn_per_id=4,
        prescale_step=4,
        budgets=AdaptiveBudgetPolicy(
            PhaseBudgets(aw_handshake=BATCH_BUDGET),
            SpanBudgets(base=2 * BATCH_BUDGET, per_beat=1),
        ),
        max_txn_cycles=4 * BATCH_BUDGET,
    )

    def campaign(harness_kwargs):
        # Both arms run every seed scalar (width-1 packs): with lanes,
        # nearly every run would be derived and the tracer would see
        # almost no stepped cycles to cost.
        start = time.perf_counter()
        results = run_campaign(
            [config],
            [InjectionStage.AW_READY_MISSING],
            beats=4,
            seeds=tuple(range(BATCH_SEEDS)),
            harness_kwargs=harness_kwargs,
            executor=SerialExecutor(),
        )
        return time.perf_counter() - start, results

    import dataclasses

    bare_best = traced_best = float("inf")
    reference = None
    for repeat in range(TRACER_REPEATS):
        # Alternate which arm runs first, so neither always gets the
        # warmer (or the noisier) slot of a pair.
        if repeat % 2:
            traced_s, traced_results = campaign({"sim_tracer": Tracer()})
            bare_s, bare_results = campaign(None)
        else:
            bare_s, bare_results = campaign(None)
            traced_s, traced_results = campaign({"sim_tracer": Tracer()})
        bare_best = min(bare_best, bare_s)
        traced_best = min(traced_best, traced_s)
        # Observation, not perturbation: identical physics either way.
        snapshot = [dataclasses.asdict(r) for r in traced_results]
        if reference is None:
            reference = [dataclasses.asdict(r) for r in bare_results]
        assert snapshot == reference
    return bare_best, traced_best


def test_noop_tracer_overhead(benchmark):
    bare_s, traced_s = run_once(benchmark, measure_tracer_overhead)
    overhead = traced_s / bare_s - 1.0

    body = "\n".join(
        [
            f"{BATCH_SEEDS}-seed AW-stall campaign, {BATCH_BUDGET}-cycle"
            f" budget, best of {TRACER_REPEATS}",
            "harness            | wall clock | overhead",
            "-------------------+------------+---------",
            f"bare               | {1000 * bare_s:7.1f} ms |    —",
            f"no-op Tracer       | {1000 * traced_s:7.1f} ms | {100 * overhead:+6.1f}%",
        ]
    )
    report("Kernel tracing: no-op tracer overhead on the stall campaign", body)
    record_json(
        "tracer_noop_overhead",
        {
            "runs": BATCH_SEEDS,
            "budget_cycles": BATCH_BUDGET,
            "bare_seconds": bare_s,
            "traced_seconds": traced_s,
            "overhead_fraction": overhead,
        },
    )

    # Acceptance bar: the base (cycle-tier) tracer costs at most 5% —
    # leaped cycles never touch the tracer, and stepped cycles pay two
    # attribute-lookup calls.
    assert overhead <= 0.05
