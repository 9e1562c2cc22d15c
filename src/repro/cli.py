"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro area --variant tiny --outstanding 32 --step 32
    python -m repro inject --variant full --stage wlast_bvalid_error
    python -m repro fig7
    python -m repro fig8 --variant tiny
    python -m repro fig11 --workers 4
    python -m repro table2
    python -m repro campaign --kind ip --workers 4 --seeds 2 --progress

Every campaign runs its seeds in lockstep packs (one scalar leader per
pack of one config and stage; byte-identical to scalar runs, which
``--batch-lanes 1`` gives), with or without ``--workers``::

    python -m repro fig11 --seeds 64
    python -m repro campaign --kind ip --seeds 64 --batch-verify --progress

Run-granular result store (incremental reuse across overlapping
sweeps: a superset campaign simulates only its frontier; re-running a
killed campaign with the same --store resumes it)::

    python -m repro campaign --kind system --seeds 4 --store results/
    python -m repro campaign --kind system --seeds 8 --store results/
    python -m repro store stats results/

Telemetry (all opt-in; never changes a result).  ``--telemetry`` writes
the campaign's event counters (runs, store hits, derived lanes), which
are the same whatever the executor or worker count::

    python -m repro inject --stage wlast_bvalid_error --trace trace.json
    python -m repro campaign --kind ip --telemetry telemetry.json
    python -m repro report --telemetry telemetry.json
    python -m repro --log-level info campaign --kind ip --progress
"""

from __future__ import annotations

import argparse
import collections
import json
import sys
from pathlib import Path
from typing import List, Optional

from .analysis.export import outcome_counts, write_campaign_json
from .analysis.report import render_series, render_table
from .area.gf12 import REFERENCE_PRESCALE_STEP
from .area.model import estimate_area, prescaler_saving
from .axi.types import axsize_of
from .baselines.features import TABLE2_COLUMNS, table2_profiles
from .faults.campaign import measure_stall_detection_latency, run_campaign
from .faults.types import FIG9_WRITE_STAGES, InjectionStage
from .orchestrate import CampaignSpec, default_workers, run_campaign_spec
from .orchestrate.spec import validate_axes
from .soc.experiment import FIG11_LABELS, FIG11_STAGES, run_fig11
from .telemetry import (
    KernelTracer,
    read_telemetry,
    setup_logging,
    write_chrome_trace,
    write_telemetry,
)
from .tmu.budget import AdaptiveBudgetPolicy, PhaseBudgets, SpanBudgets
from .tmu.config import TmuConfig, Variant


def _variant(value: str) -> Variant:
    try:
        return Variant(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"variant must be 'tiny' or 'full', got {value!r}"
        )


def _positive_int(value: str) -> int:
    count = int(value)
    if count <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}")
    return count


def _narrow_bytes(value: str) -> int:
    width = int(value)
    if width not in (1, 2, 4, 8):
        raise argparse.ArgumentTypeError(
            f"--narrow must be a power-of-two beat width up to the "
            f"8-byte bus (1/2/4/8), got {value!r}"
        )
    return width


def _stage(value: str) -> InjectionStage:
    try:
        return InjectionStage(value)
    except ValueError:
        choices = ", ".join(stage.value for stage in InjectionStage)
        raise argparse.ArgumentTypeError(
            f"unknown stage {value!r}; choose from: {choices}"
        )


def _usage_error(exc: Exception) -> int:
    """Report a rejected campaign axis the way argparse reports its own."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _check_run_args(args) -> None:
    """Reject, before anything simulates, a bad ``REPRO_WORKERS``, an
    output path the run could not honour, or a trace of a process pool
    (``ValueError``)."""
    workers = default_workers() if args.workers is None else args.workers
    if getattr(args, "trace", None) is not None and workers > 1:
        raise ValueError(
            f"--trace with {workers} workers: a trace records this "
            f"process; drop --workers"
        )
    for flag, attr in (("--json", "json_out"), ("--telemetry", "telemetry"),
                       ("--trace", "trace")):
        path = getattr(args, attr, None)
        if path is None:
            continue
        if Path(path).is_dir():
            raise ValueError(f"{flag} {path} is a directory, not a file")
        if not Path(path).parent.is_dir():
            raise ValueError(
                f"{flag} {path}: directory {Path(path).parent} does not exist"
            )


def cmd_area(args) -> int:
    report = estimate_area(
        args.variant, args.outstanding, args.step, sticky=not args.no_sticky
    )
    rows = [[name, f"{value:.1f}"] for name, value in report.breakdown().items()]
    print(
        render_table(
            ["component", "um^2"],
            rows,
            title=(
                f"{args.variant.value} TMU, {args.outstanding} outstanding, "
                f"prescale step {args.step} (GF12 model)"
            ),
        )
    )
    return 0


def cmd_inject(args) -> int:
    try:
        _check_run_args(args)
        validate_axes("ip", args.beats)
    except ValueError as exc:
        return _usage_error(exc)
    config = TmuConfig(variant=args.variant)
    stages = args.stages or [InjectionStage.WLAST_TO_BVALID]
    # A live tracer rides into every harness the in-process executor
    # builds (_check_run_args has refused a pool), so the traced
    # campaign does the work an untraced one does.
    tracer = KernelTracer() if args.trace else None
    harness_kwargs = {"sim_tracer": tracer} if tracer is not None else None
    results = run_campaign(
        [config], stages, beats=args.beats, workers=args.workers,
        harness_kwargs=harness_kwargs,
    )
    if len(stages) == 1 and (args.workers or 1) <= 1:
        result = results[0]
        rows = [
            ["detected", result.detected],
            ["latency from injection", result.latency_from_injection],
            ["latency from txn start", result.latency_from_start],
            ["fault kind", result.fault_kind],
            ["attributed phase", result.fault_phase],
            ["recovered", result.recovered],
            ["subordinate resets", result.resets_taken],
        ]
        print(
            render_table(
                ["metric", "value"],
                rows,
                title=f"{stages[0].value} on {args.variant.value}, {args.beats} beats",
            )
        )
    else:
        # Several stages (or an explicit worker count): one row each.
        rows = [
            [
                result.stage.value,
                result.detected,
                result.latency_from_injection,
                result.latency_from_start,
                result.recovered,
            ]
            for result in results
        ]
        print(
            render_table(
                ["stage", "detected", "lat(inject)", "lat(start)", "recovered"],
                rows,
                title=f"{len(results)} injections on {args.variant.value}, "
                f"{args.beats} beats",
            )
        )
    code = 0 if all(r.detected and r.recovered for r in results) else 1
    if tracer is not None:
        write_chrome_trace(tracer, args.trace)
        print(f"wrote {args.trace}", file=sys.stderr)
    return code


def cmd_fig7(args) -> int:
    capacities = [1, 2, 4, 8, 16, 32, 64, 128]
    series = []
    for variant, label in ((Variant.TINY, "Tc"), (Variant.FULL, "Fc")):
        series.append(
            (label, [estimate_area(variant, n).total_um2 for n in capacities])
        )
        series.append(
            (
                f"{label}+Pre",
                [
                    estimate_area(
                        variant, n, REFERENCE_PRESCALE_STEP, sticky=True
                    ).total_um2
                    for n in capacities
                ],
            )
        )
    print(
        render_series(
            "outstanding",
            capacities,
            series,
            title="Fig. 7: area [um^2] vs outstanding transactions",
        )
    )
    for variant, label in ((Variant.TINY, "Tc"), (Variant.FULL, "Fc")):
        save16 = prescaler_saving(variant, 16) * 100
        save32 = prescaler_saving(variant, 32) * 100
        print(f"{label} prescaler saving @16/32 outstanding: "
              f"{save16:.1f}% / {save32:.1f}%")
    return 0


def cmd_fig8(args) -> int:
    steps = [1, 2, 4, 8, 16, 32, 64, 128]
    budget = args.budget
    budgets = AdaptiveBudgetPolicy(
        PhaseBudgets(aw_handshake=budget), SpanBudgets(base=budget, per_beat=0)
    )
    areas, latencies = [], []
    for step in steps:
        areas.append(
            estimate_area(
                args.variant, 128, step, sticky=True, budget_cycles=budget
            ).total_um2
        )
        config = TmuConfig(
            variant=args.variant,
            max_uniq_ids=4,
            txn_per_id=32,
            prescale_step=step,
            budgets=budgets,
            max_txn_cycles=budget,
        )
        latencies.append(
            measure_stall_detection_latency(config, offsets=range(min(step, 8)))
        )
    print(
        render_series(
            "step",
            steps,
            [("area_um2", areas), ("worst_detect_latency", latencies)],
            title=(
                f"Fig. 8 ({args.variant.value}): 128 outstanding, "
                f"{budget}-cycle budget, total stall"
            ),
        )
    )
    return 0


def cmd_fig11(args) -> int:
    seeds = tuple(range(args.seeds))
    axes = _dark_corner_kwargs(args)
    try:
        _check_run_args(args)
        CampaignSpec.system(
            (Variant.FULL, Variant.TINY), FIG11_STAGES, seeds=seeds, **axes
        )
    except ValueError as exc:
        return _usage_error(exc)
    metrics = collections.Counter() if args.telemetry else None
    series = run_fig11(
        workers=args.workers,
        seeds=seeds,
        batch_lanes=args.batch_lanes,
        batch_verify=args.batch_verify,
        metrics=metrics,
        store=args.store,
        **axes,
    )
    if metrics is not None:
        write_telemetry(metrics, args.telemetry)
        print(f"wrote {args.telemetry}", file=sys.stderr)
    rows = []
    for i, label in enumerate(FIG11_LABELS):
        # Series are stage-major then seed: the table quotes seed 0, the
        # figure's canonical phase; the counts below cover every seed.
        fc = series[Variant.FULL.value][i * len(seeds)]
        tc = series[Variant.TINY.value][i * len(seeds)]
        rows.append(
            [label, fc.fig11_latency, tc.latency_from_start,
             "ok" if fc.recovered and tc.recovered else "FAILED"]
        )
    print(
        render_table(
            ["stage", "Fc latency", "Tc latency", "recovery"],
            rows,
            title="Fig. 11: system-level detection latency (250-beat frame)",
        )
    )
    counts = [outcome_counts(results) for results in series.values()]
    runs, detected, recovered = (sum(column) for column in zip(*counts))
    print(f"{runs} runs | {detected} detected | {recovered} recovered")
    return 0 if detected == recovered == runs else 1


def _campaign_spec(args) -> CampaignSpec:
    variants = args.variants or [Variant.FULL, Variant.TINY]
    axes = _dark_corner_kwargs(args)
    if args.kind == "system":
        stages = args.stages or list(FIG11_STAGES)
        return CampaignSpec.system(
            variants,
            stages,
            beats=args.beats if args.beats is not None else 250,
            seeds=range(args.seeds),
            background=args.background,
            **axes,
        )
    stages = args.stages or list(FIG9_WRITE_STAGES)
    return CampaignSpec.ip(
        [TmuConfig(variant=variant) for variant in variants],
        stages,
        beats=args.beats if args.beats is not None else 8,
        seeds=range(args.seeds),
        **axes,
    )


def cmd_campaign(args) -> int:
    try:
        _check_run_args(args)
        spec = _campaign_spec(args)
    except ValueError as exc:
        return _usage_error(exc)
    metrics = collections.Counter() if args.telemetry else None
    results = run_campaign_spec(
        spec,
        workers=args.workers,
        shard_size=args.shard_size,
        progress=args.progress,
        batch_lanes=args.batch_lanes,
        batch_verify=args.batch_verify,
        metrics=metrics,
        store=args.store,
    )
    if metrics is not None:
        write_telemetry(metrics, args.telemetry)
        print(f"wrote {args.telemetry}", file=sys.stderr)
    if args.json_out:
        # Streamed writer: byte-identical to to_json(campaign_dict(...))
        # but never materializes the export dict.  Written before the
        # table, which materializes every derived lane.
        with open(args.json_out, "w") as stream:
            write_campaign_json(results, stream, spec=spec)
    rows = [
        [
            run.run_id,
            result.detected,
            result.latency_from_injection,
            result.latency_from_start,
            result.recovered,
        ]
        for run, result in zip(spec.runs(), results)
    ]
    print(
        render_table(
            ["run", "detected", "lat(inject)", "lat(start)", "recovered"],
            rows,
            title=(
                f"{args.kind} campaign: {len(spec.configs)} config(s) x "
                f"{len(spec.stages)} stage(s) x {len(spec.seeds)} seed(s)"
            ),
        )
    )
    runs, detected, recovered = outcome_counts(results)
    print(f"{runs} runs | {detected} detected | {recovered} recovered")
    if args.json_out:
        print(f"wrote {args.json_out}")
    return 0 if detected == recovered == runs else 1


def cmd_report(args) -> int:
    """Print a ``telemetry.json`` artifact's counters as a table."""
    try:
        metrics = read_telemetry(args.telemetry)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    counters = metrics.get("counters", {})
    if not counters:
        print("telemetry file carries no counters")
        return 0
    rows = [[name, value] for name, value in sorted(counters.items())]
    print(render_table(["counter", "count"], rows, title="counters"))
    return 0


def cmd_store_stats(args) -> int:
    """Point-in-time accounting of a result store's tiers."""
    from .orchestrate.store import ResultStore

    with ResultStore.open(args.root) as store:
        stats = store.stats()
    if args.json_output:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    rows = [[key, value] for key, value in stats.items()]
    print(render_table(["field", "value"], rows, title=f"store {args.root}"))
    return 0


def cmd_table2(args) -> int:
    print(
        render_table(
            TABLE2_COLUMNS,
            [profile.row() for profile in table2_profiles()],
            title="Table II: comparison of AXI transaction monitors",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AXI4 TMU reproduction: run the paper's experiments",
    )
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default=None,
        help="configure the 'repro' package logger at this level "
        "(default: logging untouched)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log records as JSON lines instead of text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_area = sub.add_parser("area", help="GF12 area estimate for a TMU config")
    p_area.add_argument("--variant", type=_variant, default=Variant.TINY)
    p_area.add_argument("--outstanding", type=_positive_int, default=32)
    p_area.add_argument("--step", type=_positive_int, default=1)
    p_area.add_argument("--no-sticky", action="store_true")
    p_area.set_defaults(func=cmd_area)

    p_inject = sub.add_parser("inject", help="run fault injections")
    p_inject.add_argument("--variant", type=_variant, default=Variant.FULL)
    p_inject.add_argument(
        "--stage",
        type=_stage,
        action="append",
        dest="stages",
        help="injection stage; repeatable (default: wlast_bvalid_error)",
    )
    p_inject.add_argument("--beats", type=int, default=8)
    p_inject.add_argument(
        "--workers", type=_positive_int, default=None,
        help="process count for multi-stage sweeps (default: REPRO_WORKERS or 1)",
    )
    p_inject.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record the simulation schedule as a Chrome trace-event "
        "JSON (load in Perfetto / chrome://tracing)",
    )
    p_inject.set_defaults(func=cmd_inject)

    p_fig7 = sub.add_parser("fig7", help="area scaling sweep")
    p_fig7.set_defaults(func=cmd_fig7)

    p_fig8 = sub.add_parser("fig8", help="prescaler area/latency trade-off")
    p_fig8.add_argument("--variant", type=_variant, default=Variant.FULL)
    p_fig8.add_argument("--budget", type=_positive_int, default=256)
    p_fig8.set_defaults(func=cmd_fig8)

    p_fig11 = sub.add_parser("fig11", help="system-level latency series")
    p_fig11.add_argument(
        "--workers", type=_positive_int, default=None,
        help="shard the sweep over N processes (default: REPRO_WORKERS or 1)",
    )
    _add_store_arg(p_fig11)
    p_fig11.add_argument(
        "--seeds", type=_positive_int, default=1,
        help="start-delay phase offsets 0..N-1 per (variant, stage) point",
    )
    p_fig11.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="write campaign event counters (telemetry.json) here; print "
        "them with: repro report --telemetry PATH",
    )
    _add_dark_corner_axes(p_fig11)
    _add_batch_args(p_fig11)
    p_fig11.set_defaults(func=cmd_fig11)

    p_table2 = sub.add_parser("table2", help="monitor comparison matrix")
    p_table2.set_defaults(func=cmd_table2)

    p_campaign = sub.add_parser(
        "campaign", help="sharded fault-injection sweep (configs x stages x seeds)"
    )
    _add_campaign_axes(p_campaign)
    p_campaign.add_argument(
        "--workers", type=_positive_int, default=None,
        help="process count (default: REPRO_WORKERS or 1)",
    )
    _add_batch_args(p_campaign)
    p_campaign.set_defaults(func=cmd_campaign)

    p_store = sub.add_parser(
        "store",
        help="result-store maintenance: stats",
        description=(
            "Inspect a run-granular result store (the hot/warm tiers "
            "behind --store)."
        ),
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_stats = store_sub.add_parser(
        "stats", help="report a store's row counts, size and tiers"
    )
    p_stats.add_argument("root", help="store directory")
    p_stats.add_argument(
        "--json", dest="json_output", action="store_true",
        help="print the stats as JSON instead of a table",
    )
    p_stats.set_defaults(func=cmd_store_stats)

    p_report = sub.add_parser(
        "report",
        help="print the counters of a campaign telemetry file",
        description=(
            "Print the event counters a campaign recorded with "
            "--telemetry as a table."
        ),
    )
    p_report.add_argument(
        "--telemetry", required=True, metavar="PATH",
        help="telemetry.json written by campaign/fig11 --telemetry",
    )
    p_report.set_defaults(func=cmd_report)

    return parser


def _add_campaign_axes(parser: argparse.ArgumentParser) -> None:
    """The sweep axes and output options of the campaign command."""
    parser.add_argument("--kind", choices=("ip", "system"), default="ip")
    parser.add_argument(
        "--variant", type=_variant, action="append", dest="variants",
        help="TMU variant; repeatable (default: both)",
    )
    parser.add_argument(
        "--stage", type=_stage, action="append", dest="stages",
        help="injection stage; repeatable (default: the figure's stage list)",
    )
    parser.add_argument(
        "--beats", type=int, default=None,
        help="burst length (default: 8 for ip, 250 for system)",
    )
    parser.add_argument(
        "--seeds", type=_positive_int, default=1,
        help="phase-offset seeds 0..N-1 per (config, stage) point",
    )
    parser.add_argument(
        "--background", type=int, default=0,
        help="background CVA6 transactions (system campaigns)",
    )
    _add_dark_corner_axes(parser)
    parser.add_argument(
        "--shard-size", type=_positive_int, default=1,
        help="points (the seeds of one config and stage, not runs) per "
        "process-pool task with --workers > 1 (default 1); fewer points "
        "than workers are cut into seed slices first; larger tasks "
        "amortize pickling for very short runs",
    )
    _add_store_arg(parser)
    parser.add_argument(
        "--json", dest="json_out", default=None,
        help="also export the full campaign to this JSON file",
    )
    parser.add_argument(
        "--progress", action="store_true", help="live progress/ETA on stderr"
    )
    parser.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="write campaign event counters (telemetry.json) here; print "
        "them with: repro report --telemetry PATH",
    )


def _add_dark_corner_axes(parser: argparse.ArgumentParser) -> None:
    """The AXI dark-corner sweep axes: narrow, outstanding, reorder."""
    parser.add_argument(
        "--narrow", type=_narrow_bytes, default=None, metavar="BYTES",
        help="bytes per beat (1/2/4/8): narrow the workload's AxSIZE "
        "below the 8-byte bus (default: full-width)",
    )
    parser.add_argument(
        "--outstanding", type=_positive_int, default=1,
        help="concurrent outstanding transactions in the workload "
        "(default 1 = the legacy single-stream shape)",
    )
    parser.add_argument(
        "--reorder-depth", type=int, default=0,
        help="subordinate response reorder window: complete B/R "
        "responses out of request order within the first N queued "
        "(0/1 = strict in-order)",
    )


def _dark_corner_kwargs(args) -> dict:
    """size/outstanding/reorder_depth kwargs from parsed dark-corner args."""
    return {
        "size": 3 if args.narrow is None else axsize_of(args.narrow),
        "outstanding": args.outstanding,
        "reorder_depth": args.reorder_depth,
    }


def _add_store_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="run-granular result store: runs any earlier campaign "
        "already simulated are fetched instead of re-run (a superset "
        "sweep executes only its frontier; re-running a killed campaign "
        "with the same store resumes it)",
    )


def _add_batch_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--batch-lanes", type=_positive_int, default=None,
        help="cap the lockstep packs at N seed lanes (default: no cap; "
        "each pack derives its followers from one scalar leader run, "
        "byte-identical results; 1 runs every run scalar)",
    )
    parser.add_argument(
        "--batch-verify", action="store_true",
        help="replay every derived lane on the scalar verify kernel and "
        "fail loudly on any divergence",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level or args.log_json:
        setup_logging(args.log_level or "warning", json_lines=args.log_json)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
