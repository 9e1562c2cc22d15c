"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.faults.types import InjectionStage
from repro.telemetry import read_telemetry
from repro.tmu.config import Variant


def test_area_command(capsys):
    assert main(["area", "--variant", "tiny", "--outstanding", "32"]) == 0
    out = capsys.readouterr().out
    assert "2616.0" in out  # paper anchor for Tc @ 32
    assert "tiny TMU, 32 outstanding" in out


def test_area_with_prescaler(capsys):
    assert main(["area", "--variant", "full", "--outstanding", "16", "--step", "32"]) == 0
    out = capsys.readouterr().out
    assert "prescaler" in out
    assert "sticky" in out


def test_inject_command_success(capsys):
    code = main(["inject", "--variant", "full", "--stage", "aw_stage_error"])
    assert code == 0
    out = capsys.readouterr().out
    assert "AWVLD_AWRDY" in out
    assert "True" in out


def test_inject_tiny_variant(capsys):
    code = main(["inject", "--variant", "tiny", "--stage", "wlast_bvalid_error"])
    assert code == 0
    out = capsys.readouterr().out
    assert "AWVALID_BRESP" in out


def test_inject_rejects_unknown_stage(capsys):
    with pytest.raises(SystemExit):
        main(["inject", "--stage", "nonsense"])
    choices = ", ".join(stage.value for stage in InjectionStage)
    assert capsys.readouterr().err.endswith(
        f"argument --stage: unknown stage 'nonsense'; choose from: {choices}\n"
    )


def test_rejects_unknown_variant(capsys):
    with pytest.raises(SystemExit):
        main(["area", "--variant", "medium"])
    assert capsys.readouterr().err.endswith(
        "argument --variant: variant must be 'tiny' or 'full', got 'medium'\n"
    )


def test_parsed_variants_and_stages_are_enum_members():
    # The --variant defaults are strings; argparse passes a string
    # default through the option's converter, so the parsed default is
    # the enum member, as a given value is.
    parser = build_parser()
    assert parser.parse_args(["area"]).variant is Variant.TINY
    assert parser.parse_args(["inject"]).variant is Variant.FULL
    assert parser.parse_args(["fig8"]).variant is Variant.FULL
    args = parser.parse_args(
        ["inject", "--stage", "aw_stage_error", "--stage", "wlast_bvalid_error"]
    )
    assert args.stages == [InjectionStage.AW_READY_MISSING,
                           InjectionStage.WLAST_TO_BVALID]


def test_fig7_command(capsys):
    assert main(["fig7"]) == 0
    out = capsys.readouterr().out
    assert "Tc+Pre" in out and "Fc+Pre" in out
    assert "1330.0" in out and "6787.0" in out


def test_fig8_command(capsys):
    assert main(["fig8", "--variant", "tiny", "--budget", "64"]) == 0
    out = capsys.readouterr().out
    assert "worst_detect_latency" in out


def test_table2_command(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "This work: Full-Counter" in out
    assert "Xilinx AXI Timeout" in out


def test_inject_multi_stage_sweep(capsys):
    code = main(
        ["inject", "--variant", "full",
         "--stage", "aw_stage_error", "--stage", "wlast_bvalid_error",
         "--workers", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2 injections on full" in out
    assert "aw_stage_error" in out and "wlast_bvalid_error" in out


def test_campaign_command_sharded(capsys, tmp_path):
    args = [
        "campaign", "--kind", "ip", "--variant", "full",
        "--stage", "aw_stage_error", "--stage", "wlast_bvalid_error",
        "--beats", "4", "--workers", "2",
        "--store", str(tmp_path / "store"),
        "--json", str(tmp_path / "campaign.json"),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "2 runs | 2 detected | 2 recovered" in out
    # One row per point: variant, stage, runs, detected, recovered and
    # the latency minimum, median and maximum.
    assert table_rows(out) == [
        ["full", "aw_stage_error", "1", "1", "1", "16", "16", "16"],
        ["full", "wlast_bvalid_error", "1", "1", "1", "32", "32", "32"],
    ]
    assert (tmp_path / "campaign.json").exists()
    # Second invocation is served from the store, byte-identically.
    assert main(args[:-2]) == 0
    assert capsys.readouterr().out == out.replace(
        f"wrote {tmp_path / 'campaign.json'}\n", ""
    )


def table_rows(out):
    """The cells of the rows of the table *out* prints."""
    lines = out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("variant"))
    rows = []
    for line in lines[header + 2 :]:
        if " runs | " in line:
            return rows
        rows.append([cell.strip() for cell in line.split(" | ")])
    raise AssertionError(f"no summary line in {out!r}")


def test_campaign_system_kind(capsys):
    code = main(
        ["campaign", "--kind", "system", "--variant", "full",
         "--stage", "aw_stage_error", "--beats", "16"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert table_rows(out) == [
        ["full", "aw_stage_error", "1", "1", "1", "10", "10", "10"],
    ]


def test_campaign_table_has_one_row_per_point(capsys):
    # Eight seeds: seeds 0 and 1 retire, seed 2 leads, five lanes are
    # derived, and each point is still one row.
    code = main(
        ["campaign", "--kind", "system", "--stage", "aw_stage_error",
         "--stage", "w_stage_timeout", "--beats", "16", "--seeds", "8"]
    )
    assert code == 0
    out = capsys.readouterr().out
    rows = table_rows(out)
    assert [row[:5] for row in rows] == [
        [variant, stage, "8", "8", "8"]
        for variant in ("full", "tiny")
        for stage in ("aw_stage_error", "w_stage_timeout")
    ]
    assert "32 runs | 32 detected | 32 recovered" in out


def test_fig11_workers_flag_matches_serial(capsys):
    assert main(["fig11"]) == 0
    serial = capsys.readouterr().out
    assert "12 runs | 12 detected | 12 recovered" in serial
    assert main(["fig11", "--workers", "2"]) == 0
    assert capsys.readouterr().out == serial


def _fig11_series(seeds, unrecovered):
    """Fig. 11 series over *seeds* where only the run *unrecovered*
    (variant, stage index, seed) fails to recover."""
    from repro.soc.experiment import FIG11_STAGES, SystemInjectionResult

    return {
        variant: [
            SystemInjectionResult(
                stage=stage, variant=variant, txn_start_cycle=seed,
                inject_cycle=seed + 5, w_first_cycle=seed + 2,
                detect_cycle=seed + 15, fault_phase=None, fault_kind=None,
                ethernet_resets=1, cpu_recoveries=1,
                recovered=(variant, index, seed) != unrecovered,
            )
            for index, stage in enumerate(FIG11_STAGES)
            for seed in range(seeds)
        ]
        for variant in ("full", "tiny")
    }


@pytest.mark.parametrize(
    "unrecovered, failed_row",
    [(("tiny", 2, 0), True), (("full", 4, 3), False)],
    ids=["seed-0", "seed-3"],
)
def test_fig11_exits_1_when_any_run_is_unrecovered(
    capsys, monkeypatch, unrecovered, failed_row
):
    # The table quotes seed 0 alone, but the exit status and the counts
    # line cover every seed of both series.  The handler imports
    # run_fig11 when it runs, so the patch goes on its defining module.
    import repro.soc.experiment

    monkeypatch.setattr(
        repro.soc.experiment, "run_fig11",
        lambda seeds, **kwargs: _fig11_series(len(seeds), unrecovered),
    )
    assert main(["fig11", "--seeds", "4"]) == 1
    out = capsys.readouterr().out
    assert ("FAILED" in out) is failed_row
    assert "48 runs | 48 detected | 47 recovered" in out


def test_campaign_resume_flags(capsys, tmp_path):
    """Resume is the same command with the same --store: no extra flag."""
    import json

    base = [
        "campaign", "--kind", "ip", "--variant", "full",
        "--stage", "aw_stage_error", "--beats", "4",
        "--store", str(tmp_path / "store"),
    ]
    assert main(base) == 0
    telemetry = tmp_path / "telemetry.json"
    assert main(base + ["--telemetry", str(telemetry)]) == 0
    counters = json.loads(telemetry.read_text())["metrics"]["counters"]
    assert counters["store.reused_runs"] == 1
    assert counters.get("campaign.runs_executed", 0) == 0


@pytest.mark.parametrize(
    "argv, message, env",
    [
        (["campaign", "--kind", "ip", "--beats", "0"], "beats must be at least 1",
         {}),
        (["campaign", "--kind", "ip", "--beats", "300"], "at most 256", {}),
        (["campaign", "--kind", "system", "--beats", "0"],
         "beats must be at least 1", {}),
        (["campaign", "--reorder-depth", "-1"],
         "reorder_depth must be at least 0", {}),
        (["fig11", "--reorder-depth", "-1"],
         "reorder_depth must be at least 0", {}),
        (["inject", "--beats", "0"], "beats must be at least 1", {}),
        (["campaign", "--kind", "system", "--beats", "16", "--background", "-1"],
         "background must be at least 0", {}),
        (["campaign", "--kind", "system", "--stage", "r_stage_timeout"],
         "read-path stages never manifest: r_stage_timeout", {}),
        (["campaign", "--beats", "4", "--shard-size", "0"],
         "expected a positive integer", {}),
        (["campaign", "--beats", "4", "--shard-size", "-1"],
         "expected a positive integer", {}),
        (["campaign", "--beats", "4", "--workers", "-2"],
         "expected a positive integer", {}),
        (["fig11", "--workers", "-2"], "expected a positive integer", {}),
        (["inject", "--workers", "-2"], "expected a positive integer", {}),
        (["area", "--step", "0"], "expected a positive integer", {}),
        (["area", "--outstanding", "0"], "expected a positive integer", {}),
        (["area", "--outstanding", "-4"], "expected a positive integer", {}),
        (["fig8", "--budget", "0"], "expected a positive integer", {}),
        (["fig8", "--budget", "-1"], "expected a positive integer", {}),
        (["campaign", "--beats", "4"],
         "REPRO_WORKERS must be a positive integer, got '0'",
         {"REPRO_WORKERS": "0"}),
        (["campaign", "--beats", "4"],
         "REPRO_WORKERS must be a positive integer, got 'abc'",
         {"REPRO_WORKERS": "abc"}),
        (["fig11"], "REPRO_WORKERS must be a positive integer, got '0'",
         {"REPRO_WORKERS": "0"}),
        (["fig11"], "REPRO_WORKERS must be a positive integer, got 'abc'",
         {"REPRO_WORKERS": "abc"}),
        (["inject"], "REPRO_WORKERS must be a positive integer, got '0'",
         {"REPRO_WORKERS": "0"}),
        (["inject", "--stage", "aw_stage_error", "--stage", "wlast_bvalid_error"],
         "REPRO_WORKERS must be a positive integer, got 'abc'",
         {"REPRO_WORKERS": "abc"}),
        (["campaign", "--beats", "4", "--json", "no-such-dir/out.json"],
         "--json no-such-dir/out.json: directory no-such-dir does not exist",
         {}),
        (["campaign", "--beats", "4", "--telemetry", "no-such-dir/t.json"],
         "--telemetry no-such-dir/t.json: directory no-such-dir does not exist",
         {}),
        (["fig11", "--telemetry", "no-such-dir/t.json"],
         "--telemetry no-such-dir/t.json: directory no-such-dir does not exist",
         {}),
        (["inject", "--trace", "no-such-dir/trace.json"],
         "--trace no-such-dir/trace.json: directory no-such-dir does not exist",
         {}),
        (["campaign", "--beats", "4", "--json", "."],
         "--json . is a directory, not a file", {}),
        (["inject", "--trace", "t.json", "--workers", "2"],
         "a trace records this process; drop --workers", {}),
        (["inject", "--trace", "t.json", "--workers", "2",
          "--stage", "aw_stage_error", "--stage", "wlast_bvalid_error"],
         "a trace records this process; drop --workers", {}),
        (["inject", "--trace", "t.json"],
         "a trace records this process; drop --workers",
         {"REPRO_WORKERS": "2"}),
    ],
    ids=["ip-beats-0", "ip-beats-300", "system-beats-0", "campaign-reorder",
         "fig11-reorder", "inject-beats-0", "system-background-neg",
         "system-read-stage",
         "shard-size-0", "shard-size-neg", "campaign-workers-neg",
         "fig11-workers-neg", "inject-workers-neg",
         "area-step-0", "area-outstanding-0", "area-outstanding-neg",
         "fig8-budget-0", "fig8-budget-neg",
         "campaign-env-workers-0", "campaign-env-workers-abc",
         "fig11-env-workers-0", "fig11-env-workers-abc",
         "inject-env-workers-0", "inject-env-workers-abc",
         "campaign-json-missing-dir", "campaign-telemetry-missing-dir",
         "fig11-telemetry-missing-dir", "inject-trace-missing-dir",
         "campaign-json-is-dir", "inject-trace-workers",
         "inject-trace-workers-two-stages", "inject-trace-env-workers"],
)
def test_bad_campaign_axis_is_a_usage_error(capsys, monkeypatch, argv, message,
                                            env):
    # Axis validation reports "error: ..." and returns 2; argparse type
    # checks print usage plus "prog: error: ..." and exit 2.  Both happen
    # before anything simulates.
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith(("error: ", "usage: "))
    last = err.strip().splitlines()[-1]
    assert "error: " in last and message in last
    assert "Traceback" not in err


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


# ----------------------------------------------------------------------
# Telemetry surfaces: --trace, --telemetry, report, --log-level
# ----------------------------------------------------------------------
def test_inject_trace_writes_perfetto_json(tmp_path, capsys):
    import json

    trace = tmp_path / "trace.json"
    code = main(["inject", "--stage", "wlast_bvalid_error",
                 "--trace", str(trace)])
    assert code == 0
    assert f"wrote {trace}" in capsys.readouterr().err
    data = json.loads(trace.read_text())
    assert {"traceEvents", "displayTimeUnit", "otherData"} <= set(data)
    names = {e["name"] for e in data["traceEvents"]}
    assert "leap" in names  # the stall fast-forward is on the timeline


def test_inject_trace_does_not_change_results(capsys, tmp_path):
    assert main(["inject", "--stage", "wlast_bvalid_error"]) == 0
    untraced = capsys.readouterr().out
    trace = tmp_path / "trace.json"
    assert main(["inject", "--stage", "wlast_bvalid_error",
                 "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == untraced


def test_campaign_telemetry_and_report(tmp_path, capsys):
    telemetry = tmp_path / "telemetry.json"
    assert main(["campaign", "--kind", "ip", "--variant", "full",
                 "--stage", "aw_stage_error", "--beats", "4",
                 "--telemetry", str(telemetry)]) == 0
    capsys.readouterr()
    assert telemetry.exists()
    assert main(["report", "--telemetry", str(telemetry)]) == 0
    out = capsys.readouterr().out
    assert "campaign.runs" in out and "counters" in out
    # Counters only: every value is a function of the campaign alone.
    assert list(read_telemetry(telemetry)) == ["counters"]


def test_campaign_telemetry_does_not_change_export(tmp_path, capsys):
    base = ["campaign", "--kind", "ip", "--variant", "full",
            "--stage", "aw_stage_error", "--beats", "4"]
    plain = tmp_path / "plain.json"
    tele = tmp_path / "tele.json"
    assert main(base + ["--json", str(plain)]) == 0
    assert main(base + ["--json", str(tele),
                        "--telemetry", str(tmp_path / "t.json")]) == 0
    assert plain.read_text() == tele.read_text()


def test_report_rejects_non_telemetry_file(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"not": "telemetry"}')
    assert main(["report", "--telemetry", str(bogus)]) == 2
    assert "error:" in capsys.readouterr().err


def test_log_level_flag_configures_repro_logger(capsys):
    import logging

    logger = logging.getLogger("repro")
    saved = (list(logger.handlers), logger.level, logger.propagate)
    try:
        assert main(["--log-level", "debug", "area", "--variant", "tiny"]) == 0
        assert logger.level == logging.DEBUG
        assert len(logger.handlers) == 1
        assert logger.propagate is False
    finally:
        logger.handlers = saved[0]
        logger.setLevel(saved[1])
        logger.propagate = saved[2]


def test_log_json_flag_emits_json_lines(capsys):
    import json
    import logging

    logger = logging.getLogger("repro")
    saved = (list(logger.handlers), logger.level, logger.propagate)
    try:
        assert main(["--log-level", "info", "--log-json",
                     "area", "--variant", "tiny"]) == 0
        logging.getLogger("repro.test").info("hello")
        line = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(line)["message"] == "hello"
    finally:
        logger.handlers = saved[0]
        logger.setLevel(saved[1])
        logger.propagate = saved[2]


# ----------------------------------------------------------------------
# Result store: --store, repro store stats
# ----------------------------------------------------------------------
CAMPAIGN_BASE = [
    "campaign", "--kind", "ip", "--variant", "full",
    "--stage", "aw_stage_error", "--stage", "wlast_bvalid_error",
    "--beats", "4",
]


def test_campaign_store_superset_reuses(capsys, tmp_path):
    import json

    store = str(tmp_path / "store")
    telemetry = str(tmp_path / "telemetry.json")
    assert main(CAMPAIGN_BASE + ["--seeds", "1", "--store", store]) == 0
    capsys.readouterr()
    assert main(CAMPAIGN_BASE + ["--seeds", "2", "--store", store,
                                 "--telemetry", telemetry]) == 0
    capsys.readouterr()
    with open(telemetry) as stream:
        counters = json.load(stream)["metrics"]["counters"]
    # One extra seed per stage: 2 frontier runs, 2 reused.
    assert counters["store.frontier_runs"] == 2
    assert counters["campaign.runs_executed"] == 2
    assert counters["store.reused_runs"] == 2


def test_campaign_store_json_matches_storeless(capsys, tmp_path):
    with_store = str(tmp_path / "with_store.json")
    without = str(tmp_path / "without.json")
    assert main(CAMPAIGN_BASE + ["--store", str(tmp_path / "store"),
                                 "--json", with_store]) == 0
    assert main(CAMPAIGN_BASE + ["--json", without]) == 0
    capsys.readouterr()
    with open(with_store) as left, open(without) as right:
        assert left.read() == right.read()


def test_store_stats_command(capsys, tmp_path):
    import json

    store = str(tmp_path / "store")
    assert main(CAMPAIGN_BASE + ["--store", store]) == 0
    capsys.readouterr()
    assert main(["store", "stats", store]) == 0
    out = capsys.readouterr().out
    assert "warm_rows" in out and "2" in out
    assert main(["store", "stats", store, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["warm_rows"] == 2


def test_store_stats_on_a_missing_store_is_a_usage_error(capsys, tmp_path):
    # Opening a store creates it: stats on a mistyped path must neither
    # create one nor report it as empty.
    missing = tmp_path / "no-such-store"
    assert main(["store", "stats", str(missing)]) == 2
    assert f"no result store at {missing}" in capsys.readouterr().err
    assert not missing.exists()


def test_campaign_artifacts_identical_across_hash_seeds_and_workers(tmp_path):
    # The campaign JSON and telemetry.json depend on the campaign alone:
    # not on str hashing (PYTHONHASHSEED) nor on the executor.
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    argv = ["campaign", "--kind", "ip", "--stage", "aw_stage_error",
            "--beats", "4", "--seeds", "4"]
    artifacts = []
    for name, hash_seed, extra in (("seed0", "0", []), ("seed1", "1", []),
                                   ("workers2", "0", ["--workers", "2"])):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        env.pop("REPRO_WORKERS", None)
        export = tmp_path / f"{name}.json"
        telemetry = tmp_path / f"{name}-telemetry.json"
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv, *extra,
             "--json", str(export), "--telemetry", str(telemetry)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        artifacts.append((export.read_bytes(), telemetry.read_bytes()))
    assert artifacts[0] == artifacts[1] == artifacts[2]
    # Lanes are the default on every executor: the pool's workers hand
    # back their batch counts, which the telemetry carries.
    counters = json.loads(artifacts[2][1])["metrics"]["counters"]
    assert counters["batch.packs"] > 0
    assert counters["batch.leaders"] + counters["batch.retired"] == 8


@pytest.mark.parametrize(
    "extra",
    [["--batch-lanes", "4", "--workers", "2"], ["--batch-verify"],
     ["--batch-verify", "--workers", "2"]],
    ids=["lanes-with-workers", "verify-alone", "verify-with-workers"],
)
def test_batch_flags_compose_with_workers(capsys, tmp_path, extra):
    # A width cap and the verify replay work alone and with a pool, and
    # export what the scalar width-1 run does.
    argv = ["campaign", "--kind", "ip", "--variant", "full",
            "--stage", "aw_stage_error", "--beats", "4", "--seeds", "4"]
    scalar, batched = tmp_path / "scalar.json", tmp_path / "batched.json"
    assert main(argv + ["--batch-lanes", "1", "--json", str(scalar)]) == 0
    assert main(argv + extra + ["--json", str(batched)]) == 0
    assert "4 runs | 4 detected | 4 recovered" in capsys.readouterr().out
    assert batched.read_bytes() == scalar.read_bytes()


def test_cli_start_up_does_not_import_numpy(tmp_path):
    """The start-up gate: a command imports what it runs.  Commands that
    simulate nothing load neither numpy nor the store's sqlite3, the
    pool's multiprocessing, the kernel or the orchestrator.  ``--help``
    loads neither the modules defining the parser's enums nor the
    ``dataclasses`` and ``inspect`` they pull in: the converters import
    their enum when they convert."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro
    from repro.telemetry.metrics import write_telemetry

    telemetry = tmp_path / "telemetry.json"
    write_telemetry({"runs": 1}, telemetry)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    # The probe's first argument names the modules it must not load.
    probe = (
        "import sys\n"
        "from repro.cli import main\n"
        "try:\n"
        "    code = main(sys.argv[2:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "heavy = sys.argv[1].split(',')\n"
        "sys.exit(' '.join(name for name in heavy if name in sys.modules)\n"
        "         or code)\n"
    )
    heavy = ["numpy", "sqlite3", "multiprocessing", "repro.sim",
             "repro.orchestrate"]
    parser_only = heavy + ["dataclasses", "inspect", "repro.faults.types",
                           "repro.tmu.config"]
    for argv, unloaded in (
        (["--help"], parser_only),
        (["area"], heavy),
        (["fig7"], heavy),
        (["table2"], heavy),
        (["report", "--telemetry", str(telemetry)], heavy),
    ):
        done = subprocess.run(
            [sys.executable, "-c", probe, ",".join(unloaded), *argv],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, (argv, done.stderr)


def test_deep_outstanding_drain_is_not_a_recovery_failure(capsys):
    # 16 outstanding 192-beat writes take ~3,000 cycles to drain after
    # detection; a fixed 2,000-cycle recovery budget used to report all
    # six injections as unrecovered and exit 1.
    argv = ["campaign", "--kind", "ip", "--beats", "192", "--outstanding", "16",
            "--variant", "full"]
    assert main(argv) == 0
    assert "6 detected | 6 recovered" in capsys.readouterr().out
