"""Tests for structured result export."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st
from tests.conftest import build_loop, fast_budgets

from repro.analysis.export import (
    area_report_dict,
    campaign_dict,
    injection_result_dict,
    perf_log_dict,
    row_json,
    scheduler_stats_dict,
    to_json,
)
from repro.area.model import estimate_area
from repro.axi.traffic import write_spec
from repro.faults.campaign import run_campaign, run_injection
from repro.faults.types import InjectionStage
from repro.tmu.config import Variant, full_config


def test_area_report_roundtrips_through_json():
    report = estimate_area(Variant.TINY, 32, 32, sticky=True)
    payload = area_report_dict(report)
    parsed = json.loads(to_json(payload))
    assert parsed["variant"] == "tiny"
    assert parsed["outstanding"] == 32
    assert parsed["total_um2"] == report.total_um2
    assert sum(parsed["breakdown_um2"].values()) == report.total_um2


def test_perf_log_export_after_traffic():
    env = build_loop()
    env.manager.submit_all([write_spec(0, 0x100 * i, beats=4) for i in range(1, 6)])
    assert env.sim.run_until(lambda s: env.manager.idle, timeout=5_000)
    payload = perf_log_dict(env.tmu.write_guard.perf, window_cycles=env.sim.cycle)
    parsed = json.loads(to_json(payload))
    assert parsed["completed"] == 5
    assert parsed["beats"] == 20
    assert parsed["latency"]["max"] >= parsed["latency"]["min"]
    assert sum(parsed["latency_histogram"].values()) == 5
    assert "WFIRST_WLAST" in parsed["phases"]
    assert parsed["throughput_beats_per_cycle"] > 0


def test_injection_result_export():
    result = run_injection(
        full_config(budgets=fast_budgets()), InjectionStage.WLAST_TO_BVALID, beats=4
    )
    parsed = json.loads(to_json(injection_result_dict(result)))
    assert parsed["detected"] is True
    assert parsed["recovered"] is True
    assert parsed["fault_phase"] == "WLAST_BVLD"
    assert parsed["stage"] == "wlast_bvalid_error"


def test_campaign_scheduler_stats_sum_over_runs():
    """The wake/leap aggregate equals the per-run sums, and is nonzero
    for a stall campaign (whose idle spans the kernel provably leaps)."""
    results = run_campaign(
        [full_config(budgets=fast_budgets())],
        (InjectionStage.AW_READY_MISSING, InjectionStage.WLAST_TO_BVALID),
        beats=4,
        seeds=(0, 1),
    )
    payload = campaign_dict(results)
    assert payload["scheduler"] == scheduler_stats_dict(results)
    assert payload["scheduler"]["leaps"] == sum(r.sim_leaps for r in results)
    assert payload["scheduler"]["cycles_leaped"] == sum(
        r.sim_cycles_leaped for r in results
    )
    assert payload["scheduler"]["leaps"] > 0
    assert payload["scheduler"]["cycles_leaped"] >= payload["scheduler"]["leaps"]
    # Per-result entries stay kernel-invariant: no leap fields in them.
    assert "sim_leaps" not in payload["results"][0]


def test_scheduler_stats_tolerate_foreign_results():
    class Legacy:  # a result predating the scheduler-stat fields
        pass

    assert scheduler_stats_dict([Legacy()]) == {
        "leaps": 0,
        "cycles_leaped": 0,
        "cycles_streamed": 0,
        "stepped_cycles": 0,
        "island_cycles": 0,
    }


def test_export_list_of_results():
    results = [
        injection_result_dict(
            run_injection(
                full_config(budgets=fast_budgets()), stage, beats=4
            )
        )
        for stage in (InjectionStage.AW_READY_MISSING, InjectionStage.R_VALID_MISSING)
    ]
    parsed = json.loads(to_json(results))
    assert len(parsed) == 2
    assert {entry["stage"] for entry in parsed} == {
        "aw_stage_error", "r_stage_timeout",
    }


# ----------------------------------------------------------------------
# Streamed campaign writer: byte-identical to the in-memory exporter
# ----------------------------------------------------------------------
def _stream(results, spec=None):
    import io

    from repro.analysis.export import write_campaign_json

    buffer = io.StringIO()
    count = write_campaign_json(results, buffer, spec=spec)
    return buffer.getvalue(), count


def _ip_results():
    return run_campaign(
        [full_config(budgets=fast_budgets())],
        (InjectionStage.AW_READY_MISSING, InjectionStage.WLAST_TO_BVALID),
        beats=4,
        seeds=(0, 1),
    )


def test_streamed_campaign_json_matches_dict_export():
    results = _ip_results()
    text, count = _stream(results)
    assert text == to_json(campaign_dict(results))
    assert count == len(results)


def test_streamed_campaign_json_with_spec():
    from repro.orchestrate import CampaignSpec

    spec = CampaignSpec.ip(
        [full_config(budgets=fast_budgets())],
        (InjectionStage.AW_READY_MISSING, InjectionStage.WLAST_TO_BVALID),
        beats=4,
        seeds=(0, 1),
    )
    results = _ip_results()
    text, _count = _stream(results, spec=spec)
    assert text == to_json(campaign_dict(results, spec=spec))


def test_streamed_campaign_json_system_results():
    from repro.soc.experiment import run_fig11

    series = run_fig11(beats=16)
    flat = series["full"] + series["tiny"]
    text, count = _stream(flat)
    assert text == to_json(campaign_dict(flat))
    assert count == len(flat)


def test_streamed_campaign_json_empty():
    text, count = _stream([])
    assert text == to_json(campaign_dict([]))
    assert count == 0


def test_streamed_campaign_json_accepts_iterator_factory():
    # A zero-arg callable returning fresh iterators: the two-pass writer
    # never needs the results materialized as a list.
    results = _ip_results()
    text, count = _stream(lambda: iter(results))
    assert text == to_json(campaign_dict(results))
    assert count == len(results)


# ----------------------------------------------------------------------
# One-shot iterators
# ----------------------------------------------------------------------
def test_campaign_dict_reads_a_generator_once():
    results = _ip_results()
    assert campaign_dict(r for r in results) == campaign_dict(results)


def test_streamed_campaign_json_rejects_one_shot_iterator():
    import pytest

    results = _ip_results()
    with pytest.raises(TypeError, match="re-iterable.*callable"):
        _stream(r for r in results)
    with pytest.raises(TypeError):
        _stream(iter(results))


# ----------------------------------------------------------------------
# Row writer: the fast path is the indenting json.dumps, byte for byte
# ----------------------------------------------------------------------
# Keys and text values: any text, weighted toward what JSON must escape
# (quotes, backslashes, control and non-ASCII characters) and toward
# the separators the layout itself uses.
_ODD_CHARS = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "é", "€", "😀"]
)
_TEXT = st.text(alphabet=st.characters() | _ODD_CHARS) | st.sampled_from(
    ['", "', '": ', "\n", "a\nb", "ünïcödé", ""]
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    _TEXT,
)
_FALLBACK = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -0.0]),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(_TEXT, st.integers(), max_size=2),
)


def _reference_row(entry):
    return json.dumps(entry, indent=2, sort_keys=True).replace("\n", "\n    ")


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_TEXT, _SCALARS, max_size=12))
def test_row_json_equals_indented_dumps_for_flat_rows(entry):
    assert row_json(entry) == _reference_row(entry)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(_TEXT, _SCALARS, max_size=6),
    _TEXT,
    _FALLBACK,
)
def test_row_json_falls_back_for_other_values(entry, key, value):
    entry = {**entry, key: value}
    assert row_json(entry) == _reference_row(entry)


def test_batched_fig11_sweep_streams_byte_identical():
    from repro.orchestrate import BatchExecutor, CampaignSpec, run_campaign_spec
    from repro.soc.experiment import FIG11_STAGES

    spec = CampaignSpec.system(
        (Variant.FULL, Variant.TINY),
        FIG11_STAGES[:2],
        beats=16,
        seeds=tuple(range(64)),
    )
    executor = BatchExecutor(64)
    results = run_campaign_spec(spec, executor=executor)
    assert executor.stats.derived > 0
    text, count = _stream(results, spec=spec)
    assert count == len(results) == 4 * 64
    assert text == to_json(campaign_dict(results, spec=spec))
