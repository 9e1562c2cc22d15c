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


def test_streamed_campaign_json_with_a_thousand_seed_spec():
    # The spec block writes its seeds and stages through C-level joins:
    # still the text of the indenting encoder, nested config included.
    # Only the spec block is under test, so the rows are a short list.
    from repro.orchestrate import CampaignSpec

    spec = CampaignSpec.ip(
        [full_config(budgets=fast_budgets(), prescale_step=4)],
        (InjectionStage.AW_READY_MISSING, InjectionStage.WLAST_TO_BVALID),
        beats=4,
        seeds=[0, *range(1100, 1, -1)],
        harness_kwargs={"sim_strategy": "dirty"},
    )
    results = _ip_results()
    text, _count = _stream(results, spec=spec)
    # Compared as a flag: pytest's diff of two long, similar texts
    # would take minutes to render.
    identical = text == to_json(campaign_dict(results, spec=spec))
    assert identical
    assert text.count("\n      1100,\n") == 1


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


# ----------------------------------------------------------------------
# Row templates: rows that differ only in their cycle stamps
# ----------------------------------------------------------------------
# Fault labels weighted toward what the template must escape or could
# misread as format syntax, and toward what JSON must escape.
_LABEL = st.none() | st.sampled_from(
    ["%", "%d", "%s", "%%", "%(x)s", "%.0s", "{}", "{0}", "100% {x}"]
) | st.text(
    alphabet=st.characters()
    | _ODD_CHARS
    | st.sampled_from(["%", "{", "}", "'", '"', "\x00", "ü"]),
    max_size=8,
)
_STAMP = st.none() | st.integers(min_value=0, max_value=2**40)
_STAT = st.integers(min_value=0, max_value=2**20)


@st.composite
def _leader(draw):
    from repro.faults.campaign import InjectionResult
    from repro.soc.experiment import SystemInjectionResult

    fields = dict(
        stage=draw(st.sampled_from(list(InjectionStage))),
        variant=draw(st.sampled_from(["full", "tiny"]) | _LABEL.filter(bool)),
        txn_start_cycle=draw(st.integers(min_value=0, max_value=2**40)),
        inject_cycle=draw(_STAMP),
        detect_cycle=draw(_STAMP),
        fault_kind=draw(_LABEL),
        fault_phase=draw(_LABEL),
        recovered=draw(st.booleans()),
        sim_leaps=draw(_STAT),
        sim_cycles_leaped=draw(_STAT),
        sim_stepped_cycles=draw(_STAT),
    )
    if draw(st.booleans()):
        return SystemInjectionResult(
            w_first_cycle=draw(_STAMP),
            ethernet_resets=draw(st.integers(0, 3)),
            cpu_recoveries=draw(st.integers(0, 3)),
            **fields,
        )
    return InjectionResult(resets_taken=draw(st.integers(0, 3)), **fields)


@st.composite
def _templated_rows(draw):
    """A mixed IP/system result list in which most rows are a leader
    shifted in time (same invariant fields, other stamps), and some
    leaders recur with a stamp cleared to ``None``."""
    import dataclasses

    leaders = draw(st.lists(_leader(), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(0, 24))):
        leader = draw(st.sampled_from(leaders))
        row = leader.shifted(draw(st.integers(0, 2**20)))
        cleared = draw(
            st.sampled_from(["", "inject_cycle", "detect_cycle"])
        )
        if cleared:
            row = dataclasses.replace(row, **{cleared: None})
        rows.append(row)
    return rows


@settings(max_examples=200, deadline=None)
@given(_templated_rows())
def test_templated_rows_equal_the_dict_export(results):
    expected = to_json(campaign_dict(results))
    text, count = _stream(results)
    assert text == expected
    assert count == len(results)
    text, count = _stream(lambda: iter(results))
    assert text == expected
    assert count == len(results)


@st.composite
def _packed_results(draw):
    """A CampaignResults whose slots mix results and the lanes of a few
    packs (interleaved, so a pack's lanes need not be adjacent), some
    lanes already materialized, read through a random slice."""
    from repro.orchestrate import CampaignResults, Pack

    leaders = draw(st.lists(_leader(), min_size=1, max_size=3))
    packs = [Pack(leader, {}) for leader in leaders]
    items = []
    for index in range(draw(st.integers(0, 40))):
        owner = draw(st.integers(-1, len(packs) - 1))
        delta = draw(st.integers(0, 2**20))
        if owner < 0:
            items.append(draw(st.sampled_from(leaders)).shifted(delta))
        else:
            packs[owner].deltas[index] = delta
            items.append(packs[owner])
    results = CampaignResults(items)
    for index in draw(st.lists(st.integers(0, max(len(items) - 1, 0)))):
        if items:
            results[index]
    start, stop = draw(st.integers(-3, 45)), draw(st.integers(-3, 45))
    step = draw(st.sampled_from([1, 1, 2, 3, -1]))
    return results[start:stop:step]


@settings(max_examples=200, deadline=None)
@given(_packed_results())
def test_packed_lanes_export_as_their_materialized_results(results):
    # Rows and counts of unmaterialized lanes come from their pack's
    # leader; they must read exactly as the materialized results would.
    text, count = _stream(results)
    assert text == to_json(campaign_dict(list(results)))
    assert count == len(results)


def test_templates_keep_values_equal_across_types_apart():
    # True == 1 == 1.0, but their JSON differs: rows that differ only
    # in a value's type must not share a template.  A value that cannot
    # key a template (a list) is written the general way.
    import dataclasses

    from repro.soc.experiment import SystemInjectionResult

    base = SystemInjectionResult(
        stage=InjectionStage.WLAST_TO_BVALID, variant="full",
        txn_start_cycle=10, inject_cycle=20, w_first_cycle=12,
        detect_cycle=30, fault_phase="WLAST_BVLD", fault_kind="%d",
        ethernet_resets=1, cpu_recoveries=1, recovered=True,
    )
    results = [
        base,
        dataclasses.replace(base, recovered=1),
        dataclasses.replace(base, ethernet_resets=True),
        dataclasses.replace(base, cpu_recoveries=1.0),
        dataclasses.replace(base, inject_cycle=True),  # not a plain int
        dataclasses.replace(base, detect_cycle=31.0),
        dataclasses.replace(base, fault_kind=["unhashable"]),
        base.shifted(5),
    ]
    text, _count = _stream(results)
    assert text == to_json(campaign_dict(results))


def test_streamed_scheduler_block_reads_missing_and_odd_stats_as_campaign_dict():
    # A result of a type lacking some sim_ fields, and stats that are
    # None, bools or floats, sum exactly as scheduler_stats_dict does.
    import dataclasses
    from types import SimpleNamespace

    results = _ip_results()
    legacy = SimpleNamespace(
        **{
            field.name: getattr(results[0], field.name)
            for field in dataclasses.fields(results[0])
            if not field.name.startswith("sim_")
        },
        latency_from_injection=results[0].latency_from_injection,
        latency_from_start=results[0].latency_from_start,
        sim_leaps=None,
        sim_cycles_leaped=2.75,
    )
    odd = dataclasses.replace(results[1], sim_leaps=True, sim_stepped_cycles=None)
    mixed = [legacy, odd] + results
    text, _count = _stream(mixed)
    assert text == to_json(campaign_dict(mixed))

    # Unmaterialized lanes count from their leader: odd stats times the
    # lane count, and a float leap count (where int(value + delta) is not
    # int(value) + delta) lane by lane.
    from repro.orchestrate import CampaignResults, Pack

    floaty = dataclasses.replace(results[2], sim_cycles_leaped=2.75)
    odd_pack = Pack(odd, {2: 3, 3: 5})
    floaty_pack = Pack(floaty, {4: 4, 5: -3})
    lanes = CampaignResults(
        [legacy, odd, odd_pack, odd_pack, floaty_pack, floaty_pack] + results
    )
    expected = [legacy, odd, odd.shifted(3), odd.shifted(5), floaty.shifted(4),
                floaty.shifted(-3)] + results
    text, count = _stream(lanes)
    assert text == to_json(campaign_dict(expected))
    assert count == len(expected)


def test_interleaved_packs_build_one_row_template_per_leader(monkeypatch):
    # Two packs whose lanes alternate slot by slot: every lane is its
    # own stretch, yet each leader's row template is built once.
    from repro.analysis import export
    from repro.orchestrate import CampaignResults, Pack

    results = _ip_results()
    packs = [Pack(results[0], {}), Pack(results[2], {})]
    items = []
    for index in range(12):
        pack = packs[index % 2]
        pack.deltas[index] = 3 * index
        items.append(pack)
    built = []
    template = export._row_template
    monkeypatch.setattr(
        export, "_row_template",
        lambda leader, indent: built.append(leader) or template(leader, indent),
    )
    text, count = _stream(CampaignResults(items))
    assert count == 12
    assert [id(leader) for leader in built] == [id(pack.leader) for pack in packs]
    expected = [packs[index % 2].lane(index) for index in range(12)]
    assert text == to_json(campaign_dict(expected))


def test_callable_results_are_written_while_they_stream():
    # A zero-argument callable (the store's streamed query) is read
    # lazily on both passes: rows reach the stream before its second
    # iterator is exhausted, so no pass holds a list of every result.
    import io

    from repro.analysis.export import write_campaign_json

    results = list(_ip_results()) * 800
    drawn = []

    def fresh():
        drawn.append(0)
        for result in results:
            drawn[-1] += 1
            yield result

    seen = []

    class Probe(io.StringIO):
        def write(self, text):
            seen.append((len(drawn), drawn[-1]))
            return super().write(text)

    stream = Probe()
    assert write_campaign_json(fresh, stream) == len(results)
    assert len(drawn) == 2
    assert any(0 < count < len(results) for passes, count in seen if passes == 2)
    assert stream.getvalue() == to_json(campaign_dict(results))
