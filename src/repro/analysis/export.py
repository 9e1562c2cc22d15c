"""Structured (JSON-ready) export of measurement results.

Benches and downstream tooling serialize area reports, performance logs
and injection results to plain dictionaries for archiving or plotting
outside this repository.
"""

from __future__ import annotations

import functools
import itertools
import json
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, List, Optional, Tuple

from ..area.model import AreaReport
from ..sim.kernel import Simulator
from ..tmu.perf import PerfLog


def area_report_dict(report: AreaReport) -> Dict[str, Any]:
    """JSON-ready form of an :class:`AreaReport`."""
    return {
        "variant": report.variant.value,
        "outstanding": report.outstanding,
        "prescale_step": report.prescale_step,
        "total_um2": report.total_um2,
        "breakdown_um2": {
            key: value
            for key, value in report.breakdown().items()
            if key != "total"
        },
    }


def perf_log_dict(log: PerfLog, window_cycles: Optional[int] = None) -> Dict[str, Any]:
    """JSON-ready form of a guard's :class:`PerfLog`."""
    phases = {}
    for label, stat in log.phase_summary().items():
        phases[label] = {
            "count": stat.count,
            "mean": stat.mean,
            "min": stat.minimum,
            "max": stat.maximum,
        }
    result: Dict[str, Any] = {
        "direction": log.direction.value,
        "completed": log.completed,
        "beats": log.beats_transferred,
        "latency": {
            "mean": log.txn_latency.mean,
            "min": log.txn_latency.minimum,
            "max": log.txn_latency.maximum,
        },
        "latency_histogram": {
            f"{bounds[0]}-{bounds[1] if bounds[1] is not None else 'inf'}": count
            for bounds, count in log.latency_histogram.nonzero()
        },
        "phases": phases,
    }
    if window_cycles:
        result["throughput_beats_per_cycle"] = log.throughput(window_cycles)
    return result


def injection_result_dict(result) -> Dict[str, Any]:
    """JSON-ready form of an IP- or system-level injection result.

    Works for both :class:`~repro.faults.campaign.InjectionResult` and
    :class:`~repro.soc.experiment.SystemInjectionResult` (duck-typed on
    the shared fields).
    """
    return {
        "stage": result.stage.value,
        "variant": result.variant,
        "detected": result.detect_cycle is not None,
        "inject_cycle": result.inject_cycle,
        "detect_cycle": result.detect_cycle,
        "latency_from_injection": result.latency_from_injection,
        "latency_from_start": result.latency_from_start,
        "fault_kind": result.fault_kind,
        "fault_phase": result.fault_phase,
        "recovered": result.recovered,
    }


def system_injection_result_dict(result) -> Dict[str, Any]:
    """JSON-ready form of a :class:`SystemInjectionResult`.

    Extends :func:`injection_result_dict` with the system-level fields:
    the Fig. 11 latency convention, the first W beat, and the recovery
    bookkeeping (Ethernet resets, CPU recovery routines).
    """
    payload = injection_result_dict(result)
    payload.update(
        {
            "fig11_latency": result.fig11_latency,
            "w_first_cycle": result.w_first_cycle,
            "ethernet_resets": result.ethernet_resets,
            "cpu_recoveries": result.cpu_recoveries,
        }
    )
    return payload


def _result_entry(result) -> Dict[str, Any]:
    """The export entry of one result, system or IP by its shape."""
    if hasattr(result, "fig11_latency"):
        return system_injection_result_dict(result)
    return injection_result_dict(result)


#: The result fields behind ``Simulator.STAT_KEYS``, in that order.
_STAT_ATTRS = tuple(f"sim_{key}" for key in Simulator.STAT_KEYS)

def scheduler_stats_dict(results) -> Dict[str, int]:
    """Aggregate kernel fast-forward statistics over a result list.

    Sums the per-run scheduler diagnostics — one ``sim_<key>`` result
    field per :attr:`repro.sim.kernel.Simulator.STAT_KEYS` entry, the
    same authority ``Simulator.stats()`` reads — so a campaign archive
    records how much simulated time was leaped, streamed and stepped.
    Results predating a field count as zero for it.
    """
    return {
        key: sum(
            int(getattr(result, f"sim_{key}", 0) or 0) for result in results
        )
        for key in Simulator.STAT_KEYS
    }


def campaign_dict(results, spec=None) -> Dict[str, Any]:
    """JSON-ready form of a whole campaign's result list.

    *spec* may be a :class:`~repro.orchestrate.spec.CampaignSpec`; its
    canonical dict (and content hash) are embedded so an archived
    campaign is self-describing.  IP- and system-level results may be
    mixed; each entry is tagged per run via its shape.  The
    ``scheduler`` block aggregates the wake/leap coalescing statistics
    across runs — diagnostics about *how* the campaign simulated, kept
    out of the per-result entries so those stay kernel-invariant.
    """
    results = list(results)  # read once: a generator has no second pass
    entries = [_result_entry(result) for result in results]
    payload: Dict[str, Any] = {
        "runs": len(entries),
        "detected": sum(1 for entry in entries if entry["detected"]),
        "recovered": sum(1 for entry in entries if entry["recovered"]),
        "scheduler": scheduler_stats_dict(results),
        "results": entries,
    }
    if spec is not None:
        payload["spec"] = spec.canonical_dict()
        payload["spec_hash"] = spec.spec_hash()
    return payload


def to_json(payload: Any, indent: int = 2) -> str:
    """Serialize an export dictionary (or list of them) to JSON text."""
    return json.dumps(payload, indent=indent, sort_keys=True)


def _nested_json(payload: Any, depth: int, indent: int) -> str:
    """``json.dumps`` of *payload* re-indented to sit *depth* levels deep."""
    blob = json.dumps(payload, indent=indent, sort_keys=True)
    return blob.replace("\n", "\n" + " " * (indent * depth))


#: The C-level text of a flat list's items, by their one shared type.
_ITEM_TEXT = {int: int.__repr__, str: encode_basestring_ascii}


def _spec_json(view: Dict[str, Any], indent: int) -> str:
    """The text of ``_nested_json(view, 1, indent)`` for a spec's
    canonical view, its flat values written through C code.

    A scalar has no layout to indent, so the C encoder writes it; a
    flat list of plain ints or of strings (the seeds, the stages) is
    one C-level ``map`` over its items and one join, as rows are.  Only
    the nested values (configs, harness kwargs) take the indenting
    pure-Python encoder, whose cost would otherwise grow per seed.
    """
    inner = "\n" + " " * (indent * 2)
    item = inner + " " * indent
    entries = []
    for key in sorted(view):
        value = view[key]
        kinds = set(map(type, value)) if type(value) is list else set()
        convert = _ITEM_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        if convert is not None:
            items = map(convert, value)
            text = "[" + item + ("," + item).join(items) + inner + "]"
        elif isinstance(value, (dict, list, tuple)):
            text = _nested_json(value, 2, indent)
        else:
            text = json.dumps(value)
        entries.append(encode_basestring_ascii(key) + ": " + text)
    return "{" + inner + ("," + inner).join(entries) + "\n" + " " * indent + "}"


@functools.lru_cache(maxsize=16)
def _row_layout(
    keys: Tuple, indent: int
) -> Optional[Tuple[Tuple[str, str], ...]]:
    """The row's keys in sorted order, each with the text preceding its
    value in a row two levels deep (``{`` or ``,``, line break and
    indentation, escaped key); ``None`` unless every key is a string.
    Export entries come in two shapes (IP and system), so a small cache
    serves every row."""
    if not keys or not all(type(key) is str for key in keys):
        return None
    pad = "\n" + " " * (indent * 3)
    return tuple(
        (key, ("," if position else "{") + pad
         + encode_basestring_ascii(key) + ": ")
        for position, key in enumerate(sorted(keys))
    )


def _row_parts(entry: Dict[str, Any], indent: int) -> Optional[List[str]]:
    """The text of ``row_json(entry, indent)`` as alternating key heads
    and value texts (closing brace left out), in sorted-key order;
    ``None`` unless *entry* is flat: string keys, and ``None``/``bool``/
    ``int``/``str`` values."""
    layout = _row_layout(tuple(entry), indent)
    if layout is None:
        return None
    parts = []
    append = parts.append
    for key, head in layout:
        value = entry[key]
        kind = type(value)
        append(head)
        if kind is str:
            append(encode_basestring_ascii(value))
        elif kind is int:
            append(int.__repr__(value))
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        else:
            return None
    return parts


def row_json(entry: Dict[str, Any], indent: int = 2) -> str:
    """One ``results`` row of a campaign export: the text of
    ``_nested_json(entry, 2, indent)``.

    A flat dict of ``None``/``bool``/``int``/``str`` values (every
    export entry) is written from its precomputed key prefixes and the
    literal values, several times faster than the indenting
    ``json.dumps`` (CPython's pure-Python encoder).  Any other value
    falls back to ``_nested_json``.
    """
    parts = _row_parts(entry, indent)
    if parts is None:
        return _nested_json(entry, 2, indent)
    parts.append("\n" + " " * (indent * 2) + "}")
    return "".join(parts)


# ----------------------------------------------------------------------
# Blocks: a pack's lanes are its leader moved in time
# ----------------------------------------------------------------------
def _blocks(results):
    """*results* in order as ``(leader, deltas)`` blocks (see
    :meth:`~repro.orchestrate.engine.CampaignResults.blocks`): a
    ``CampaignResults``'s own, without materializing a lane; any other
    iterable's, lazily, one ``(result, None)`` per result."""
    from ..orchestrate.engine import CampaignResults

    if isinstance(results, CampaignResults):
        return results.blocks()
    return zip(results, itertools.repeat(None))


def _tally(blocks) -> Tuple[int, int, int, Dict[str, int]]:
    """Runs, detected runs, recovered runs and the ``scheduler`` block of
    *blocks* (see :func:`_blocks`), as :func:`campaign_dict` counts
    them, without materializing a lane.

    A lane has its leader's flags and statistics, except
    ``cycles_leaped``, which grows by the delta.  So a block counts as
    its lane count times the leader, plus the summed deltas.  Where the
    leader's ``cycles_leaped`` is not a plain int, ``int((value + delta)
    or 0)`` need not be ``int(value or 0) + delta``, and its lanes are
    counted materialized, one at a time.
    """
    runs = detected = recovered = leaped = 0
    totals = dict.fromkeys(_STAT_ATTRS, 0)
    for leader, deltas in blocks:
        if deltas is None:
            lanes, counted = 1, (leader,)
        elif type(getattr(leader, "sim_cycles_leaped", None)) in (int, bool):
            lanes, counted = len(deltas), (leader,)
            leaped += sum(deltas)
        else:
            lanes, counted = 1, map(leader.shifted, deltas)
        for result in counted:
            runs += lanes
            if result.detect_cycle is not None:
                detected += lanes
            if result.recovered:
                recovered += lanes
            for attr in _STAT_ATTRS:
                value = getattr(result, attr, 0)
                if value:
                    totals[attr] += lanes * int(value)
    scheduler = dict(zip(Simulator.STAT_KEYS, totals.values()))
    scheduler["cycles_leaped"] += leaped
    return runs, detected, recovered, scheduler


def outcome_counts(results) -> Tuple[int, int, int]:
    """Runs, detected runs and recovered runs of *results*, as the
    campaign export counts them.  The packed lanes of a
    :class:`~repro.orchestrate.engine.CampaignResults` are counted from
    their leaders, not materialized."""
    return _tally(_blocks(results))[:3]


def _row_template(leader, indent: int) -> Optional[Tuple[tuple, tuple]]:
    """The text of every row shifted from *leader*'s, as ``(segments,
    stamps)``.

    *stamps* are the leader's stamps that are plain ints, in row order
    (the holes a lane fills with stamp plus delta); *segments* are the
    literal text around them (one more than *stamps*; a ``None`` stamp
    is written ``null`` inside a segment), for :func:`_fill`.  ``None``
    when the row is not flat or a stamp is neither ``None`` nor a plain
    int: such lanes take ``row_json`` each.
    """
    entry = _result_entry(leader)
    # A lane is its leader moved in time: exactly the leader's STAMPS
    # change, and the row writes those it has in sorted-key order.
    holes = {
        key: entry[key]
        for key in sorted(type(leader).STAMPS)
        if entry.get(key) is not None
    }
    parts = _row_parts(entry, indent)
    if parts is None or not all(type(stamp) is int for stamp in holes.values()):
        return None
    segments = [""]
    for position, (key, head) in enumerate(_row_layout(tuple(entry), indent)):
        segments[-1] += head
        if key in holes:
            segments.append("")
        else:
            segments[-1] += parts[2 * position + 1]
    segments[-1] += "\n" + " " * (indent * 2) + "}"
    return tuple(segments), tuple(holes.values())


def _fill(segments: tuple, columns: list, rows: int, joiner: str) -> str:
    """*rows* rows of one template joined by *joiner*; row ``r`` has the
    ``r``-th int of ``columns[h]`` (an iterable) in hole ``h``.

    The rows are built as one list of text pieces — each column's
    values converted by one C-level ``map`` into every row's slot at
    once — and joined once.
    """
    if len(segments) == 1:
        return joiner.join(segments * rows)
    stride = 2 * len(columns)
    pieces: List[Any] = [None] * (1 + rows * stride)
    pieces[0] = segments[0]
    last = segments[-1] + joiner + segments[0]
    for hole, column in enumerate(columns, 1):
        pieces[2 * hole - 1 :: stride] = map(str, column)
        after = segments[hole] if hole < len(columns) else last
        pieces[2 * hole :: stride] = [after] * rows
    pieces[-1] = segments[-1]
    return "".join(pieces)


#: Rows joined into one ``write``: a bounded piece of text, never the
#: whole ``results`` array.
_ROW_CHUNK = 1024


def _row_texts(blocks, indent: int, joiner: str):
    """The ``results`` rows of *blocks* (see :func:`_blocks`), in order,
    as ``(text, rows)`` pairs: *rows* rows (at most ``_ROW_CHUNK``)
    joined by *joiner*.

    A result is one :func:`row_json`.  A pack's lanes fill its leader's
    :func:`_row_template` — built once per leader, however many blocks
    its lanes are split over — with the leader's stamps plus each
    lane's delta, a chunk of lanes in one :func:`_fill`: a lane's row
    is its leader's row moved in time.
    """
    # id(leader) -> (leader, template): holding the leader keeps its id
    # from being reused while the cache lives.
    templates: Dict[int, tuple] = {}
    for leader, deltas in blocks:
        if deltas is None:
            yield row_json(_result_entry(leader), indent), 1
            continue
        cached = templates.get(id(leader))
        if cached is None:
            cached = templates[id(leader)] = (
                leader, _row_template(leader, indent)
            )
        template = cached[1]
        if template is None:
            for delta in deltas:
                yield row_json(_result_entry(leader.shifted(delta)), indent), 1
            continue
        segments, stamps = template
        for start in range(0, len(deltas), _ROW_CHUNK):
            chunk = deltas[start : start + _ROW_CHUNK]
            columns = [map(stamp.__add__, chunk) for stamp in stamps]
            yield _fill(segments, columns, len(chunk), joiner), len(chunk)


def write_campaign_json(results, stream, spec=None, indent: int = 2) -> int:
    """Stream a campaign export, byte-identical to the in-memory path.

    Emits exactly the text ``to_json(campaign_dict(results, spec=spec))``
    produces, rows in bounded chunks — aggregation as a streamed,
    index-ordered query instead of an in-memory list.  *results* is a
    re-iterable collection of result objects (a list is simply iterated
    twice), or a zero-argument callable returning a fresh iterator
    (e.g. ``lambda: store.iter_results(spec.runs())``): the aggregate
    counts precede the entries in the sorted-key layout, so the writer
    makes two passes and never holds more than a chunk of rows.  A
    one-shot iterator (a generator) would come back empty on the second
    pass and is rejected with :class:`TypeError`.  Both passes read
    ``(leader, deltas)`` blocks (:func:`_blocks`): a
    :class:`~repro.orchestrate.engine.CampaignResults` keeps its packed
    lanes unmaterialized, each stretch of a pack counting as its lane
    count times the leader plus the summed deltas and written from the
    leader's row template.  Returns the number of results written.
    """
    if not callable(results) and iter(results) is results:
        raise TypeError(
            "write_campaign_json reads its results twice: pass a "
            "re-iterable collection (e.g. a list) or a zero-argument "
            "callable returning a fresh iterator, not a one-shot iterator"
        )
    from ..orchestrate.engine import CampaignResults

    if callable(results):
        def fresh():
            return _blocks(results())
    elif isinstance(results, CampaignResults):
        # Held in memory anyway: one read of its slots serves both
        # passes.
        blocks = list(results.blocks())

        def fresh():
            return blocks
    else:
        def fresh():
            return _blocks(results)

    runs, detected, recovered, scheduler = _tally(fresh())

    pad = " " * indent
    write = stream.write
    write("{\n")
    write(f'{pad}"detected": {detected},\n')
    write(f'{pad}"recovered": {recovered},\n')
    write(f'{pad}"results": [')
    separator = "\n" + pad * 2
    joiner = ",\n" + pad * 2
    written = 0
    chunk: List[str] = []
    rows = 0
    for text, count in _row_texts(fresh(), indent, joiner):
        chunk.append(text)
        rows += count
        if rows >= _ROW_CHUNK:
            write(separator)
            write(joiner.join(chunk))
            separator = joiner
            written += rows
            chunk, rows = [], 0
    if chunk:
        write(separator)
        write(joiner.join(chunk))
        written += rows
    write(("\n" + pad + "]") if written else "]")
    write(",\n")
    write(f'{pad}"runs": {runs},\n')
    write(f'{pad}"scheduler": {_nested_json(scheduler, 1, indent)}')
    if spec is not None:
        # Only serialized, never handed out: no copy needed.
        spec_text = _spec_json(spec.canonical_view(), indent)
        write(f',\n{pad}"spec": {spec_text}')
        write(f',\n{pad}"spec_hash": {json.dumps(spec.spec_hash())}')
    write("\n}")
    return runs
