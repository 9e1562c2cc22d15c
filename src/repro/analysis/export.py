"""Structured (JSON-ready) export of measurement results.

Benches and downstream tooling serialize area reports, performance logs
and injection results to plain dictionaries for archiving or plotting
outside this repository.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from json.encoder import encode_basestring_ascii
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple,
)

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

#: Stat rows summed per column at a time: C-level sums, and few enough
#: rows held at once that they trigger no garbage collection.
_STAT_CHUNK = 256


def _stats_or_zero(result) -> tuple:
    return tuple(getattr(result, attr, 0) for attr in _STAT_ATTRS)


@functools.lru_cache(maxsize=16)
def _stats_getter(cls: type) -> Callable[[Any], tuple]:
    """Reads a result's ``_STAT_ATTRS`` as one tuple: a single C-level
    ``attrgetter`` when *cls* declares every field (the result
    dataclasses carry their defaults as class attributes) and there are
    several (``attrgetter`` of one name returns a bare value), else one
    ``getattr(..., 0)`` per field."""
    if len(_STAT_ATTRS) > 1 and all(hasattr(cls, a) for a in _STAT_ATTRS):
        return operator.attrgetter(*_STAT_ATTRS)
    return _stats_or_zero


def _sum_stats(rows: Iterable[tuple]) -> Dict[str, int]:
    """:func:`scheduler_stats_dict` of the results behind *rows* (their
    ``_STAT_ATTRS`` values), summed per column: each value counts as
    ``int(value or 0)``."""
    totals = [0] * len(_STAT_ATTRS)
    rows = iter(rows)
    while True:
        chunk = list(itertools.islice(rows, _STAT_CHUNK))
        if not chunk:
            return dict(zip(Simulator.STAT_KEYS, totals))
        for index, column in enumerate(zip(*chunk)):
            totals[index] += sum(map(int, filter(None, column)))


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
# Row templates: a batched sweep's rows differ only in their stamps
# ----------------------------------------------------------------------
#: The cycle stamps a row's text is filled with, in sorted-key order
#: (the order the row writes them).  A derived lane is its leader's
#: result shifted in time: exactly these change, everything else in the
#: row is shift-invariant.
_IP_STAMPS = ("detect_cycle", "inject_cycle")
_SYSTEM_STAMPS = ("detect_cycle", "inject_cycle", "w_first_cycle")

#: A row's stamps, then the attributes behind its shift-invariant
#: exported values (``fig11_latency``, read first to tell the shapes
#: apart, is appended to the system ones).
_read_ip = operator.attrgetter(
    *_IP_STAMPS, "stage", "variant", "fault_kind", "fault_phase",
    "recovered", "latency_from_injection", "latency_from_start",
)
_read_system = operator.attrgetter(
    *_SYSTEM_STAMPS, "stage", "variant", "fault_kind", "fault_phase",
    "recovered", "latency_from_injection", "latency_from_start",
    "ethernet_resets", "cpu_recoveries",
)

_ABSENT = object()


def _row_key(result) -> Tuple[tuple, tuple]:
    """*result*'s template key and its stamps.

    The key is the row's shape (IP or system, told apart like
    :func:`campaign_dict` does and by tuple length), every exported
    value but the stamps — stage, variant, fault kind and phase,
    recovered, the latencies and (system) the resets — and the type of
    every value, stamps included.  Equal keys therefore mean equal row
    text up to the stamps, and the stamp types say which stamps are
    ``None`` (written ``null``) and which are plain ints (the holes).
    Types are part of the key because ``True == 1 == 1.0`` while their
    JSON differs.
    """
    fig11 = getattr(result, "fig11_latency", _ABSENT)
    if fig11 is _ABSENT:
        values = _read_ip(result)
        stamps = values[:2]
    else:
        values = _read_system(result) + (fig11,)
        stamps = values[:3]
    return (values[len(stamps):], tuple(map(type, values))), stamps


def _row_template(result, indent: int) -> Optional[Tuple[tuple, tuple, str]]:
    """The text of every row sharing *result*'s :func:`_row_key`, as
    ``(segments, holes, fmt)``.

    *holes* are the positions, in the row's stamp tuple, of the stamps
    that are plain ints; *segments* are the literal text around them
    (one more than *holes*; a ``None`` stamp is written ``null`` inside
    a segment), for :func:`_fill`.  *fmt* is the same text as a
    ``%``-format taking the row's whole stamp tuple — a ``%d`` per hole,
    and a ``None`` stamp's ``%.0s`` consumes its argument and prints
    nothing — so one row is one C-level ``%`` fill.  ``None`` when the
    row is not flat or a stamp is neither ``None`` nor a plain int: such
    rows take ``row_json`` each.
    """
    entry = _result_entry(result)
    stamp_keys = _SYSTEM_STAMPS if "w_first_cycle" in entry else _IP_STAMPS
    parts = _row_parts(entry, indent)
    stamps = [entry[key] for key in stamp_keys]
    if parts is None or not all(
        type(stamp) is int or stamp is None for stamp in stamps
    ):
        return None
    stamp_of = dict(zip(stamp_keys, stamps))
    segments, fmt = [""], []
    for position, (key, head) in enumerate(_row_layout(tuple(entry), indent)):
        text = parts[2 * position + 1]
        segments[-1] += head
        fmt.append(head.replace("%", "%%"))
        if stamp_of.get(key) is not None:
            segments.append("")
            fmt.append("%d")
        else:
            segments[-1] += text
            fmt.append(text.replace("%", "%%") + "%.0s" * (key in stamp_of))
    close = "\n" + " " * (indent * 2) + "}"
    segments[-1] += close
    holes = tuple(
        position for position, stamp in enumerate(stamps) if stamp is not None
    )
    return tuple(segments), holes, "".join(fmt) + close


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


class _Lanes(NamedTuple):
    """A stretch of one :class:`~repro.orchestrate.batch.Pack`'s not yet
    materialized lanes, by their run indices."""

    pack: Any
    indices: range


def _stats_of(result) -> tuple:
    try:
        return _stats_getter(type(result))(result)
    except AttributeError:  # a declared field this instance lacks
        return _stats_or_zero(result)


def _blocks(results):
    """*results* in order as blocks, without materializing a lane: runs
    of results (iterables), and each stretch of adjacent slots in which
    a :class:`~repro.orchestrate.engine.CampaignResults` holds one
    pack's lanes, as one :class:`_Lanes`."""
    from ..orchestrate.engine import CampaignResults

    if not isinstance(results, CampaignResults):
        return (results,)
    return _slot_blocks(results)


def _slot_blocks(results):
    from ..orchestrate.batch import Pack

    span = results.span
    start = 0
    for kind, group in itertools.groupby(results.lanes(), type):
        group = list(group)
        if kind is not Pack:
            yield group
        else:
            # Adjacent pack slots may hold different packs.
            first = start
            for _, lanes in itertools.groupby(group, id):
                end = first + len(list(lanes))
                yield _Lanes(group[first - start], span[first:end])
                first = end
        start += len(group)


def _tally(blocks) -> Tuple[int, int, int, Dict[str, int]]:
    """Runs, detected runs, recovered runs and the ``scheduler`` block of
    *blocks* (see :func:`_blocks`), as :func:`campaign_dict`
    counts them, without materializing a lane.

    A lane has its leader's flags and statistics, except
    ``cycles_leaped``, which grows by the delta.  So each pack counts
    once: the leader's values times its lane count, plus the summed
    deltas.  Where the leader's ``cycles_leaped`` is not a plain int,
    ``int((value + delta) or 0)`` need not be ``int(value or 0) +
    delta``, and its lanes are counted materialized, one at a time.
    """
    runs = detected = recovered = 0
    packs: Dict[int, list] = {}  # id(pack) -> [pack, lanes, summed deltas]

    def stat_rows():
        nonlocal runs, detected, recovered
        for block in blocks:
            if type(block) is not _Lanes:
                results = block
            else:
                pack, indices = block
                leaped = getattr(pack.leader, "sim_cycles_leaped", None)
                if type(leaped) in (int, bool):
                    entry = packs.setdefault(id(pack), [pack, 0, 0])
                    entry[1] += len(indices)
                    entry[2] += sum(map(pack.deltas.__getitem__, indices))
                    continue
                results = map(pack.lane, indices)
            for result in results:
                runs += 1
                if result.detect_cycle is not None:
                    detected += 1
                if result.recovered:
                    recovered += 1
                yield _stats_of(result)

    scheduler = _sum_stats(stat_rows())
    for pack, lanes, deltas in packs.values():
        leader = pack.leader
        runs += lanes
        if leader.detect_cycle is not None:
            detected += lanes
        if leader.recovered:
            recovered += lanes
        for key, value in zip(Simulator.STAT_KEYS, _stats_of(leader)):
            scheduler[key] += lanes * int(value or 0)
        scheduler["cycles_leaped"] += deltas
    return runs, detected, recovered, scheduler


def outcome_counts(results) -> Tuple[int, int, int]:
    """Runs, detected runs and recovered runs of *results*, as the
    campaign export counts them.  The packed lanes of a
    :class:`~repro.orchestrate.engine.CampaignResults` are counted from
    their leaders, not materialized."""
    return _tally(_blocks(results))[:3]


def _row_texts(blocks, indent: int, joiner: str):
    """The ``results`` rows of *blocks* (see :func:`_blocks`), in order,
    as ``(text, rows)`` pairs: *rows* rows (at most ``_ROW_CHUNK``)
    joined by *joiner*.

    Rows sharing a :func:`_row_key` are filled from one
    :func:`_row_template`.  A pack's lanes fill its leader's template
    with the leader's stamps plus each lane's delta, a chunk of lanes
    in one :func:`_fill`: a lane's row is its leader's row moved in
    time.
    """
    templates: Dict[tuple, Optional[tuple]] = {}

    def template(result):
        key, stamps = _row_key(result)
        try:
            found = templates.get(key, _ABSENT)
        except TypeError:  # an unhashable exported value
            return None, stamps
        if found is _ABSENT:
            found = templates[key] = _row_template(result, indent)
        return found, stamps

    for block in blocks:
        if type(block) is not _Lanes:
            for result in block:
                found, stamps = template(result)
                if found is None:
                    yield row_json(_result_entry(result), indent), 1
                else:
                    yield found[2] % stamps, 1
            continue
        pack, indices = block
        found, stamps = template(pack.leader)
        if found is None:
            for index in indices:
                yield row_json(_result_entry(pack.lane(index)), indent), 1
            continue
        segments, holes, _fmt = found
        for start in range(0, len(indices), _ROW_CHUNK):
            chunk = indices[start : start + _ROW_CHUNK]
            deltas = list(map(pack.deltas.__getitem__, chunk))
            columns = [map(stamps[hole].__add__, deltas) for hole in holes]
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
    pass and is rejected with :class:`TypeError`.  A
    :class:`~repro.orchestrate.engine.CampaignResults` is read without
    materializing its packed lanes: a pack counts as its lane count
    times the leader plus the summed deltas, and its rows are written
    from the leader's row template.  Returns the number of results
    written.
    """
    if not callable(results) and iter(results) is results:
        raise TypeError(
            "write_campaign_json reads its results twice: pass a "
            "re-iterable collection (e.g. a list) or a zero-argument "
            "callable returning a fresh iterator, not a one-shot iterator"
        )

    if callable(results):
        def fresh():
            return _blocks(results())
    else:
        blocks = list(_blocks(results))

        def fresh():
            return blocks

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
        spec_text = _nested_json(spec.canonical_dict(), 1, indent)
        write(f',\n{pad}"spec": {spec_text}')
        write(f',\n{pad}"spec_hash": {json.dumps(spec.spec_hash())}')
    write("\n}")
    return runs
