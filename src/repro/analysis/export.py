"""Structured (JSON-ready) export of measurement results.

Benches and downstream tooling serialize area reports, performance logs
and injection results to plain dictionaries for archiving or plotting
outside this repository.
"""

from __future__ import annotations

import functools
import json
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, Optional, Tuple

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
    entries = [
        system_injection_result_dict(result)
        if hasattr(result, "fig11_latency")
        else injection_result_dict(result)
        for result in results
    ]
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


def row_json(entry: Dict[str, Any], indent: int = 2) -> str:
    """One ``results`` row of a campaign export: the text of
    ``_nested_json(entry, 2, indent)``.

    A flat dict of ``None``/``bool``/``int``/``str`` values (every
    export entry) is written from its precomputed key prefixes and the
    literal values, several times faster than the indenting
    ``json.dumps`` (CPython's pure-Python encoder).  Any other value
    falls back to ``_nested_json``.
    """
    layout = _row_layout(tuple(entry), indent)
    if layout is None:
        return _nested_json(entry, 2, indent)
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
            return _nested_json(entry, 2, indent)
    append("\n" + " " * (indent * 2) + "}")
    return "".join(parts)


def write_campaign_json(results, stream, spec=None, indent: int = 2) -> int:
    """Stream a campaign export, byte-identical to the in-memory path.

    Emits exactly the text ``to_json(campaign_dict(results, spec=spec))``
    produces, but one result at a time — aggregation as a streamed,
    index-ordered query instead of an in-memory list.  *results* is a
    re-iterable collection of result objects (a list is simply iterated
    twice), or a zero-argument callable returning a fresh iterator
    (e.g. ``lambda: store.iter_results(spec.runs())``): the aggregate
    counts precede the entries in the sorted-key layout, so the writer
    makes two passes and never holds more than one result.  A one-shot
    iterator (a generator) would come back empty on the second pass and
    is rejected with :class:`TypeError`.  Returns the number of results
    written.
    """
    if not callable(results) and iter(results) is results:
        raise TypeError(
            "write_campaign_json reads its results twice: pass a "
            "re-iterable collection (e.g. a list) or a zero-argument "
            "callable returning a fresh iterator, not a one-shot iterator"
        )

    def fresh():
        return iter(results() if callable(results) else results)

    pad = " " * indent
    stat_attrs = [(key, f"sim_{key}") for key in Simulator.STAT_KEYS]

    runs = detected = recovered = 0
    scheduler = {key: 0 for key in Simulator.STAT_KEYS}
    for result in fresh():
        runs += 1
        if result.detect_cycle is not None:
            detected += 1
        if result.recovered:
            recovered += 1
        for key, attr in stat_attrs:
            scheduler[key] += int(getattr(result, attr, 0) or 0)

    write = stream.write
    write("{\n")
    write(f'{pad}"detected": {detected},\n')
    write(f'{pad}"recovered": {recovered},\n')
    write(f'{pad}"results": [')
    first = True
    row_head = "\n" + pad * 2
    for result in fresh():
        entry = (
            system_injection_result_dict(result)
            if hasattr(result, "fig11_latency")
            else injection_result_dict(result)
        )
        write(("" if first else ",") + row_head + row_json(entry, indent))
        first = False
    write(("\n" + pad + "]") if not first else "]")
    write(",\n")
    write(f'{pad}"runs": {runs},\n')
    write(f'{pad}"scheduler": {_nested_json(scheduler, 1, indent)}')
    if spec is not None:
        spec_text = _nested_json(spec.canonical_dict(), 1, indent)
        write(f',\n{pad}"spec": {spec_text}')
        write(f',\n{pad}"spec_hash": {json.dumps(spec.spec_hash())}')
    write("\n}")
    return runs
