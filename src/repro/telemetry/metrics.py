"""Campaign telemetry: the ``telemetry.json`` artifact of event counts.

The orchestration layer's tally sheet is a plain
:class:`collections.Counter`: the engine, the executors and the result
store add what they did (runs executed, store hits, lanes derived) as
``metrics[name] += n``, and :func:`write_telemetry` serializes it next
to a campaign's JSON export for ``repro report --telemetry``.

Nothing reads a count to make a decision, so a campaign run with
``metrics=None`` is byte-identical to one with a counter attached
(asserted by the integration tests).  Every count is a function of the
campaign alone, so the artifact is byte-identical across executors,
worker counts and hash seeds.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Union

#: ``telemetry.json`` envelope identity; bump on incompatible layout.
TELEMETRY_FORMAT = "repro-telemetry"
TELEMETRY_VERSION = 1


def write_telemetry(counters: Mapping[str, int], path: Union[str, "Path"]) -> None:
    """Serialize *counters* as a ``telemetry.json`` artifact.

    The envelope carries format/version markers so a reader (``repro
    report --telemetry``, the CI schema check) can reject foreign or
    future files instead of misrendering them.
    """
    payload = {
        "format": TELEMETRY_FORMAT,
        "version": TELEMETRY_VERSION,
        "metrics": {"counters": dict(counters)},
    }
    with open(path, "w") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")


def read_telemetry(path: Union[str, "Path"]) -> Dict[str, Any]:
    """Load a ``telemetry.json`` artifact and return its metrics dict.

    Raises ``ValueError`` on a file that is not a telemetry artifact of
    a version this code understands.
    """
    with open(path) as stream:
        payload = json.load(stream)
    if not isinstance(payload, dict) or payload.get("format") != TELEMETRY_FORMAT:
        raise ValueError(f"{path}: not a {TELEMETRY_FORMAT} file")
    if payload.get("version") != TELEMETRY_VERSION:
        raise ValueError(
            f"{path}: telemetry version {payload.get('version')!r}, "
            f"this reader understands {TELEMETRY_VERSION}"
        )
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError(f"{path}: telemetry file carries no metrics dict")
    return metrics
