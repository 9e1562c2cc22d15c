"""Root logger setup behind ``repro --log-level / --log-json``.

The orchestration modules already log (``repro.orchestrate.store``
warns about corrupt rows, ``repro.orchestrate.distributed`` narrates
lease reassignment) but nothing configured a handler, so the records
died in ``logging.lastResort`` at WARNING and above and everything
below was invisible.  :func:`setup_logging` attaches one stream handler
to the ``repro`` logger — text or JSON-lines — and
:func:`worker_log_prefix` tags every record with a worker id so
multi-process worker output is attributable when it interleaves on the
coordinator's terminal.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Optional, TextIO

#: The package-level logger every ``repro.*`` module logger rolls up to.
ROOT_LOGGER = "repro"

_TEXT_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"


class _JsonLinesFormatter(logging.Formatter):
    """One JSON object per record: machine-tailable campaign logs."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": self.formatTime(record),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        worker = getattr(record, "worker", None)
        if worker is not None:
            payload["worker"] = worker
        if record.exc_info:
            payload["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True)


class _WorkerTag(logging.Filter):
    """Stamp records with a worker id (and prefix text messages)."""

    def __init__(self, worker_id: str) -> None:
        super().__init__()
        self.worker_id = worker_id

    def filter(self, record: logging.LogRecord) -> bool:
        if getattr(record, "worker", None) is None:
            record.worker = self.worker_id
        return True


#: Worker id to re-apply when setup_logging (re)installs its handler —
#: worker_loop tags before the CLI may have configured logging.
_worker_id: Optional[str] = None


def worker_log_prefix(worker_id: str) -> None:
    """Tag all subsequent ``repro`` log records with *worker_id*.

    Text-formatted handlers render the tag as a ``[worker_id]`` message
    prefix; the JSON formatter emits it as a ``worker`` field.  The tag
    lives on the *handler* (logger-level filters never see records that
    propagate up from child loggers like ``repro.orchestrate.store``),
    and is remembered so a later :func:`setup_logging` re-applies it.
    """
    global _worker_id
    _worker_id = worker_id
    tag = _WorkerTag(worker_id)
    for handler in logging.getLogger(ROOT_LOGGER).handlers:
        handler.filters = [
            f for f in handler.filters if not isinstance(f, _WorkerTag)
        ]
        handler.addFilter(tag)


class _TextFormatter(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        text = super().format(record)
        worker = getattr(record, "worker", None)
        return f"[{worker}] {text}" if worker is not None else text


def setup_logging(
    level: str = "warning",
    json_lines: bool = False,
    stream: Optional[TextIO] = None,
    worker_id: Optional[str] = None,
) -> logging.Logger:
    """Configure the ``repro`` logger; returns it.

    Idempotent: repeated calls replace the previously installed handler
    rather than stacking duplicates (the CLI calls this once per
    process, tests call it per-case).  Logs go to *stream* (default
    stderr, so ``--json`` table output on stdout stays clean).
    """
    logger = logging.getLogger(ROOT_LOGGER)
    numeric = logging.getLevelName(level.upper())
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level: {level!r}")
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(
        _JsonLinesFormatter() if json_lines else _TextFormatter(_TEXT_FORMAT)
    )
    for existing in list(logger.handlers):
        logger.removeHandler(existing)
    logger.addHandler(handler)
    logger.setLevel(numeric)
    # Everything is handled here; don't also bubble to the root logger.
    logger.propagate = False
    if worker_id is None:
        worker_id = _worker_id  # keep a pre-existing worker tag alive
    if worker_id is not None:
        worker_log_prefix(worker_id)
    return logger
