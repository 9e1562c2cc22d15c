"""Root logger setup: idempotence, level filtering, JSON lines."""

import io
import json
import logging

import pytest

from repro.telemetry import setup_logging
from repro.telemetry.logs import ROOT_LOGGER


@pytest.fixture(autouse=True)
def reset_repro_logger():
    """Leave the 'repro' logger exactly as we found it."""
    logger = logging.getLogger(ROOT_LOGGER)
    saved = (
        list(logger.handlers), list(logger.filters),
        logger.level, logger.propagate,
    )
    yield
    logger.handlers, logger.filters = list(saved[0]), list(saved[1])
    logger.setLevel(saved[2])
    logger.propagate = saved[3]


def test_setup_is_idempotent():
    stream = io.StringIO()
    setup_logging("info", stream=stream)
    logger = setup_logging("info", stream=stream)
    assert len(logger.handlers) == 1
    assert logger.propagate is False


def test_level_filters_records():
    stream = io.StringIO()
    setup_logging("warning", stream=stream)
    logger = logging.getLogger(f"{ROOT_LOGGER}.orchestrate.store")
    logger.info("invisible")
    logger.warning("visible")
    text = stream.getvalue()
    assert "invisible" not in text and "visible" in text


def test_rejects_unknown_level():
    with pytest.raises(ValueError, match="unknown log level"):
        setup_logging("loud")


def test_json_lines_are_parseable():
    stream = io.StringIO()
    setup_logging("info", json_lines=True, stream=stream)
    logging.getLogger(f"{ROOT_LOGGER}.test").info("shard %d done", 3)
    record = json.loads(stream.getvalue().strip())
    assert record["message"] == "shard 3 done"
    assert record["level"] == "INFO"
    assert record["logger"] == f"{ROOT_LOGGER}.test"

