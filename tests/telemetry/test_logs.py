"""Root logger setup: idempotence, JSON lines, worker attribution."""

import io
import json
import logging

import pytest

from repro.telemetry import setup_logging, worker_log_prefix
from repro.telemetry import logs as logs_module
from repro.telemetry.logs import ROOT_LOGGER


@pytest.fixture(autouse=True)
def reset_repro_logger():
    """Leave the 'repro' logger exactly as we found it."""
    logger = logging.getLogger(ROOT_LOGGER)
    saved = (
        list(logger.handlers), list(logger.filters),
        logger.level, logger.propagate, logs_module._worker_id,
    )
    yield
    logger.handlers, logger.filters = list(saved[0]), list(saved[1])
    logger.setLevel(saved[2])
    logger.propagate = saved[3]
    logs_module._worker_id = saved[4]


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


def test_worker_prefix_in_text_and_json():
    stream = io.StringIO()
    setup_logging("info", stream=stream, worker_id="host-1234-0")
    logging.getLogger(f"{ROOT_LOGGER}.worker").info("pulling")
    assert stream.getvalue().startswith("[host-1234-0] ")

    stream = io.StringIO()
    setup_logging("info", json_lines=True, stream=stream)
    worker_log_prefix("host-1234-1")
    logging.getLogger(f"{ROOT_LOGGER}.worker").info("pulling")
    assert json.loads(stream.getvalue().strip())["worker"] == "host-1234-1"


def test_worker_prefix_replaces_previous_tag():
    stream = io.StringIO()
    logger = setup_logging("info", stream=stream)
    worker_log_prefix("a")
    worker_log_prefix("b")
    (handler,) = logger.handlers
    tags = [f for f in handler.filters if type(f).__name__ == "_WorkerTag"]
    assert len(tags) == 1 and tags[0].worker_id == "b"


def test_setup_after_worker_prefix_keeps_the_tag():
    # worker_loop tags first; a later setup_logging (new handler) must
    # not silently drop the attribution.
    worker_log_prefix("host-7")
    stream = io.StringIO()
    setup_logging("info", stream=stream)
    logging.getLogger(f"{ROOT_LOGGER}.worker").info("pulling")
    assert stream.getvalue().startswith("[host-7] ")
