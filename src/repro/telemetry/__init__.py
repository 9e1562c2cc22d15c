"""Zero-dependency, opt-in instrumentation for the whole stack.

The paper's TMU exists because SoCs are blind to where time goes when a
transaction stalls; this package removes the same blindness about the
reproduction itself.  Three layers, all off by default and all
measurement-only (enabling any of them never changes a figure):

* **Kernel tracing** (:mod:`.tracer`) — a :class:`Tracer` object
  installed on a :class:`~repro.sim.kernel.Simulator` receives
  step/drive/update/wake/leap hooks.  :class:`KernelTracer` turns them
  into per-component execution counters plus a Chrome trace-event
  (Perfetto-loadable) span timeline of the schedule.
* **Campaign metrics** (:mod:`.metrics`) — a :class:`MetricsRegistry`
  of counters/gauges/histograms threaded through the orchestration
  engine, executors and result store; serialized into a ``telemetry.json``
  artifact next to campaign exports and summarized by
  ``repro report --telemetry``.
* **Fleet health** (:mod:`.events`) — a bounded, thread-safe
  :class:`EventLog` of structured coordinator events (leases, worker
  connects, heartbeats) behind the ``status`` wire frame and the
  ``repro status --connect`` command.

:mod:`.logs` rounds the story out with the ``repro --log-level /
--log-json`` root logger setup.
"""

from .events import EventLog
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    read_telemetry,
    write_telemetry,
)
from .logs import setup_logging, worker_log_prefix
from .tracer import KernelTracer, Tracer, write_chrome_trace

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "KernelTracer",
    "MetricsRegistry",
    "Tracer",
    "read_telemetry",
    "setup_logging",
    "worker_log_prefix",
    "write_chrome_trace",
    "write_telemetry",
]
