"""Zero-dependency, opt-in instrumentation for the whole stack.

The paper's TMU exists because SoCs are blind to where time goes when a
transaction stalls; this package removes the same blindness about the
reproduction itself.  Two layers, both off by default and both
measurement-only (enabling any of them never changes a figure):

* **Kernel tracing** (:mod:`.tracer`) — a :class:`Tracer` object
  installed on a :class:`~repro.sim.kernel.Simulator` receives
  step/drive/update/wake/leap hooks.  :class:`KernelTracer` turns them
  into per-component execution counters plus a Chrome trace-event
  (Perfetto-loadable) span timeline of the schedule.
* **Campaign counters** (:mod:`.metrics`) — a plain
  :class:`collections.Counter` of event counts threaded through the
  orchestration engine, executors and result store; serialized into a
  ``telemetry.json`` artifact next to campaign exports and printed by
  ``repro report --telemetry``.

:mod:`.logs` rounds the story out with the ``repro --log-level /
--log-json`` root logger setup.
"""

from .._lazy import lazy_exports

__all__ = [
    "KernelTracer",
    "Tracer",
    "read_telemetry",
    "setup_logging",
    "write_chrome_trace",
    "write_telemetry",
]

_EXPORTS = {
    "metrics": ("read_telemetry", "write_telemetry"),
    "logs": ("setup_logging",),
    "tracer": ("KernelTracer", "Tracer", "write_chrome_trace"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
