"""Per-layer attribution for the traced benchmark run.

Everything here lives outside ``src/``: the traced run times calls into
each layer's public functions by wrapping them for the duration of one
campaign repetition, and takes component drive/update time from the
simulator's opt-in tracer hook (``sim_tracer=`` on the harness
constructors).  While the untraced repetitions run, only the harness
constructors (which attach a leap-aware probe counting stepped cycles)
and ``execute_run`` (one timer per simulated run) are wrapped.

Attribution is *exclusive*: :class:`LayerClock` charges every
nanosecond between :meth:`LayerClock.start` and :meth:`LayerClock.stop`
to exactly one layer (the innermost open one, or ``other``), so the
layer times of a repetition always add up to its traced wall time.
Component time reported by the tracer arrives after the fact; it is
moved out of the enclosing ``sim.kernel`` layer, minus whatever nested
memory or counter time was charged while the component ran.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional

from repro.axi.memory import SparseMemory
from repro.faults.campaign import IpHarness
from repro.orchestrate import ResultStore
from repro.orchestrate.executor import execute_run
from repro.orchestrate.spec import CampaignSpec, plan_shards
from repro.soc.cheshire import CheshireSoC
from repro.telemetry import Tracer
from repro.tmu.counters import (
    PrescaledCounter,
    catch_up_array,
    edges_to_expiry_array,
)

OTHER = "other"
KERNEL = "sim.kernel"
BUILD = "harness.build"
MEMORY = "axi.memory"
COUNTER = "tmu.counter"
EXECUTOR = "orchestrate.executor"
EXPORT = "analysis.export"

#: Layers whose calls happen *inside* a component's drive/update; their
#: time is subtracted from the component's tracer-measured time.
NESTED = frozenset((MEMORY, COUNTER))

#: Exclusive layers, in report order.  Their times sum to the traced
#: wall time of a repetition.
LAYERS = (
    BUILD,
    KERNEL,
    "axi.crossbar",
    "axi.manager",
    "axi.subordinate",
    MEMORY,
    "tmu.unit",
    COUNTER,
    "soc.periph",
    "orchestrate.plan",
    "orchestrate.store_get",
    "orchestrate.store_put",
    EXECUTOR,
    EXPORT,
    OTHER,
)

#: Component class module -> layer.  Subclasses defined in the SoC
#: package (DMA engine, Ethernet MAC) belong to their AXI role.
_COMPONENT_LAYERS = (
    ("repro.axi.crossbar", "axi.crossbar"),
    ("repro.axi.manager", "axi.manager"),
    ("repro.soc.dma", "axi.manager"),
    ("repro.axi.subordinate", "axi.subordinate"),
    ("repro.soc.ethernet", "axi.subordinate"),
    ("repro.tmu.", "tmu.unit"),
    ("repro.soc.plic", "soc.periph"),
    ("repro.soc.cpu", "soc.periph"),
    ("repro.soc.reset_unit", "soc.periph"),
    ("repro.soc.regbus", "soc.periph"),
)


def component_layer(component_type: type) -> str:
    """The layer a component class's drive/update time belongs to."""
    module = component_type.__module__
    for prefix, layer in _COMPONENT_LAYERS:
        if module == prefix or module.startswith(prefix):
            return layer
    return OTHER


class NullClock:
    """The untraced stand-in: spans cost one no-op call."""

    def enter(self, layer: str) -> None:
        pass

    def exit(self) -> None:
        pass

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        yield


class LayerClock(NullClock):
    """Exclusive wall-time accounting over a stack of open layers."""

    def __init__(self) -> None:
        self.ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.nested_ns = 0
        self.stack: List[str] = [OTHER]
        self._last = 0
        self._started = 0
        self.wall_ns = 0

    def start(self) -> None:
        self._started = self._last = perf_counter_ns()

    def stop(self) -> None:
        now = perf_counter_ns()
        self._charge(now)
        self.wall_ns = now - self._started

    def _charge(self, now: int) -> None:
        layer = self.stack[-1]
        elapsed = now - self._last
        self.ns[layer] += elapsed
        if layer in NESTED:
            self.nested_ns += elapsed
        self._last = now

    def enter(self, layer: str) -> None:
        self._charge(perf_counter_ns())
        self.stack.append(layer)
        self.calls[layer] += 1

    def exit(self) -> None:
        self._charge(perf_counter_ns())
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    def reassign(self, layer: str, elapsed_ns: int) -> None:
        """Move a finished component's own time out of the open layer."""
        self._charge(perf_counter_ns())
        own = elapsed_ns - self.nested_ns
        self.nested_ns = 0
        top = self.stack[-1]
        own = max(0, min(own, self.ns[top]))
        self.ns[top] -= own
        self.ns[layer] += own


class SteppedCycles:
    """Leap-aware probe: counts the cycles the kernel actually stepped."""

    leap_aware = True

    def __init__(self) -> None:
        self.cycles = 0

    def __call__(self, sim) -> None:
        self.cycles += 1


class LayerTracer(Tracer):
    """Component-tier tracer that feeds drive/update time to a clock."""

    trace_components = True

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock
        self.leaps = 0
        self.cycles_leaped = 0
        self._layers: Dict[type, str] = {}

    def step_begin(self, sim) -> None:
        self.clock.nested_ns = 0

    def leap(self, sim, start: int, dest: int) -> None:
        self.leaps += 1
        self.cycles_leaped += dest - start

    def drive_executed(self, component, elapsed_ns: int) -> None:
        kind = type(component)
        layer = self._layers.get(kind)
        if layer is None:
            layer = self._layers[kind] = component_layer(kind)
        self.clock.reassign(layer, elapsed_ns)

    update_executed = drive_executed


class TimedExecutor:
    """Benchmark-owned executor: delegates to *inner*, timing each item.

    With the serial executor and ``shard_size=1`` every item is one
    ``execute_shard`` call, i.e. one simulated run.
    """

    workers = 1

    def __init__(self, inner, clock: NullClock) -> None:
        self.inner = inner
        self.clock = clock
        self.call_ns: List[int] = []
        self.runs_executed = 0

    def map(self, shards):
        items = iter(self.inner.map(shards))
        while True:
            self.clock.enter(EXECUTOR)
            start = perf_counter_ns()
            try:
                item = next(items, None)
            finally:
                elapsed = perf_counter_ns() - start
                self.clock.exit()
            if item is None:
                return
            self.call_ns.append(elapsed)
            self.runs_executed += len(item[1])
            yield item


class Instruments:
    """What one repetition's patches report back."""

    def __init__(self, clock: NullClock, tracer: Optional[LayerTracer]) -> None:
        self.clock = clock
        self.tracer = tracer
        self.stepped = SteppedCycles()
        self.build_ns: List[int] = []
        self.run_ns: List[int] = []


def _timed(clock: LayerClock, layer: str, original: Callable) -> Callable:
    """Time calls entering *layer*; calls made from inside it (a memory
    word read calling the byte reader) pass straight through, so only
    entries into the layer are counted and instrument cost stays low."""
    stack = clock.stack

    def wrapper(*args, **kwargs):
        if stack[-1] == layer:
            return original(*args, **kwargs)
        clock.enter(layer)
        try:
            return original(*args, **kwargs)
        finally:
            clock.exit()

    wrapper.__wrapped__ = original
    return wrapper


def _harness_init(original: Callable, inst: Instruments) -> Callable:
    clock, tracer = inst.clock, inst.tracer

    def __init__(self, *args, **kwargs):
        if tracer is not None and kwargs.get("sim_tracer") is None:
            kwargs["sim_tracer"] = tracer
        clock.enter(BUILD)
        start = perf_counter_ns()
        try:
            original(self, *args, **kwargs)
        finally:
            inst.build_ns.append(perf_counter_ns() - start)
            clock.exit()
        self.sim.add_probe(inst.stepped)

    return __init__


def _run_timer(original: Callable, inst: Instruments) -> Callable:
    """Time each simulated run; traced, it is the ``sim.kernel`` layer."""
    clock = inst.clock

    def wrapper(*args, **kwargs):
        clock.enter(KERNEL)
        start = perf_counter_ns()
        try:
            return original(*args, **kwargs)
        finally:
            inst.run_ns.append(perf_counter_ns() - start)
            clock.exit()

    return wrapper


def _bindings(function: Callable):
    """Every loaded ``repro`` module attribute bound to *function*."""
    name = function.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "repro" and getattr(
            module, name, None
        ) is function:
            yield module, name


@contextlib.contextmanager
def instrumented(traced: bool) -> Iterator[Instruments]:
    """Install the repetition's wrappers; restore everything on exit.

    Untraced, only the harness constructors (to attach the stepped-cycle
    probe) and ``execute_run`` (to time each simulated run, once per
    run) are wrapped.  Traced, the layer wrappers and the tracer are
    installed too.
    """
    clock = LayerClock() if traced else NullClock()
    inst = Instruments(clock, LayerTracer(clock) if traced else None)
    timer = _run_timer(execute_run, inst)
    patches = [
        (IpHarness, "__init__", _harness_init(IpHarness.__init__, inst)),
        (CheshireSoC, "__init__", _harness_init(CheshireSoC.__init__, inst)),
    ] + [(module, name, timer) for module, name in _bindings(execute_run)]
    if traced:
        for method in (
            "read_byte", "write_byte", "read", "write",
            "read_word", "write_word", "write_masked",
        ):
            patches.append(
                (SparseMemory, method,
                 _timed(clock, MEMORY, SparseMemory.__dict__[method]))
            )
        for method in ("edges_to_expiry", "catch_up"):
            patches.append(
                (PrescaledCounter, method,
                 _timed(clock, COUNTER, getattr(PrescaledCounter, method)))
            )
        patches += [
            (CampaignSpec, "runs",
             _timed(clock, "orchestrate.plan", CampaignSpec.runs)),
            (ResultStore, "get",
             _timed(clock, "orchestrate.store_get", ResultStore.get)),
            (ResultStore, "put",
             _timed(clock, "orchestrate.store_put", ResultStore.put)),
        ]
        for function, layer in (
            (edges_to_expiry_array, COUNTER),
            (catch_up_array, COUNTER),
            (plan_shards, "orchestrate.plan"),
        ):
            wrapper = _timed(clock, layer, function)
            patches += [(module, name, wrapper)
                        for module, name in _bindings(function)]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield inst
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def median_ms(samples_ns: List[int]) -> float:
    return statistics.median(samples_ns) / 1e6 if samples_ns else 0.0
