"""Exact reset at the state level: after a run, ``Simulator.reset()``
leaves every component's instance state equal to a fresh build's.

Harness reuse (``HarnessCache``) relies on this; the property test in
``tests/properties/test_harness_reuse_properties.py`` checks it on run
results only.  Here each component's ``__dict__`` (and slots) is
normalized recursively: wires and the simulator's components compare
by name, a component held by another (an unregistered one, such as the
``AxiChecker``'s rule library) by its fields, and the kernel's
bookkeeping fields (``_sim``, ``_order``, the schedulers) are skipped.
"""

import functools
import inspect
from collections import deque
from enum import Enum

import pytest

from tests.conftest import build_loop

from repro.axi.interface import AxiInterface
from repro.axi.manager import Manager
from repro.axi.subordinate import Subordinate
from repro.axi.traffic import RandomTraffic, read_spec, write_spec
from repro.baselines import AxiChecker, AxiPerfMonitor, XilinxStyleTimeout
from repro.faults.injector import FaultInjector
from repro.faults.types import InjectionStage
from repro.orchestrate import CampaignSpec
from repro.orchestrate.executor import HarnessCache, build_harness, execute_run
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.signal import Wire
from repro.soc.experiment import FIG11_STAGES
from repro.tmu import registers as R
from repro.tmu.config import Variant, full_config, tiny_config
from repro.tmu.registers import TmuRegisters

_SKIPPED = frozenset({"_sim", "_order", "_scheduler", "_update_scheduler"})


def _fields(obj):
    """(name, value) of every instance attribute, ``__slots__`` included."""
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        names.update((slots,) if isinstance(slots, str) else slots)
    return [
        (name, getattr(obj, name))
        for name in sorted(names - _SKIPPED - {"__dict__", "__weakref__"})
        if hasattr(obj, name)
    ]


def _norm(value, registered, path=frozenset()):
    """*value* as plain data; *registered* holds the ``id`` of every
    component of the simulator, which compare by name."""
    if isinstance(value, Wire):
        return ("wire", value.name)
    if isinstance(value, Component) and id(value) in registered:
        return ("component", value.name)
    if value is None or isinstance(value, (bool, int, float, str, bytes, Enum)):
        return value
    if id(value) in path:
        return ("cycle", type(value).__name__)
    path = path | {id(value)}
    if isinstance(value, (list, tuple, deque)):
        return (type(value).__name__,
                [_norm(item, registered, path) for item in value])
    if isinstance(value, dict):
        return ("dict", [(_norm(k, registered, path), _norm(v, registered, path))
                         for k, v in value.items()])
    if isinstance(value, (set, frozenset)):
        return (type(value).__name__,
                sorted(repr(_norm(v, registered, path)) for v in value))
    if isinstance(value, functools.partial):
        return ("partial", _norm(value.func, registered, path),
                _norm(value.args, registered, path))
    if inspect.ismethod(value):
        return ("method", value.__func__.__qualname__,
                _norm(value.__self__, registered, path))
    if inspect.isfunction(value):
        return ("function", value.__qualname__)
    return (
        type(value).__qualname__,
        [(name, _norm(field, registered, path)) for name, field in _fields(value)],
    )


def _state(sim: Simulator):
    """Every component's normalized state, and every wire's value."""
    registered = frozenset(map(id, sim.components))
    components = {
        component.name: _norm(dict(_fields(component)), registered)
        for component in sim.components
    }
    wires = [
        (wire.name, _norm(wire._value, registered))
        for wire in sim._wires.values()
    ]
    return components, wires


def _assert_reset_is_fresh(reset_sim: Simulator, fresh_sim: Simulator) -> None:
    reset_components, reset_wires = _state(reset_sim)
    fresh_components, fresh_wires = _state(fresh_sim)
    assert reset_components.keys() == fresh_components.keys()
    for name, state in fresh_components.items():
        assert reset_components[name] == state, name
    assert reset_wires == fresh_wires


def _reset_harness_and_fresh_build(spec: CampaignSpec):
    """A harness that ran *spec*'s one run and was reset, and a new one."""
    (run,) = spec.runs()
    cache = HarnessCache()
    harness = cache.get(run)
    execute_run(run, cache=cache)  # a cache hit: runs on *harness*
    harness.reset()
    return harness, build_harness(run)


@pytest.mark.parametrize("variant", [Variant.FULL, Variant.TINY])
@pytest.mark.parametrize("stage", list(InjectionStage), ids=lambda s: s.value)
def test_ip_harness_reset_equals_fresh_build(variant, stage):
    make = full_config if variant is Variant.FULL else tiny_config
    spec = CampaignSpec.ip(
        [make(prescale_step=4)], [stage], seeds=(3,), outstanding=3,
        reorder_depth=2,
    )
    harness, fresh = _reset_harness_and_fresh_build(spec)
    _assert_reset_is_fresh(harness.sim, fresh.sim)


@pytest.mark.parametrize("variant", [Variant.FULL, Variant.TINY])
@pytest.mark.parametrize("stage", FIG11_STAGES, ids=lambda s: s.value)
def test_system_soc_reset_equals_fresh_build(variant, stage):
    spec = CampaignSpec.system(
        [variant], [stage], beats=16, seeds=(3,), background=8,
    )
    soc, fresh = _reset_harness_and_fresh_build(spec)
    _assert_reset_is_fresh(soc.sim, fresh.sim)


def _baseline_bus():
    """Manager → fault injector → subordinate, observed by the checker,
    timeout and perf monitor."""
    sim = Simulator()
    host, device = AxiInterface("host"), AxiInterface("device")
    components = [
        Manager("manager", host),
        FaultInjector("injector", host, device),
        Subordinate("subordinate", device, b_latency=2, reorder_depth=2),
        AxiChecker("checker", host),
        XilinxStyleTimeout("timeout", host, window=8),
        AxiPerfMonitor("perf", device, window=4),
    ]
    for component in components:
        sim.add(component)
    return sim, {component.name: component for component in components}


def test_baselines_and_injector_reset_equals_fresh_build():
    sim, parts = _baseline_bus()
    parts["manager"].submit_all(RandomTraffic(seed=3, max_beats=4).take(8))
    sim.run(25)
    parts["injector"].force("b", valid=False)  # still forced at reset
    sim.run(20)
    sim.reset()
    # Memory contents are not component state: the harnesses clear them
    # beside the kernel reset (IpHarness.reset, CheshireSoC.reset).
    parts["subordinate"].memory.clear()
    _assert_reset_is_fresh(sim, _baseline_bus()[0])


def test_state_compares_a_held_component_by_its_fields():
    # The AxiChecker's rule library is a component the checker holds,
    # not one of the simulator's: its fields are the checker's state.
    sim, parts = _baseline_bus()
    before = _state(sim)
    parts["checker"]._checker._cycle += 1
    assert _state(sim) != before


def test_register_writes_are_undone_by_reset():
    """CTRL, SPAN_BASE and SPAN_PER_BEAT are TMU state: a reset restores
    their power-on values and the shared config was never written."""
    env = build_loop()
    regs = TmuRegisters(env.tmu)
    env.manager.submit(read_spec(0, 0x100, beats=4))
    env.sim.run(5)
    regs.write(R.REG_CTRL, 0)
    regs.write(R.REG_SPAN_BASE, 500)
    regs.write(R.REG_SPAN_PER_BEAT, 9)
    env.sim.run(20)
    env.sim.reset()
    _assert_reset_is_fresh(env.sim, build_loop().sim)
