"""The verify oracle covers every registered field it should.

``snapshot_state()`` is built from each class's field table
(``registered`` in ``repro.sim.component``).  For every component class
of the IP harness, the busy SoC (and its Regbus variant) and the
baseline bus of ``test_reset_exact``, and for the holders of registered
state they nest (remap tables, the protocol checker, the prescalers):

* the fields verify does not compare are exactly the ones pinned in
  ``UNCOMPARED`` — clock-derived state and drive memos.  Moving a field
  there weakens the oracle, so it must be done here, deliberately;
* perturbing any field compared directly (frozen, not projected)
  changes ``snapshot_state()``.
"""

import pytest

from tests.sim.test_reset_exact import _baseline_bus

from repro.faults.types import InjectionStage
from repro.orchestrate import CampaignSpec
from repro.orchestrate.executor import build_harness
from repro.sim.component import RegisteredState, freeze
from repro.soc.cheshire import CheshireSoC, system_tmu_config
from repro.soc.experiment import FIG11_STAGES
from repro.tmu.config import Variant, tiny_config

_MANAGER_CLOCK = {
    "_aw_delay", "_ar_delay", "_w_gap", "_b_wait", "_r_wait", "_cycle",
    "_stamp",
}
_MANAGER_MEMOS = {
    "_aw_memo_spec", "_aw_memo", "_ar_memo_spec", "_ar_memo",
    "_w_memo_position", "_w_memo",
}
_SUBORDINATE = {"_aw_wait", "_ar_wait", "_stamp", "_b_memo", "_r_memo"}

_GUARD_HOLDERS = {
    "ott", "prescaler", "perf", "log", "front",
    "stab_addr", "stab_data", "stab_resp",
}

#: Registered fields verify does not compare, per class.
UNCOMPARED = {
    "Manager": _MANAGER_CLOCK | _MANAGER_MEMOS,
    "DmaEngine": _MANAGER_CLOCK | _MANAGER_MEMOS,
    "Subordinate": _SUBORDINATE,
    "EthernetMac": _SUBORDINATE | {"_tx_buffered", "_tx_stamp"},
    "TransactionMonitoringUnit": {"cycle"},
    "_TmuChannel": set(),
    "IdRemapTable": set(),
    "Prescaler": {"_phase"},
    # A guard compares its holders through its own flat
    # snapshot_state() (pinned by the guard log digest), and the
    # prescaler phase follows the clock.
    "WriteGuard": _GUARD_HOLDERS,
    "ReadGuard": _GUARD_HOLDERS,
    "OutstandingTransactionTable": set(),
    "PerfLog": set(),
    "ErrorLog": set(),
    "FrontWatch": set(),
    "StabilityWatch": set(),
    "Crossbar": {"_fwd_memo", "_w_plan_memo"},
    "_XbarChannel": set(),
    "ResetUnit": {"_countdown", "_cycle"},
    "Plic": set(),
    "RecoveryCpu": {"_countdown", "_cycle"},
    "RegBusMaster": set(),
    "RegBusDemux": set(),
    "AxiFirewall": set(),
    "FaultInjector": set(),
    "AxiChecker": set(),
    "ProtocolChecker": {"_cycle"},
    "XilinxStyleTimeout": {"_cycle"},
    "AxiPerfMonitor": {
        "_cycle", "_window_sum", "_window_count", "_window_history",
    },
    "Sp805Watchdog": {"_stamp"},
}


def _fields(holder):
    """Every registered field name of *holder*'s class."""
    return {
        name
        for klass in type(holder).__mro__
        for name in klass.__dict__.get("registered", ())
    }


def _holders(sims):
    """One instance of every registered-state class the *sims* hold:
    their components, and the holders their registered fields nest."""
    found = {}

    def visit(holder):
        if type(holder).__name__ in found:
            return
        found[type(holder).__name__] = holder
        for name in _fields(holder):
            value = getattr(holder, name)
            for nested in (value, *getattr(value, "__dict__", {}).values()):
                if isinstance(nested, RegisteredState):
                    visit(nested)

    for sim in sims:
        for component in sim.components:
            visit(component)
    return found


def _sims():
    ip = CampaignSpec.ip(
        [tiny_config(prescale_step=4)], [InjectionStage.AW_READY_MISSING],
        seeds=(3,),
    )
    busy = CampaignSpec.system(
        [Variant.TINY], [FIG11_STAGES[0]], beats=16, seeds=(3,),
        background=32, outstanding=6, reorder_depth=4,
    )
    regbus = CheshireSoC(system_tmu_config(), use_regbus=True)
    return [
        build_harness(ip.runs()[0]).sim,
        build_harness(busy.runs()[0]).sim,
        regbus.sim,
        _baseline_bus()[0],
    ]


HOLDERS = _holders(_sims())


def test_every_class_is_pinned():
    assert set(HOLDERS) == set(UNCOMPARED)


@pytest.mark.parametrize("name", sorted(UNCOMPARED))
def test_uncompared_fields_are_the_pinned_ones(name):
    holder = HOLDERS[name]
    compared = {field for field, _ in type(holder)._compared}
    assert _fields(holder) - compared == UNCOMPARED[name]


@pytest.mark.parametrize("name", sorted(UNCOMPARED))
def test_perturbing_a_direct_field_moves_the_snapshot(name):
    holder = HOLDERS[name]
    direct = [field for field, view in type(holder)._compared if view is freeze]
    before = holder.snapshot_state()
    for field in direct:
        value = getattr(holder, field)
        setattr(holder, field, object())
        try:
            assert holder.snapshot_state() != before, field
        finally:
            setattr(holder, field, value)
    assert holder.snapshot_state() == before
