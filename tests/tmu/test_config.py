"""Unit tests for TMU configuration."""

import dataclasses

import pytest

from repro.orchestrate.serialize import config_from_dict, config_to_dict
from repro.tmu.budget import (
    AdaptiveBudgetPolicy,
    FixedBudgetPolicy,
    PhaseBudgets,
    SpanBudgets,
)
from repro.tmu.config import TmuConfig, Variant, full_config, tiny_config


def test_max_outstanding_is_product():
    config = TmuConfig(max_uniq_ids=4, txn_per_id=8)
    assert config.max_outstanding == 32


def test_defaults_are_full_counter():
    config = TmuConfig()
    assert config.variant == Variant.FULL
    assert config.protocol_check_immediate is True


def test_tiny_defaults_lenient_protocol_checks():
    config = tiny_config()
    assert config.variant == Variant.TINY
    assert config.protocol_check_immediate is False


def test_explicit_protocol_check_override_respected():
    config = tiny_config(protocol_check_immediate=True)
    assert config.protocol_check_immediate is True
    config = full_config(protocol_check_immediate=False)
    assert config.protocol_check_immediate is False


def test_budget_policy_defaulted():
    assert isinstance(TmuConfig().budgets, AdaptiveBudgetPolicy)


def test_has_prescaler():
    assert not TmuConfig(prescale_step=1).has_prescaler
    assert TmuConfig(prescale_step=32).has_prescaler


def test_validation():
    with pytest.raises(ValueError):
        TmuConfig(max_uniq_ids=0)
    with pytest.raises(ValueError):
        TmuConfig(txn_per_id=0)
    with pytest.raises(ValueError):
        TmuConfig(prescale_step=0)


def test_factory_kwargs_passthrough():
    config = full_config(max_uniq_ids=8, txn_per_id=2, prescale_step=16)
    assert config.max_uniq_ids == 8
    assert config.max_outstanding == 16
    assert config.prescale_step == 16


@pytest.mark.parametrize(
    "make_budgets", [AdaptiveBudgetPolicy, lambda: FixedBudgetPolicy(40, 90)]
)
def test_config_round_trip_compares_equal(make_budgets):
    config = tiny_config(max_uniq_ids=2, budgets=make_budgets())
    assert config == tiny_config(max_uniq_ids=2, budgets=make_budgets())
    assert config_from_dict(config_to_dict(config)) == config


def test_configs_differing_in_one_budget_compare_unequal():
    changed = TmuConfig(budgets=AdaptiveBudgetPolicy(PhaseBudgets(b_wait=33)))
    assert changed != TmuConfig()
    changed = TmuConfig(budgets=AdaptiveBudgetPolicy(span=SpanBudgets(base=65)))
    assert changed != TmuConfig()
    assert FixedBudgetPolicy(64, 128) != FixedBudgetPolicy(64, 129)
    assert FixedBudgetPolicy() != AdaptiveBudgetPolicy()


def test_budget_blocks_are_frozen():
    # A register write lands in the TMU, never in a shared config.
    config = TmuConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.budgets.span.base = 500
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.budgets.phases.b_wait = 1


def test_config_repr_is_value_based():
    for config in (TmuConfig(), full_config(budgets=FixedBudgetPolicy())):
        text = repr(config)
        assert "0x" not in text
        assert text == repr(config_from_dict(config_to_dict(config)))
    assert "span_budget_cycles=128" in repr(FixedBudgetPolicy())
