"""Canonical JSON forms of campaign inputs and outputs.

The result store persists results and keys them on run parameters, so
every object crossing that boundary needs a faithful, *stable* JSON
representation:

* :func:`config_to_dict` / :func:`config_from_dict` round-trip a
  :class:`~repro.tmu.config.TmuConfig` including its budget policy.
  Stability matters doubly here — the canonical dict also feeds each
  run's parameter hash, which keys the result store.
* :func:`result_to_dict` / :func:`result_from_dict` round-trip both
  :class:`~repro.faults.campaign.InjectionResult` and
  :class:`~repro.soc.experiment.SystemInjectionResult` without losing
  any field, so store hits reproduce the exact objects a live run
  returns (unlike the lossy report-oriented exports in
  :mod:`repro.analysis.export`).
* :func:`run_param_dict` is a run's simulation-determining parameters
  as plain data — the identity the store hashes into its keys.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from ..tmu.budget import (
    AdaptiveBudgetPolicy,
    FixedBudgetPolicy,
    PhaseBudgets,
    SpanBudgets,
)
from ..tmu.config import TmuConfig, Variant


class SpecSerializationError(TypeError):
    """Raised when a campaign input cannot be canonically serialized."""


# ----------------------------------------------------------------------
# TmuConfig
# ----------------------------------------------------------------------
def budgets_to_dict(budgets: AdaptiveBudgetPolicy) -> Dict[str, Any]:
    """Canonical dict of a budget policy (adaptive or fixed)."""
    if type(budgets) is FixedBudgetPolicy:
        return {
            "type": "fixed",
            "phase_budget": budgets.phase_budget,
            "span_budget_cycles": budgets.span_budget_cycles,
        }
    if type(budgets) is AdaptiveBudgetPolicy:
        return {
            "type": "adaptive",
            "phases": dataclasses.asdict(budgets.phases),
            "span": dataclasses.asdict(budgets.span),
        }
    raise SpecSerializationError(
        f"cannot serialize budget policy of type {type(budgets).__name__}; "
        f"campaign specs support AdaptiveBudgetPolicy and FixedBudgetPolicy"
    )


def budgets_from_dict(data: Dict[str, Any]) -> AdaptiveBudgetPolicy:
    if data["type"] == "fixed":
        return FixedBudgetPolicy(
            phase_budget=data["phase_budget"],
            span_budget_cycles=data["span_budget_cycles"],
        )
    return AdaptiveBudgetPolicy(
        PhaseBudgets(**data["phases"]), SpanBudgets(**data["span"])
    )


def config_to_dict(config: TmuConfig) -> Dict[str, Any]:
    """Canonical, JSON-ready dict of a :class:`TmuConfig`: every field,
    in declaration order, the variant and budgets as plain data."""
    data = {
        field.name: getattr(config, field.name)
        for field in dataclasses.fields(config)
    }
    data["variant"] = config.variant.value
    data["budgets"] = budgets_to_dict(config.budgets)
    return data


def config_from_dict(data: Dict[str, Any]) -> TmuConfig:
    return TmuConfig(**dict(
        data,
        variant=Variant(data["variant"]),
        budgets=budgets_from_dict(data["budgets"]),
    ))


# ----------------------------------------------------------------------
# Run identity
# ----------------------------------------------------------------------
def run_param_dict(run) -> Dict[str, Any]:
    """The simulation-determining parameters of a run, as plain data.

    Everything that changes what :func:`~.executor.execute_run` computes
    is here; everything that merely names the run's place inside one
    campaign (``index``, and the ``run_id`` derived from it) is not.
    This is the identity the run-granular result store keys on, so the
    same injection reused by two different sweeps hashes identically in
    both.  A run field added later joins the key by default.
    """
    harness_kwargs = [list(item) for item in run.harness_kwargs]
    params = dict(vars(run), harness_kwargs=harness_kwargs)
    del params["index"]
    return params


# ----------------------------------------------------------------------
# Injection results (IP and system level)
# ----------------------------------------------------------------------
def result_to_dict(result) -> Dict[str, Any]:
    """Full-fidelity dict of an IP- or system-level injection result."""
    # Imported here: the runners import repro.orchestrate.spec, which
    # imports this module, so module-level imports of them would cycle.
    from ..faults.campaign import InjectionResult
    from ..soc.experiment import SystemInjectionResult

    if isinstance(result, InjectionResult):
        kind = "ip"
    elif isinstance(result, SystemInjectionResult):
        kind = "system"
    else:
        raise SpecSerializationError(
            f"cannot serialize result of type {type(result).__name__}"
        )
    payload = dataclasses.asdict(result)
    payload["stage"] = result.stage.value
    payload["kind"] = kind
    return payload


def result_from_dict(data: Dict[str, Any]):
    from ..faults.campaign import InjectionResult
    from ..faults.types import InjectionStage
    from ..soc.experiment import SystemInjectionResult

    payload = dict(data)
    kind = payload.pop("kind")
    payload["stage"] = InjectionStage(payload["stage"])
    cls = InjectionResult if kind == "ip" else SystemInjectionResult
    return cls(**payload)
