"""TMU configuration (paper Table I plus §II parameters).

``MaxUniqIDs`` × ``TxnPerUniqID`` = ``MaxOutstdTxns`` — the tracking
capacity of the Outstanding Transaction Table.  The remaining knobs
select the variant (Tiny- vs Full-Counter), the prescaler, and the
budget policy.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional

from .budget import AdaptiveBudgetPolicy


class Variant(enum.Enum):
    """TMU counter architecture."""

    TINY = "tiny"
    FULL = "full"


@dataclasses.dataclass
class TmuConfig:
    """Complete configuration of one TMU instance.

    Parameters
    ----------
    variant:
        :attr:`Variant.TINY` (one counter per transaction) or
        :attr:`Variant.FULL` (one counter per phase).
    max_uniq_ids:
        ``MaxUniqIDs`` — unique transaction IDs tracked (per direction).
    txn_per_id:
        ``TxnPerUniqID`` — outstanding transactions allowed per ID.
    prescale_step:
        Counter prescaler step; 1 disables prescaling.
    sticky:
        Enable the sticky bit alongside the prescaler.
    budgets:
        Budget policy; the adaptive policy with defaults if omitted.
    protocol_check_immediate:
        Whether protocol violations (ID mismatch, unrequested response,
        wrong ``last``) trigger the fault path the cycle they occur.
        Defaults to True for Full-Counter and False for Tiny-Counter,
        where such faults surface when the transaction budget expires —
        reproducing the detection-latency split of Figs. 9/11.
    max_txn_cycles:
        Longest transaction the counters must represent (paper uses 256);
        sizes counter widths in the area model.
    error_log_depth:
        Capacity of the hardware error log.
    enabled:
        Power-on value of the software enable bit (the CTRL register,
        which the TMU holds as registered state); a disabled TMU is a
        pure wire.
    """

    variant: Variant = Variant.FULL
    max_uniq_ids: int = 4
    txn_per_id: int = 8
    prescale_step: int = 1
    sticky: bool = True
    budgets: Optional[AdaptiveBudgetPolicy] = None
    protocol_check_immediate: Optional[bool] = None
    max_txn_cycles: int = 256
    error_log_depth: int = 32
    enabled: bool = True
    trip_on_error_resp: bool = False

    def __post_init__(self) -> None:
        if self.max_uniq_ids <= 0:
            raise ValueError("max_uniq_ids must be positive")
        if self.txn_per_id <= 0:
            raise ValueError("txn_per_id must be positive")
        if self.prescale_step <= 0:
            raise ValueError("prescale_step must be positive")
        if self.budgets is None:
            self.budgets = AdaptiveBudgetPolicy()
        if self.protocol_check_immediate is None:
            self.protocol_check_immediate = self.variant == Variant.FULL

    @property
    def max_outstanding(self) -> int:
        """``MaxOutstdTxns`` (Table I): total outstanding capacity."""
        return self.max_uniq_ids * self.txn_per_id

    @property
    def has_prescaler(self) -> bool:
        return self.prescale_step > 1


def tiny_config(**kwargs) -> TmuConfig:
    """Tiny-Counter configuration with the paper's defaults."""
    kwargs.setdefault("variant", Variant.TINY)
    return TmuConfig(**kwargs)


def full_config(**kwargs) -> TmuConfig:
    """Full-Counter configuration with the paper's defaults."""
    kwargs.setdefault("variant", Variant.FULL)
    return TmuConfig(**kwargs)
