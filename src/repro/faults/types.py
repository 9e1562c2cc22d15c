"""Fault-injection stage definitions (paper Fig. 9).

Each :class:`InjectionStage` corresponds to one of the error classes the
paper injects at IP and system level, for both directions.  A stage
knows which transaction phase it corrupts (for Full-Counter detection
attribution) and whether the fault originates at the manager or the
subordinate side of the link.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import ClassVar, Optional, Tuple

from ..axi.types import AxiDir
from ..tmu.phases import ReadPhase, WritePhase


class FaultSite(enum.Enum):
    """Which agent misbehaves."""

    MANAGER = "manager"
    SUBORDINATE = "subordinate"


class InjectionStage(enum.Enum):
    """Where in the transaction the fault is injected.

    Write-side stages follow the paper's Fig. 9 list verbatim; read-side
    stages mirror them (the paper applies "identical" injections to the
    read channels in the system experiment).
    """

    # -- write direction -------------------------------------------------
    AW_READY_MISSING = "aw_stage_error"
    W_VALID_MISSING = "w_stage_timeout"
    W_READY_MISSING = "w_datapath_error"
    DATA_TRANSFER_STALL = "data_transfer_error"
    WLAST_TO_BVALID = "wlast_bvalid_error"
    B_ID_MISMATCH = "b_handshake_id_mismatch"
    B_READY_MISSING = "b_handshake_ready_missing"
    # -- read direction ---------------------------------------------------
    AR_READY_MISSING = "ar_stage_error"
    R_VALID_MISSING = "r_stage_timeout"
    R_MID_BURST_STALL = "r_data_transfer_error"
    R_ID_MISMATCH = "r_id_mismatch"
    R_LAST_DROPPED = "r_last_dropped"
    R_READY_MISSING = "r_handshake_ready_missing"

    @property
    def direction(self) -> AxiDir:
        return (
            AxiDir.WRITE
            if self in _WRITE_STAGES
            else AxiDir.READ
        )

    @property
    def site(self) -> FaultSite:
        return (
            FaultSite.MANAGER
            if self in _MANAGER_STAGES
            else FaultSite.SUBORDINATE
        )

    @property
    def expected_fc_phase(self):
        """The phase whose counter should detect this fault (Fc variant)."""
        return _EXPECTED_FC_PHASE[self]


_WRITE_STAGES = frozenset(
    {
        InjectionStage.AW_READY_MISSING,
        InjectionStage.W_VALID_MISSING,
        InjectionStage.W_READY_MISSING,
        InjectionStage.DATA_TRANSFER_STALL,
        InjectionStage.WLAST_TO_BVALID,
        InjectionStage.B_ID_MISMATCH,
        InjectionStage.B_READY_MISSING,
    }
)

_MANAGER_STAGES = frozenset(
    {
        InjectionStage.W_VALID_MISSING,
        InjectionStage.B_READY_MISSING,
        InjectionStage.R_READY_MISSING,
    }
)

_EXPECTED_FC_PHASE = {
    InjectionStage.AW_READY_MISSING: WritePhase.AW_HANDSHAKE,
    InjectionStage.W_VALID_MISSING: WritePhase.W_ENTRY,
    InjectionStage.W_READY_MISSING: WritePhase.W_FIRST_HS,
    InjectionStage.DATA_TRANSFER_STALL: WritePhase.W_DATA,
    InjectionStage.WLAST_TO_BVALID: WritePhase.B_WAIT,
    InjectionStage.B_ID_MISMATCH: WritePhase.B_WAIT,
    InjectionStage.B_READY_MISSING: WritePhase.B_HANDSHAKE,
    InjectionStage.AR_READY_MISSING: ReadPhase.AR_HANDSHAKE,
    InjectionStage.R_VALID_MISSING: ReadPhase.R_ENTRY,
    InjectionStage.R_MID_BURST_STALL: ReadPhase.R_DATA,
    InjectionStage.R_ID_MISMATCH: ReadPhase.R_DATA,
    InjectionStage.R_LAST_DROPPED: ReadPhase.R_DATA,
    InjectionStage.R_READY_MISSING: ReadPhase.R_FIRST_HS,
}

#: The six write stages of the paper's Fig. 9, in figure order.
FIG9_WRITE_STAGES = (
    InjectionStage.AW_READY_MISSING,
    InjectionStage.W_VALID_MISSING,
    InjectionStage.W_READY_MISSING,
    InjectionStage.DATA_TRANSFER_STALL,
    InjectionStage.WLAST_TO_BVALID,
    InjectionStage.B_READY_MISSING,
)


@dataclasses.dataclass
class InjectionOutcome:
    """The fields every fault injection measures, IP or system level.

    The ``sim_*`` fields are the kernel's ``Simulator.STAT_KEYS`` for
    the run: how much idle time it fast-forwarded, how many burst
    cycles it streamed in bulk, how many it stepped and in how many of
    those a streaming island rode along.  They are scheduler
    diagnostics, not measurements: ``compare=False`` keeps result
    equality — and thus every leap-on ≡ leap-off differential — about
    what was *measured*, never about how fast the kernel got there.
    """

    #: The cycle stamps that move with the seed: the only list of them.
    STAMPS: ClassVar[Tuple[str, ...]] = (
        "txn_start_cycle", "inject_cycle", "detect_cycle",
    )

    stage: InjectionStage
    variant: str
    txn_start_cycle: Optional[int]
    inject_cycle: Optional[int]
    detect_cycle: Optional[int]
    fault_kind: Optional[str]
    fault_phase: Optional[str]
    recovered: bool
    _: dataclasses.KW_ONLY
    sim_leaps: int = dataclasses.field(default=0, compare=False)
    sim_cycles_leaped: int = dataclasses.field(default=0, compare=False)
    sim_cycles_streamed: int = dataclasses.field(default=0, compare=False)
    sim_stepped_cycles: int = dataclasses.field(default=0, compare=False)
    sim_island_cycles: int = dataclasses.field(default=0, compare=False)

    def shifted(self, delta: int):
        """This result translated *delta* cycles later in time.

        The lockstep batch executor derives a follower lane's result
        from its pack leader's: every :attr:`STAMPS` stamp moves rigidly
        with the stimulus onset, latencies, flags and counts are
        shift-invariant, and the leader's single pre-onset leap grows by
        *delta* while its stepped, streamed and island cycles stay (so
        even the scheduler diagnostics are exact).
        """
        # Copying the instance dict is several times cheaper than
        # dataclasses.replace or copy.copy, once per materialized lane.
        lane = object.__new__(type(self))
        fields = lane.__dict__
        fields.update(self.__dict__)
        for name in self.STAMPS:
            if fields[name] is not None:
                fields[name] += delta
        fields["sim_cycles_leaped"] += delta
        return lane

    @property
    def detected(self) -> bool:
        return self.detect_cycle is not None

    @property
    def latency_from_injection(self) -> Optional[int]:
        if self.detect_cycle is None or self.inject_cycle is None:
            return None
        return self.detect_cycle - self.inject_cycle

    @property
    def latency_from_start(self) -> Optional[int]:
        if self.detect_cycle is None or self.txn_start_cycle is None:
            return None
        return self.detect_cycle - self.txn_start_cycle
