"""Work partitioning: campaign specs, run enumeration, shard plans.

A fault-injection campaign is a cross-product sweep — TMU configs ×
injection stages × phase-offset seeds.  :class:`CampaignSpec` captures
the whole sweep as plain, canonically-ordered data; :meth:`runs` expands
it into :class:`RunSpec` units in the exact order the serial runners
(:func:`repro.faults.campaign.run_campaign`,
:func:`repro.soc.experiment.run_fig11`) iterate, so the aggregated
result list of any executor is byte-for-byte the serial one.

Every run carries a stable, human-readable ``run_id`` and its canonical
``index``.  The ``len(seeds)`` adjacent runs of one (config, stage)
form a *point*; :func:`plan_shards` groups points into contiguous
:class:`Shard` units of work for the process pool.  The spec's
:meth:`spec_hash` labels campaign exports: any parameter change
produces a different hash.
Result reuse is keyed per run, by :meth:`RunSpec.param_key`.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..axi.types import MAX_BURST_LEN, AxiDir
from ..faults.types import InjectionStage
from ..tmu.config import TmuConfig, Variant
from .serialize import SpecSerializationError, config_to_dict, run_param_dict

#: Campaign kinds understood by the executors.
KINDS = ("ip", "system")

#: Stage values of the read-path injections, which no system run can
#: manifest: its only workload is the DMA's Ethernet write frame.
_READ_STAGES = frozenset(
    stage.value for stage in InjectionStage if stage.direction is AxiDir.READ
)


def validate_axes(
    kind: str,
    beats: int,
    reorder_depth: int = 0,
    background: int = 0,
    stages: Iterable[Any] = (),
) -> None:
    """Reject a traffic axis no run of *kind* can take (``ValueError``).

    The one axis validator: :class:`CampaignSpec` applies it on
    construction, and entry points that run an injection without a spec
    (``repro inject`` with a single stage) call it directly.  *stages*
    (values or :class:`InjectionStage` members) are checked against the
    kind: a system run drives only the DMA's write frame and the MAC
    serves no reads, so a read-path stage would never manifest.
    """
    if beats < 1:
        raise ValueError(f"beats must be at least 1, got {beats}")
    # IP runs issue the whole transfer as one AXI4 INCR burst; system
    # runs go through the DMA, which splits long transfers.
    if kind == "ip" and beats > MAX_BURST_LEN:
        raise ValueError(
            f"ip campaigns issue one AXI4 burst per run, so beats must "
            f"be at most {MAX_BURST_LEN}, got {beats}"
        )
    if reorder_depth < 0:
        raise ValueError(f"reorder_depth must be at least 0, got {reorder_depth}")
    if background < 0:
        raise ValueError(f"background must be at least 0, got {background}")
    if kind == "system":
        reads = [
            value
            for value in (getattr(stage, "value", stage) for stage in stages)
            if value in _READ_STAGES
        ]
        if reads:
            raise ValueError(
                f"system campaigns inject into the DMA's Ethernet write "
                f"frame, so read-path stages never manifest: "
                f"{', '.join(reads)} (use --kind ip)"
            )


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One simulation unit: a single fault injection.

    Everything here is plain JSON-able data so a run can cross a process
    boundary and key a result-store row, unless ``harness_kwargs`` holds
    a live object (a tracer), which keeps the campaign in-process.
    ``config`` is the canonical TMU
    config dict for IP runs; system runs only need ``{"variant": ...}``
    (the system runner derives the paper's budgets itself).
    """

    kind: str
    index: int
    config: Dict[str, Any]
    stage: str
    seed: int
    beats: int
    background: int
    detect_timeout: int
    recovery_timeout: int
    harness_kwargs: Tuple[Tuple[str, Any], ...] = ()
    #: AxSIZE of the workload's beats (3 = full-width on the 64-bit bus;
    #: smaller values sweep the narrow-transfer axis).
    size: int = 3
    #: Concurrent outstanding transactions in the workload (1 = the
    #: legacy single-stream shape; higher values stack same- and
    #: cross-ID streams to exercise deep outstanding windows).
    outstanding: int = 1
    #: Subordinate response reorder window (0/1 = strict in-order).
    reorder_depth: int = 0

    @property
    def run_id(self) -> str:
        """Stable identifier, unique within the campaign."""
        return (
            f"{self.kind}-{self.index:06d}-{self.config['variant']}"
            f"-{self.stage}-s{self.seed}"
        )

    def param_key(self) -> str:
        """Content hash of the simulation-determining parameters.

        Unlike :attr:`run_id` (which embeds the campaign-local
        ``index``), this key is independent of the enclosing sweep: the
        same (config, stage, seed, run parameters) tuple hashes the same
        whether it sits in a 12-run subset or a 1200-run superset.  It
        is the lookup identity of the run-granular result store
        (:mod:`repro.orchestrate.store`), which is what lets a superset
        sweep fetch the intersection and simulate only the frontier.
        """
        canonical = json.dumps(run_param_dict(self), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:24]


@dataclasses.dataclass(frozen=True)
class Shard:
    """A contiguous slice of a campaign's points, executed as one unit."""

    index: int
    count: int  # total shards in the plan
    points: Tuple[Sequence[RunSpec], ...]


@dataclasses.dataclass
class CampaignSpec:
    """A complete sweep: configs × stages × seeds, plus run parameters."""

    kind: str
    configs: List[Dict[str, Any]]
    stages: List[str]
    beats: int
    seeds: List[int]
    background: int = 0
    detect_timeout: int = 10_000
    recovery_timeout: int = 2_000
    harness_kwargs: Dict[str, Any] = dataclasses.field(default_factory=dict)
    size: int = 3
    outstanding: int = 1
    reorder_depth: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown campaign kind {self.kind!r}")
        if not self.configs or not self.stages or not self.seeds:
            raise ValueError("campaign needs at least one config, stage and seed")
        validate_axes(
            self.kind, self.beats, self.reorder_depth, self.background,
            self.stages,
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def ip(
        cls,
        configs: Iterable[TmuConfig],
        stages: Iterable[InjectionStage],
        beats: int = 8,
        seeds: Sequence[int] = (0,),
        detect_timeout: int = 10_000,
        recovery_timeout: int = 2_000,
        harness_kwargs: Optional[Dict[str, Any]] = None,
        size: int = 3,
        outstanding: int = 1,
        reorder_depth: int = 0,
    ) -> "CampaignSpec":
        """IP-level sweep over full TMU configurations (Fig. 9 shape)."""
        return cls(
            kind="ip",
            configs=[config_to_dict(config) for config in configs],
            stages=[stage.value for stage in stages],
            beats=beats,
            seeds=list(seeds),
            detect_timeout=detect_timeout,
            recovery_timeout=recovery_timeout,
            harness_kwargs=dict(harness_kwargs or {}),
            size=size,
            outstanding=outstanding,
            reorder_depth=reorder_depth,
        )

    @classmethod
    def system(
        cls,
        variants: Iterable[Variant],
        stages: Iterable[InjectionStage],
        beats: int = 250,
        seeds: Sequence[int] = (0,),
        background: int = 0,
        detect_timeout: int = 20_000,
        recovery_timeout: int = 5_000,
        harness_kwargs: Optional[Dict[str, Any]] = None,
        size: int = 3,
        outstanding: int = 1,
        reorder_depth: int = 0,
    ) -> "CampaignSpec":
        """System-level sweep over TMU variants (Fig. 11 shape).

        *harness_kwargs* (e.g. ``{"sim_strategy": "exhaustive"}`` or
        ``{"sim_time_leaping": False}``) are forwarded to
        :func:`~repro.soc.experiment.run_system_injection` — the hook
        the kernel-scheduling differential tests use to pit the
        dirty/quiescent/time-leaping kernel against the reference
        sweep on the very same campaign.
        """
        return cls(
            kind="system",
            configs=[{"variant": variant.value} for variant in variants],
            stages=[stage.value for stage in stages],
            beats=beats,
            seeds=list(seeds),
            background=background,
            detect_timeout=detect_timeout,
            recovery_timeout=recovery_timeout,
            harness_kwargs=dict(harness_kwargs or {}),
            size=size,
            outstanding=outstanding,
            reorder_depth=reorder_depth,
        )

    # ------------------------------------------------------------------
    # Enumeration and identity
    # ------------------------------------------------------------------
    def runs(self) -> List[RunSpec]:
        """All runs in canonical (config-major, then stage, then seed) order.

        This is exactly the nesting of the serial runners, which is what
        lets the engine's aggregated output replace their result lists.
        """
        harness_items = tuple(sorted(self.harness_kwargs.items()))
        new, set_dict = object.__new__, object.__setattr__
        out: List[RunSpec] = []
        for config in self.configs:
            for stage in self.stages:
                # The seeds of one (config, stage) differ only in index
                # and seed: give each a copy of one constructed spec's
                # fields instead of re-running the frozen dataclass
                # __init__ (a guarded setattr per field) for every seed
                # of a large sweep.
                fields = vars(
                    RunSpec(
                        kind=self.kind,
                        index=0,
                        config=config,
                        stage=stage,
                        seed=0,
                        beats=self.beats,
                        background=self.background,
                        detect_timeout=self.detect_timeout,
                        recovery_timeout=self.recovery_timeout,
                        harness_kwargs=harness_items,
                        size=self.size,
                        outstanding=self.outstanding,
                        reorder_depth=self.reorder_depth,
                    )
                )
                for seed in self.seeds:
                    run_fields = fields.copy()
                    run_fields["index"] = len(out)
                    run_fields["seed"] = seed
                    run = new(RunSpec)
                    set_dict(run, "__dict__", run_fields)
                    out.append(run)
        return out

    def canonical_view(self) -> Dict[str, Any]:
        """The spec as plain data, sharing this spec's lists and dicts:
        for a reader that only serializes it (the streamed export)."""
        return {
            "kind": self.kind,
            "configs": self.configs,
            "stages": self.stages,
            "beats": self.beats,
            "seeds": self.seeds,
            "background": self.background,
            "detect_timeout": self.detect_timeout,
            "recovery_timeout": self.recovery_timeout,
            "harness_kwargs": dict(sorted(self.harness_kwargs.items())),
            "size": self.size,
            "outstanding": self.outstanding,
            "reorder_depth": self.reorder_depth,
        }

    def canonical_dict(self) -> Dict[str, Any]:
        """The spec as plain data, suitable for hashing and archiving.

        A deep copy: the canonical dict gets embedded in campaign JSON
        exports and handed to callers, and a mutation over there must
        never reach back into this spec (whose hash labels the export).
        """
        return copy.deepcopy(self.canonical_view())

    def spec_hash(self) -> str:
        """Content hash labelling campaign exports (first 16 hex chars).

        Raises :class:`SpecSerializationError` when the spec is not plain
        data (a live ``sim_tracer`` in *harness_kwargs*, say): such a
        spec runs in-process, but cannot be stored, exported or shipped
        to a worker.
        """
        try:
            text = json.dumps(self.canonical_view(), sort_keys=True)
        except TypeError as exc:
            raise SpecSerializationError(
                f"campaign spec is not JSON-serializable: {exc}"
            ) from exc
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def plan_shards(points: Sequence, shard_size: int = 1) -> List[Shard]:
    """Partition *points* into contiguous shards of at most *shard_size*
    points: the process pool's tasks (one point per shard maximizes its
    load balancing; larger shards amortize per-task pickling for very
    short runs)."""
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    starts = range(0, len(points), shard_size)
    return [
        Shard(index, len(starts), tuple(points[start : start + shard_size]))
        for index, start in enumerate(starts)
    ]
