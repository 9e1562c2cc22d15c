"""Lockstep batch execution primitives ("campaign SIMD").

The paper's campaigns are thousands of near-identical deterministic
runs that differ only in their seed — which both runners map to a pure
*stimulus time shift* (the IP harness's ``issue_delay``, the system
experiment's ``start_delay``).  After PRs 3-4 removed per-cycle and
per-idle-span cost, the dominant remaining cost is running the whole
interpreter once per lane anyway.  This module provides the kernel-side
primitives that let the batch executor
(:class:`repro.orchestrate.batch.BatchExecutor`) collapse a *pack* of
such lanes into **one** leader simulation plus O(1) derivation per
follower lane:

Soundness argument
------------------

A follower run with seed ``s_f`` is the leader run with seed ``s_l``
whose stimulus onset is delayed by ``delta = s_f - s_l``.  The derived
result (every cycle stamp shifted by ``delta``) equals the follower's
scalar result when two conditions hold, each checked at runtime:

1. **Component contract** — every registered component declares a
   :attr:`~repro.sim.component.Component.phase_period` and ``delta`` is
   a multiple of the pack period (:func:`lockstep_period`, the lcm over
   all components).  Then the *autonomous* state the follower meets at
   its onset (the TMU's free-running prescaler phase, ``cycle %
   step``) is exactly what the leader met at its onset.
2. **Inert prefix** — the leader's kernel leaped from the end of a
   contiguous start-up transient of ``k`` stepped cycles (``0 ..
   k-1``) all the way to the onset: nothing ran, no wire moved, no
   update fired.  The kernel records that span itself (its first leap
   since reset, extended by each leap that starts where the last one
   ended) and :meth:`~repro.sim.kernel.Simulator.inert_before` checks
   it against the onset after the leader's run.  A leaped span is
   provably inert (that is the kernel's leap precondition), so the
   pre-onset world is identical for every lane — only the armed
   stimulus wake differs, and it differs by exactly ``delta``.  Lanes
   whose onset falls inside the transient (``seed <= k``) retire to the
   scalar kernel.  Kernels that cannot leap (``verify``/``exhaustive``
   strategies, ``time_leaping=False``, ``update_skipping=False``) step
   every prefix cycle and record no span, and every lane gracefully
   retires — batch output stays byte-identical, merely without the
   speedup.  A leader resumed from a trunk checkpoint
   (:class:`~repro.faults.campaign.Trunk`) carries the span in the
   checkpoint.

The detection window needs no condition of its own: both runners count
``detect_timeout`` from the stimulus (the IP transaction's issue, the
system frame after ``start_delay``), so a follower's window is the
leader's, shifted, and a derived stamp can never cross it.

Because leader and follower leap the gap alike, only longer by
``delta`` in the follower, even the scheduler statistics derive
exactly: ``sim_leaps`` is copied and ``sim_cycles_leaped`` grows by
``delta`` — the batch differential tests compare campaign JSON
*including* the scheduler block.

Everything here is pure bookkeeping over plain data, in plain Python:
at campaign sizes (a few thousand lanes, a handful of cycle stamps per
result) list arithmetic is faster than building arrays for it.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from .component import Component


def lockstep_period(components: Iterable[Component]) -> Optional[int]:
    """Pack period: lcm of every component's declared ``phase_period``.

    ``None`` as soon as any component makes no periodicity promise —
    the conservative answer that retires every lane to the scalar
    kernel rather than batching over an unaudited component.
    """
    period = 1
    for component in components:
        declared = component.phase_period
        if declared is None:
            return None
        if declared <= 0:
            raise ValueError(
                f"{component!r} declared non-positive phase_period {declared}"
            )
        period = math.lcm(period, declared)
    return period


def lane_classes(
    lanes: Iterable, period: int, seed: Optional[Callable[[Any], int]] = None
) -> Dict[int, List]:
    """Group *lanes* into congruence classes of their seeds modulo
    *period*.

    Two lanes can share a pack leader only when their seed difference
    is a multiple of the pack period (soundness condition 1).  A lane
    is its own seed unless *seed* reads it from the lane (say, a run
    spec).  Returns ``{residue: [lane, ...]}`` with each class ascending
    by seed (lanes of equal seed in their given order) — the batch
    executor packs each class separately.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    ordered = sorted(lanes, key=seed)
    if period == 1:
        return {0: ordered} if ordered else {}
    classes: Dict[int, List] = {}
    for lane in ordered:
        residue = (lane if seed is None else seed(lane)) % period
        classes.setdefault(residue, []).append(lane)
    return classes


def shift_cycles(
    values: Sequence[Optional[int]], delta: int
) -> List[Optional[int]]:
    """Shift a lane's cycle stamps by *delta*, preserving ``None`` holes.

    Measured cycle fields (transaction start, injection, detection)
    translate rigidly with the stimulus onset.
    """
    return [None if value is None else value + delta for value in values]
