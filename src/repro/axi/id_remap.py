"""AXI ID remapper: compacts a wide, sparse ID space (paper §II-A).

AXI managers may use arbitrary (wide) transaction IDs; tracking tables
indexed by raw ID would be enormous.  The remap table maps each *live*
original ID to a compact slot in ``[0, capacity)``; the slot is held (and
reference-counted) while any transaction with that original ID is
outstanding, then recycled.

The table is designed for the two-phase kernel: :meth:`probe` is a pure
function of registered state (safe to call repeatedly during the settle
phase to compute the forwarded payload), while :meth:`acquire` /
:meth:`release` commit changes during the update phase.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim.component import RegisteredState


class IdRemapTable(RegisteredState):
    """Reference-counted original-ID → compact-slot mapping."""

    registered = {
        "_slot_of": dict,
        "_orig_of": lambda self: [None] * self.capacity,
        "_refs": lambda self: [0] * self.capacity,
    }

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.reset()

    # ------------------------------------------------------------------
    # Settle-phase (pure) queries
    # ------------------------------------------------------------------
    def probe(self, orig_id: int) -> Optional[int]:
        """The slot *orig_id* would map to, or None when the table is full.

        Deterministic and side-effect free: an existing mapping wins,
        otherwise the lowest free slot is proposed.
        """
        slot = self._slot_of.get(orig_id)
        if slot is not None:
            return slot
        for candidate in range(self.capacity):
            if self._refs[candidate] == 0:
                return candidate
        return None

    def orig_of(self, slot: int) -> Optional[int]:
        """Reverse lookup: the original ID currently bound to *slot*."""
        if not 0 <= slot < self.capacity:
            return None
        return self._orig_of[slot]

    @property
    def live_mappings(self) -> Dict[int, int]:
        return dict(self._slot_of)

    # ------------------------------------------------------------------
    # Update-phase (mutating) operations
    # ------------------------------------------------------------------
    def acquire(self, orig_id: int) -> int:
        """Bind (or re-reference) *orig_id*; returns its compact slot."""
        slot = self.probe(orig_id)
        if slot is None:
            raise RuntimeError(
                f"ID remap table full ({self.capacity} slots) — caller must "
                "stall the request instead of acquiring"
            )
        if self._refs[slot] == 0:
            self._slot_of[orig_id] = slot
            self._orig_of[slot] = orig_id
        self._refs[slot] += 1
        return slot

    def release(self, slot: int) -> None:
        """Drop one reference on *slot*; recycle it at zero."""
        if not 0 <= slot < self.capacity:
            raise ValueError(f"slot {slot} out of range")
        if self._refs[slot] <= 0:
            return  # releasing an unbound slot is a no-op (fault aborts)
        self._refs[slot] -= 1
        if self._refs[slot] == 0:
            orig = self._orig_of[slot]
            self._orig_of[slot] = None
            if orig is not None:
                self._slot_of.pop(orig, None)

    def refs(self, slot: int) -> int:
        return self._refs[slot] if 0 <= slot < self.capacity else 0

    #: Fault recovery drops every mapping.
    clear = RegisteredState.reset
