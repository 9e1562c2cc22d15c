"""Dirty ≡ verify on the busy Fig. 11 system shape.

The AXI models' busy-traffic hot path (memoised request and response
beats, forwarded rather than rebuilt IDs, one-pass crossbar arbitration,
slot reads in declared-input drives) is exercised hardest with DRAM
background traffic, a deep outstanding-read queue and a response reorder
window in flight while the Ethernet frame streams.  Each run here goes
once under the dirty-set scheduler and once under ``strategy="verify"``,
which re-runs every drive after each dirty settle and replays every
skipped update: a drive that misses a state change (a stale memo, an
unscheduled re-drive) raises ``SchedulerDivergenceError``, and any
outcome drift fails the equality below.
"""

import pytest

from repro.soc.experiment import FIG11_STAGES, run_system_injection
from repro.tmu.config import Variant

#: The ``system_busy`` benchmark shape.
BUSY = dict(background=32, outstanding=6, reorder_depth=4)

#: Two frame start delays: prescaler phase 0 and a shifted phase.
START_DELAYS = (0, 37)


@pytest.mark.parametrize("stage", FIG11_STAGES, ids=lambda s: s.value)
@pytest.mark.parametrize("variant", (Variant.FULL, Variant.TINY), ids=lambda v: v.value)
def test_busy_system_dirty_matches_verify(variant, stage):
    for start_delay in START_DELAYS:
        dirty = run_system_injection(
            variant, stage, start_delay=start_delay, sim_strategy="dirty", **BUSY
        )
        verify = run_system_injection(
            variant, stage, start_delay=start_delay, sim_strategy="verify", **BUSY
        )
        assert dirty.detect_cycle is not None and dirty.recovered
        # Equality covers every measured field; the kernel's leap
        # counters are compare=False (verify never leaps).
        assert dirty == verify
