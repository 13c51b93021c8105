"""`make chaos-smoke`: the non-vacuity guard of the matrix's chaos cases.

The chaos cases are the ``chaos``-marked cases of the conformance matrix
(``tests/test_conformance.py``): its suite runs under the seeded
``REPRO_CHAOS`` spec (worker kills and injected exceptions on every
cell's *first* dispatch attempt) with the ``retry`` cell-error policy,
unsharded, sharded and through the daemon, and must write the
chaos-free bytes.  Those cases prove nothing unless the spec fires on
the suite's grid, which this guard checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.test_conformance import CHAOS, _suite


@pytest.mark.chaos
def test_chaos_spec_disturbs_this_suite():
    """The seeded spec schedules both a kill and a raise on the matrix
    suite's executor grid, where an adaptive spec is one cell (trial 0)
    per rate."""
    from repro.core.chaos import ChaosPolicy

    policy = ChaosPolicy.parse(CHAOS)
    decisions = {
        policy.decide(task_index, rate_index, trial, 0)
        for task_index, spec in enumerate(_suite().specs)
        for rate_index, trial in np.ndindex(*spec.grid_shape)
    }
    assert {"kill", "raise"} <= decisions
