"""Every ``sim`` entry point rejects a trace, schedule and cost model
that describe different runs with a ``ValueError``, never a raw
``IndexError`` from deep inside the replay."""

import numpy as np
import pytest

import repro
from repro.core import CostModel, Schedule
from repro.grid import Mesh2D
from repro.sim import (
    estimate_execution_time,
    replay_schedule,
    simulate_schedule_network,
)
from repro.trace import WindowSet

ENTRY_POINTS = {
    "replay": replay_schedule,
    "timing": estimate_execution_time,
    "network": simulate_schedule_network,
}


@pytest.fixture
def run(mesh44, model44):
    wl = repro.benchmark(1, 8, mesh44)
    sched = repro.schedule(wl.reference_tensor(), model44, algorithm="gomcds")
    return wl.trace, sched, model44


def _mismatch(run, kind):
    trace, sched, model = run
    if kind == "steps":
        windows = WindowSet(starts=sched.windows.starts, n_steps=trace.n_steps + 1)
        return trace, Schedule(sched.centers, windows, method=sched.method), model
    if kind == "n_data":
        return trace, sched.restricted_to(np.arange(sched.n_data - 1)), model
    return trace, sched, CostModel(Mesh2D(3, 3))


@pytest.mark.parametrize("kind", ["steps", "n_data", "n_procs"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_mismatched_inputs_rejected(run, entry, kind):
    trace, sched, model = _mismatch(run, kind)
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](trace, sched, model)

