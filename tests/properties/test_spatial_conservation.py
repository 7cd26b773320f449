"""Traffic-conservation property: link volume == analytic cost (hypothesis).

On any fault-free replay over a unit-weight topology, every hop of every
transfer occupies exactly one directed link for exactly its volume, so
the spatial recorder's summed link traffic must equal the analytic
``CostBreakdown`` hop x volume total *exactly* — on meshes and on tori
(where x-y routes use wrap-around wires).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import schedule
from repro.core import CostModel, evaluate_schedule
from repro.grid import Mesh1D, Mesh2D, Torus2D
from repro.obs import Instrumentation
from repro.sim import replay_schedule
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts

TOPOLOGIES = [Mesh1D(6), Mesh2D(2, 3), Mesh2D(3, 3), Torus2D(3, 3)]


@st.composite
def replay_cases(draw, max_data=5, max_windows=4):
    topo = draw(st.sampled_from(TOPOLOGIES))
    n_data = draw(st.integers(1, max_data))
    n_windows = draw(st.integers(1, max_windows))
    counts = draw(
        arrays(
            dtype=np.int64,
            shape=(n_data, n_windows, topo.n_procs),
            elements=st.integers(0, 4),
        )
    )
    trace, windows = trace_from_counts(counts, topo)
    tensor = build_reference_tensor(trace, windows)
    algorithm = draw(st.sampled_from(["scds", "gomcds"]))
    return tensor, trace, CostModel(topo), algorithm


@given(replay_cases())
@settings(max_examples=50, deadline=None)
def test_link_traffic_conserves_hop_volume(case):
    tensor, trace, model, algorithm = case
    sched = schedule(tensor, model, algorithm=algorithm)
    breakdown = evaluate_schedule(sched, tensor, model)
    instr = Instrumentation.started(spatial=True)
    report = replay_schedule(trace, sched, model, instrument=instr)
    (strace,) = instr.spatial.traces
    # exact equality: both sides are sums of the same float volumes
    assert strace.total_link_traffic == pytest.approx(breakdown.total, abs=1e-9)
    assert report.total_cost == pytest.approx(breakdown.total, abs=1e-9)
    # per-processor send/recv bound the link volume (every transfer has
    # exactly one source and one destination, carried over >= 1 links)
    assert strace.per_proc_send().sum() <= strace.total_link_traffic + 1e-9
    assert strace.per_proc_recv().sum() <= strace.total_link_traffic + 1e-9


@given(replay_cases())
@settings(max_examples=50, deadline=None)
def test_spatial_totals_equal_tracked_links(case):
    tensor, trace, model, algorithm = case
    sched = schedule(tensor, model, algorithm=algorithm)
    instr = Instrumentation.started(spatial=True)
    report = replay_schedule(
        trace, sched, model, track_links=True, instrument=instr
    )
    (strace,) = instr.spatial.traces
    assert strace.link_totals() == report.link_traffic
    # all recorded links are structural wires of the topology
    assert set(strace.link_totals()) <= set(strace.links)
