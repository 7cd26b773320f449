"""Spatial telemetry through the replay and network simulators.

The load-bearing invariant: on a fault-free replay the summed per-link
traffic must reconcile *exactly* with the analytic
:class:`~repro.core.CostBreakdown` — every hop of every transfer is one
unit of link volume, so total link volume == total hop x volume cost.
"""

import numpy as np
import pytest

from repro import schedule
from repro.core import CostModel, evaluate_schedule
from repro.faults import FaultPlan, NodeFault
from repro.grid import Mesh2D
from repro.mem import CapacityPlan
from repro.obs import Instrumentation
from repro.sim import replay_schedule, simulate_schedule_network
from repro.workloads import benchmark as make_benchmark


def spatial_replay(workload, model, capacity=None):
    tensor = workload.reference_tensor()
    sched = schedule(tensor, model, algorithm="gomcds", capacity=capacity)
    breakdown = evaluate_schedule(sched, tensor, model)
    instr = Instrumentation.started(spatial=True)
    report = replay_schedule(
        workload.trace, sched, model, capacity=capacity, instrument=instr
    )
    return instr, report, breakdown


@pytest.mark.parametrize("bench", [1, 2, 3, 4, 5])
def test_link_traffic_reconciles_with_cost_breakdown(bench, mesh44):
    """Summed spatial link volume == analytic total on benchmarks 1-5."""
    workload = make_benchmark(bench, 8, mesh44, seed=1998)
    instr, report, breakdown = spatial_replay(workload, CostModel(mesh44))
    (trace,) = instr.spatial.traces
    assert trace.total_link_traffic == pytest.approx(breakdown.total)
    assert report.total_cost == pytest.approx(breakdown.total)


def test_per_window_series_recorded(lu8, mesh44):
    instr, _report, _ = spatial_replay(lu8, CostModel(mesh44))
    (trace,) = instr.spatial.traces
    assert trace.n_windows == lu8.reference_tensor().n_windows
    assert any(links for links in trace.window_links)
    # storage snapshots account for every datum in every window
    assert np.allclose(trace.storage.sum(axis=1), lu8.n_data)
    # window timestamps are monotone (tracer clock)
    assert all(a <= b for a, b in zip(trace.window_ts, trace.window_ts[1:]))


def test_spatial_matches_track_links_accounting(lu8, model44, paper_capacity):
    """The recorder's totals are exactly the track_links link traffic."""
    tensor = lu8.reference_tensor()
    sched = schedule(tensor, model44, algorithm="gomcds", capacity=paper_capacity)
    instr = Instrumentation.started(spatial=True)
    report = replay_schedule(
        lu8.trace, sched, model44,
        capacity=paper_capacity, track_links=True, instrument=instr,
    )
    (trace,) = instr.spatial.traces
    assert trace.link_totals() == report.link_traffic


def test_replay_bit_identical_with_spatial_recording(
    lu8, model44, paper_capacity
):
    tensor = lu8.reference_tensor()
    sched = schedule(tensor, model44, algorithm="gomcds", capacity=paper_capacity)
    plain = replay_schedule(
        lu8.trace, sched, model44, capacity=paper_capacity
    )
    instr = Instrumentation.started(spatial=True)
    spatial = replay_schedule(
        lu8.trace, sched, model44, capacity=paper_capacity, instrument=instr
    )
    assert spatial.to_dict() == plain.to_dict()


def test_plain_sessions_record_no_spatial_traces(lu8, model44):
    sched = schedule(lu8.reference_tensor(), model44, algorithm="gomcds")
    instr = Instrumentation.started()  # spatial not requested
    replay_schedule(lu8.trace, sched, model44, instrument=instr)
    assert len(instr.spatial.traces) == 0


def test_faulted_replay_records_spatial_and_stays_identical(
    lu8, model44, paper_capacity
):
    sched = schedule(
        lu8.reference_tensor(), model44, algorithm="gomcds", capacity=paper_capacity
    )
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=1),))
    plain = replay_schedule(
        lu8.trace, sched, model44,
        capacity=paper_capacity, faults=plan, track_links=True,
    )
    instr = Instrumentation.started(spatial=True)
    traced = replay_schedule(
        lu8.trace, sched, model44,
        capacity=paper_capacity, faults=plan, track_links=True,
        instrument=instr,
    )
    assert traced.to_dict() == plain.to_dict()
    (trace,) = instr.spatial.traces
    # the recorder mirrored every track_links charge (fetches, retries,
    # degraded moves and evacuations alike)
    assert trace.link_totals() == plain.link_traffic


def test_volumes_weight_link_traffic(mesh44):
    workload = make_benchmark(1, 8, mesh44, seed=7)
    volumes = np.full(workload.n_data, 3.0)
    model = CostModel(mesh44, volumes=volumes)
    instr, _report, breakdown = spatial_replay(workload, model)
    (trace,) = instr.spatial.traces
    assert trace.total_link_traffic == pytest.approx(breakdown.total)


def test_network_simulation_records_spatial(lu8, model44):
    sched = schedule(lu8.reference_tensor(), model44, algorithm="gomcds")
    instr = Instrumentation.started(spatial=True)
    plain = simulate_schedule_network(lu8.trace, sched, model44)
    traced = simulate_schedule_network(
        lu8.trace, sched, model44, instrument=instr
    )
    assert np.array_equal(traced.fetch_cycles, plain.fetch_cycles)
    assert np.array_equal(traced.move_cycles, plain.move_cycles)
    (trace,) = instr.spatial.traces
    assert trace.label == "network:GOMCDS"
    assert trace.total_link_traffic > 0
    hist = instr.metrics.histograms["network.window_fetch_cycles"]
    assert hist.count == sched.n_windows


def test_report_topology_shape_round_trips(lu8, model44):
    from repro.sim import SimReport

    sched = schedule(lu8.reference_tensor(), model44, algorithm="gomcds")
    report = replay_schedule(lu8.trace, sched, model44, track_links=True)
    assert report.topology_shape == (4, 4)
    serialized = report.to_dict()["link_traffic"]
    assert serialized  # non-empty and keyed by coordinate strings
    assert all("->" in key for key in serialized)
    parsed = SimReport.parse_link_traffic(serialized, shape=(4, 4))
    assert parsed == report.link_traffic
