"""The abstract interpreter: exactness on clean schedules, coded findings
on broken ones."""

import dataclasses

import numpy as np
import pytest

import repro
from repro.core import CostModel, evaluate_schedule
from repro.diagnostics import VER001, VER002, VER003, VER004, Severity
from repro.faults import FaultPlan, NodeFault
from repro.mem import CapacityPlan
from repro.obs import Instrumentation
from repro.sim import replay_schedule
from repro.verify import interpret_schedule
from repro.workloads import benchmark


@pytest.fixture
def bench1(mesh44):
    wl = benchmark(1, 8, mesh44)
    tensor = wl.reference_tensor()
    model = CostModel(mesh44)
    capacity = CapacityPlan.paper_rule(wl.n_data, mesh44.n_procs, 2.0)
    schedule = repro.schedule(tensor, model, algorithm="gomcds", capacity=capacity)
    return wl, tensor, model, capacity, schedule


def test_prediction_matches_analytic_cost(bench1):
    wl, tensor, model, capacity, schedule = bench1
    prediction, diags = interpret_schedule(
        schedule, tensor, model, trace=wl.trace, capacity=capacity
    )
    assert not diags
    breakdown = evaluate_schedule(schedule, tensor, model)
    assert prediction.reference_cost == pytest.approx(breakdown.reference_cost)
    assert prediction.movement_cost == pytest.approx(breakdown.movement_cost)
    assert prediction.total == pytest.approx(breakdown.total)


def test_prediction_link_volumes_match_replay(bench1):
    wl, tensor, model, capacity, schedule = bench1
    prediction, _ = interpret_schedule(
        schedule, tensor, model, trace=wl.trace, capacity=capacity
    )
    instr = Instrumentation.started(spatial=True)
    replay_schedule(
        wl.trace, schedule, model, capacity=capacity, instrument=instr
    )
    spatial = instr.spatial.traces[-1]
    assert prediction.link_totals() == pytest.approx(spatial.link_totals())


def test_occupancy_overflow_is_ver001(bench1):
    wl, tensor, model, _, schedule = bench1
    # cram every datum onto processor 0 in window 0
    centers = schedule.centers.copy()
    centers[:, 0] = 0
    bad = dataclasses.replace(schedule, centers=centers, meta={})
    tight = CapacityPlan.uniform(model.topology.n_procs, 4)
    prediction, diags = interpret_schedule(
        bad, tensor, model, trace=wl.trace, capacity=tight
    )
    overflow = [d for d in diags if d.code == VER001]
    assert overflow and all(d.severity == Severity.ERROR for d in overflow)
    assert any(d.window == 0 and d.processor == 0 for d in overflow)


def test_out_of_range_center_is_ver002(bench1):
    wl, tensor, model, capacity, schedule = bench1
    centers = schedule.centers.copy()
    centers[0, 0] = model.topology.n_procs + 3
    bad = dataclasses.replace(schedule, centers=centers, meta={})
    prediction, diags = interpret_schedule(
        bad, tensor, model, trace=wl.trace, capacity=capacity
    )
    assert prediction is None
    assert [d.code for d in diags] == [VER002]


def test_dead_center_is_ver002(bench1):
    wl, tensor, model, _, schedule = bench1
    plan = FaultPlan(node_faults=(NodeFault(pid=int(schedule.centers[0, 1]), start=1),))
    prediction, diags = interpret_schedule(
        schedule, tensor, model, trace=wl.trace, faults=plan
    )
    assert any(
        d.code == VER002 and d.severity == Severity.ERROR for d in diags
    )


def test_hotspot_budget_is_ver003(bench1):
    wl, tensor, model, capacity, schedule = bench1
    _, clean = interpret_schedule(
        schedule, tensor, model, trace=wl.trace, capacity=capacity
    )
    assert not [d for d in clean if d.code == VER003]
    _, diags = interpret_schedule(
        schedule, tensor, model, trace=wl.trace, capacity=capacity,
        link_budget=0.5,
    )
    hot = [d for d in diags if d.code == VER003]
    assert hot and all(d.severity == Severity.WARNING for d in hot)


def test_strictly_wasteful_move_is_ver004(mesh44):
    from repro.trace import build_reference_tensor
    from repro.workloads import trace_from_counts

    counts = np.zeros((1, 3, 16), dtype=np.int64)
    counts[0, 0, 0] = 2
    counts[0, 2, 0] = 2
    trace, windows = trace_from_counts(counts, mesh44)
    tensor = build_reference_tensor(trace, windows)
    model = CostModel(mesh44)
    # stay at 0, detour to the far corner in the reference-free window,
    # and come back: strictly wasteful
    from repro.core import Schedule

    centers = np.array([[0, 15, 0]])
    sched = Schedule(centers=centers, windows=windows, method="handmade")
    _, diags = interpret_schedule(sched, tensor, model, trace=trace)
    assert any(d.code == VER004 for d in diags)
    # the direct schedule is quiet
    straight = Schedule(
        centers=np.array([[0, 0, 0]]), windows=windows, method="handmade"
    )
    _, diags = interpret_schedule(straight, tensor, model, trace=trace)
    assert not [d for d in diags if d.code == VER004]


def test_faulted_prediction_matches_replay(bench1, mesh44):
    from repro.core import reschedule_around_faults

    wl, tensor, model, capacity, _ = bench1
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=2),))
    schedule = reschedule_around_faults(tensor, model, plan, capacity)
    prediction, diags = interpret_schedule(
        schedule, tensor, model, trace=wl.trace, faults=plan
    )
    assert not [d for d in diags if d.severity == Severity.ERROR]
    report = replay_schedule(
        wl.trace, schedule, model, faults=plan
    )
    assert prediction.total == pytest.approx(report.total_cost)
    assert prediction.n_delivered == report.n_delivered
    assert prediction.n_evacuated == report.n_evacuated
