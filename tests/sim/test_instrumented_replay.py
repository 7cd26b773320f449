"""Instrumentation must be strictly read-only: replay results are
bit-identical with tracing on, and the recorded metrics agree with the
report's own accounting."""

import numpy as np
import pytest

from repro import schedule
from repro.faults import FaultPlan, NodeFault
from repro.obs import Instrumentation
from repro.sim import replay_schedule


@pytest.fixture
def lu_schedule(lu8_tensor, model44, paper_capacity):
    return schedule(lu8_tensor, model44, algorithm="gomcds", capacity=paper_capacity)


def test_fault_free_replay_bit_identical_with_tracing(
    lu8, lu_schedule, model44, paper_capacity
):
    plain = replay_schedule(
        lu8.trace, lu_schedule, model44,
        capacity=paper_capacity, track_links=True,
    )
    instr = Instrumentation.started()
    traced = replay_schedule(
        lu8.trace, lu_schedule, model44,
        capacity=paper_capacity, track_links=True, instrument=instr,
    )
    assert traced.reference_cost == plain.reference_cost
    assert traced.movement_cost == plain.movement_cost
    assert traced.link_traffic == plain.link_traffic
    assert np.array_equal(traced.per_window_cost, plain.per_window_cost)
    assert traced.to_dict() == plain.to_dict()
    # ...and the session actually recorded the replay
    names = {s.name for s in instr.tracer.spans}
    assert "sim.replay" in names
    assert "sim.window" in names


def test_faulted_replay_bit_identical_with_tracing(
    lu8, lu_schedule, model44, paper_capacity
):
    plan = FaultPlan(node_faults=(NodeFault(pid=5, start=1),))
    plain = replay_schedule(
        lu8.trace, lu_schedule, model44,
        capacity=paper_capacity, faults=plan,
    )
    instr = Instrumentation.started()
    traced = replay_schedule(
        lu8.trace, lu_schedule, model44,
        capacity=paper_capacity, faults=plan, instrument=instr,
    )
    assert traced.to_dict() == plain.to_dict()
    counters = instr.metrics.counters
    assert counters["faults.delivered"].value == plain.n_delivered
    assert counters["faults.evacuated"].value == plain.n_evacuated


def test_window_metrics_agree_with_report(lu8, lu_schedule, model44):
    instr = Instrumentation.started()
    report = replay_schedule(
        lu8.trace, lu_schedule, model44, instrument=instr,
    )
    hist = instr.metrics.histograms["sim.window_cost"]
    assert hist.count == lu_schedule.n_windows
    assert hist.total == pytest.approx(float(report.per_window_cost.sum()))
    counters = instr.metrics.counters
    assert counters["sim.fetches"].value == report.n_fetches
    assert counters["sim.moves"].value == report.n_moves
    hops = instr.metrics.histograms["sim.window_hops"]
    assert hops.count == lu_schedule.n_windows
    assert all(ts is not None for ts in hops.timestamps)


def test_replay_matches_analytic_with_tracing(lu8, lu8_tensor, model44):
    from repro.core import evaluate_schedule

    sched = schedule(lu8_tensor, model44, algorithm="gomcds")
    breakdown = evaluate_schedule(sched, lu8_tensor, model44)
    report = replay_schedule(
        lu8.trace, sched, model44, instrument=Instrumentation.started()
    )
    assert report.matches(breakdown)
