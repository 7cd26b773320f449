"""Property-based tests of scheduler invariants (hypothesis).

Random reference tensors on small meshes; the invariants are the paper's
optimality claims plus structural guarantees of the implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro
from repro.core import CostModel, evaluate_schedule, grouped_schedule
from repro.grid import Mesh1D, Mesh2D
from repro.mem import CapacityPlan
from repro.sim import replay_schedule
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts

MESHES = [Mesh1D(6), Mesh2D(2, 3), Mesh2D(3, 3)]


@st.composite
def tensors(draw, max_data=5, max_windows=5):
    topo = draw(st.sampled_from(MESHES))
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
    return tensor, trace, CostModel(topo)


def _solve(name, tensor, model, capacity=None):
    """One schedule by algorithm name; ``"grouped"`` is window grouping."""
    if name == "grouped":
        return grouped_schedule(tensor, model, capacity)
    return repro.schedule(tensor, model, algorithm=name, capacity=capacity)


@given(tensors())
@settings(max_examples=60, deadline=None)
def test_gomcds_optimal_among_all(case):
    """Unconstrained GOMCDS is never beaten by SCDS, LOMCDS or grouping."""
    tensor, _trace, model = case
    best = evaluate_schedule(
        repro.schedule(tensor, model, algorithm="gomcds"), tensor, model
    ).total
    for other in ("scds", "lomcds", "grouped"):
        cost = evaluate_schedule(_solve(other, tensor, model), tensor, model).total
        assert best <= cost + 1e-9


@given(tensors())
@settings(max_examples=60, deadline=None)
def test_scds_optimal_among_static(case):
    """SCDS minimizes cost over *static* placements (per datum)."""
    tensor, _trace, model = case
    sched = repro.schedule(tensor, model, algorithm="scds")
    totals = model.reference_costs(tensor).sum(axis=1)  # (D, m)
    for d in range(tensor.n_data):
        assert totals[d, sched.centers[d, 0]] == totals[d].min()


@given(tensors())
@settings(max_examples=60, deadline=None)
def test_replay_equals_analytic(case):
    """The hop-level replay reproduces the analytic objective exactly."""
    tensor, trace, model = case
    for name in ("scds", "lomcds", "gomcds"):
        schedule = _solve(name, tensor, model)
        analytic = evaluate_schedule(schedule, tensor, model)
        report = replay_schedule(trace, schedule, model)
        assert report.matches(analytic)


@given(tensors())
@settings(max_examples=40, deadline=None)
def test_link_traffic_accounts_every_hop(case):
    tensor, trace, model = case
    schedule = repro.schedule(tensor, model, algorithm="lomcds")
    report = replay_schedule(trace, schedule, model, track_links=True)
    assert report.total_link_traffic == pytest.approx(report.total_cost)


@given(tensors(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_capacity_always_respected(case, cap_value):
    tensor, _trace, model = case
    total_needed = tensor.n_data
    if cap_value * model.n_procs < total_needed:
        cap_value = -(-total_needed // model.n_procs)  # make it feasible
    plan = CapacityPlan.uniform(model.n_procs, cap_value)
    for name in ("scds", "lomcds", "gomcds", "grouped"):
        schedule = _solve(name, tensor, model, plan)
        occ = schedule.occupancy(model.n_procs)
        assert (occ <= plan.capacities[None, :]).all()


@given(tensors())
@settings(max_examples=40, deadline=None)
def test_constrained_never_beats_unconstrained(case):
    tensor, _trace, model = case
    plan = CapacityPlan.uniform(model.n_procs, -(-tensor.n_data // model.n_procs))
    free = evaluate_schedule(
        repro.schedule(tensor, model, algorithm="gomcds"), tensor, model
    ).total
    bound = evaluate_schedule(
        repro.schedule(tensor, model, algorithm="gomcds", capacity=plan), tensor, model
    ).total
    assert free <= bound + 1e-9


@given(tensors())
@settings(max_examples=60, deadline=None)
def test_schedules_are_deterministic(case):
    tensor, _trace, model = case
    for name in ("scds", "lomcds", "gomcds", "grouped"):
        a = _solve(name, tensor, model)
        b = _solve(name, tensor, model)
        assert np.array_equal(a.centers, b.centers)


@given(tensors())
@settings(max_examples=60, deadline=None)
def test_grouping_never_worse_than_local_singletons(case):
    """Algorithm 3 accepts a merge only when cost does not increase, so the
    grouped schedule can't lose to per-window local centers evaluated with
    the same (no idle-hold) convention."""
    tensor, _trace, model = case
    from repro.core.grouping import partition_cost

    costs = model.reference_costs(tensor)
    grouped = grouped_schedule(tensor, model)
    for d in range(tensor.n_data):
        singles = [(w, w) for w in range(tensor.n_windows)]
        move = model.distances
        _c, baseline = partition_cost(costs[d], move, singles, "local")
        partition = grouped.meta["partitions"][d]
        _c, achieved = partition_cost(costs[d], move, partition, "local")
        assert achieved <= baseline + 1e-9
