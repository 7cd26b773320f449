"""Structural property tests: windows, regrouping, evaluator consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro
from repro.core import CostModel, Schedule, evaluate_schedule, per_datum_costs
from repro.grid import Mesh2D
from repro.trace import (
    build_reference_tensor,
    single_window,
    windows_by_step_count,
    windows_from_boundaries,
)
from repro.workloads import trace_from_counts

TOPO = Mesh2D(2, 3)


@st.composite
def instances(draw, max_data=4, max_windows=5):
    n_data = draw(st.integers(1, max_data))
    n_windows = draw(st.integers(1, max_windows))
    counts = draw(
        arrays(
            dtype=np.int64,
            shape=(n_data, n_windows, TOPO.n_procs),
            elements=st.integers(0, 3),
        )
    )
    trace, windows = trace_from_counts(counts, TOPO)
    return build_reference_tensor(trace, windows), trace


@given(instances())
@settings(max_examples=60, deadline=None)
def test_regroup_to_single_window_preserves_mass(case):
    tensor, _trace = case
    merged = tensor.regroup(single_window(tensor.windows.n_steps))
    assert merged.total_references() == tensor.total_references()
    assert np.array_equal(
        merged.counts.sum(axis=1), tensor.counts.sum(axis=1)
    )


@given(instances())
@settings(max_examples=60, deadline=None)
def test_scds_cost_is_window_partition_invariant(case):
    """A static schedule's total cost does not depend on how the step
    axis is windowed (no movement, additive references)."""
    tensor, trace = case
    model = CostModel(TOPO)
    schedule = repro.schedule(tensor, model, algorithm="scds")
    fine_cost = evaluate_schedule(schedule, tensor, model).total
    merged = build_reference_tensor(trace, single_window(trace.n_steps))
    static = Schedule.static(schedule.initial_placement(), merged.windows)
    coarse_cost = evaluate_schedule(static, merged, model).total
    assert fine_cost == pytest.approx(coarse_cost)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_per_datum_costs_sum_to_breakdown(case):
    tensor, _trace = case
    model = CostModel(TOPO)
    rng = np.random.default_rng(tensor.n_data)
    centers = rng.integers(
        0, TOPO.n_procs, size=(tensor.n_data, tensor.n_windows)
    )
    schedule = Schedule(centers=centers, windows=tensor.windows)
    ref, move = per_datum_costs(schedule, tensor, model)
    breakdown = evaluate_schedule(schedule, tensor, model)
    assert ref.sum() == pytest.approx(breakdown.reference_cost)
    assert move.sum() == pytest.approx(breakdown.movement_cost)


@given(st.integers(1, 60), st.lists(st.integers(0, 59), max_size=8))
@settings(max_examples=80, deadline=None)
def test_windows_from_boundaries_always_valid(n_steps, boundaries):
    ws = windows_from_boundaries(boundaries, n_steps)
    assert ws.starts[0] == 0
    assert ws.sizes().sum() == n_steps
    assert (ws.sizes() > 0).all()


@given(st.integers(2, 40), st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_coarser_uniform_windows_nest(n_steps, a, b):
    """windows_by_step_count(k*a) boundaries are a subset of (a)'s when the
    nominal sizes divide — the nesting the window-size ablation relies on."""
    fine = windows_by_step_count(n_steps, a)
    coarse = windows_by_step_count(n_steps, a * (b + 1))
    fine_starts = set(fine.starts.tolist())
    # every coarse start that is also a multiple of a must be a fine start
    for s in coarse.starts.tolist():
        if s % a == 0 and s < max(fine_starts) + 1:
            assert s in fine_starts or s == 0
