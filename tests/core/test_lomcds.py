"""LOMCDS unit tests."""

import numpy as np
import pytest

from repro import schedule
from repro.core import CostModel, evaluate_schedule
from repro.grid import Mesh1D
from repro.mem import CapacityError, CapacityPlan
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts


def tensor_1d(counts):
    topo = Mesh1D(np.asarray(counts).shape[2])
    trace, windows = trace_from_counts(np.asarray(counts, dtype=np.int64), topo)
    return build_reference_tensor(trace, windows), CostModel(topo)


def test_centers_are_per_window_optima():
    tensor, model = tensor_1d([[[3, 0, 0, 0, 0], [0, 0, 0, 0, 2]]])
    sched = schedule(tensor, model, algorithm="lomcds")
    assert sched.centers[0].tolist() == [0, 4]


def test_reference_cost_is_minimal_per_window():
    # LOMCDS minimizes each window's reference cost by construction
    tensor, model = tensor_1d([[[1, 0, 2, 0, 0], [0, 1, 0, 0, 3]]])
    sched = schedule(tensor, model, algorithm="lomcds")
    costs = model.reference_costs(tensor)[0]
    for w in range(2):
        assert costs[w, sched.centers[0, w]] == costs[w].min()


def test_idle_window_holds_position():
    # datum referenced only in windows 0 and 2; window 1 must not move it
    tensor, model = tensor_1d([[[0, 0, 0, 0, 3], [0, 0, 0, 0, 0], [0, 0, 0, 0, 3]]])
    sched = schedule(tensor, model, algorithm="lomcds")
    assert sched.centers[0].tolist() == [4, 4, 4]
    assert sched.n_movements() == 0


def test_leading_idle_windows_backfill():
    # unreferenced until window 1: the initial placement is already there
    tensor, model = tensor_1d([[[0, 0, 0], [0, 0, 2]]])
    sched = schedule(tensor, model, algorithm="lomcds")
    assert sched.centers[0].tolist() == [2, 2]


def test_fully_unreferenced_datum_is_stable():
    tensor, model = tensor_1d([[[0, 0, 0], [0, 0, 0]], [[1, 0, 0], [1, 0, 0]]])
    sched = schedule(tensor, model, algorithm="lomcds")
    assert sched.n_movements() == 0


def test_capacity_respected_per_window():
    rng = np.random.default_rng(1)
    counts = rng.integers(0, 3, size=(12, 3, 6))
    topo = Mesh1D(6)
    trace, windows = trace_from_counts(counts, topo)
    tensor = build_reference_tensor(trace, windows)
    cap = CapacityPlan.uniform(6, 2)
    sched = schedule(tensor, CostModel(topo), algorithm="lomcds", capacity=cap)
    assert (sched.occupancy(6) <= 2).all()


def test_capacity_displacement_prefers_staying_put_when_idle():
    # datum 0 heavy at proc 0; datum 1 idle in window 1 should stay where
    # it was rather than be re-placed
    counts = [
        [[5, 0, 0], [5, 0, 0]],
        [[0, 0, 2], [0, 0, 0]],
    ]
    tensor, model = tensor_1d(counts)
    sched = schedule(
        tensor, model, algorithm="lomcds", capacity=CapacityPlan.uniform(3, 2)
    )
    assert sched.centers[1].tolist() == [2, 2]


def test_idle_window_eviction_when_held_slot_is_taken():
    # Tight capacity: one slot per processor.  Datum 0 (higher reference
    # volume, placed first) sits at proc 1 in window 0 and moves to
    # proc 0 in window 1.  Datum 1 lands at proc 0 in window 0 and is
    # idle in window 1 — it would hold position, but its slot is now
    # claimed by datum 0, so the `prev`-occupied eviction branch walks
    # the processor list and relocates it to proc 1.
    counts = [
        [[0, 5], [5, 0]],
        [[2, 0], [0, 0]],
    ]
    tensor, model = tensor_1d(counts)
    cap = CapacityPlan.uniform(2, 1)

    from repro.obs import Instrumentation

    instr = Instrumentation.started()
    sched = schedule(tensor, model, algorithm="lomcds", capacity=cap, instrument=instr)
    assert sched.centers[0].tolist() == [1, 0]
    # evicted: could not stay at proc 0 while idle
    assert sched.centers[1].tolist() == [0, 1]
    assert (sched.occupancy(2) <= 1).all()
    assert instr.metrics.counters["lomcds.idle_evictions"].value == 1
    assert instr.metrics.counters["lomcds.idle_holds"].value == 0

    # with room to spare the same datum holds position instead
    roomy = schedule(
        tensor, model, algorithm="lomcds", capacity=CapacityPlan.uniform(2, 2)
    )
    assert roomy.centers[1].tolist() == [0, 0]


def test_idle_hold_is_counted():
    # same shape but capacity 2: the idle window becomes a hold, and the
    # instrumentation counters flip accordingly
    counts = [
        [[0, 5], [5, 0]],
        [[2, 0], [0, 0]],
    ]
    tensor, model = tensor_1d(counts)

    from repro.obs import Instrumentation

    instr = Instrumentation.started()
    schedule(
        tensor,
        model,
        algorithm="lomcds",
        capacity=CapacityPlan.uniform(2, 2),
        instrument=instr,
    )
    assert instr.metrics.counters["lomcds.idle_holds"].value == 1
    assert instr.metrics.counters["lomcds.idle_evictions"].value == 0


def test_infeasible_raises():
    tensor, model = tensor_1d([[[1, 0]], [[0, 1]], [[1, 1]]])
    with pytest.raises(CapacityError):
        schedule(tensor, model, algorithm="lomcds", capacity=CapacityPlan.uniform(2, 1))


def test_single_window_equals_scds_cost(lu8_tensor, mesh44):
    from repro.trace import single_window

    model = CostModel(mesh44)
    merged = lu8_tensor.regroup(single_window(lu8_tensor.windows.n_steps))
    a = evaluate_schedule(
        schedule(merged, model, algorithm="lomcds"), merged, model
    ).total
    b = evaluate_schedule(
        schedule(merged, model, algorithm="scds"), merged, model
    ).total
    assert a == b


def test_deterministic(lu8_tensor, mesh44):
    model = CostModel(mesh44)
    assert np.array_equal(
        schedule(
            lu8_tensor, model, algorithm="lomcds"
        ).centers, schedule(
            lu8_tensor, model, algorithm="lomcds"
        ).centers
    )
