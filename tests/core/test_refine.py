"""Local-search refinement tests."""

import numpy as np
import pytest

import repro
from repro.core import CostModel, Schedule, evaluate_schedule, refine_schedule
from repro.grid import Mesh1D, Mesh2D
from repro.mem import CapacityPlan
from repro.trace import build_reference_tensor
from repro.workloads import trace_from_counts


def tensor_1d(counts):
    topo = Mesh1D(np.asarray(counts).shape[2])
    trace, windows = trace_from_counts(np.asarray(counts, dtype=np.int64), topo)
    return build_reference_tensor(trace, windows), CostModel(topo)


def test_never_degrades():
    rng = np.random.default_rng(51)
    topo = Mesh2D(3, 3)
    counts = rng.integers(0, 4, size=(20, 4, 9))
    trace, windows = trace_from_counts(counts, topo)
    tensor = build_reference_tensor(trace, windows)
    model = CostModel(topo)
    cap = CapacityPlan.uniform(9, 3)
    for algorithm in ("scds", "gomcds"):
        schedule = repro.schedule(
            tensor, model, algorithm=algorithm, capacity=cap
        )
        result = refine_schedule(schedule, tensor, model, cap)
        assert result.final_cost <= result.initial_cost
        assert result.initial_cost == pytest.approx(
            evaluate_schedule(schedule, tensor, model).total
        )
        assert result.final_cost == pytest.approx(
            evaluate_schedule(result.schedule, tensor, model).total
        )


def test_unconstrained_optimum_is_a_fixed_point():
    rng = np.random.default_rng(53)
    topo = Mesh2D(3, 3)
    counts = rng.integers(0, 4, size=(10, 4, 9))
    trace, windows = trace_from_counts(counts, topo)
    tensor = build_reference_tensor(trace, windows)
    model = CostModel(topo)
    schedule = repro.schedule(tensor, model, algorithm="gomcds")
    result = refine_schedule(schedule, tensor, model)
    # already globally optimal per datum: nothing to improve
    assert result.final_cost == result.initial_cost
    assert result.relocations == 0 and result.swaps == 0


def test_fixes_an_obviously_bad_placement_via_swap():
    tensor, model = tensor_1d([[[5, 0, 0]], [[0, 0, 5]]])
    bad = Schedule(centers=np.array([[2], [0]]), windows=tensor.windows)
    # the middle processor has no memory, so relocation is impossible and
    # only the slot trade fixes the crossed placement
    plan = CapacityPlan(np.array([1, 0, 1]))
    result = refine_schedule(bad, tensor, model, plan)
    assert result.final_cost == 0.0
    assert result.swaps >= 1
    assert result.schedule.centers[:, 0].tolist() == [0, 2]


def test_relocation_into_free_slot():
    tensor, model = tensor_1d([[[5, 0, 0]]])
    bad = Schedule(centers=np.array([[2]]), windows=tensor.windows)
    result = refine_schedule(bad, tensor, model, CapacityPlan.uniform(3, 1))
    assert result.final_cost == 0.0
    assert result.relocations == 1


def test_capacity_preserved():
    rng = np.random.default_rng(57)
    topo = Mesh2D(3, 3)
    counts = rng.integers(0, 4, size=(18, 3, 9))
    trace, windows = trace_from_counts(counts, topo)
    tensor = build_reference_tensor(trace, windows)
    model = CostModel(topo)
    cap = CapacityPlan.uniform(9, 2)
    result = refine_schedule(
        repro.schedule(tensor, model, algorithm="gomcds", capacity=cap),
        tensor,
        model,
        cap,
    )
    occ = result.schedule.occupancy(9)
    assert (occ <= 2).all()


def test_movement_terms_accounted():
    # relocating in one window must charge the adjacent movement edges:
    # the best single fix keeps the datum's path consistent
    tensor, model = tensor_1d(
        [[[5, 0, 0, 0, 0], [5, 0, 0, 0, 0], [5, 0, 0, 0, 0]]]
    )
    zigzag = Schedule(centers=np.array([[0, 4, 0]]), windows=tensor.windows)
    result = refine_schedule(zigzag, tensor, model)
    assert result.schedule.centers[0].tolist() == [0, 0, 0]
    assert result.final_cost == 0.0


def test_rejects_overfull_input():
    tensor, model = tensor_1d([[[1, 0]], [[0, 1]], [[1, 1]]])
    bad = Schedule(
        centers=np.zeros((3, 1), dtype=np.int64), windows=tensor.windows
    )
    with pytest.raises(ValueError):
        refine_schedule(bad, tensor, model, CapacityPlan.uniform(2, 2))


def test_rejects_mismatched_tensor(tiny_tensor, mesh23):
    model = CostModel(mesh23)
    wrong = Schedule(
        centers=np.zeros((5, 3), dtype=np.int64), windows=tiny_tensor.windows
    )
    with pytest.raises(ValueError):
        refine_schedule(wrong, tiny_tensor, model)


def test_deterministic():
    rng = np.random.default_rng(59)
    topo = Mesh2D(3, 3)
    counts = rng.integers(0, 4, size=(12, 3, 9))
    trace, windows = trace_from_counts(counts, topo)
    tensor = build_reference_tensor(trace, windows)
    model = CostModel(topo)
    cap = CapacityPlan.uniform(9, 2)
    a = refine_schedule(
        repro.schedule(tensor, model, algorithm="gomcds", capacity=cap),
        tensor,
        model,
        cap,
    )
    b = refine_schedule(
        repro.schedule(tensor, model, algorithm="gomcds", capacity=cap),
        tensor,
        model,
        cap,
    )
    assert np.array_equal(a.schedule.centers, b.schedule.centers)


def test_method_label(lu8_tensor, mesh44):
    model = CostModel(mesh44)
    result = refine_schedule(
        repro.schedule(lu8_tensor, model, algorithm="scds"), lu8_tensor, model
    )
    assert result.schedule.method == "SCDS+refine"
