"""GOMCDS (Algorithm 2) unit tests."""

import tracemalloc

import numpy as np
import pytest

from repro import schedule
from repro.core import CostModel, evaluate_schedule, shortest_center_path
from repro.grid import Mesh1D, Mesh2D
from repro.mem import CapacityError, CapacityPlan
from repro.trace import build_reference_tensor
from repro.workloads import benchmark, trace_from_counts


def tensor_1d(counts):
    topo = Mesh1D(np.asarray(counts).shape[2])
    trace, windows = trace_from_counts(np.asarray(counts, dtype=np.int64), topo)
    return build_reference_tensor(trace, windows), CostModel(topo)


class TestShortestCenterPath:
    def test_single_window(self):
        path, cost = shortest_center_path(
            np.array([[3.0, 1.0, 2.0]]), np.zeros((3, 3))
        )
        assert path.tolist() == [1]
        assert cost == 1.0

    def test_weighs_movement_against_reference(self):
        # window costs make moving to proc 2 save 1 ref unit but cost 2 hops
        window_costs = np.array([[0.0, 5.0, 9.0], [2.0, 5.0, 1.0]])
        move = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        path, cost = shortest_center_path(window_costs, move)
        # staying at 0: 0 + 2 = 2; moving 0->2: 0 + 2 + 1 = 3 -> stay
        assert path.tolist() == [0, 0]
        assert cost == 2.0

    def test_movement_wins_when_cheap(self):
        window_costs = np.array([[0.0, 9.0, 9.0], [9.0, 9.0, 0.0]])
        move = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        path, cost = shortest_center_path(window_costs, move)
        assert path.tolist() == [0, 2]
        assert cost == 2.0

    def test_disallowed_cells_masked(self):
        window_costs = np.zeros((2, 2))
        move = np.array([[0, 1], [1, 0]], dtype=float)
        allowed = np.array([[True, False], [False, True]])
        path, cost = shortest_center_path(window_costs, move, allowed)
        assert path.tolist() == [0, 1]
        assert cost == 1.0

    def test_infeasible_layer_raises(self):
        allowed = np.array([[True, True], [False, False]])
        with pytest.raises(CapacityError):
            shortest_center_path(
                np.zeros((2, 2)), np.zeros((2, 2)), allowed
            )


class TestGomcds:
    def test_beats_or_matches_scds(self, lu8_tensor, mesh44):
        model = CostModel(mesh44)
        go = evaluate_schedule(
            schedule(lu8_tensor, model, algorithm="gomcds"), lu8_tensor, model
        ).total
        sc = evaluate_schedule(
            schedule(lu8_tensor, model, algorithm="scds"), lu8_tensor, model
        ).total
        assert go <= sc

    def test_beats_or_matches_lomcds_realized_cost(self, lu8_tensor, mesh44):
        model = CostModel(mesh44)
        go = evaluate_schedule(
            schedule(lu8_tensor, model, algorithm="gomcds"), lu8_tensor, model
        ).total
        lo = evaluate_schedule(
            schedule(lu8_tensor, model, algorithm="lomcds"), lu8_tensor, model
        ).total
        assert go <= lo

    def test_ignores_weak_remote_pull(self):
        # one faraway reference is not worth a round trip
        tensor, model = tensor_1d([[[5, 0, 0, 0, 0], [0, 0, 0, 0, 1], [5, 0, 0, 0, 0]]])
        sched = schedule(tensor, model, algorithm="gomcds")
        assert sched.centers[0].tolist() == [0, 0, 0]

    def test_follows_strong_remote_pull(self):
        tensor, model = tensor_1d([[[5, 0, 0, 0, 0], [0, 0, 0, 0, 9], [5, 0, 0, 0, 0]]])
        sched = schedule(tensor, model, algorithm="gomcds")
        assert sched.centers[0].tolist() == [0, 4, 0]

    def test_vectorized_matches_sequential(self, drift, mesh44):
        """The scheduled free solve must equal standalone shortest paths."""
        tensor = drift.reference_tensor()
        model = CostModel(mesh44)
        fast = schedule(tensor, model, algorithm="gomcds")
        dist = model.distances.astype(float)
        costs = model.reference_costs(tensor)
        for d in range(tensor.n_data):
            path, cost = shortest_center_path(costs[d], dist)
            got = evaluate_schedule(
                fast.restricted_to(np.array([d])),
                # build a single-datum tensor view
                type(tensor)(counts=tensor.counts[d : d + 1], windows=tensor.windows),
                model,
            ).total
            assert got == pytest.approx(cost)

    def test_capacity_respected(self, mesh44):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 3, size=(40, 4, 16))
        from repro.grid import Mesh2D

        topo = Mesh2D(4, 4)
        trace, windows = trace_from_counts(counts, topo)
        tensor = build_reference_tensor(trace, windows)
        cap = CapacityPlan.uniform(16, 3)
        sched = schedule(tensor, CostModel(topo), algorithm="gomcds", capacity=cap)
        assert (sched.occupancy(16) <= 3).all()

    def test_infeasible_raises(self):
        tensor, model = tensor_1d([[[1, 0]], [[0, 1]], [[1, 1]]])
        with pytest.raises(CapacityError):
            schedule(
                tensor, model, algorithm="gomcds", capacity=CapacityPlan.uniform(2, 1)
            )

    def test_uniform_volume_scales_cost_not_centers(self):
        # volume multiplies reference and movement alike, so the optimal
        # path is volume-invariant and the cost scales linearly
        counts = [[[3, 0, 0, 0, 0], [0, 0, 0, 0, 3]]]
        topo = Mesh1D(5)
        trace, windows = trace_from_counts(np.asarray(counts, dtype=np.int64), topo)
        tensor = build_reference_tensor(trace, windows)
        unit_model = CostModel(topo)
        heavy_model = CostModel(topo, volumes=np.array([100.0]))
        light = schedule(tensor, unit_model, algorithm="gomcds")
        heavy = schedule(tensor, heavy_model, algorithm="gomcds")
        assert np.array_equal(light.centers, heavy.centers)
        assert evaluate_schedule(heavy, tensor, heavy_model).total == pytest.approx(
            100.0 * evaluate_schedule(light, tensor, unit_model).total
        )

    def test_deterministic(self, lu8_tensor, mesh44):
        model = CostModel(mesh44)
        a = schedule(lu8_tensor, model, algorithm="gomcds")
        b = schedule(lu8_tensor, model, algorithm="gomcds")
        assert np.array_equal(a.centers, b.centers)


@pytest.mark.parametrize(("certify", "max_ratio"), [(False, 2.0), (True, 3.0)])
def test_dp_peak_memory_is_linear_in_the_tensor(certify, max_ratio):
    # The solve holds the (D, W, m) cost tensor (and, certified, the
    # potential tables of the same shape) but no per-window (D, m, m)
    # temporary: the traced peak stays within a small multiple of the
    # reference tensor itself.
    mesh = Mesh2D(8, 8)
    tensor = benchmark(1, 16, mesh).reference_tensor()
    model = CostModel(mesh)
    tracemalloc.start()
    try:
        schedule(tensor, model, algorithm="gomcds", certify=certify)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max_ratio * tensor.counts.nbytes


@pytest.mark.parametrize("capacity", [False, True], ids=["free", "capacity"])
def test_single_datum_solve_allocates_no_dense_temporary(capacity):
    # one 16x16 datum is solved with per-axis passes and column
    # backtracking: nothing the size of the (m, m) distance matrix exists
    mesh = Mesh2D(16, 16)
    m = mesh.n_procs
    counts = np.random.default_rng(5).integers(0, 3, size=(1, 8, m))
    trace, windows = trace_from_counts(counts, mesh)
    tensor = build_reference_tensor(trace, windows)
    model = CostModel(mesh)
    plan = CapacityPlan.paper_rule(1, m) if capacity else None
    tracemalloc.start()
    try:
        schedule(tensor, model, algorithm="gomcds", capacity=plan, certify=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * m * 8


def test_capacity_walk_reports_claimed_and_resolved_paths(mesh44):
    from repro.obs import Instrumentation

    tensor = benchmark(4, 16, mesh44).reference_tensor()
    model = CostModel(mesh44)
    capacity = CapacityPlan.paper_rule(tensor.n_data, mesh44.n_procs)
    instr = Instrumentation.started()
    capped = schedule(
        tensor, model, algorithm="gomcds", capacity=capacity, instrument=instr
    )
    (walk,) = [s for s in instr.tracer.spans if s.name == "gomcds.capacity_walk"]
    claimed, resolved = walk.attrs["claimed_free"], walk.attrs["resolved"]
    assert claimed + resolved == tensor.n_data
    assert claimed > 0 and resolved > 0
    assert instr.metrics.counters["gomcds.masked_resolves"].value == resolved
    # only a re-solved datum can leave its free-optimal path
    free = schedule(tensor, model, algorithm="gomcds")
    moved = (capped.centers != free.centers).any(axis=1).sum()
    assert moved <= resolved
