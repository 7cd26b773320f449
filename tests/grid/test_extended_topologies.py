"""Mesh3D and WeightedMesh2D tests."""

import numpy as np
import pytest

import repro
from repro.core import CostModel, evaluate_schedule
from repro.grid import Mesh2D, Mesh3D, WeightedMesh2D, XYRouter


class TestMesh3D:
    def test_shape_and_count(self):
        topo = Mesh3D(2, 3, 4)
        assert topo.n_procs == 24
        assert topo.shape == (2, 3, 4)

    def test_distance(self):
        topo = Mesh3D(2, 2, 2)
        assert topo.distance(topo.pid(0, 0, 0), topo.pid(1, 1, 1)) == 3
        assert topo.distance(topo.pid(1, 0, 1), topo.pid(1, 0, 1)) == 0

    def test_neighbors_interior(self):
        topo = Mesh3D(3, 3, 3)
        center = topo.pid(1, 1, 1)
        assert len(topo.neighbors(center)) == 6

    def test_router_traverses_all_axes(self):
        topo = Mesh3D(2, 2, 2)
        router = XYRouter(topo)
        path = router.route(topo.pid(0, 0, 0), topo.pid(1, 1, 1))
        assert len(path) - 1 == 3
        dist = topo.distance_matrix()
        for a, b in zip(path[:-1], path[1:]):
            assert dist[a, b] == 1

    def test_schedulers_run_on_3d(self):
        from repro.trace import build_reference_tensor
        from repro.workloads import trace_from_counts

        rng = np.random.default_rng(71)
        topo = Mesh3D(2, 2, 2)
        counts = rng.integers(0, 3, size=(6, 3, 8))
        trace, windows = trace_from_counts(counts, topo)
        tensor = build_reference_tensor(trace, windows)
        model = CostModel(topo)
        go = evaluate_schedule(
            repro.schedule(tensor, model, algorithm="gomcds"), tensor, model
        ).total
        sc = evaluate_schedule(
            repro.schedule(tensor, model, algorithm="scds"), tensor, model
        ).total
        assert go <= sc

    def test_validation(self):
        with pytest.raises(ValueError):
            Mesh3D(0, 2, 2)


class TestWeightedMesh2D:
    def test_weighted_distance(self):
        topo = WeightedMesh2D(3, 3, row_weight=3, col_weight=1)
        a, b = topo.pid(0, 0), topo.pid(2, 2)
        assert topo.distance(a, b) == 3 * 2 + 1 * 2

    def test_unit_weights_match_plain_mesh(self):
        weighted = WeightedMesh2D(3, 4)
        plain = Mesh2D(3, 4)
        assert np.array_equal(weighted.distance_matrix(), plain.distance_matrix())

    def test_neighbors_are_physical_adjacency(self):
        topo = WeightedMesh2D(3, 3, row_weight=5, col_weight=1)
        assert len(topo.neighbors(topo.pid(1, 1))) == 4

    def test_scheduler_prefers_cheap_axis(self):
        """With expensive vertical wires, the optimal center of a
        two-point demand moves along the cheap axis."""
        from repro.trace import build_reference_tensor
        from repro.workloads import trace_from_counts

        topo = WeightedMesh2D(3, 3, row_weight=10, col_weight=1)
        counts = np.zeros((1, 1, 9), dtype=np.int64)
        counts[0, 0, topo.pid(0, 0)] = 1
        counts[0, 0, topo.pid(2, 0)] = 1
        counts[0, 0, topo.pid(0, 2)] = 3
        trace, windows = trace_from_counts(counts, topo)
        tensor = build_reference_tensor(trace, windows)
        schedule = repro.schedule(tensor, CostModel(topo), algorithm="scds")
        # heavy weighting of rows pins the center onto row 0
        assert topo.coords(int(schedule.centers[0, 0]))[0] == 0

    def test_router_paths_still_mesh_links(self):
        topo = WeightedMesh2D(3, 3, row_weight=7, col_weight=2)
        router = XYRouter(topo)
        path = router.route(topo.pid(0, 0), topo.pid(2, 2))
        assert len(path) - 1 == 4  # physical hops, not weighted distance

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WeightedMesh2D(2, 2, row_weight=0)
        with pytest.raises(ValueError):
            WeightedMesh2D(2, 2, col_weight=-1)
