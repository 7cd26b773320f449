"""Topology unit tests: ids, coordinates, metrics, neighbors."""

import numpy as np
import pytest

from repro.grid import Mesh1D, Mesh2D, Mesh3D, Torus2D, WeightedMesh2D


class TestMesh2D:
    def test_n_procs(self):
        assert Mesh2D(4, 4).n_procs == 16
        assert Mesh2D(2, 3).n_procs == 6
        assert len(Mesh2D(3, 5)) == 15

    def test_pid_coords_roundtrip(self, mesh44):
        for pid in mesh44.iter_pids():
            assert mesh44.pid(*mesh44.coords(pid)) == pid

    def test_row_major_layout(self, mesh44):
        assert mesh44.pid(0, 0) == 0
        assert mesh44.pid(0, 3) == 3
        assert mesh44.pid(1, 0) == 4
        assert mesh44.coords(7) == (1, 3)

    def test_manhattan_distance(self, mesh44):
        assert mesh44.distance(mesh44.pid(0, 0), mesh44.pid(3, 3)) == 6
        assert mesh44.distance(mesh44.pid(1, 2), mesh44.pid(1, 2)) == 0
        assert mesh44.distance(mesh44.pid(2, 0), mesh44.pid(0, 1)) == 3

    def test_distance_matrix_symmetric_zero_diag(self, mesh44):
        dist = mesh44.distance_matrix()
        assert dist.shape == (16, 16)
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == 0)
        # off-diagonal entries are positive
        off = dist[~np.eye(16, dtype=bool)]
        assert off.min() >= 1

    def test_triangle_inequality(self, mesh23):
        dist = mesh23.distance_matrix()
        n = mesh23.n_procs
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert dist[a, c] <= dist[a, b] + dist[b, c]

    def test_neighbors_interior_and_corner(self, mesh44):
        corner = mesh44.pid(0, 0)
        assert sorted(mesh44.neighbors(corner)) == [mesh44.pid(0, 1), mesh44.pid(1, 0)]
        interior = mesh44.pid(1, 1)
        assert len(mesh44.neighbors(interior)) == 4

    def test_all_coords_matches_coords(self, mesh23):
        coords = mesh23.all_coords()
        for pid in mesh23.iter_pids():
            assert tuple(coords[pid]) == mesh23.coords(pid)

    def test_invalid_extents(self):
        with pytest.raises(ValueError):
            Mesh2D(0, 4)
        with pytest.raises(ValueError):
            Mesh2D(4, -1)

    def test_pid_bounds_checked(self, mesh44):
        with pytest.raises(ValueError):
            mesh44.coords(16)
        with pytest.raises(ValueError):
            mesh44.pid(4, 0)
        with pytest.raises(ValueError):
            mesh44.pid(0, 0, 0)
        with pytest.raises(ValueError):
            mesh44.distance(0, 99)


class TestMesh1D:
    def test_distance_is_absolute_difference(self, line8):
        dist = line8.distance_matrix()
        assert dist[0, 7] == 7
        assert dist[3, 5] == 2

    def test_neighbors_are_adjacent(self, line8):
        assert line8.neighbors(0) == [1]
        assert line8.neighbors(4) == [3, 5]

    def test_shape(self, line8):
        assert line8.shape == (8,)
        assert line8.n_procs == 8


class TestTorus2D:
    def test_wraparound_distance(self, torus44):
        # opposite corners are 2 hops apart on a 4x4 torus (1 wrap each axis)
        assert torus44.distance(torus44.pid(0, 0), torus44.pid(3, 3)) == 2
        assert torus44.distance(torus44.pid(0, 0), torus44.pid(2, 2)) == 4

    def test_torus_never_longer_than_mesh(self):
        mesh, torus = Mesh2D(3, 5), Torus2D(3, 5)
        assert np.all(torus.distance_matrix() <= mesh.distance_matrix())

    def test_every_node_has_four_neighbors(self, torus44):
        for pid in torus44.iter_pids():
            assert len(torus44.neighbors(pid)) == 4

    def test_small_torus_neighbor_dedup(self):
        # On a 2-wide torus both directions reach the same node: distance 1.
        t = Torus2D(2, 2)
        assert len(t.neighbors(0)) == 2


class TestAxisMetric:
    """``distance_matrix()`` is derived from the per-axis factors."""

    @staticmethod
    def explicit(topology, per_axis):
        coords = topology.all_coords()
        n = topology.n_procs
        out = np.zeros((n, n), dtype=np.int64)
        for p in range(n):
            for q in range(n):
                out[p, q] = sum(
                    per_axis(axis, abs(int(a) - int(b)))
                    for axis, (a, b) in enumerate(zip(coords[p], coords[q]))
                )
        return out

    def test_torus(self):
        topo = Torus2D(3, 5)
        expected = self.explicit(
            topo, lambda axis, d: min(d, topo.shape[axis] - d)
        )
        assert topo.distance_matrix().dtype == np.int64
        assert np.array_equal(topo.distance_matrix(), expected)

    def test_weighted_mesh(self):
        topo = WeightedMesh2D(2, 3, 2, 3)
        expected = self.explicit(topo, lambda axis, d: (2, 3)[axis] * d)
        assert np.array_equal(topo.distance_matrix(), expected)

    def test_mesh3d(self):
        topo = Mesh3D(2, 2, 3)
        expected = self.explicit(topo, lambda axis, d: d)
        assert np.array_equal(topo.distance_matrix(), expected)

    @pytest.mark.parametrize(
        "topo",
        [Mesh1D(4), Mesh2D(2, 3), Torus2D(3, 5), WeightedMesh2D(2, 3, 2, 3),
         Mesh3D(2, 2, 3)],
        ids=repr,
    )
    def test_one_square_int64_factor_per_axis(self, topo):
        factors = topo.axis_distances()
        assert len(factors) == len(topo.shape)
        for factor, extent in zip(factors, topo.shape):
            assert factor.shape == (extent, extent)
            assert factor.dtype == np.int64
