"""Cost-graph (Algorithm 2 DAG) tests: structure + oracle agreement."""

import networkx as nx
import numpy as np
import pytest

import repro
from repro.core import CostModel, shortest_center_path

from .costgraph import (
    SINK,
    SOURCE,
    build_cost_graph,
    gomcds_via_graph,
    solve_cost_graph,
)


class TestStructure:
    def test_node_and_edge_counts(self):
        window_costs = np.zeros((3, 4))
        graph = build_cost_graph(window_costs, np.zeros((4, 4)))
        # s, d, and 3*4 window nodes
        assert graph.number_of_nodes() == 2 + 12
        # s->layer0 (4) + 2 full bipartite layers (2*16) + layer2->d (4)
        assert graph.number_of_edges() == 4 + 32 + 4

    def test_edge_weights_match_definition(self):
        window_costs = np.array([[1.0, 2.0], [3.0, 4.0]])
        move = np.array([[0.0, 5.0], [5.0, 0.0]])
        graph = build_cost_graph(window_costs, move)
        assert graph[SOURCE][(0, 0)]["weight"] == 1.0
        assert graph[SOURCE][(0, 1)]["weight"] == 2.0
        # (0, j) -> (1, k): move[j, k] + window_costs[1, k]
        assert graph[(0, 0)][(1, 1)]["weight"] == 5.0 + 4.0
        assert graph[(0, 1)][(1, 1)]["weight"] == 0.0 + 4.0
        assert graph[(1, 0)][SINK]["weight"] == 0.0

    def test_disallowed_cells_omitted(self):
        allowed = np.array([[True, False], [True, True]])
        graph = build_cost_graph(np.zeros((2, 2)), np.zeros((2, 2)), allowed)
        assert (0, 1) not in graph
        assert (1, 1) in graph

    def test_is_dag(self):
        graph = build_cost_graph(np.zeros((4, 3)), np.zeros((3, 3)))
        assert nx.is_directed_acyclic_graph(graph)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            build_cost_graph(np.zeros((2, 3)), np.zeros((2, 2)))


class TestSolve:
    def test_path_length_and_cost(self):
        window_costs = np.array([[0.0, 9.0], [9.0, 0.0]])
        move = np.array([[0.0, 1.0], [1.0, 0.0]])
        graph = build_cost_graph(window_costs, move)
        centers, cost = solve_cost_graph(graph, n_windows=2)
        assert centers.tolist() == [0, 1]
        assert cost == 1.0

    def test_agrees_with_dp_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n_windows = int(rng.integers(1, 6))
            n_procs = int(rng.integers(2, 7))
            window_costs = rng.integers(0, 20, size=(n_windows, n_procs)).astype(float)
            move = np.abs(
                np.subtract.outer(np.arange(n_procs), np.arange(n_procs))
            ).astype(float)
            graph = build_cost_graph(window_costs, move)
            _g_centers, g_cost = solve_cost_graph(graph, n_windows)
            _d_centers, d_cost = shortest_center_path(window_costs, move)
            assert g_cost == pytest.approx(d_cost)

    def test_agrees_with_dp_under_masks(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            n_windows, n_procs = 4, 5
            window_costs = rng.integers(0, 10, size=(n_windows, n_procs)).astype(float)
            move = np.abs(
                np.subtract.outer(np.arange(n_procs), np.arange(n_procs))
            ).astype(float)
            allowed = rng.random((n_windows, n_procs)) > 0.3
            allowed[:, 0] = True  # keep it feasible
            graph = build_cost_graph(window_costs, move, allowed)
            _g, g_cost = solve_cost_graph(graph, n_windows)
            _d, d_cost = shortest_center_path(window_costs, move, allowed)
            assert g_cost == pytest.approx(d_cost)

    def test_gomcds_via_graph_matches_scheduler(self, drift, mesh44):
        from repro.core import evaluate_schedule

        tensor = drift.reference_tensor()
        model = CostModel(mesh44)
        schedule = repro.schedule(tensor, model, algorithm="gomcds")
        for d in (0, 3, 7):
            centers, cost = gomcds_via_graph(tensor, model, d)
            single = type(tensor)(
                counts=tensor.counts[d : d + 1], windows=tensor.windows
            )
            dp_cost = evaluate_schedule(
                schedule.restricted_to(np.array([d])), single, model
            ).total
            assert cost == pytest.approx(dp_cost)
